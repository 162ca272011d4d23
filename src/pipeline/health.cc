#include "pipeline/health.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace fairco2::pipeline
{

namespace
{

/** Escape a string for a JSON literal (quotes, backslash, control). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

const char *
boolName(bool value)
{
    return value ? "true" : "false";
}

} // namespace

const char *
stageStatusName(StageStatus status)
{
    switch (status) {
      case StageStatus::Skipped:
        return "skipped";
      case StageStatus::Ok:
        return "ok";
      case StageStatus::Degraded:
        return "degraded";
      case StageStatus::Failed:
        return "failed";
    }
    return "unknown";
}

const StageHealth *
RunHealth::find(const std::string &name) const
{
    for (const auto &stage : stages) {
        if (stage.name == name)
            return &stage;
    }
    return nullptr;
}

std::string
RunHealth::toJson() const
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"ok\": " << boolName(ok) << ",\n";
    out << "  \"produced\": " << boolName(produced) << ",\n";
    out << "  \"degraded\": " << boolName(degraded) << ",\n";
    out << "  \"interrupted\": " << boolName(interrupted) << ",\n";
    out << "  \"exit_code\": " << exitCode << ",\n";
    out << "  \"fault_plan\": \"" << jsonEscape(faultPlan) << "\",\n";
    out << "  \"stages\": [";
    for (std::size_t i = 0; i < stages.size(); ++i) {
        const auto &s = stages[i];
        out << (i == 0 ? "\n" : ",\n");
        out << "    {\n";
        out << "      \"name\": \"" << jsonEscape(s.name) << "\",\n";
        out << "      \"status\": \"" << stageStatusName(s.status)
            << "\",\n";
        out << "      \"note\": \"" << jsonEscape(s.note) << "\"\n";
        out << "    }";
    }
    out << (stages.empty() ? "" : "\n  ") << "],\n";
    out << "  \"schema_version\": 2\n";
    out << "}\n";
    return out.str();
}

void
writeRunHealth(const std::string &path, const RunHealth &health)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw std::runtime_error("cannot open '" + tmp +
                                     "' for writing");
        out << health.toJson();
        if (!out)
            throw std::runtime_error("short write to '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("cannot rename '" + tmp + "' to '" +
                                 path + "'");
}

} // namespace fairco2::pipeline
