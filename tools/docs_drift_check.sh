#!/bin/sh
# Docs-drift gate: the CLI's documented flag surface must match the
# binary's real one.
#
#   tools/docs_drift_check.sh <fairco2-binary> [repo-root]
#
# Three checks, all on `--flag` tokens:
#
#  1. tests/golden/help.txt mentions no flag the binary's --help does
#     not expose (the byte-exact diff lives in the cli_help_golden
#     ctest; this catches a stale fixture even when that test is
#     skipped);
#  2. every backticked flag in README.md's flag tables exists on the
#     binary (or in the small allowlist of bench/harness-only flags);
#  3. every backticked flag in docs/ARCHITECTURE.md and
#     docs/SIGNAL_PIPELINE.md exists the same way.
#
# Exit 1 on any drift, with the offending tokens named.

set -eu

BIN=${1:?usage: docs_drift_check.sh <fairco2-binary> [repo-root]}
ROOT=${2:-$(dirname "$0")/..}

if [ ! -x "$BIN" ]; then
    echo "docs_drift_check: binary '$BIN' not found or not executable" >&2
    exit 1
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Flags only bench binaries / test harnesses expose; they are
# documented in README but are not part of the fairco2 CLI surface.
cat > "$WORK/allow.txt" <<'EOF'
--help
--trials
--smoke
--days
--readers
--checkpoint
--resume
--chunk-trials
--checkpoint-compress
--stop-after-chunks
EOF

# 1. The binary's real flag surface, across every subcommand.
: > "$WORK/live_raw.txt"
for cmd in signal bill forecast run serve; do
    "$BIN" "$cmd" --help >> "$WORK/live_raw.txt"
done
"$BIN" --help >> "$WORK/live_raw.txt"
grep -o -- '--[a-z][a-z0-9-]*' "$WORK/live_raw.txt" \
    | sort -u > "$WORK/live.txt"
sort -u "$WORK/live.txt" "$WORK/allow.txt" > "$WORK/known.txt"

fail=0

check_file() {
    # $1: file to scan, $2: extraction pattern description
    file=$1
    [ -f "$file" ] || { echo "docs_drift_check: missing $file" >&2
                        fail=1; return; }
    grep -o -- '`--[a-z][a-z0-9-]*' "$file" | tr -d '`' \
        | sort -u > "$WORK/mentioned.txt" || true
    bad=$(comm -23 "$WORK/mentioned.txt" "$WORK/known.txt" || true)
    if [ -n "$bad" ]; then
        echo "docs_drift_check: $file mentions flags the fairco2" \
             "binary does not expose:" >&2
        echo "$bad" >&2
        fail=1
    fi
}

# 2. The pinned --help fixture cannot claim flags the binary lost.
grep -o -- '--[a-z][a-z0-9-]*' "$ROOT/tests/golden/help.txt" \
    | sort -u > "$WORK/golden.txt"
stale=$(comm -23 "$WORK/golden.txt" "$WORK/live.txt" || true)
if [ -n "$stale" ]; then
    echo "docs_drift_check: tests/golden/help.txt mentions flags" \
         "the binary does not expose:" >&2
    echo "$stale" >&2
    fail=1
fi

# 3. The prose docs.
check_file "$ROOT/README.md"
check_file "$ROOT/docs/ARCHITECTURE.md"
check_file "$ROOT/docs/SIGNAL_PIPELINE.md"

if [ "$fail" -ne 0 ]; then
    echo "docs_drift_check: FAILED" >&2
    exit 1
fi
echo "docs_drift_check: documented flags all exist on the binary"
