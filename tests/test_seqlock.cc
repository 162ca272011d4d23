/**
 * @file
 * Torture tests for parallel::SnapshotCell, the seqlock-style
 * double-buffered cell behind the live-signal server's wait-free
 * snapshot reads. A writer republishes payloads whose internal
 * invariant a torn read would break while reader threads copy them
 * out continuously; TSan runs this binary under the `server` label,
 * so the memory ordering is exercised as well as the torn-read
 * protection.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/parallel.hh"

namespace fairco2::parallel
{
namespace
{

/** Payload whose words must stay mutually consistent: word k holds
 *  base + k, so any torn read mixes two bases and trips the check. */
struct Laddered
{
    std::uint64_t words[9] = {};

    void
    fill(std::uint64_t base)
    {
        for (std::uint64_t k = 0; k < 9; ++k)
            words[k] = base + k;
    }

    bool
    consistent() const
    {
        for (std::uint64_t k = 1; k < 9; ++k)
            if (words[k] != words[0] + k)
                return false;
        return true;
    }
};

TEST(SnapshotCell, DefaultConstructedReadsZeroInitializedPayload)
{
    const SnapshotCell<Laddered> cell;
    const Laddered out = cell.read();
    for (std::uint64_t k = 0; k < 9; ++k)
        EXPECT_EQ(out.words[k], 0u);
    EXPECT_EQ(cell.publishes(), 0u);
}

TEST(SnapshotCell, ReadReturnsTheLatestPublish)
{
    SnapshotCell<Laddered> cell;
    Laddered value;
    for (std::uint64_t base = 1; base <= 5; ++base) {
        value.fill(base * 100);
        cell.publish(value);
        EXPECT_EQ(cell.read().words[0], base * 100);
    }
    EXPECT_EQ(cell.publishes(), 5u);
}

TEST(SnapshotCell, OddSizedPayloadRoundTrips)
{
    // 12 bytes: exercises the partial trailing word.
    struct Odd
    {
        std::uint32_t a = 0, b = 0, c = 0;
    };
    SnapshotCell<Odd> cell;
    cell.publish(Odd{7, 11, 13});
    const Odd out = cell.read();
    EXPECT_EQ(out.a, 7u);
    EXPECT_EQ(out.b, 11u);
    EXPECT_EQ(out.c, 13u);
}

TEST(SnapshotCell, TortureReadersNeverObserveATornPayload)
{
    // Seed with a consistent base-0 ladder so readers that outrun
    // the first publish still see a payload the invariant accepts.
    Laddered initial;
    initial.fill(0);
    SnapshotCell<Laddered> cell(initial);
    constexpr int kReaders = 4;
    constexpr std::uint64_t kPublishes = 20000;

    std::atomic<bool> stop{false};
    std::atomic<bool> ok{true};
    std::atomic<std::uint64_t> reads{0};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&] {
            std::uint64_t last_base = 0;
            while (!stop.load(std::memory_order_acquire)) {
                const Laddered out = cell.read();
                if (!out.consistent())
                    ok.store(false);
                // Bases only ever grow: a reader travelling back in
                // time would mean the cell served a stale buffer
                // after a newer one.
                if (out.words[0] < last_base)
                    ok.store(false);
                last_base = out.words[0];
                reads.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    // Don't start publishing until the readers are actually live —
    // otherwise a fast writer could finish before the first read and
    // the torture would exercise nothing.
    while (reads.load(std::memory_order_relaxed) == 0)
        std::this_thread::yield();

    Laddered value;
    for (std::uint64_t base = 1; base <= kPublishes; ++base) {
        value.fill(base);
        cell.publish(value);
    }
    stop.store(true, std::memory_order_release);
    for (auto &reader : readers)
        reader.join();

    EXPECT_TRUE(ok.load());
    EXPECT_GT(reads.load(), 0u);
    EXPECT_EQ(cell.publishes(), kPublishes);
    const Laddered last = cell.read();
    EXPECT_TRUE(last.consistent());
    EXPECT_EQ(last.words[0], kPublishes);
}

} // namespace
} // namespace fairco2::parallel
