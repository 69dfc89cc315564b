/**
 * @file
 * Tests for the extended substrate features: multi-channel DRAM,
 * closed-page policy, the write-drain watermark machinery, and the
 * drain-aware scheduler behaviors.
 */

#include <set>

#include <gtest/gtest.h>

#include "dram/dram.hpp"
#include "mc/memory_controller.hpp"
#include "mc/scheduler.hpp"

namespace asd
{
namespace
{

DramConfig
quiet(std::uint32_t channels = 1,
      PagePolicy policy = PagePolicy::Open)
{
    DramConfig config;
    config.refresh_enabled = false;
    config.channels = channels;
    config.page_policy = policy;
    return config;
}

TEST(DramChannels, DecodeSpreadsChannels)
{
    Dram dram(quiet(2));
    std::set<std::uint32_t> channels;
    for (LineAddr line = 0; line < 64ULL * 64; line += 64)
        channels.insert(dram.decode(line).channel);
    EXPECT_EQ(channels.size(), 2u);
    // Banks are globally unique across channels.
    EXPECT_LT(dram.decode(0).bank, 32u);
}

TEST(DramChannels, IndependentDataBuses)
{
    // Two same-cycle reads to different channels must not serialize
    // on a shared bus; to the same channel they must.
    // Page-interleaved, 2 channels: line 0 -> bank 0 (ch 0),
    // line 64 -> bank 1 (ch 1), line 128 -> bank 2 (ch 0).
    Dram two(quiet(2));
    const LineAddr ch0_a = 0;
    const LineAddr ch1 = 64;
    const LineAddr ch0_b = 128;
    ASSERT_EQ(two.decode(ch0_a).channel, 0u);
    ASSERT_EQ(two.decode(ch1).channel, 1u);
    ASSERT_EQ(two.decode(ch0_b).channel, 0u);
    ASSERT_NE(two.decode(ch0_a).bank, two.decode(ch0_b).bank);

    const Cycle same_a = two.issue(ch0_a, false, false, 0);
    const Cycle same_b = two.issue(ch0_b, false, false, 0);
    EXPECT_GT(same_b, same_a); // shared bus serializes

    Dram fresh(quiet(2));
    const Cycle cross_a = fresh.issue(ch0_a, false, false, 0);
    const Cycle cross_b = fresh.issue(ch1, false, false, 0);
    EXPECT_EQ(cross_a, cross_b); // independent buses overlap fully
}

TEST(DramClosedPage, NoRowHits)
{
    Dram dram(quiet(1, PagePolicy::Closed));
    Cycle now = 0;
    for (LineAddr line = 0; line < 8; ++line)
        now = dram.issue(line, false, false, now);
    EXPECT_EQ(dram.rowHits(), 0u);
    EXPECT_EQ(dram.rowMisses(), 8u);
    EXPECT_FALSE(dram.rowOpen(0));
}

TEST(DramClosedPage, AvoidsConflictPrecharge)
{
    // Under closed page, a same-bank different-row sequence never
    // pays the conflict (precharge-then-activate) path: each access
    // costs the same.
    DramConfig config = quiet(1, PagePolicy::Closed);
    Dram dram(config);
    const LineAddr conflict = static_cast<LineAddr>(
        config.linesPerRow()) * config.totalBanks();
    const Cycle first = dram.issue(0, false, false, 0);
    const Cycle ready = dram.bankReadyAt(0);
    const Cycle second = dram.issue(conflict, false, false, ready);
    EXPECT_EQ(second - ready, first - 0);
}

TEST(McWriteDrain, WatermarkHysteresis)
{
    DramConfig dram_config = quiet();
    Dram dram(dram_config);
    McConfig config;
    config.write_drain_high = 4;
    config.write_drain_low = 1;
    MemoryController mc(config, dram, [](std::uint64_t, Cycle) {});

    for (std::uint64_t i = 0; i < 4; ++i)
        mc.enqueueWrite(i * 64, 0);
    EXPECT_FALSE(mc.drainingWrites());
    mc.tick(0); // sees 4 >= high -> drain mode
    EXPECT_TRUE(mc.drainingWrites());
    // Ticks move writes out; once <= low the mode clears.
    Cycle now = 1;
    while (mc.drainingWrites() && now < 10000)
        mc.tick(now++);
    EXPECT_FALSE(mc.drainingWrites());
    EXPECT_LT(now, 10000u);
}

TEST(McWriteDrain, DrainPrioritizesWritesOverYoungerReads)
{
    DramConfig dram_config = quiet();
    Dram dram(dram_config);
    AhbScheduler sched;
    std::deque<McCommand> reads;
    std::deque<McCommand> writes;
    McCommand read;
    read.line = 64;
    read.coord = dram.decode(64);
    read.enqueued_at = 1;
    reads.push_back(read);
    McCommand write;
    write.line = 128;
    write.coord = dram.decode(128);
    write.is_write = true;
    write.enqueued_at = 5;
    writes.push_back(write);

    const auto normal = sched.pick(reads, writes, dram, 10, false);
    ASSERT_TRUE(normal.has_value());
    EXPECT_FALSE(normal->from_write_queue);

    const auto draining = sched.pick(reads, writes, dram, 10, true);
    ASSERT_TRUE(draining.has_value());
    // With the write penalty lifted, the bank-idle write competes
    // evenly; AHB picks by cost then age, so the read (older) can
    // still win — but memoryless must take the write first.
    MemorylessScheduler memoryless;
    const auto m = memoryless.pick(reads, writes, dram, 10, true);
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(m->from_write_queue);
}

TEST(McWriteDrain, FrFcfsBoostsWritesWhileDraining)
{
    DramConfig dram_config = quiet();
    Dram dram(dram_config);
    FrFcfsScheduler sched;
    std::deque<McCommand> reads;
    std::deque<McCommand> writes;
    McCommand read;
    read.line = 64;
    read.coord = dram.decode(64);
    read.enqueued_at = 1;
    reads.push_back(read);
    McCommand write;
    write.line = 128;
    write.coord = dram.decode(128);
    write.is_write = true;
    write.enqueued_at = 5;
    writes.push_back(write);

    const auto normal = sched.pick(reads, writes, dram, 10, false);
    ASSERT_TRUE(normal.has_value());
    EXPECT_FALSE(normal->from_write_queue); // both ready: oldest wins

    const auto draining = sched.pick(reads, writes, dram, 10, true);
    ASSERT_TRUE(draining.has_value());
    EXPECT_TRUE(draining->from_write_queue); // drain bonus wins
}

} // namespace
} // namespace asd
