/**
 * @file
 * Checkpoint/restore subsystem tests: primitive round trips through
 * SnapshotWriter/SnapshotReader, rejection of damaged or mismatched
 * images (magic, version, CRC, truncation, config hash), whole-system
 * save -> load -> save byte identity, restore-then-run equality with
 * an uninterrupted run (VM off and on, telemetry on, splits before
 * and after the warm-up boundary), the component-presence rules
 * that warm-start forking relies on, and the checks on the options
 * JSON a run snapshot's "cli" section carries.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "sim/experiment.hpp"
#include "sim/serialize.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/synthetic.hpp"

namespace asd
{
namespace
{

constexpr std::uint64_t kHash = 0x1234abcd5678ef00ULL;

SyntheticConfig
testTrace(std::uint64_t accesses = 20000)
{
    SyntheticConfig config;
    config.seed = 11;
    config.total_accesses = accesses;
    config.working_set_bytes = 64ULL << 20;
    config.mean_gap = 5.0;
    config.mean_touches_per_line = 6.0;
    config.write_frac = 0.25;
    config.reuse_frac = 0.15;
    config.dependent_frac = 0.1;
    config.concurrent_streams = 4;
    config.phases = {
        PhaseProfile{{0.1, 0.2, 0.4, 0.6, 0.8, 1.0}, 0}};
    return config;
}

SystemConfig
testConfig(PrefetchMode mode)
{
    SystemConfig config;
    config.mode = mode;
    return config;
}

std::vector<std::uint8_t>
snapshotOf(const System &system)
{
    SnapshotWriter writer;
    system.saveSnapshot(writer);
    return writer.finish(kHash);
}

/** Run to @p split, snapshot, restore into a fresh machine. */
std::vector<std::uint8_t>
splitSnapshot(const SystemConfig &config, Cycle split)
{
    SyntheticTraceGenerator trace(testTrace());
    System system(config, {&trace});
    system.runUntil(split);
    return snapshotOf(system);
}

// --- primitives ----------------------------------------------------

TEST(SnapshotFormat, PrimitivesRoundTrip)
{
    SnapshotWriter writer;
    writer.beginSection("prims");
    writer.u8(0xA5);
    writer.u32(0xDEADBEEFu);
    writer.u64(0x0123456789abcdefULL);
    writer.i64(-42);
    writer.f64(3.5);
    writer.b(true);
    writer.b(false);
    writer.str("hello snapshot");
    writer.vecU64({1, 2, 3, 0xffffffffffffffffULL});
    writer.endSection();
    const std::vector<std::uint8_t> bytes = writer.finish(kHash);

    SnapshotReader reader(bytes);
    reader.requireConfigHash(kHash);
    EXPECT_TRUE(reader.hasSection("prims"));
    EXPECT_FALSE(reader.hasSection("absent"));
    reader.openSection("prims");
    EXPECT_EQ(reader.u8(), 0xA5);
    EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
    EXPECT_EQ(reader.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(reader.i64(), -42);
    EXPECT_EQ(reader.f64(), 3.5);
    EXPECT_TRUE(reader.b());
    EXPECT_FALSE(reader.b());
    EXPECT_EQ(reader.str(), "hello snapshot");
    EXPECT_EQ(reader.vecU64(),
              (std::vector<std::uint64_t>{
                  1, 2, 3, 0xffffffffffffffffULL}));
    reader.endSection();
}

TEST(SnapshotFormat, RejectsDamage)
{
    SnapshotWriter writer;
    writer.beginSection("s");
    writer.u64(7);
    writer.endSection();
    const std::vector<std::uint8_t> good = writer.finish(kHash);

    // Bad magic.
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xff;
    EXPECT_THROW(SnapshotReader{bad}, SnapshotError);

    // Unsupported format version (u32 after the 8-byte magic).
    bad = good;
    bad[8] ^= 0xff;
    EXPECT_THROW(SnapshotReader{bad}, SnapshotError);

    // Payload corruption -> CRC mismatch.
    bad = good;
    bad[bad.size() - 1] ^= 0xff;
    EXPECT_THROW(SnapshotReader{bad}, SnapshotError);

    // Truncation.
    bad = good;
    bad.resize(bad.size() - 4);
    EXPECT_THROW(SnapshotReader{bad}, SnapshotError);

    // Wrong config hash.
    SnapshotReader reader(good);
    EXPECT_THROW(reader.requireConfigHash(kHash + 1), SnapshotError);

    // Missing section.
    SnapshotReader reader2(good);
    EXPECT_THROW(reader2.openSection("absent"), SnapshotError);
}

// --- whole-system round trips --------------------------------------

class SnapshotSystem
    : public ::testing::TestWithParam<PrefetchMode>
{
};

/**
 * save -> load -> save must reproduce the image byte for byte; any
 * field a component forgets to restore (or restores differently)
 * shows up here without needing a per-component test.
 */
TEST_P(SnapshotSystem, SaveLoadSaveByteIdentical)
{
    const SystemConfig config = testConfig(GetParam());
    const std::vector<std::uint8_t> first =
        splitSnapshot(config, 40000);

    SyntheticTraceGenerator trace(testTrace());
    System system(config, {&trace});
    SnapshotReader reader(first);
    reader.requireConfigHash(kHash);
    system.loadSnapshot(reader);
    EXPECT_EQ(snapshotOf(system), first);
}

INSTANTIATE_TEST_SUITE_P(AllModes, SnapshotSystem,
                         ::testing::Values(PrefetchMode::NP,
                                           PrefetchMode::PS,
                                           PrefetchMode::MS,
                                           PrefetchMode::PMS));

TEST(SnapshotSystem, SaveLoadSaveByteIdenticalWithVmAndTelemetry)
{
    SystemConfig config = testConfig(PrefetchMode::PMS);
    config.vm.enabled = true;
    config.vm.policy = FrameAllocPolicy::RandomShuffle;
    config.telemetry.enabled = true;
    config.warmup_cycles = 10000;
    const std::vector<std::uint8_t> first =
        splitSnapshot(config, 40000);

    SyntheticTraceGenerator trace(testTrace());
    System system(config, {&trace});
    SnapshotReader reader(first);
    system.loadSnapshot(reader);
    EXPECT_EQ(snapshotOf(system), first);
}

/** Metrics of an uninterrupted run of @p config over testTrace(). */
RunMetrics
straightRun(const SystemConfig &config,
            std::vector<EpochRecord> *epochs = nullptr)
{
    SyntheticTraceGenerator trace(testTrace());
    System system(config, {&trace});
    const RunMetrics metrics = system.run();
    if (epochs && system.telemetry())
        *epochs = system.telemetry()->records();
    return metrics;
}

/** The same run split at @p split via snapshot save + restore. */
RunMetrics
splitRun(const SystemConfig &config, Cycle split,
         std::vector<EpochRecord> *epochs = nullptr)
{
    const std::vector<std::uint8_t> bytes =
        splitSnapshot(config, split);

    SyntheticTraceGenerator trace(testTrace());
    System system(config, {&trace});
    SnapshotReader reader(bytes);
    reader.requireConfigHash(kHash);
    system.loadSnapshot(reader);
    system.runUntil(kNoCycle);
    if (epochs && system.telemetry())
        *epochs = system.telemetry()->records();
    return system.collectMetrics();
}

void
expectEpochsEqual(const std::vector<EpochRecord> &a,
                  const std::vector<EpochRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].epoch, b[i].epoch);
        EXPECT_EQ(a[i].start_cycle, b[i].start_cycle);
        EXPECT_EQ(a[i].end_cycle, b[i].end_cycle);
        EXPECT_EQ(a[i].reads, b[i].reads);
        EXPECT_EQ(a[i].suggested, b[i].suggested);
        EXPECT_EQ(a[i].suppressed, b[i].suppressed);
        EXPECT_EQ(a[i].prefetches_issued, b[i].prefetches_issued);
        EXPECT_EQ(a[i].buffer_hits, b[i].buffer_hits);
        EXPECT_EQ(a[i].buffer_consumed, b[i].buffer_consumed);
        EXPECT_EQ(a[i].lpq_dropped, b[i].lpq_dropped);
        EXPECT_EQ(a[i].policy, b[i].policy);
        EXPECT_EQ(a[i].conflicts, b[i].conflicts);
        EXPECT_EQ(a[i].regulars_delayed, b[i].regulars_delayed);
        EXPECT_EQ(a[i].dram_row_hits, b[i].dram_row_hits);
        EXPECT_EQ(a[i].dram_row_misses, b[i].dram_row_misses);
        EXPECT_EQ(a[i].read_q_hwm, b[i].read_q_hwm);
        EXPECT_EQ(a[i].write_q_hwm, b[i].write_q_hwm);
        EXPECT_EQ(a[i].caq_hwm, b[i].caq_hwm);
        EXPECT_EQ(a[i].lpq_hwm, b[i].lpq_hwm);
    }
}

TEST(SnapshotRestore, RestoreThenRunMatchesStraightRun)
{
    const SystemConfig config = testConfig(PrefetchMode::PMS);
    EXPECT_EQ(splitRun(config, 30000), straightRun(config));
}

TEST(SnapshotRestore, RestoreThenRunMatchesWithVm)
{
    SystemConfig config = testConfig(PrefetchMode::PMS);
    config.vm.enabled = true;
    config.vm.policy = FrameAllocPolicy::RandomShuffle;
    EXPECT_EQ(splitRun(config, 30000), straightRun(config));
}

TEST(SnapshotRestore, RestoreThenRunMatchesWithTelemetry)
{
    SystemConfig config = testConfig(PrefetchMode::MS);
    config.telemetry.enabled = true;
    std::vector<EpochRecord> straight_epochs;
    std::vector<EpochRecord> split_epochs;
    const RunMetrics straight = straightRun(config, &straight_epochs);
    const RunMetrics split = splitRun(config, 30000, &split_epochs);
    EXPECT_EQ(split, straight);
    expectEpochsEqual(split_epochs, straight_epochs);
}

/**
 * A snapshot taken before the warm-up boundary resumes disarmed and
 * arms at the same cycle as the uninterrupted run.
 */
TEST(SnapshotRestore, SplitBeforeWarmupBoundaryMatches)
{
    SystemConfig config = testConfig(PrefetchMode::PMS);
    config.warmup_cycles = 20000;
    EXPECT_EQ(splitRun(config, 5000), straightRun(config));
    EXPECT_EQ(splitRun(config, 20000), straightRun(config));
    EXPECT_EQ(splitRun(config, 35000), straightRun(config));
}

// --- component-presence rules --------------------------------------

TEST(SnapshotPresence, PsAndVmMustMatch)
{
    // PS snapshot into an NP machine: processor-side prefetchers
    // shaped the saved state; silently dropping them would diverge.
    const std::vector<std::uint8_t> ps_snap =
        splitSnapshot(testConfig(PrefetchMode::PS), 20000);
    SyntheticTraceGenerator trace(testTrace());
    System np_system(testConfig(PrefetchMode::NP), {&trace});
    SnapshotReader reader(ps_snap);
    EXPECT_THROW(np_system.loadSnapshot(reader), SnapshotError);

    SystemConfig vm_config = testConfig(PrefetchMode::NP);
    vm_config.vm.enabled = true;
    const std::vector<std::uint8_t> vm_snap =
        splitSnapshot(vm_config, 20000);
    SyntheticTraceGenerator trace2(testTrace());
    System plain(testConfig(PrefetchMode::NP), {&trace2});
    SnapshotReader reader2(vm_snap);
    EXPECT_THROW(plain.loadSnapshot(reader2), SnapshotError);

    // VM and OS machines share the one translation section; the frame
    // pool's placement policy tells them apart.
    SystemConfig os_config = testConfig(PrefetchMode::NP);
    os_config.os.enabled = true;
    SyntheticTraceGenerator trace3(testTrace());
    System os_system(os_config, {&trace3});
    SnapshotReader reader3(vm_snap);
    EXPECT_THROW(os_system.loadSnapshot(reader3), SnapshotError);
}

TEST(SnapshotPresence, MemorySideForkAllowedOneWay)
{
    // No-MS snapshot into an MS machine is the warm-start fork: the
    // freshly built prefetcher state stands in for the (identical)
    // untouched state of a cold disarmed machine.
    SystemConfig np_config = testConfig(PrefetchMode::NP);
    np_config.warmup_cycles = 20000;
    const std::vector<std::uint8_t> np_snap =
        splitSnapshot(np_config, 20000);
    SystemConfig ms_config = testConfig(PrefetchMode::MS);
    ms_config.warmup_cycles = 20000;
    SyntheticTraceGenerator trace(testTrace());
    System ms_system(ms_config, {&trace});
    SnapshotReader reader(np_snap);
    reader.requireConfigHash(kHash);
    ms_system.loadSnapshot(reader);
    ms_system.runUntil(kNoCycle);
    const RunMetrics forked = ms_system.collectMetrics();
    EXPECT_GT(forked.ms_prefetches_issued, 0u);
    // The forked run must equal a cold start of the full MS machine.
    EXPECT_EQ(forked, straightRun(ms_config));

    // The reverse — dropping recorded MS state — is rejected.
    const std::vector<std::uint8_t> ms_snap =
        splitSnapshot(testConfig(PrefetchMode::MS), 20000);
    SyntheticTraceGenerator trace2(testTrace());
    System np_system(testConfig(PrefetchMode::NP), {&trace2});
    SnapshotReader reader2(ms_snap);
    EXPECT_THROW(np_system.loadSnapshot(reader2), SnapshotError);
}

// --- the "cli" section: options JSON read back on load -------------

/** Options whose JSON holds every block, for the rejection cases. */
RunOptions
fullOptions()
{
    RunOptions options;
    options.fixed_policy = 2;
    options.vm.enabled = true;
    options.tuner.enabled = true;
    return options;
}

/**
 * Replace @p from by @p to in the options JSON of fullOptions() and
 * return what optionsFromJson throws ("" when it accepts the text).
 */
std::string
rejection(const std::string &from, const std::string &to)
{
    std::string json = toJson(fullOptions());
    const std::size_t at = json.find(from);
    if (at == std::string::npos)
        return "test bug: '" + from + "' not in " + json;
    json.replace(at, from.size(), to);
    const std::optional<JsonValue> doc = jsonParse(json);
    if (!doc)
        return "test bug: not JSON: " + json;
    try {
        optionsFromJson(*doc);
    } catch (const SnapshotError &e) {
        return e.what();
    }
    return "";
}

TEST(SnapshotCli, AcceptsTheOptionsJsonItWrites)
{
    EXPECT_EQ(rejection("\"mode\"", "\"mode\""), "");
}

TEST(SnapshotCli, RejectsAMissingKeyNamingIt)
{
    EXPECT_NE(rejection("\"buffer_lines\":16,", "")
                  .find("key 'buffer_lines' is missing"),
              std::string::npos);
    EXPECT_NE(rejection("\"tlb_ways\":4,", "")
                  .find("key 'vm.tlb_ways' is missing"),
              std::string::npos);
    EXPECT_NE(rejection("\"vm\":{", "\"vmx\":{")
                  .find("key 'vm' is missing"),
              std::string::npos);
}

TEST(SnapshotCli, RejectsAValueOfTheWrongKindNamingIt)
{
    EXPECT_NE(rejection("\"ps_oracle\":false", "\"ps_oracle\":0")
                  .find("key 'ps_oracle' expects true or false"),
              std::string::npos);
    EXPECT_NE(rejection("\"page_bytes\":4096", "\"page_bytes\":-1")
                  .find("key 'vm.page_bytes' expects an unsigned"),
              std::string::npos);
    EXPECT_NE(rejection("\"accesses\":null", "\"accesses\":\"5\"")
                  .find("key 'accesses'"),
              std::string::npos);
    EXPECT_NE(rejection("\"degrees\":[1,2,4]", "\"degrees\":[1,2.5]")
                  .find("key 'tuner.degrees' entry 1 expects"),
              std::string::npos);
    EXPECT_NE(rejection("\"vm\":{", "\"vm\":7,\"x\":{")
                  .find("key 'vm' expects an object"),
              std::string::npos);
    EXPECT_THROW(optionsFromJson(JsonValue::makeNull()), SnapshotError);
}

TEST(SnapshotCli, RejectsAnUnknownEnumSpellingNamingIt)
{
    EXPECT_NE(rejection("\"scheduler\":\"ahb\"",
                        "\"scheduler\":\"fifo\"")
                  .find("key 'scheduler' expects one of "
                        "ahb|memoryless|inorder|frfcfs"),
              std::string::npos);
    EXPECT_NE(rejection("\"policy\":\"identity\"",
                        "\"policy\":\"Identity\"")
                  .find("key 'vm.policy' expects one of"),
              std::string::npos);
    EXPECT_NE(rejection("\"walk_cycles\":60",
                        "\"walk_cycles\":60,\"walker\":\"tree\"")
                  .find("key 'vm.walker' expects one of radix|hashed"),
              std::string::npos);
}

TEST(SnapshotCli, RejectsAnIntegerThatOverflowsItsField)
{
    EXPECT_NE(rejection("\"buffer_lines\":16",
                        "\"buffer_lines\":4294967296")
                  .find("key 'buffer_lines' value 4294967296 overflows "
                        "its 32-bit field"),
              std::string::npos);
    EXPECT_EQ(rejection("\"buffer_lines\":16",
                        "\"buffer_lines\":4294967295"),
              "");
    EXPECT_NE(rejection("\"fixed_policy\":2",
                        "\"fixed_policy\":2147483648")
                  .find("key 'fixed_policy' value 2147483648 overflows"),
              std::string::npos);
    EXPECT_NE(rejection("\"fixed_policy\":2",
                        "\"fixed_policy\":-2147483649")
                  .find("key 'fixed_policy'"),
              std::string::npos);
    EXPECT_EQ(rejection("\"fixed_policy\":2",
                        "\"fixed_policy\":-2147483648"),
              "");
    EXPECT_NE(rejection("\"warmup_cycles\":0",
                        "\"warmup_cycles\":18446744073709551616")
                  .find("key 'warmup_cycles'"),
              std::string::npos);
}

TEST(SnapshotCli, RejectsATuneAxisLongerThanTheCap)
{
    RunOptions options = fullOptions();
    options.tuner.space.policies.assign(4096, 1);
    const auto read = [](const RunOptions &o) {
        return optionsFromJson(*jsonParse(toJson(o)));
    };
    EXPECT_EQ(read(options).tuner.space.policies.size(), 4096u);
    options.tuner.space.policies.push_back(1);
    try {
        read(options);
        ADD_FAILURE() << "a 4097-entry axis was accepted";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "key 'tuner.policies' lists 4097 values"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotCli, OlderFormatVersionFailsOnTheVersion)
{
    // A version-3 file (binary RunOptions in its "cli" section) and a
    // version-4 file (separate "vm" and "os" sections) are refused by
    // their header before any section is parsed.
    for (const int version : {3, 4}) {
        SnapshotWriter writer;
        writer.beginSection("cli");
        writer.str("bwaves");
        writer.endSection();
        std::vector<std::uint8_t> bytes = writer.finish(kHash);
        ASSERT_EQ(bytes[8], kSnapshotFormatVersion);
        bytes[8] = static_cast<std::uint8_t>(version);
        const std::string expected =
            "unsupported snapshot format version " +
            std::to_string(version);
        try {
            SnapshotReader reader(bytes);
            ADD_FAILURE() << "a version-" << version
                          << " snapshot was accepted";
        } catch (const SnapshotError &e) {
            EXPECT_NE(std::string(e.what()).find(expected),
                      std::string::npos)
                << e.what();
        }
    }
}

} // namespace
} // namespace asd
