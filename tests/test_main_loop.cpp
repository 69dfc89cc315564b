/**
 * @file
 * The System main loop. Golden digests pin what a run produces across
 * the configurations whose event timing differs: every memory-side
 * prefetcher, every reorder-queue scheduler, each fixed LPQ policy,
 * SMT, VM and OS translation, DRAM page and address-map variants, the
 * in-flight merge, a warm-up boundary, a snapshot split and a tuned
 * run. The digests were recorded with the every-cycle memory-side
 * loop that preceded the next-event jump, so they prove the jump
 * simulates the same machine.
 *
 * A soundness test checks the memory side's event sources directly:
 * a controller ticked every cycle changes nothing before the cycle
 * its nextEventAt (and its prefetcher's) reported, apart from what
 * skipQuietCycles charges in bulk. Two more pin the System's cached
 * due cycle for the memory side: how often the controller ticks, and
 * that a tuning applied to the live machine reaches it at once.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "core/asd_prefetcher.hpp"
#include "dram/dram.hpp"
#include "mc/memory_controller.hpp"
#include "prefetch/mc_baselines.hpp"
#include "sim/experiment.hpp"
#include "sim/serialize.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/synthetic.hpp"
#include "tuner/tuned_run.hpp"
#include "workloads/profiles.hpp"
#include "workloads/tenant_mix.hpp"

namespace asd
{
namespace
{

std::string
hex(std::uint64_t value)
{
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(value));
    return text;
}

/** FNV-1a of @p metrics' JSON, every counter of @p system and @p extra. */
std::string
digest(const System &system, const RunMetrics &metrics,
       const std::string &extra = "")
{
    std::string text = toJson(metrics);
    for (const auto &[name, value] : system.stats().dump())
        text += '\n' + name + '=' + std::to_string(value);
    return hex(fnv1a64(text + extra));
}

SyntheticConfig
traceOf(const char *bench, std::uint64_t accesses)
{
    SyntheticConfig trace = findBenchmark(bench).trace;
    trace.total_accesses = accesses;
    return trace;
}

/** Run @p bench single-threaded; @p tweak edits the built config. */
std::string
runDigest(const char *bench, const RunOptions &options,
          std::uint64_t accesses,
          const std::function<void(SystemConfig &)> &tweak = {})
{
    SystemConfig config = makeSystemConfig(options);
    if (tweak)
        tweak(config);
    SyntheticTraceGenerator trace(traceOf(bench, accesses));
    System system(config, {&trace});
    const RunMetrics metrics = system.run();
    return digest(system, metrics);
}

RunOptions
msOptions(McPrefetcherKind kind)
{
    RunOptions options;
    options.mc_prefetcher = kind;
    return options;
}

constexpr std::uint64_t kAccesses = 20000;

TEST(MainLoopGolden, EveryMemorySidePrefetcher)
{
    const struct
    {
        McPrefetcherKind kind;
        const char *want;
    } cases[] = {
        {McPrefetcherKind::Asd, "8220dd0a89ab9eb0"},
        {McPrefetcherKind::NextLine, "d8a8f952fc23210e"},
        {McPrefetcherKind::P5Style, "382391ff948fb606"},
        {McPrefetcherKind::Ghb, "dd4bf61de7e9c9d6"},
        {McPrefetcherKind::Stride, "7305d3952fef17dd"},
        {McPrefetcherKind::Dspatch, "2f6ecbb01351b1ef"},
        {McPrefetcherKind::Perceptron, "0c85a2ed1fc653f4"},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(runDigest("tpcc", msOptions(c.kind), kAccesses), c.want)
            << "prefetcher " << static_cast<int>(c.kind);
    }
}

TEST(MainLoopGolden, EveryScheduler)
{
    const struct
    {
        SchedulerKind kind;
        const char *want;
    } cases[] = {
        {SchedulerKind::InOrder, "b207f5500b35e1ff"},
        {SchedulerKind::Memoryless, "bfc0a546ab7cd480"},
        {SchedulerKind::Ahb, "26a924c888f80a82"},
        {SchedulerKind::FrFcfs, "2edda9aac56d0094"},
    };
    for (const auto &c : cases) {
        RunOptions options;
        options.mode = PrefetchMode::MS;
        options.scheduler = c.kind;
        EXPECT_EQ(runDigest("trade2", options, kAccesses), c.want)
            << "scheduler " << static_cast<int>(c.kind);
    }
}

/**
 * Under the Memoryless scheduler a command can wait in a reorder queue
 * with the CAQ empty, so policies 1-3 differ (under the others the CAQ
 * is empty only when the reorder queues are).
 */
TEST(MainLoopGolden, EveryFixedLpqPolicy)
{
    const char *const want[] = {"db2dcf66c305fae9", "c289abf1c9a14356", "c289abf1c9a14356", "b386f72c66ad5d68", "0f3640bb4d0337e5"};
    for (int policy = 1; policy <= 5; ++policy) {
        RunOptions options;
        options.scheduler = SchedulerKind::Memoryless;
        options.max_degree = 4;
        options.fixed_policy = policy;
        EXPECT_EQ(runDigest("tpcc", options, kAccesses),
                  want[policy - 1])
            << "policy " << policy;
    }
}

TEST(MainLoopGolden, ModesAndWorkloads)
{
    const struct
    {
        const char *bench;
        PrefetchMode mode;
        PsKind ps;
        const char *want;
    } cases[] = {
        {"tpcc", PrefetchMode::NP, PsKind::Power5, "17b8c949641c54db"},
        {"tpcc", PrefetchMode::PS, PsKind::Power5, "3c436b890b8cd263"},
        {"tpcc", PrefetchMode::PMS, PsKind::Asd, "c31086f4ee340443"},
        {"bwaves", PrefetchMode::PMS, PsKind::Power5, "97f74b1672d9954b"},
        {"GemsFDTD", PrefetchMode::MS, PsKind::Power5, "62ead4f8f190977e"},
        {"trade2", PrefetchMode::PMS, PsKind::Power5, "285e0f1ba62dc140"},
    };
    for (const auto &c : cases) {
        RunOptions options;
        options.mode = c.mode;
        options.ps_kind = c.ps;
        EXPECT_EQ(runDigest(c.bench, options, kAccesses), c.want)
            << c.bench << " mode " << static_cast<int>(c.mode);
    }
}

TEST(MainLoopGolden, DramAndControllerVariants)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    EXPECT_EQ(runDigest("tpcc", options, kAccesses,
                        [](SystemConfig &config) {
                            config.dram.page_policy = PagePolicy::Closed;
                        }),
              "cda74ed8610e88a9");
    EXPECT_EQ(runDigest("bwaves", options, kAccesses,
                        [](SystemConfig &config) {
                            config.dram.addr_map = AddrMap::LineInterleaved;
                            config.dram.channels = 2;
                        }),
              "f30eacb1d931c165");
    EXPECT_EQ(runDigest("GemsFDTD", options, kAccesses,
                        [](SystemConfig &config) {
                            config.dram.addr_map = AddrMap::XorPage;
                            config.dram.refresh_enabled = false;
                        }),
              "442da67142d71486");
    options.mode = PrefetchMode::PMS;
    options.max_degree = 4;
    EXPECT_EQ(runDigest("trade2", options, kAccesses), "f2da46b7b895641b");
    EXPECT_EQ(runDigest("trade2", options, kAccesses,
                        [](SystemConfig &config) {
                            config.mc.merge_inflight_prefetch = true;
                        }),
              "3dd0233c0a5afc10");
}

/**
 * The check SystemIntegration.FastForwardDoesNotChangeResults made
 * between the skipping loop and the every-cycle loop, now against the
 * digest of the same streaming trace.
 */
TEST(MainLoopGolden, StreamingTrace)
{
    SyntheticConfig trace_config;
    trace_config.seed = 7;
    trace_config.total_accesses = 8000;
    trace_config.working_set_bytes = 256ULL << 20;
    trace_config.mean_gap = 6.0;
    trace_config.mean_touches_per_line = 8.0;
    trace_config.write_frac = 0.2;
    trace_config.reuse_frac = 0.2;
    trace_config.dependent_frac = 0.1;
    trace_config.negative_dir_frac = 0.0;
    trace_config.concurrent_streams = 4;
    trace_config.phases = {PhaseProfile{
        {0.1, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0, 1.0, 0.8, 0.5}, 0}};
    SyntheticTraceGenerator trace(trace_config);
    SystemConfig config;
    config.mode = PrefetchMode::PMS;
    System system(config, {&trace});
    const RunMetrics metrics = system.run();
    EXPECT_EQ(digest(system, metrics), "3ee4a30d1a69638c");
}

TEST(MainLoopGolden, SmtPair)
{
    RunOptions options;
    SyntheticConfig a = traceOf("tpcc", kAccesses);
    SyntheticConfig b = traceOf("trade2", kAccesses);
    b.seed = b.seed * 7919 + 17;
    SyntheticTraceGenerator trace_a(a);
    SyntheticTraceGenerator trace_b(b);
    System system(makeSystemConfig(options), {&trace_a, &trace_b});
    const RunMetrics metrics = system.run();
    EXPECT_EQ(digest(system, metrics), "4c86717f0952784b");
}

TEST(MainLoopGolden, Translation)
{
    {
        RunOptions options;
        options.vm.enabled = true;
        options.vm.policy = FrameAllocPolicy::RandomShuffle;
        options.vm.page_bytes = 4096;
        EXPECT_EQ(runDigest("bwaves", options, kAccesses), "6debfa7beea990d3");
    }
    {
        RunOptions options;
        options.os.enabled = true;
        options.os.frames = 256;
        options.tenants.enabled = true;
        options.tenants.slots = 4;
        options.tenants.mean_lifetime = 8000;
        const SyntheticConfig trace = traceOf("tpcc", kAccesses);
        TenantMixSource mix(options.tenants, trace, kAccesses);
        System system(makeSystemConfig(options), {&mix});
        const RunMetrics metrics = system.run();
        EXPECT_GT(metrics.os_reclaims, 0u);
        EXPECT_EQ(digest(system, metrics), "6f23cdd22bf8c1cf");
    }
}

TEST(MainLoopGolden, WarmupBoundary)
{
    RunOptions options;
    options.warmup_cycles = 50000;
    EXPECT_EQ(runDigest("tpcc", options, kAccesses), "175f9a25a3850021");
}

/**
 * runUntil(C), a snapshot at C and a restored finish: the snapshot
 * bytes pin the machine at C (stall counters and last-tick cycles
 * included), the finish pins the restored run.
 */
TEST(MainLoopGolden, SnapshotSplit)
{
    RunOptions options;
    options.telemetry.enabled = true;
    const SystemConfig config = makeSystemConfig(options);
    const SyntheticConfig trace_config = traceOf("tpcc", kAccesses);
    constexpr Cycle kSplit = 123457;

    SyntheticTraceGenerator first_trace(trace_config);
    System first(config, {&first_trace});
    first.runUntil(kSplit);
    EXPECT_EQ(first.nowCycle(), kSplit);
    SnapshotWriter w;
    first.saveSnapshot(w);
    const std::vector<std::uint8_t> bytes = w.finish(0);
    EXPECT_EQ(hex(fnv1a64(std::string_view(
                  reinterpret_cast<const char *>(bytes.data()),
                  bytes.size()))),
              "9b906c8d825ecee1");

    SyntheticTraceGenerator second_trace(trace_config);
    System second(config, {&second_trace});
    SnapshotReader r(bytes);
    second.loadSnapshot(r);
    const RunMetrics metrics = second.run();
    EXPECT_EQ(digest(second, metrics), "8220dd0a89ab9eb0");
}

TEST(MainLoopGolden, TunedRun)
{
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.tuner.enabled = true;
    options.tuner.shadow_horizon = 20000;
    options.tuner.phase_threshold_milli_pct = 15000;
    options.tuner.space.degrees = {1, 2};
    options.tuner.space.filter_slots = {};
    options.tuner.space.buffer_lines = {};
    options.tuner.space.epoch_reads = {};
    options.tuner.space.policies = {};
    TunedRun run(findBenchmark("GemsFDTD"), options, 150000);
    const TunedRunResult result = run.run();
    ASSERT_GE(result.decisions.size(), 1u);
    EXPECT_EQ(digest(run.system(), result.metrics,
                     tunerJson(result.decisions)),
              "d2177dc76ac36c4d");
}

// --- memory-side dispatch ------------------------------------------

/**
 * Forwards every hook to @p inner and counts its ticks. Like
 * perfbench's traced wrapper it keeps the default nextEventAt (the
 * next cycle), so a due cycle read from the controller's attached
 * prefetcher instead of the System's own would tick every iteration.
 */
class CountingPrefetcher : public MemSidePrefetcher
{
  public:
    explicit CountingPrefetcher(MemSidePrefetcher &inner) : inner_(inner) {}

    std::vector<LineAddr>
    observeRead(LineAddr line, std::uint32_t thread, Cycle now) override
    {
        return inner_.observeRead(line, thread, now);
    }
    void
    observeWrite(LineAddr line, Cycle now) override
    {
        inner_.observeWrite(line, now);
    }
    bool lookupBuffer(LineAddr line) override { return inner_.lookupBuffer(line); }
    bool
    bufferContains(LineAddr line) const override
    {
        return inner_.bufferContains(line);
    }
    void
    fillBuffer(LineAddr line, Cycle now) override
    {
        inner_.fillBuffer(line, now);
    }
    int schedulingPolicy() const override { return inner_.schedulingPolicy(); }
    void
    notifyPrefetchConflict(Cycle now) override
    {
        inner_.notifyPrefetchConflict(now);
    }
    void
    tick(Cycle now) override
    {
        ++ticks;
        inner_.tick(now);
    }
    void saveState(SnapshotWriter &w) const override { inner_.saveState(w); }
    void loadState(SnapshotReader &r) override { inner_.loadState(r); }

    // asdlint:allow(snapshot-field-coverage): test probe counter, not machine state
    std::uint64_t ticks = 0;

  private:
    MemSidePrefetcher &inner_;
};

/**
 * The controller (and so its prefetcher) ticks only at its due cycle
 * or after something reached it, yet the run is the golden one. The
 * pinned counts guard two silent slowdowns: a due cycle that is never
 * valid, and one taken from the attached wrapper.
 */
TEST(MainLoopEvents, MemorySideTicksOnlyWhenDue)
{
    SyntheticTraceGenerator trace(traceOf("tpcc", kAccesses));
    System system(makeSystemConfig(RunOptions{}), {&trace});
    CountingPrefetcher counting(*system.asd());
    system.mc().attachPrefetcher(&counting);
    std::uint64_t iterations = 0;
    system.setLoopHook([&iterations](Cycle) { ++iterations; });
    const RunMetrics metrics = system.run();
    EXPECT_EQ(digest(system, metrics), "8220dd0a89ab9eb0");
    EXPECT_EQ(iterations, 32585u);
    EXPECT_EQ(counting.ticks, 14752u); // 45% of the iterations
}

/**
 * A tuning applied to the live machine reaches the controller in the
 * same iteration: the run equals one whose machine is saved and
 * restored (which drops every cached due cycle) before each tuning.
 * The tunings pin the LPQ policy to 1 and 5 in turn, so a controller
 * tick skipped on a due cycle of the old policy changes the run.
 */
TEST(MainLoopEvents, LiveTuningMatchesRestoredTuning)
{
    const SystemConfig config = makeSystemConfig(RunOptions{});
    const SyntheticConfig trace_config = traceOf("tpcc", kAccesses);
    SyntheticTraceGenerator live_trace(trace_config);
    SyntheticTraceGenerator restored_trace(trace_config);
    System live(config, {&live_trace});
    System restored(config, {&restored_trace});
    AsdTuning tuning = tuningOf(config.asd);
    tuning.sched.adaptive = false;
    int points = 0;
    for (Cycle at = 3000;; at += 3000, ++points) {
        live.runUntil(at);
        restored.runUntil(at);
        if (live.nowCycle() < at)
            break; // finished
        tuning.sched.fixed_policy = points % 2 == 0 ? 5 : 1;
        live.applyTuning(tuning);
        SnapshotWriter w;
        restored.saveSnapshot(w);
        const std::vector<std::uint8_t> bytes = w.finish(0);
        SnapshotReader r(bytes);
        restored.loadSnapshot(r);
        restored.applyTuning(tuning);
    }
    const RunMetrics live_metrics = live.run();
    const RunMetrics restored_metrics = restored.run();
    EXPECT_GT(points, 50);
    EXPECT_EQ(digest(live, live_metrics),
              digest(restored, restored_metrics));
}

// --- soundness of the memory-side event sources ---------------------

enum class RigPrefetcher { None, Asd, P5Style };

struct RigConfig
{
    McConfig mc;
    DramConfig dram;
    RigPrefetcher prefetcher = RigPrefetcher::None;
    std::optional<int> fixed_policy;
};

/** A controller, its DRAM and optionally a Stream Filter prefetcher. */
struct Rig
{
    explicit Rig(const RigConfig &config)
        : dram(config.dram),
          mc(config.mc, dram,
             [this](std::uint64_t id, Cycle) { completions.push_back(id); })
    {
        AsdConfig asd;
        asd.lifetime_init = 60; // short lifetimes: expiries are frequent
        asd.lifetime_extend = 90;
        asd.epoch_reads = 64;
        asd.max_degree = 2;
        if (config.fixed_policy) {
            asd.sched.adaptive = false;
            asd.sched.fixed_policy = *config.fixed_policy;
        }
        if (config.prefetcher == RigPrefetcher::Asd)
            prefetcher = std::make_unique<AsdPrefetcher>(asd);
        else if (config.prefetcher == RigPrefetcher::P5Style)
            prefetcher = std::make_unique<P5StyleMcPrefetcher>(asd);
        mc.attachPrefetcher(prefetcher.get());
    }

    std::vector<std::uint8_t>
    save() const
    {
        SnapshotWriter w;
        w.beginSection("mc");
        mc.saveState(w);
        w.endSection();
        w.beginSection("dram");
        dram.saveState(w);
        w.endSection();
        if (prefetcher) {
            w.beginSection("ms");
            prefetcher->saveState(w);
            w.endSection();
        }
        return w.finish(0);
    }

    void
    load(const std::vector<std::uint8_t> &bytes)
    {
        SnapshotReader r(bytes);
        r.openSection("mc");
        mc.loadState(r);
        r.endSection();
        r.openSection("dram");
        dram.loadState(r);
        r.endSection();
        if (prefetcher) {
            r.openSection("ms");
            prefetcher->loadState(r);
            r.endSection();
        }
    }

    /** Earliest cycle after @p now at which a tick can change state. */
    Cycle
    nextEventAt(Cycle now) const
    {
        Cycle event = mc.nextEventAt(now);
        if (prefetcher)
            event = std::min(event, prefetcher->nextEventAt(now));
        return event;
    }

    Dram dram;
    std::unique_ptr<MemSidePrefetcher> prefetcher;
    MemoryController mc;
    std::vector<std::uint64_t> completions;
};

/**
 * Drive a rig with seeded random reads (four streams that mostly
 * ascend, sometimes step back or jump) and writes at random cycles.
 * Before every step, tick a restored copy through each cycle the rig
 * reported quiet and compare its whole state, cycle by cycle, with a
 * second copy that skipped to the same cycle.
 */
void
checkEventSources(const RigConfig &config, std::uint64_t seed)
{
    Rig rig(config);
    Rig ticked(config);
    Rig skipped(config);
    Rng rng(seed);
    Cycle now = 0;
    std::uint64_t next_id = 1;
    // Four read streams over a few rows of every bank, so prefetches
    // and regular commands collide on banks.
    LineAddr streams[4] = {0, 1000, 2000, 3000};
    std::uint64_t quiet_cycles = 0;
    for (int step = 0; step < 200; ++step) {
        // Traffic at `now`, then the tick, as in System::runUntil.
        const std::uint64_t burst = rng.nextBelow(4);
        for (std::uint64_t i = 0; i < burst; ++i) {
            LineAddr &line = streams[rng.nextBelow(4)];
            const std::uint64_t kind = rng.nextBelow(10);
            if (kind < 7) {
                line = line > 0 && kind == 0 ? line - 1 : line + 1;
                rig.mc.enqueueRead(line, next_id++, 0, now);
            } else if (kind < 9) {
                line = rng.nextBelow(1 << 13);
                rig.mc.enqueueRead(line, next_id++, 0, now);
            } else {
                rig.mc.enqueueWrite(rng.nextBelow(1 << 13), now);
            }
        }
        rig.mc.tick(now);

        const Cycle event = rig.nextEventAt(now);
        ASSERT_GT(event, now);
        // The next random traffic may come first.
        const Cycle next_step =
            std::min(event, now + 1 + rng.nextBelow(100));
        const std::vector<std::uint8_t> base = rig.save();
        ticked.load(base);
        for (Cycle c = now + 1; c < next_step; ++c) {
            ticked.mc.tick(c);
            skipped.load(base);
            skipped.mc.skipQuietCycles(now + 1, c);
            ASSERT_TRUE(ticked.save() == skipped.save())
                << "state changed at cycle " << c << ", before the "
                << "reported event at " << event << " (step " << step
                << ")";
            ASSERT_TRUE(ticked.completions.empty());
            ++quiet_cycles;
        }
        if (next_step > now + 1)
            rig.mc.skipQuietCycles(now + 1, next_step - 1);
        now = next_step;
    }
    // The windows must not all be empty, or nothing was checked.
    EXPECT_GT(quiet_cycles, 1000u);
    EXPECT_GT(rig.completions.size(), 25u);
}

TEST(MainLoopEvents, QuietCyclesChangeNothingEveryScheduler)
{
    for (const SchedulerKind kind :
         {SchedulerKind::InOrder, SchedulerKind::Memoryless,
          SchedulerKind::Ahb, SchedulerKind::FrFcfs}) {
        for (const RigPrefetcher prefetcher :
             {RigPrefetcher::None, RigPrefetcher::Asd}) {
            RigConfig config;
            config.mc.scheduler = kind;
            config.prefetcher = prefetcher;
            SCOPED_TRACE(static_cast<int>(kind) * 10 +
                         static_cast<int>(prefetcher));
            checkEventSources(config,
                              11 + static_cast<std::uint64_t>(kind));
        }
    }
}

TEST(MainLoopEvents, QuietCyclesChangeNothingEveryLpqPolicy)
{
    for (const SchedulerKind kind :
         {SchedulerKind::Memoryless, SchedulerKind::Ahb}) {
        for (int policy = 1; policy <= 5; ++policy) {
            RigConfig config;
            config.mc.scheduler = kind;
            config.prefetcher = RigPrefetcher::P5Style;
            config.fixed_policy = policy;
            SCOPED_TRACE(static_cast<int>(kind) * 10 + policy);
            checkEventSources(config,
                              100 + static_cast<std::uint64_t>(policy));
        }
    }
}

TEST(MainLoopEvents, QuietCyclesChangeNothingDramVariants)
{
    RigConfig closed;
    closed.dram.page_policy = PagePolicy::Closed;
    closed.prefetcher = RigPrefetcher::P5Style;
    checkEventSources(closed, 7);

    RigConfig interleaved;
    interleaved.dram.addr_map = AddrMap::LineInterleaved;
    interleaved.dram.channels = 2;
    interleaved.dram.t_refi = 300; // refresh windows block often
    interleaved.prefetcher = RigPrefetcher::Asd;
    checkEventSources(interleaved, 8);

    RigConfig merging;
    merging.mc.merge_inflight_prefetch = true;
    merging.mc.buffer_hit_latency = 0;
    merging.mc.return_overhead = 0;
    merging.prefetcher = RigPrefetcher::Asd;
    checkEventSources(merging, 9);
}

} // namespace
} // namespace asd
