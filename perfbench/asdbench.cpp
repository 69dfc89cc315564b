/**
 * @file
 * Host-throughput benchmark of the simulator: one closed-loop client
 * running back-to-back batch simulations of a named workload for a
 * fixed time, reporting end-to-end metrics (untraced) or per-layer
 * metrics (traced), and checking every simulated result. See
 * README.md for the workloads, the metrics and what each should move.
 *
 *   asdbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--commit ID]
 *   asdbench --selftest
 *
 * Run from the repository root: it reads perfbench/digests.json and
 * writes sweep records under .bench_build/perfbench-tmp.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/json.hpp"
#include "probes.hpp"
#include "runner/result_sink.hpp"
#include "runner/sweep_runner.hpp"
#include "runner/warm_start.hpp"
#include "sim/experiment.hpp"
#include "sim/serialize.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/synthetic.hpp"
#include "workloads/profiles.hpp"
#include "workloads/tenant_mix.hpp"

namespace asdbench
{
namespace
{

using asd::RunMetrics;

/** Seed whose digests are committed in kDigestsPath. */
constexpr std::uint64_t kDefaultSeed = 1;

constexpr const char *kDigestsPath = "perfbench/digests.json";

/** Sweeps write their records below this directory. */
constexpr const char *kScratchDir = ".bench_build/perfbench-tmp";

const std::vector<std::string> kWorkloads = {"stream", "commercial",
                                             "tenants-os", "sweep"};

/** Trace accesses per simulation, per workload. */
constexpr std::uint64_t kStreamAccesses = 200000;
constexpr std::uint64_t kCommercialAccesses = 60000;
constexpr std::uint64_t kTenantAccesses = 600000;
constexpr std::uint64_t kSweepAccesses = 40000;

/**
 * Trace variants per run: iteration i simulates variant i mod
 * kVariants, so every run averages over several generated traces
 * rather than resting on one draw of the seed.
 */
constexpr unsigned kVariants = 4;

/** Sweep jobs arm the memory-side prefetcher after this many cycles
 *  per access (as perf_throughput does): a quarter to a half of each
 *  job, by its cycles per access. */
constexpr asd::Cycle kSweepWarmupPerAccess = 5;

/**
 * A single-System run is timed a stretch of this many simulated cycles
 * at a time (about 5 ms of host time on tpcc). Stretches split every
 * repetition of a simulation into the same pieces of work.
 */
constexpr asd::Cycle kStretchCycles = asd::Cycle{1} << 16;

/** Sweep worker threads, capped by the host's cores. */
unsigned
sweepThreads()
{
    return std::max(1u, std::min(2u, std::thread::hardware_concurrency()));
}

// --- small helpers ----------------------------------------------------

/** A stream of independent seeds for the model's own RNGs. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Trace seed of variant @p k of a run seeded with @p seed. */
std::uint64_t
variantSeed(std::uint64_t seed, unsigned k)
{
    return deriveSeed(seed, 100 + k);
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/**
 * Folds one repetition's stretch times into @p best, the fastest time
 * seen so far for each stretch of the same simulation. Other load on
 * the host only ever adds time, in spells from milliseconds to
 * minutes, so the best time of a stretch is the machine's own speed
 * once any repetition ran it in a quiet moment; a median would move
 * with how much of the run the spells covered. Returns false if the
 * repetition had another number of stretches than the first.
 */
bool
foldFastest(std::vector<double> &best, const std::vector<double> &stretch_ns)
{
    if (best.empty()) {
        best = stretch_ns;
        return true;
    }
    if (stretch_ns.size() != best.size())
        return false;
    for (std::size_t j = 0; j < best.size(); ++j)
        best[j] = std::min(best[j], stretch_ns[j]);
    return true;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
ratioU(std::uint64_t num, std::uint64_t den)
{
    return ratio(static_cast<double>(num), static_cast<double>(den));
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Digest of a run's simulated results: metrics plus every counter. */
std::string
digestOf(const RunMetrics &metrics, const asd::StatRegistry &stats)
{
    std::string text = asd::toJson(metrics);
    for (const auto &[name, value] : stats.dump())
        text += '\n' + name + '=' + std::to_string(value);
    return hex(asd::fnv1a64(text));
}

std::string
traceDigest(const std::vector<asd::MemAccess> &accesses)
{
    std::ostringstream text;
    for (const asd::MemAccess &a : accesses) {
        text << a.addr << ',' << a.gap << ',' << int(a.op) << ','
             << a.dependent << ',' << a.space << ';';
    }
    return hex(asd::fnv1a64(text.str()));
}

/** Failure of one check, counted against the attempt that made it. */
struct Checks
{
    std::vector<std::string> failures;

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

/**
 * Pins the calling thread, and the threads it starts afterwards, to a
 * window of the CPUs the process may run on, a different window on
 * each turn. Other load on the host often slows one CPU of this
 * machine more than the others (a busy neighbour on the same core),
 * and the kernel leaves a lone busy thread on the CPU it started on.
 * Rotating lets each variant's repetitions run on every CPU, so its
 * fastest times are not held to one CPU's bad spell.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0) {
            for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                if (CPU_ISSET(cpu, &set))
                    cpus_.push_back(cpu);
            }
        }
    }

    /** Pin to @p width CPUs from the @p turn-th on, wrapping around. A
     *  failure leaves the placement as it was: it moves no result. */
    void
    pin(std::size_t turn, unsigned width) const
    {
        if (cpus_.empty())
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        for (std::size_t j = 0; j < std::min<std::size_t>(width, cpus_.size());
             ++j)
            CPU_SET(cpus_[(turn + j) % cpus_.size()], &set);
        sched_setaffinity(0, sizeof(set), &set);
    }

  private:
    std::vector<std::size_t> cpus_;
};

// --- workloads ----------------------------------------------------------

/** A single-System simulation: one trace, one machine. */
struct SingleSpec
{
    asd::Benchmark bench;
    asd::RunOptions options;
};

SingleSpec
singleSpec(const std::string &workload, std::uint64_t seed)
{
    SingleSpec spec;
    spec.options.mode = asd::PrefetchMode::PMS;
    if (workload == "stream") {
        spec.bench = asd::findBenchmark("bwaves");
        spec.bench.trace.total_accesses = kStreamAccesses;
    } else if (workload == "commercial") {
        spec.bench = asd::findBenchmark("tpcc");
        spec.bench.trace.total_accesses = kCommercialAccesses;
    } else if (workload == "tenants-os") {
        spec.bench = asd::findBenchmark("bwaves");
        spec.bench.trace.total_accesses = kTenantAccesses;
        spec.options.os.enabled = true;
        spec.options.os.frames = 4096;
        spec.options.os.seed = deriveSeed(seed, 1);
        spec.options.tenants.enabled = true;
        spec.options.tenants.slots = 4;
        spec.options.tenants.seed = deriveSeed(seed, 2);
    } else {
        // sweep: the per-layer stand-in for the sweep's jobs, one
        // VM job run cold with the prefetcher armed throughout.
        spec.bench = asd::findBenchmark("GemsFDTD");
        spec.bench.trace.total_accesses = kSweepAccesses;
        spec.options.vm.enabled = true;
        spec.options.vm.policy = asd::FrameAllocPolicy::RandomShuffle;
        spec.options.vm.seed = deriveSeed(seed, 3);
    }
    spec.bench.trace.seed = seed;
    return spec;
}

std::vector<asd::JobSpec>
sweepJobs(std::uint64_t seed)
{
    std::vector<asd::JobSpec> jobs;
    for (const char *name : {"GemsFDTD", "trade2"}) {
        for (const bool vm : {false, true}) {
            for (const std::uint32_t lines : {8u, 16u, 32u, 64u}) {
                asd::RunOptions options;
                options.mode = asd::PrefetchMode::PMS;
                options.buffer_lines = lines;
                options.accesses = kSweepAccesses;
                options.warmup_cycles =
                    kSweepWarmupPerAccess * kSweepAccesses;
                if (vm) {
                    options.vm.enabled = true;
                    options.vm.policy =
                        asd::FrameAllocPolicy::RandomShuffle;
                    options.vm.seed = deriveSeed(seed, 3);
                }
                jobs.push_back(
                    asd::makeJob(asd::findBenchmark(name), options, seed));
            }
        }
    }
    return jobs;
}

// --- one single-System simulation ----------------------------------------

/** Everything one simulation of a SingleSpec produced. */
struct SingleRun
{
    double setup_ns = 0.0;
    double run_ns = 0.0;
    std::vector<double> stretch_ns; //!< run_ns, per kStretchCycles
    RunMetrics metrics;
    std::string digest;
    std::string error; //!< non-empty when the simulation threw

    // Traced runs only.
    std::uint64_t ticks = 0;
    Span trace_span;
    Span observe_span;
    Span tick_span;
    std::vector<asd::MemAccess> accesses;
    std::vector<McEvent> mc_events;
    std::map<std::string, std::uint64_t> stats;
};

/**
 * Build and run one simulation of @p spec. Set-up (configs, trace
 * source, System) and the run are timed separately. With @p traced,
 * the trace source and memory-side prefetcher are wrapped and the
 * System's loop hook counts ticks.
 */
SingleRun
runSingle(const SingleSpec &spec, bool traced)
{
    SingleRun out;
    const Clock::time_point setup_start = Clock::now();
    const asd::SystemConfig config = asd::makeSystemConfig(spec.options);
    std::unique_ptr<asd::TraceSource> source;
    asd::TenantMixSource *mix = nullptr;
    if (spec.options.tenants.enabled) {
        auto tenant_mix = std::make_unique<asd::TenantMixSource>(
            spec.options.tenants, spec.bench.trace,
            spec.bench.trace.total_accesses);
        mix = tenant_mix.get();
        source = std::move(tenant_mix);
    } else {
        source = std::make_unique<asd::SyntheticTraceGenerator>(
            spec.bench.trace);
    }
    std::unique_ptr<TracingSource> tracing_source;
    if (traced)
        tracing_source = std::make_unique<TracingSource>(*source);
    asd::System system(config, {tracing_source ? tracing_source.get()
                                               : source.get()});
    std::unique_ptr<TracingPrefetcher> tracing_prefetcher;
    if (traced && system.asd()) {
        tracing_prefetcher =
            std::make_unique<TracingPrefetcher>(*system.asd());
        system.mc().attachPrefetcher(tracing_prefetcher.get());
    }
    // Stop a wedged run with an exception the benchmark counts, one
    // iteration before the System would exit the process.
    std::uint64_t ticks = 0;
    const asd::Cycle limit = config.max_cycles;
    system.setLoopHook([&ticks, limit](asd::Cycle now) {
        ++ticks;
        if (now >= limit)
            throw std::runtime_error("max_cycles reached");
    });
    out.setup_ns = nsSince(setup_start);

    const Clock::time_point run_start = Clock::now();
    try {
        // runUntil() resumes exactly where it stopped, so running in
        // stretches simulates the same as one call.
        for (asd::Cycle end = kStretchCycles;; end += kStretchCycles) {
            const Clock::time_point stretch_start = Clock::now();
            system.runUntil(end);
            out.stretch_ns.push_back(nsSince(stretch_start));
            if (system.nowCycle() < end)
                break;
        }
    } catch (const std::exception &e) {
        out.error = e.what();
        return out;
    }
    out.run_ns = nsSince(run_start);

    out.metrics = system.collectMetrics();
    if (mix) {
        out.metrics.tenants_enabled = true;
        out.metrics.tenant_arrivals = mix->arrivals();
        out.metrics.tenant_departures = mix->departures();
        out.metrics.tenant_active = mix->activeTenants();
    }
    out.digest = digestOf(out.metrics, system.stats());
    if (traced) {
        out.ticks = ticks;
        out.trace_span = tracing_source->span();
        out.accesses = tracing_source->captured();
        if (tracing_prefetcher) {
            out.observe_span = tracing_prefetcher->observeSpan();
            out.tick_span = tracing_prefetcher->tickSpan();
            out.mc_events = tracing_prefetcher->captured();
        }
        for (const auto &[name, value] : system.stats().dump())
            out.stats[name] = value;
    }
    return out;
}

/** Checks every simulation must pass, traced or not. */
void
checkRun(const SingleSpec &spec, const SingleRun &run,
         const std::string &expected_digest, Checks &checks)
{
    checks.expect(run.error.empty(), "simulation threw: " + run.error);
    if (!run.error.empty())
        return;
    checks.expect(run.metrics.accesses == spec.bench.trace.total_accesses,
                  "retired " + std::to_string(run.metrics.accesses) +
                      " of " +
                      std::to_string(spec.bench.trace.total_accesses) +
                      " accesses");
    checks.expect(expected_digest.empty() || run.digest == expected_digest,
                  "digest " + run.digest + " != expected " +
                      expected_digest);
}

// --- sweep ---------------------------------------------------------------

/** Forwards to a sink, timing each call. */
class TimingSink : public asd::ResultSink
{
  public:
    explicit TimingSink(asd::ResultSink &inner) : inner_(inner) {}

    void
    write(const asd::JobResult &result) override
    {
        const Clock::time_point start = Clock::now();
        inner_.write(result);
        ns_ += nsSince(start);
    }

    void
    finish(const asd::SweepSummary &summary) override
    {
        const Clock::time_point start = Clock::now();
        inner_.finish(summary);
        ns_ += nsSince(start);
    }

    double ns() const { return ns_; }

  private:
    asd::ResultSink &inner_;
    double ns_ = 0.0;
};

/** Everything one sweep produced. */
struct SweepRun
{
    double setup_ns = 0.0;
    double run_ns = 0.0;
    std::vector<asd::JobResult> results;
    asd::SweepSummary summary;
    std::size_t warmup_keys = 0;
    std::string digest;
    std::uint64_t jobs_failed = 0;
    std::vector<std::string> failures;

    // Traced sweeps only.
    double sink_ns = 0.0;
    double adopt_ns = 0.0;
};

/** Fresh directory for one sweep's records, inside the build tree. */
std::filesystem::path
sweepDir()
{
    static unsigned counter = 0;
    return std::filesystem::path(kScratchDir) /
           ("sweep-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
}

/**
 * Run the sweep into a fresh JsonDirSink directory, then re-read
 * every record through a second sink's adoptExisting() and compare
 * it with the in-memory result. A job that did not end Ok, or whose
 * record does not read back equal, counts as failed.
 */
SweepRun
runSweep(std::uint64_t seed, bool traced,
         const std::string &expected_digest)
{
    SweepRun out;
    const std::filesystem::path dir = sweepDir();

    const Clock::time_point setup_start = Clock::now();
    const std::vector<asd::JobSpec> jobs = sweepJobs(seed);
    std::filesystem::remove_all(dir);
    asd::JsonDirSink sink(dir.string());
    TimingSink timing(sink);
    asd::SweepOptions options;
    options.threads = sweepThreads();
    options.warm_start = true;
    options.sink = traced ? static_cast<asd::ResultSink *>(&timing)
                          : static_cast<asd::ResultSink *>(&sink);
    asd::SweepRunner runner(options);
    out.setup_ns = nsSince(setup_start);

    const Clock::time_point run_start = Clock::now();
    out.results = runner.run(jobs);
    out.run_ns = nsSince(run_start);
    out.summary = runner.lastSummary();
    out.sink_ns = timing.ns();

    std::set<std::string> keys;
    for (const asd::JobSpec &job : jobs)
        keys.insert(asd::warmupKey(job));
    out.warmup_keys = keys.size();

    asd::JsonDirSink reread(dir.string());
    std::string digest_text;
    for (const asd::JobResult &result : out.results) {
        const std::string &id = result.spec.id;
        bool ok = result.status == asd::JobStatus::Ok;
        if (!ok)
            out.failures.push_back(id + ": " + asd::toString(result.status) +
                                   " " + result.error);
        const Clock::time_point adopt_start = Clock::now();
        const bool adopted = reread.adoptExisting(result.spec);
        out.adopt_ns += nsSince(adopt_start);
        std::ifstream in(dir / (asd::sanitizeFileStem(id) + ".json"));
        std::stringstream text;
        text << in.rdbuf();
        const std::optional<asd::JsonValue> record =
            asd::jsonParse(text.str());
        const asd::JsonValue *metrics =
            record ? record->find("metrics") : nullptr;
        const std::optional<RunMetrics> back =
            metrics ? asd::metricsFromJson(*metrics) : std::nullopt;
        if (ok && !(adopted && back && *back == result.metrics)) {
            ok = false;
            out.failures.push_back(id + ": record does not read back");
        }
        if (ok && result.metrics.accesses != kSweepAccesses) {
            ok = false;
            out.failures.push_back(id + ": retired " +
                                   std::to_string(result.metrics.accesses));
        }
        if (!ok)
            ++out.jobs_failed;
        digest_text += id + '=' + asd::toJson(result.metrics) + '\n';
    }
    std::filesystem::remove_all(dir);
    out.digest = hex(asd::fnv1a64(digest_text));
    if (!expected_digest.empty() && out.digest != expected_digest) {
        out.failures.push_back("digest " + out.digest + " != expected " +
                               expected_digest);
        out.jobs_failed = out.results.size();
    }
    return out;
}

/** Memory-side prefetch counts pooled over several simulations. */
struct PrefetchPool
{
    std::uint64_t reads = 0;
    std::uint64_t hits = 0;
    std::uint64_t issued = 0;
    double useful = 0.0;

    void
    add(const RunMetrics &m)
    {
        reads += m.mc_reads;
        hits += m.buffer_hits;
        issued += m.ms_prefetches_issued;
        useful += m.useful_prefetch_pct / 100.0 *
                  static_cast<double>(m.ms_prefetches_issued);
    }

    double coveragePct() const { return 100.0 * ratioU(hits, reads); }
    double
    usefulPct() const
    {
        return 100.0 * ratio(useful, static_cast<double>(issued));
    }
};

/**
 * Time System::saveSnapshot and loadSnapshot on the first sweep job's
 * warm-up state; the restored machine must save the same bytes.
 */
struct SnapshotTiming
{
    double save_ms = 0.0;
    double load_ms = 0.0;
    std::uint64_t bytes = 0;
    bool same_state = false;
};

SnapshotTiming
timeSnapshot(std::uint64_t seed)
{
    const asd::JobSpec job = sweepJobs(seed).front();
    asd::SyntheticConfig trace_config = job.bench.trace;
    trace_config.seed = *job.seed;
    trace_config.total_accesses = *job.options.accesses;
    const asd::SystemConfig config = asd::makeSystemConfig(job.options);

    asd::SyntheticTraceGenerator trace(trace_config);
    asd::System warm(config, {&trace});
    warm.runUntil(job.options.warmup_cycles);

    constexpr int kReps = 5;
    std::vector<double> save_ms;
    std::vector<double> load_ms;
    SnapshotTiming out;
    out.same_state = true;
    for (int i = 0; i < kReps; ++i) {
        Clock::time_point start = Clock::now();
        asd::SnapshotWriter writer;
        warm.saveSnapshot(writer);
        const asd::SnapshotBytes bytes = writer.finish(0);
        save_ms.push_back(nsSince(start) / 1e6);
        out.bytes = bytes.size();

        asd::SyntheticTraceGenerator trace2(trace_config);
        asd::System restored(config, {&trace2});
        start = Clock::now();
        asd::SnapshotReader reader(bytes);
        restored.loadSnapshot(reader);
        load_ms.push_back(nsSince(start) / 1e6);

        asd::SnapshotWriter again;
        restored.saveSnapshot(again);
        out.same_state = out.same_state && again.finish(0) == bytes;
    }
    out.save_ms = median(save_ms);
    out.load_ms = median(load_ms);
    return out;
}

// --- output ----------------------------------------------------------------

/** Metrics of one run, in print order. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items_.push_back({name, value, unit});
    }

    /** Human-readable lines, then the result object as the last line. */
    void
    print(bool correct, std::uint64_t attempted, std::uint64_t failed) const
    {
        for (const Item &item : items_) {
            std::cout << "metric " << item.name << ' ' << item.value << ' '
                      << item.unit << '\n';
        }
        asd::JsonWriter w;
        w.beginObject();
        w.key("correct").value(correct);
        w.key("attempted").value(attempted);
        w.key("failed").value(failed);
        w.key("metrics").beginObject();
        for (const Item &item : items_) {
            w.key(item.name).beginObject();
            w.key("value").value(item.value);
            w.key("unit").value(item.unit);
            w.endObject();
        }
        w.endObject();
        w.endObject();
        std::cout << w.str() << std::endl;
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
};

// --- arguments ---------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    unsigned seconds = 0;
    bool trace = false;
    bool selftest = false;
    std::string commit = "unknown";
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::cerr << "asdbench: " << msg << '\n'
              << "usage: asdbench --workload "
                 "stream|commercial|tenants-os|sweep --seed N "
                 "--seconds S --trace 0|1 [--commit ID]\n"
                 "       asdbench --selftest\n";
    std::exit(2);
}

/** Whole-string unsigned decimal in [lo, hi], or a usage error. */
std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text,
              std::uint64_t lo, std::uint64_t hi)
{
    if (text.empty() || text.size() > 19 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        usageError(flag + " must be a whole number, got '" + text + "'");
    const std::uint64_t v = std::stoull(text);
    if (v < lo || v > hi) {
        usageError(flag + " must be in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "], got " + text);
    }
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (!seen.insert(flag).second)
            usageError(flag + " given twice");
        if (flag == "--selftest") {
            args.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            usageError(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            if (std::find(kWorkloads.begin(), kWorkloads.end(), value) ==
                kWorkloads.end())
                usageError("--workload: unknown workload '" + value + "'");
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = parseUnsigned(flag, value, 0, (1ULL << 63) - 1);
        } else if (flag == "--seconds") {
            args.seconds =
                static_cast<unsigned>(parseUnsigned(flag, value, 1, 600));
        } else if (flag == "--trace") {
            args.trace = parseUnsigned(flag, value, 0, 1) == 1;
        } else if (flag == "--commit") {
            args.commit = value;
        } else {
            usageError("unknown argument '" + flag + "'");
        }
    }
    if (!args.selftest) {
        for (const char *required : {"--workload", "--seed", "--seconds",
                                     "--trace"}) {
            if (!seen.count(required))
                usageError(std::string(required) + " is required");
        }
    }
    return args;
}

/**
 * Committed digests of @p workload's variants at the default seed
 * (empty when the file has none for it).
 */
std::vector<std::string>
committedDigests(const std::string &workload)
{
    const std::string path = kDigestsPath;
    std::ifstream in(path);
    if (!in)
        usageError("cannot read " + path);
    std::stringstream text;
    text << in.rdbuf();
    const std::optional<asd::JsonValue> doc = asd::jsonParse(text.str());
    if (!doc || doc->kind() != asd::JsonValue::Kind::Object)
        usageError(path + " is not a JSON object");
    const asd::JsonValue *entry = doc->find(workload);
    if (!entry)
        return {};
    std::vector<std::string> digests;
    if (entry->kind() == asd::JsonValue::Kind::Array) {
        for (const asd::JsonValue &item : entry->items()) {
            if (const std::string *digest = item.asString())
                digests.push_back(*digest);
        }
    }
    if (digests.size() != kVariants) {
        usageError(path + ": " + workload + " needs " +
                   std::to_string(kVariants) + " digests");
    }
    return digests;
}

void
printFingerprint(const Args &args, unsigned threads)
{
    asd::JsonWriter w;
    w.beginObject();
    w.key("host").beginObject();
    w.key("nproc").value(std::thread::hardware_concurrency());
    w.key("compiler").value(std::string(ASDBENCH_COMPILER) + " (" +
                            __VERSION__ + ")");
    w.key("build_type").value(ASDBENCH_BUILD_TYPE);
    w.key("commit").value(args.commit);
    w.key("threads").value(threads);
    w.key("seconds").value(args.seconds);
    w.key("seed").value(args.seed);
    w.key("workload").value(args.workload);
    w.key("trace").value(args.trace);
    w.endObject();
    w.endObject();
    std::cout << w.str() << '\n';
}

// --- per-layer metrics (traced runs) -----------------------------------

/** Every per-layer metric, in print order, with its unit. A layer
 *  that does not run on a workload reports 0. */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"trace.next_calls", "count"},
    {"trace.next_ns", "ns"},
    {"trace.wall_share", "ratio"},
    {"sim.ticks", "count"},
    {"sim.ticks_per_cycle", "ratio"},
    {"sim.self_ns_per_tick", "ns"},
    {"core.observe_read_calls", "count"},
    {"core.observe_read_ns", "ns"},
    {"core.tick_calls", "count"},
    {"core.tick_ns", "ns"},
    {"core.wall_share", "ratio"},
    {"core.suggested", "count"},
    {"core.suppressed", "count"},
    {"core.buffer_useful_ratio", "ratio"},
    {"cpu.retired", "count"},
    {"cache.l1_miss_ratio", "ratio"},
    {"cache.l2_miss_ratio", "ratio"},
    {"cache.l3_miss_ratio", "ratio"},
    {"cache.writebacks", "count"},
    {"cache.access_ns", "ns"},
    {"mc.reads", "count"},
    {"mc.writes", "count"},
    {"mc.prefetches_issued", "count"},
    {"mc.buffer_hits", "count"},
    {"mc.regulars_delayed", "count"},
    {"mc.lpq_drop_ratio", "ratio"},
    {"mc.enqueue_ns", "ns"},
    {"mc.tick_ns", "ns"},
    {"dram.reads", "count"},
    {"dram.writes", "count"},
    {"dram.activates", "count"},
    {"dram.row_hit_ratio", "ratio"},
    {"os.translate_calls", "count"},
    {"os.translate_ns", "ns"},
    {"os.minor_faults", "count"},
    {"os.major_faults", "count"},
    {"os.reclaims", "count"},
    {"os.writebacks", "count"},
    {"os.shootdowns", "count"},
    {"os.tlb_hit_ratio", "ratio"},
    {"os.stall_share", "ratio"},
    {"vm.tlb_hit_ratio", "ratio"},
    {"vm.walk_share", "ratio"},
    {"snapshot.save_ms", "ms"},
    {"snapshot.load_ms", "ms"},
    {"snapshot.bytes", "bytes"},
    {"runner.jobs", "count"},
    {"runner.warm_start_hit_ratio", "ratio"},
    {"runner.job_ms_p50", "ms"},
    {"runner.job_ms_max", "ms"},
    {"runner.pool_idle_share", "ratio"},
    {"runner.sink_write_ms", "ms"},
    {"runner.resume_parse_ms", "ms"},
    {"traced.overhead_ratio", "ratio"},
};

using Layers = std::map<std::string, double>;

/** One traced iteration: its layer values, checks and trace digest. */
struct TracedIteration
{
    Layers layers;
    Checks checks;
    std::string trace_digest;
    std::uint64_t attempted = 1;
    std::uint64_t failed = 0;
};

/**
 * Per-layer values of one traced single-System run of @p spec, after
 * checking it against an untraced run of the same spec and replaying
 * what it captured.
 */
void
traceSingle(const SingleSpec &spec, const std::string &expected_digest,
            TracedIteration &it)
{
    const SingleRun plain = runSingle(spec, false);
    const SingleRun run = runSingle(spec, true);
    Checks &checks = it.checks;
    checkRun(spec, plain, expected_digest, checks);
    checkRun(spec, run, expected_digest, checks);
    if (!plain.error.empty() || !run.error.empty())
        return;
    checks.expect(run.digest == plain.digest,
                  "traced digest " + run.digest + " != untraced " +
                      plain.digest);
    it.trace_digest = traceDigest(run.accesses);

    const RunMetrics &m = run.metrics;
    const auto st = [&run](const std::string &name) -> std::uint64_t {
        const auto found = run.stats.find(name);
        return found == run.stats.end() ? 0 : found->second;
    };
    checks.expect(run.accesses.size() == m.accesses,
                  "trace wrapper saw " +
                      std::to_string(run.accesses.size()) + " accesses");
    std::uint64_t mc_reads = 0;
    for (const McEvent &e : run.mc_events)
        mc_reads += e.write ? 0 : 1;
    checks.expect(mc_reads == m.mc_reads &&
                      run.mc_events.size() - mc_reads == m.mc_writes,
                  "prefetcher wrapper saw a different read/write stream");

    // Replays of what the traced run captured.
    const asd::SystemConfig config = asd::makeSystemConfig(spec.options);
    std::vector<asd::LineAddr> lines;
    Layers &L = it.layers;
    if (spec.options.os.enabled) {
        const OsReplayResult os = replayOs(config, run.accesses, lines);
        checks.expect(os.consumed == run.accesses.size(),
                      "OS replay consumed a different count");
        checks.expect(os.minor_faults == m.os_minor_faults &&
                          os.major_faults == m.os_major_faults &&
                          os.reclaims == m.os_reclaims &&
                          os.writebacks == m.os_writebacks &&
                          os.shootdowns == m.os_shootdowns,
                      "OS replay counters differ from the traced run");
        L["os.translate_calls"] = static_cast<double>(os.consumed);
        L["os.translate_ns"] = ratio(os.ns, static_cast<double>(os.consumed));
        L["os.minor_faults"] = static_cast<double>(m.os_minor_faults);
        L["os.major_faults"] = static_cast<double>(m.os_major_faults);
        L["os.reclaims"] = static_cast<double>(m.os_reclaims);
        L["os.writebacks"] = static_cast<double>(m.os_writebacks);
        L["os.shootdowns"] = static_cast<double>(m.os_shootdowns);
        L["os.tlb_hit_ratio"] =
            ratioU(m.tlb_hits, m.tlb_hits + m.tlb_misses);
        L["os.stall_share"] = ratioU(m.os_stall_cycles, m.cycles);
    } else {
        for (const asd::MemAccess &a : run.accesses)
            lines.push_back(a.addr / config.cpu.line_bytes);
    }
    const ReplayResult cache = replayCache(config, run.accesses, lines);
    checks.expect(cache.consumed == run.accesses.size(),
                  "cache replay consumed a different count");
    const McReplayResult mc = replayMc(config, run.mc_events);
    checks.expect(mc.consumed == run.mc_events.size() &&
                      mc.completed == mc_reads,
                  "MC replay consumed " + std::to_string(mc.consumed) +
                      " of " + std::to_string(run.mc_events.size()) +
                      " events");

    const double core_ns = run.observe_span.ns + run.tick_span.ns;
    L["trace.next_calls"] = static_cast<double>(run.trace_span.calls);
    L["trace.next_ns"] = run.trace_span.perCall();
    L["trace.wall_share"] = ratio(run.trace_span.ns, run.run_ns);
    L["sim.ticks"] = static_cast<double>(run.ticks);
    L["sim.ticks_per_cycle"] = ratioU(run.ticks, m.cycles);
    L["sim.self_ns_per_tick"] =
        ratio(run.run_ns - run.trace_span.ns - core_ns,
              static_cast<double>(run.ticks));
    L["core.observe_read_calls"] =
        static_cast<double>(run.observe_span.calls);
    L["core.observe_read_ns"] = run.observe_span.perCall();
    L["core.tick_calls"] = static_cast<double>(run.tick_span.calls);
    L["core.tick_ns"] = run.tick_span.perCall();
    L["core.wall_share"] = ratio(core_ns, run.run_ns);
    L["core.suggested"] = static_cast<double>(st("asd.suggested"));
    L["core.suppressed"] = static_cast<double>(st("asd.suppressed"));
    L["core.buffer_useful_ratio"] =
        ratioU(st("asd.buffer.consumed"), st("asd.buffer.inserted"));
    std::uint64_t retired = 0;
    for (const auto &[name, value] : run.stats) {
        if (name.rfind("cpu.", 0) == 0 &&
            name.size() > 8 && name.substr(name.size() - 8) == ".retired")
            retired += value;
    }
    L["cpu.retired"] = static_cast<double>(retired);
    for (const char *level : {"l1", "l2", "l3"}) {
        const std::string p = std::string("cache.") + level;
        L[p + "_miss_ratio"] = ratioU(
            st(p + ".misses"), st(p + ".hits") + st(p + ".misses"));
    }
    L["cache.writebacks"] = static_cast<double>(st("cache.writebacks"));
    L["cache.access_ns"] = ratio(cache.ns, static_cast<double>(cache.consumed));
    L["mc.reads"] = static_cast<double>(m.mc_reads);
    L["mc.writes"] = static_cast<double>(m.mc_writes);
    L["mc.prefetches_issued"] = static_cast<double>(m.ms_prefetches_issued);
    L["mc.buffer_hits"] = static_cast<double>(m.buffer_hits);
    L["mc.regulars_delayed"] = static_cast<double>(st("mc.regulars_delayed"));
    L["mc.lpq_drop_ratio"] =
        ratioU(m.lpq_drops, m.ms_prefetches_issued + m.lpq_drops);
    L["mc.enqueue_ns"] = mc.enqueue.perCall();
    L["mc.tick_ns"] = mc.tick.perCall();
    L["dram.reads"] = static_cast<double>(st("dram.reads"));
    L["dram.writes"] = static_cast<double>(st("dram.writes"));
    L["dram.activates"] = static_cast<double>(st("dram.activates"));
    L["dram.row_hit_ratio"] = ratioU(
        st("dram.row_hits"), st("dram.row_hits") + st("dram.row_misses"));
    L["traced.overhead_ratio"] = ratio(run.run_ns, plain.run_ns);
}

/** The sweep's own layers: runner, snapshot and VM, from a traced sweep
 *  checked against an untraced one. */
void
traceSweep(std::uint64_t seed, const std::string &expected_digest,
           TracedIteration &it)
{
    const SweepRun plain = runSweep(seed, false, expected_digest);
    const SweepRun run = runSweep(seed, true, expected_digest);
    Checks &checks = it.checks;
    for (const SweepRun *r : {&plain, &run}) {
        for (const std::string &f : r->failures)
            checks.failures.push_back(f);
    }
    checks.expect(run.digest == plain.digest,
                  "traced sweep digest " + run.digest + " != untraced " +
                      plain.digest);
    it.attempted = run.results.size();
    it.failed = std::max(plain.jobs_failed, run.jobs_failed);

    Layers &L = it.layers;
    std::vector<double> job_ms;
    double job_ms_sum = 0.0;
    std::uint64_t tlb_hits = 0;
    std::uint64_t tlb_lookups = 0;
    std::uint64_t walk_cycles = 0;
    std::uint64_t vm_cycles = 0;
    for (const asd::JobResult &r : run.results) {
        job_ms.push_back(r.wall_ms);
        job_ms_sum += r.wall_ms;
        if (r.metrics.vm_enabled) {
            tlb_hits += r.metrics.tlb_hits;
            tlb_lookups += r.metrics.tlb_hits + r.metrics.tlb_misses;
            walk_cycles += r.metrics.page_walk_cycles;
            vm_cycles += r.metrics.cycles;
        }
    }
    const double jobs = static_cast<double>(run.results.size());
    L["runner.jobs"] = jobs;
    L["runner.warm_start_hit_ratio"] =
        ratio(static_cast<double>(run.summary.warm_started) -
                  static_cast<double>(run.warmup_keys),
              jobs);
    L["runner.job_ms_p50"] = median(job_ms);
    L["runner.job_ms_max"] =
        job_ms.empty() ? 0.0 : *std::max_element(job_ms.begin(), job_ms.end());
    L["runner.pool_idle_share"] =
        1.0 - ratio(job_ms_sum, run.summary.threads * run.run_ns / 1e6);
    L["runner.sink_write_ms"] = run.sink_ns / 1e6;
    L["runner.resume_parse_ms"] = run.adopt_ns / 1e6;
    L["vm.tlb_hit_ratio"] = ratioU(tlb_hits, tlb_lookups);
    L["vm.walk_share"] = ratioU(walk_cycles, vm_cycles);

    const SnapshotTiming snap = timeSnapshot(seed);
    checks.expect(snap.same_state,
                  "restored snapshot does not save the same bytes");
    L["snapshot.save_ms"] = snap.save_ms;
    L["snapshot.load_ms"] = snap.load_ms;
    L["snapshot.bytes"] = static_cast<double>(snap.bytes);
    L["traced.overhead_ratio"] = ratio(run.run_ns, plain.run_ns);
}

TracedIteration
tracedIteration(const std::string &workload, std::uint64_t seed,
                const std::string &expected_digest)
{
    TracedIteration it;
    if (workload == "sweep") {
        // The layers a read passes through come from one job run
        // alone; its digest is not committed, so only the
        // traced-equals-untraced check applies to it.
        traceSingle(singleSpec(workload, seed), "", it);
        traceSweep(seed, expected_digest, it);
    } else {
        traceSingle(singleSpec(workload, seed), expected_digest, it);
    }
    if (!it.checks.failures.empty())
        it.failed = std::max<std::uint64_t>(it.failed, 1);
    return it;
}

// --- modes ------------------------------------------------------------------

void
reportFailures(const std::vector<std::string> &failures)
{
    for (const std::string &f : failures)
        std::cerr << "asdbench: check failed: " << f << '\n';
}

/** The committed digest of variant @p k, or "" when none applies. */
std::string
expectedFor(const std::vector<std::string> &expected, unsigned k)
{
    return k < expected.size() ? expected[k] : "";
}

/**
 * End-to-end metrics from back-to-back untraced simulations, cycling
 * through the run's trace variants; at least one of each is run.
 * Rates are the variants' work over the sum of each variant's fastest
 * stretch times (see foldFastest; a sweep is one stretch), so they do
 * not depend on how often each variant ran, nor on how much of the
 * run the host spent slowed by other load. The simulations rotate
 * over the CPUs the process may use.
 */
int
runEndToEnd(const Args &args, const std::vector<std::string> &expected)
{
    const Clock::time_point start = Clock::now();
    const double budget_ns = args.seconds * 1e9;
    std::vector<double> setup_s;
    std::vector<std::vector<double>> best_ns(kVariants);
    std::vector<std::size_t> timed(kVariants);
    std::vector<std::uint64_t> variant_accesses(kVariants);
    std::vector<std::uint64_t> variant_cycles(kVariants);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> digests(kVariants);
    PrefetchPool pool;
    std::vector<std::string> failures;
    const CpuRotation rotation;
    const unsigned threads = args.workload == "sweep" ? sweepThreads() : 1;

    for (unsigned i = 0; i < kVariants || nsSince(start) < budget_ns; ++i) {
        const unsigned k = i % kVariants;
        // Each round of the variants runs on the next CPUs in turn.
        rotation.pin(i / kVariants, threads);
        const std::uint64_t seed = variantSeed(args.seed, k);
        const std::string want = expectedFor(expected, k);
        std::string digest;
        double setup_ns = 0.0;
        std::vector<double> stretch_ns;
        std::uint64_t accesses = 0;
        std::uint64_t cycles = 0;
        std::vector<RunMetrics> results;
        Checks checks;
        if (args.workload == "sweep") {
            const SweepRun run = runSweep(seed, false, want);
            attempted += run.results.size();
            failed += run.jobs_failed;
            checks.failures = run.failures;
            digest = run.digest;
            setup_ns = run.setup_ns;
            // Two threads run the jobs: the sweep is timed whole.
            stretch_ns = {run.run_ns};
            for (const asd::JobResult &r : run.results)
                results.push_back(r.metrics);
        } else {
            const SingleSpec spec = singleSpec(args.workload, seed);
            const SingleRun run = runSingle(spec, false);
            checkRun(spec, run, want, checks);
            ++attempted;
            if (!checks.failures.empty())
                ++failed;
            digest = run.digest;
            setup_ns = run.setup_ns;
            stretch_ns = run.stretch_ns;
            results.push_back(run.metrics);
        }
        // Accesses and cycles at their logical length: a warm-started
        // sweep job counts its whole trace.
        for (const RunMetrics &m : results) {
            accesses += m.accesses;
            cycles += m.cycles;
        }
        // The simulator is deterministic: every repetition of a
        // variant must reproduce its first run exactly.
        if (i < kVariants) {
            digests[k] = digest;
            variant_accesses[k] = accesses;
            variant_cycles[k] = cycles;
            for (const RunMetrics &m : results)
                pool.add(m);
        } else if (digest != digests[k]) {
            checks.failures.push_back("repetition digest " + digest +
                                      " != first " + digests[k]);
            ++failed;
        }
        failures.insert(failures.end(), checks.failures.begin(),
                        checks.failures.end());
        if (checks.failures.empty()) {
            setup_s.push_back(setup_ns / 1e9);
            if (foldFastest(best_ns[k], stretch_ns)) {
                ++timed[k];
            } else {
                failures.push_back("stretch count differs between "
                                   "repetitions");
                ++failed;
            }
        }
    }

    double seconds = 0.0;
    std::uint64_t accesses = 0;
    std::uint64_t cycles = 0;
    std::size_t samples = 0;
    for (unsigned k = 0; k < kVariants; ++k) {
        for (const double ns : best_ns[k])
            seconds += ns / 1e9;
        accesses += variant_accesses[k];
        cycles += variant_cycles[k];
        samples += timed[k];
    }

    failed = std::min(failed, attempted);
    reportFailures(failures);
    for (unsigned k = 0; k < kVariants; ++k)
        std::cout << "digest " << k << ' ' << digests[k] << '\n';
    std::cout << "samples " << samples << '\n';
    Report report;
    report.add("accesses_per_s", ratio(static_cast<double>(accesses), seconds),
               "1/s");
    report.add("sim_cycles_per_s", ratio(static_cast<double>(cycles), seconds),
               "1/s");
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("coverage_pct", pool.coveragePct(), "%");
    report.add("useful_prefetch_pct", pool.usefulPct(), "%");
    report.add("passed_frac", ratioU(attempted - failed, attempted),
               "ratio");
    report.print(failed == 0, attempted, failed);
    return 0;
}

/**
 * Per-layer metrics from back-to-back traced iterations, cycling
 * through the trace variants; at least one of each is run. Each value
 * is the mean over the variants of that variant's median, so counts
 * are exact for a seed and no variant weighs more for having run
 * more often.
 */
int
runTraced(const Args &args, const std::vector<std::string> &expected)
{
    const Clock::time_point start = Clock::now();
    const double budget_ns = args.seconds * 1e9;
    std::vector<std::map<std::string, std::vector<double>>> samples(
        kVariants);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> traces(kVariants);
    for (unsigned i = 0; i < kVariants || nsSince(start) < budget_ns; ++i) {
        const unsigned k = i % kVariants;
        TracedIteration it =
            tracedIteration(args.workload, variantSeed(args.seed, k),
                            expectedFor(expected, k));
        if (traces[k].empty())
            traces[k] = it.trace_digest;
        it.checks.expect(it.trace_digest == traces[k],
                         "trace differs between repetitions");
        if (!it.checks.failures.empty())
            it.failed = std::max<std::uint64_t>(it.failed, 1);
        attempted += it.attempted;
        failed += it.failed;
        reportFailures(it.checks.failures);
        for (const auto &[name, value] : it.layers)
            samples[k][name].push_back(value);
    }

    failed = std::min(failed, attempted);
    Report report;
    for (const auto &[name, unit] : kLayerMetrics) {
        double sum = 0.0;
        for (auto &variant : samples)
            sum += median(variant[name]);
        report.add(name, sum / kVariants, unit);
    }
    report.print(failed == 0, attempted, failed);
    return 0;
}

/**
 * Self-tests of the benchmark itself: on every workload the wrappers
 * leave the digest unchanged (and equal to the committed one), each
 * replay consumes exactly what the traced run captured, and another
 * seed changes the generated trace.
 */
int
runSelftest()
{
    bool all_ok = true;
    for (const std::string &workload : kWorkloads) {
        const std::vector<std::string> expected =
            committedDigests(workload);
        TracedIteration it =
            tracedIteration(workload, variantSeed(kDefaultSeed, 0),
                            expectedFor(expected, 0));
        const TracedIteration other =
            tracedIteration(workload, variantSeed(kDefaultSeed + 1, 0), "");
        it.checks.expect(!it.trace_digest.empty() &&
                             it.trace_digest != other.trace_digest,
                         "seed " + std::to_string(kDefaultSeed + 1) +
                             " generated the same trace");
        it.checks.expect(!expected.empty(),
                         "no committed digest for this workload");
        const bool ok = it.checks.failures.empty() &&
                        other.checks.failures.empty();
        std::cout << "selftest " << workload << ' '
                  << (ok ? "ok" : "FAILED") << '\n';
        reportFailures(it.checks.failures);
        reportFailures(other.checks.failures);
        all_ok = all_ok && ok;
    }
    return all_ok ? 0 : 1;
}

} // namespace
} // namespace asdbench

int
main(int argc, char **argv)
{
    using namespace asdbench;
    const Args args = parseArgs(argc, argv);
    if (args.selftest)
        return runSelftest();
    const unsigned threads = args.workload == "sweep" ? sweepThreads() : 1;
    printFingerprint(args, threads);
    const std::vector<std::string> expected =
        args.seed == kDefaultSeed
            ? committedDigests(args.workload)
            : std::vector<std::string>{};
    std::cout << "expected_digests " << expected.size() << '\n';
    return args.trace ? runTraced(args, expected)
                      : runEndToEnd(args, expected);
}
