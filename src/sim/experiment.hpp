#ifndef ASD_SIM_EXPERIMENT_HPP
#define ASD_SIM_EXPERIMENT_HPP

/**
 * @file
 * The run builder every harness shares: the benches, examples,
 * sweep runner, warm starts, snapshots and the tuner all turn a
 * benchmark and its RunOptions into trace sources, a System and
 * metrics here. Centralizes the paper's defaults so every figure
 * runs the same machine.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "sim/system_config.hpp"
#include "sim/tuner_config.hpp"
#include "telemetry/recorder.hpp"
#include "workloads/profiles.hpp"
#include "workloads/tenant_mix.hpp"

namespace asd
{

/** Per-run knobs the experiments vary. */
struct RunOptions
{
    PrefetchMode mode = PrefetchMode::PMS;
    McPrefetcherKind mc_prefetcher = McPrefetcherKind::Asd;
    PsKind ps_kind = PsKind::Power5;
    SchedulerKind scheduler = SchedulerKind::Ahb;

    /** Pin the LPQ policy (disables Adaptive Scheduling). */
    std::optional<int> fixed_policy;

    /** ASD structure sizes (paper defaults). */
    std::uint32_t buffer_lines = 16;
    std::uint32_t filter_slots = 8;
    std::uint32_t max_degree = 1;
    bool saturate_long_streams = false;

    /** Idealized (instant, free) processor-side prefetch fills. */
    bool ps_oracle = false;

    /**
     * GHB correlation mode: false = the classic address-correlating
     * G/AC (default, the original contender), true = global delta
     * correlation (G/DC), which actually fires on streaming
     * workloads whose addresses never recur at the controller.
     */
    bool ghb_delta_correlate = false;

    /** Override the benchmark's trace length. */
    std::optional<std::uint64_t> accesses;

    /**
     * Cycles before the memory-side prefetcher is armed (see
     * SystemConfig::warmup_cycles). While disarmed the machine
     * evolves exactly as if no MS prefetcher were attached, which is
     * what makes one warm-up snapshot reusable across MS-parameter
     * sweeps. 0 = armed from the start.
     */
    Cycle warmup_cycles = 0;

    /** Virtual-memory layer (off by default => seed-identical). */
    VmConfig vm;

    /**
     * OS memory model (off by default => seed-identical). Mutually
     * exclusive with vm.enabled; reads granule/TLB/walker geometry
     * from the vm block either way.
     */
    OsConfig os;

    /** Multi-tenant scenario engine (off by default). */
    TenantMixConfig tenants;

    /** Per-epoch telemetry recorder (off by default). */
    // asdlint:allow(serialize-coverage): observational only; serializing it would perturb every existing options JSON and config hash
    TelemetryConfig telemetry;

    /** Phase-adaptive tuner (off by default => byte-identical). */
    TunerConfig tuner;
};

/** The paper's default machine for @p options. */
SystemConfig makeSystemConfig(const RunOptions &options);

/**
 * The trace sources a run of @p benches reads, one per hardware
 * thread: each benchmark's generator with its trace length resolved
 * (@p accesses when non-zero, else scaledAccesses()), or, with
 * options.tenants.enabled, one tenant mix of the single benchmark.
 * The second thread of an SMT pair runs with seed*7919+17, so
 * co-running copies of one benchmark do not share address streams.
 * fatal() on a tenant mix of two benchmarks (a mix is one
 * interleaved trace).
 */
std::vector<std::unique_ptr<TraceSource>>
makeTraceSources(const std::vector<Benchmark> &benches,
                 const RunOptions &options, std::uint64_t accesses = 0);

/** What one finished run produced. */
struct RunResult
{
    /** The machine's metrics, with the tenant fields of a mix. */
    RunMetrics metrics;

    /** The telemetry time series (empty when telemetry is off). */
    std::vector<EpochRecord> epochs;
};

/**
 * One run of one benchmark (or an SMT pair of two), built the one
 * way every harness builds it: the trace sources of
 * makeTraceSources(), a System over them, and, for a tenant mix, the
 * mix's arrival/departure counters wired into the telemetry
 * recorder before the first tick. Callers that stop and resume
 * (warm starts, snapshots, the tuner) drive system() directly and
 * read the outcome through result().
 */
class BenchmarkRun
{
  public:
    /**
     * @param accesses the resolved trace length; 0 = scaledAccesses()
     *        per benchmark. A snapshot pins it, since the scale may
     *        differ between the process that saved and the one that
     *        restores.
     * @param config the machine; default makeSystemConfig(options).
     */
    BenchmarkRun(const std::vector<Benchmark> &benches,
                 const RunOptions &options, std::uint64_t accesses = 0,
                 const std::optional<SystemConfig> &config =
                     std::nullopt);

    BenchmarkRun(const BenchmarkRun &) = delete;
    BenchmarkRun &operator=(const BenchmarkRun &) = delete;

    System &system() { return system_; }
    const System &system() const { return system_; }

    /** Run to completion and report. */
    RunResult run();

    /** The outcome as the machine stands now. */
    RunResult result() const;

  private:
    std::vector<std::unique_ptr<TraceSource>> sources_;
    const TenantMixSource *mix_ = nullptr; //!< sources_[0] of a mix
    System system_;
};

/** Run one benchmark single-threaded to completion. */
RunMetrics runBenchmark(const Benchmark &bench,
                        const RunOptions &options);

/** Run two benchmark threads on one core (SMT experiments). */
RunMetrics runSmtPair(const Benchmark &a, const Benchmark &b,
                      const RunOptions &options);

/**
 * Global trace-length multiplier from the ASD_BENCH_SCALE environment
 * variable (default 1.0); lets CI shrink the figure runs.
 */
double benchScale();

/**
 * Parse one ASD_BENCH_SCALE value. Unset (nullptr), empty,
 * non-numeric, non-finite, or non-positive text yields 1.0 (with a
 * warning for everything except unset/empty) instead of propagating a
 * garbage trace length. Exposed separately so tests can cover the
 * rejection paths without mutating the environment behind the cached
 * benchScale().
 */
double parseBenchScale(const char *text);

/** Apply benchScale() and any explicit override to a trace length. */
std::uint64_t scaledAccesses(const Benchmark &bench,
                             const RunOptions &options);

} // namespace asd

#endif // ASD_SIM_EXPERIMENT_HPP
