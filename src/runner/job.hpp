#ifndef ASD_RUNNER_JOB_HPP
#define ASD_RUNNER_JOB_HPP

/**
 * @file
 * The sweep runner's unit of work: one benchmark in one configuration
 * with a stable id and an explicit seed, plus the structured record a
 * finished (or failed) job leaves behind. Jobs are pure values — the
 * runner can execute them on any thread in any order and still
 * produce results identical to a serial loop.
 */

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "workloads/profiles.hpp"

namespace asd
{

/** One simulation to run. */
struct JobSpec
{
    /**
     * Stable identifier, unique within a sweep; doubles as the result
     * file stem. makeJob() derives one from the varied fields.
     */
    std::string id;

    Benchmark bench;
    RunOptions options;

    /** Overrides the benchmark's trace seed when set. */
    std::optional<std::uint64_t> seed;

    /**
     * Soft wall-clock limit in milliseconds (0 = none). Simulations
     * are hard-bounded by SystemConfig::max_cycles, so the runner
     * checks the limit when the job finishes and downgrades the
     * result to TimedOut rather than killing the thread.
     */
    double timeout_ms = 0.0;

    /**
     * Custom work body; when empty the job runs
     * runBenchmark(bench-with-seed, options). Lets harnesses reuse
     * the pool for SMT pairs or fault-injection tests.
     */
    std::function<RunMetrics(const JobSpec &)> body;
};

/** How a job ended. */
enum class JobStatus : std::uint8_t
{
    Ok,       //!< ran to completion
    Failed,   //!< threw; error holds the message
    TimedOut, //!< completed but exceeded timeout_ms
};

std::string toString(JobStatus status);

/** Structured outcome of one job. */
struct JobResult
{
    JobSpec spec;
    JobStatus status = JobStatus::Ok;

    /** Valid unless status == Failed. */
    RunMetrics metrics;

    /** Exception message when status == Failed. */
    std::string error;

    /** Wall-clock duration of the job body. */
    double wall_ms = 0.0;

    /** Pool worker that ran the job (telemetry only). */
    unsigned worker = 0;
};

/**
 * Derive a stable job id from the fields experiments vary:
 * "<bench>.<mode>.<mc_prefetcher>.pb16_sf8_d1" plus suffixes for
 * non-default knobs (fixed policy, saturation, oracle, access
 * override, seed override). The id does not spell out every knob;
 * SweepRunner::run refuses two jobs that share an id but not their
 * options.
 */
std::string makeJobId(const Benchmark &bench, const RunOptions &options,
                      std::optional<std::uint64_t> seed = std::nullopt);

/** Build a JobSpec with makeJobId() as its id. */
JobSpec makeJob(const Benchmark &bench, const RunOptions &options,
                std::optional<std::uint64_t> seed = std::nullopt);

/**
 * Execute @p job on the calling thread: apply the seed override, run
 * the body (default: runBenchmark), capture exceptions as Failed
 * records and enforce the soft timeout. Never throws.
 */
JobResult runJob(const JobSpec &job);

} // namespace asd

#endif // ASD_RUNNER_JOB_HPP
