#include "runner/job.hpp"

#include <chrono>
#include <exception>

#include "common/log.hpp"
#include "sim/serialize.hpp"

namespace asd
{

std::string
toString(JobStatus status)
{
    switch (status) {
    case JobStatus::Ok:
        return "ok";
    case JobStatus::Failed:
        return "failed";
    case JobStatus::TimedOut:
        return "timed_out";
    }
    panic("unhandled JobStatus");
}

std::string
makeJobId(const Benchmark &bench, const RunOptions &options,
          std::optional<std::uint64_t> seed)
{
    std::string id = bench.name;
    id += '.';
    id += toString(options.mode);
    id += '.';
    id += toString(options.mc_prefetcher);
    id += ".pb" + std::to_string(options.buffer_lines);
    id += "_sf" + std::to_string(options.filter_slots);
    id += "_d" + std::to_string(options.max_degree);
    if (options.scheduler != SchedulerKind::Ahb)
        id += '.' + toString(options.scheduler);
    if (options.ps_kind != PsKind::Power5)
        id += ".ps_" + toString(options.ps_kind);
    if (options.fixed_policy)
        id += ".pol" + std::to_string(*options.fixed_policy);
    if (options.saturate_long_streams)
        id += ".sat";
    if (options.vm.enabled) {
        id += ".vm_" + toString(options.vm.policy);
        if (options.vm.policy != FrameAllocPolicy::HugePage)
            id += "_p" + std::to_string(options.vm.page_bytes);
    }
    if (options.os.enabled) {
        id += ".os_f" + std::to_string(options.os.frames);
        if (options.vm.walker != PageWalkerKind::Radix)
            id += "_" + toString(options.vm.walker);
    }
    if (options.tenants.enabled) {
        // Zipf exponent in milli-units keeps the id free of '.'s.
        id += ".ten" + std::to_string(options.tenants.slots) + "_z" +
              std::to_string(static_cast<long long>(
                  options.tenants.zipf_s * 1000.0 + 0.5)) +
              "_l" + std::to_string(options.tenants.mean_lifetime);
    }
    if (options.ps_oracle)
        id += ".oracle";
    if (options.ghb_delta_correlate)
        id += ".dc";
    if (options.tuner.enabled)
        id += ".tune";
    if (options.accesses)
        id += ".acc" + std::to_string(*options.accesses);
    if (options.warmup_cycles > 0)
        id += ".wu" + std::to_string(options.warmup_cycles);
    if (seed)
        id += ".seed" + std::to_string(*seed);
    return id;
}

JobSpec
makeJob(const Benchmark &bench, const RunOptions &options,
        std::optional<std::uint64_t> seed)
{
    JobSpec job;
    job.id = makeJobId(bench, options, seed);
    job.bench = bench;
    job.options = options;
    job.seed = seed;
    return job;
}

Benchmark
effectiveBench(const JobSpec &job)
{
    Benchmark bench = job.bench;
    if (job.seed)
        bench.trace.seed = *job.seed;
    return bench;
}

JobResult
runJob(const JobSpec &job)
{
    JobResult result;
    result.spec = job;

    const auto start = std::chrono::steady_clock::now();
    try {
        result.metrics = job.body
                             ? job.body(job)
                             : runBenchmark(effectiveBench(job),
                                            job.options);
        result.status = JobStatus::Ok;
    } catch (const std::exception &e) {
        result.status = JobStatus::Failed;
        result.error = e.what();
    } catch (...) {
        result.status = JobStatus::Failed;
        result.error = "unknown exception";
    }
    const auto end = std::chrono::steady_clock::now();
    result.wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();

    if (result.status == JobStatus::Ok && job.timeout_ms > 0.0 &&
        result.wall_ms > job.timeout_ms) {
        result.status = JobStatus::TimedOut;
        result.error = "exceeded timeout of " +
                       std::to_string(job.timeout_ms) + " ms";
    }
    return result;
}

} // namespace asd
