#include "runner/warm_start.hpp"

#include <filesystem>
#include <sstream>

#include "common/log.hpp"
#include "sim/serialize.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/synthetic.hpp"

namespace asd
{

namespace
{

/** The benchmark with any per-job seed override applied. */
Benchmark
effectiveBench(const JobSpec &job)
{
    Benchmark bench = job.bench;
    if (job.seed)
        bench.trace.seed = *job.seed;
    return bench;
}

/**
 * The configuration the warm-up runs under: the job's options with
 * the memory side stripped (PMS -> PS, MS -> NP) and telemetry off.
 * The resulting machine's evolution is identical to the job's own
 * disarmed machine, but the snapshot carries no "ms"/"tel" sections,
 * so it restores into ANY memory-side configuration that shares the
 * warm-up key.
 */
RunOptions
warmupOptions(const JobSpec &job)
{
    RunOptions options = job.options;
    options.mode = options.mode == PrefetchMode::PMS ||
                           options.mode == PrefetchMode::PS
                       ? PrefetchMode::PS
                       : PrefetchMode::NP;
    options.telemetry.enabled = false;
    return options;
}

} // namespace

std::string
warmupKey(const JobSpec &job)
{
    const Benchmark bench = effectiveBench(job);
    // The knobs only an armed memory-side prefetcher reads. Every
    // other field of the warm-up options reaches the key through its
    // JSON, so a knob added later can only cost sharing, never
    // restore a mismatched machine.
    RunOptions shared = warmupOptions(job);
    const RunOptions defaults;
    shared.mc_prefetcher = defaults.mc_prefetcher;
    shared.fixed_policy = defaults.fixed_policy;
    shared.buffer_lines = defaults.buffer_lines;
    shared.filter_slots = defaults.filter_slots;
    shared.max_degree = defaults.max_degree;
    shared.saturate_long_streams = defaults.saturate_long_streams;
    shared.ghb_delta_correlate = defaults.ghb_delta_correlate;
    return "asdwarm/v2;bench=" + bench.name +
           ";seed=" + std::to_string(bench.trace.seed) +
           ";acc=" + std::to_string(scaledAccesses(bench, job.options)) +
           ";" + toJson(shared);
}

bool
warmStartEligible(const JobSpec &job)
{
    // Tenant mixes run through a TenantMixSource; the warm-up
    // fork path below rebuilds a plain SyntheticTraceGenerator, so
    // those jobs always cold-start.
    return !job.body && job.options.warmup_cycles > 0 &&
           !job.options.tenants.enabled;
}

SnapshotBytes
simulateWarmup(const JobSpec &job)
{
    const Benchmark bench = effectiveBench(job);
    SyntheticConfig trace_config = bench.trace;
    trace_config.total_accesses = scaledAccesses(bench, job.options);
    SyntheticTraceGenerator trace(trace_config);

    System system(makeSystemConfig(warmupOptions(job)), {&trace});
    system.runUntil(job.options.warmup_cycles);

    SnapshotWriter writer;
    system.saveSnapshot(writer);
    return writer.finish(fnv1a64(warmupKey(job)));
}

RunMetrics
runFromSnapshot(const JobSpec &job, const SnapshotBytes &bytes)
{
    const Benchmark bench = effectiveBench(job);
    SyntheticConfig trace_config = bench.trace;
    trace_config.total_accesses = scaledAccesses(bench, job.options);
    SyntheticTraceGenerator trace(trace_config);

    SnapshotReader reader(bytes);
    reader.requireConfigHash(fnv1a64(warmupKey(job)));

    System system(makeSystemConfig(job.options), {&trace});
    system.loadSnapshot(reader);
    system.runUntil(kNoCycle);
    return system.collectMetrics();
}

// --- WarmupCache ---------------------------------------------------

WarmupCache::WarmupCache(std::string dir) : dir_(std::move(dir)) {}

std::string
WarmupCache::diskPath(const std::string &key) const
{
    std::ostringstream name;
    name << std::hex << fnv1a64(key);
    return (std::filesystem::path(dir_) / (name.str() + ".asdsnap"))
        .string();
}

std::shared_ptr<const SnapshotBytes>
WarmupCache::tryDisk(const std::string &key) const
{
    if (dir_.empty())
        return nullptr;
    const std::string path = diskPath(key);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec)
        return nullptr;
    try {
        auto bytes = std::make_shared<const SnapshotBytes>(
            readSnapshotFile(path));
        // Validate framing and binding before handing it out; a
        // stale or foreign file must cause a fresh warm-up, not a
        // mismatched restore.
        SnapshotReader reader(*bytes);
        reader.requireConfigHash(fnv1a64(key));
        return bytes;
    } catch (const SnapshotError &e) {
        warn("ignoring unusable warm-up cache file " + path + " (" +
             e.what() + ")");
        return nullptr;
    }
}

void
WarmupCache::putDisk(const std::string &key,
                     const SnapshotBytes &bytes) const
{
    if (dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        warn("cannot create warm-up cache directory " + dir_ + ": " +
             ec.message());
        return;
    }
    try {
        writeSnapshotFile(diskPath(key), bytes);
    } catch (const SnapshotError &e) {
        warn(std::string("cannot persist warm-up snapshot: ") +
             e.what());
    }
}

std::shared_ptr<const SnapshotBytes>
WarmupCache::obtain(const std::string &key,
                    const std::function<SnapshotBytes()> &make)
{
    std::promise<std::shared_ptr<const SnapshotBytes>> promise;
    std::shared_future<std::shared_ptr<const SnapshotBytes>> future;
    bool creator = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            future = it->second;
        } else {
            creator = true;
            future = promise.get_future().share();
            entries_.emplace(key, future);
        }
    }
    if (creator) {
        try {
            std::shared_ptr<const SnapshotBytes> bytes = tryDisk(key);
            if (!bytes) {
                bytes =
                    std::make_shared<const SnapshotBytes>(make());
                putDisk(key, *bytes);
            }
            promise.set_value(std::move(bytes));
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

std::size_t
applyWarmStart(std::vector<JobSpec> &jobs,
               std::shared_ptr<WarmupCache> cache)
{
    std::size_t wrapped = 0;
    for (JobSpec &job : jobs) {
        if (!warmStartEligible(job))
            continue;
        ++wrapped;
        job.body = [cache](const JobSpec &j) -> RunMetrics {
            try {
                const auto bytes = cache->obtain(
                    warmupKey(j), [&j] { return simulateWarmup(j); });
                return runFromSnapshot(j, *bytes);
            } catch (const SnapshotError &e) {
                warn("warm start failed for " + j.id + " (" +
                     e.what() + "); falling back to a cold start");
                return runBenchmark(effectiveBench(j), j.options);
            }
        };
    }
    return wrapped;
}

} // namespace asd
