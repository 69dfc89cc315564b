#ifndef ASD_RUNNER_WARM_START_HPP
#define ASD_RUNNER_WARM_START_HPP

/**
 * @file
 * Warm-start reuse for sweeps. Sweeps in this repo vary memory-side
 * prefetcher parameters (buffer lines, filter slots, degree, policy)
 * across a shared benchmark set; with warmup_cycles > 0 the machine
 * runs *disarmed* to the warm-up boundary, and a disarmed controller
 * behaves exactly as if no memory-side prefetcher were attached — so
 * every job that agrees on the warm-up-relevant knobs evolves through
 * an identical pre-boundary machine. This module simulates each
 * distinct warm-up once, snapshots it, and forks the snapshot across
 * the sharing jobs, with per-job results byte-identical to cold
 * starts (pinned by test_runner).
 *
 * warmupKey() is the sharing contract: it must include every knob
 * that shapes the disarmed machine's evolution and may exclude only
 * what the disarmed machine cannot see. It is the benchmark, trace
 * seed and resolved trace length followed by the options JSON of the
 * warm-up machine, with the memory-side-only knobs (prefetcher kind,
 * LPQ policy pinning, buffer lines, filter slots, degree, long-stream
 * saturation, GHB correlation mode) reset to their defaults; the
 * JSON never carries telemetry. The snapshot's header hash is the
 * FNV-1a of the key, so a stale or foreign cache file is rejected
 * and the job falls back to a cold start instead of restoring a
 * mismatched machine.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runner/job.hpp"

namespace asd
{

/** A serialized warm-up checkpoint. */
using SnapshotBytes = std::vector<std::uint8_t>;

/**
 * Canonical description of the warm-up @p job would need. Jobs with
 * equal keys can share one warm-up snapshot.
 */
std::string warmupKey(const JobSpec &job);

/** Default-bodied job with a warm-up phase to share? */
bool warmStartEligible(const JobSpec &job);

/**
 * Once-per-key snapshot store shared by the jobs of one sweep.
 * Thread-safe: the first caller of obtain() for a key computes (or
 * reads from the disk cache) while later callers block on the shared
 * future, so each distinct warm-up is simulated exactly once per
 * process no matter how many workers race on it.
 */
class WarmupCache
{
  public:
    /**
     * @param dir optional on-disk cache directory (created on first
     *        write); snapshots persist across sweeps there and are
     *        validated against the key hash before reuse. Empty =
     *        in-memory only.
     */
    explicit WarmupCache(std::string dir = "");

    /**
     * The snapshot for @p key, from memory, disk, or @p make (in that
     * order). Rethrows make()'s exception to every sharer.
     */
    std::shared_ptr<const SnapshotBytes>
    obtain(const std::string &key,
           const std::function<SnapshotBytes()> &make);

  private:
    std::string diskPath(const std::string &key) const;
    std::shared_ptr<const SnapshotBytes>
    tryDisk(const std::string &key) const;
    void putDisk(const std::string &key,
                 const SnapshotBytes &bytes) const;

    std::string dir_;
    std::mutex mutex_;
    std::map<std::string,
             std::shared_future<std::shared_ptr<const SnapshotBytes>>>
        entries_;
};

/**
 * Run @p job from its shared warm-up: obtain the snapshot for
 * warmupKey(job) from @p cache (simulating the warm-up, memory side
 * stripped and telemetry off, when no sharer has yet), restore it
 * into the job's full machine, arm at the boundary and run to
 * completion. Throws SnapshotError when the image does not match
 * the job's warm-up key or shape.
 */
RunMetrics runWarmStarted(const JobSpec &job, WarmupCache &cache);

/**
 * Give every eligible job a body that runs runWarmStarted() through
 * @p cache and falls back to a cold start on a SnapshotError
 * (ineligible jobs — custom bodies, no warm-up phase — are left
 * untouched). @return the number of jobs wrapped.
 */
std::size_t applyWarmStart(std::vector<JobSpec> &jobs,
                           std::shared_ptr<WarmupCache> cache);

} // namespace asd

#endif // ASD_RUNNER_WARM_START_HPP
