#include "runner/sweep_runner.hpp"

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/log.hpp"
#include "runner/thread_pool.hpp"
#include "runner/warm_start.hpp"
#include "sim/serialize.hpp"

namespace asd
{

SweepRunner::SweepRunner(SweepOptions options)
    : options_(std::move(options))
{
}

std::vector<JobResult>
SweepRunner::run(const std::vector<JobSpec> &jobs_in)
{
    // Result records and resume are keyed by job id, so two jobs may
    // share an id only when they run the same options.
    std::map<std::string, std::string> options_by_id;
    for (const JobSpec &job : jobs_in) {
        const std::string options = toJson(job.options);
        const auto [it, added] = options_by_id.emplace(job.id, options);
        if (!added && it->second != options)
            fatal("job id '" + job.id +
                  "' names two jobs with different options; their "
                  "records would overwrite each other");
    }

    std::vector<JobSpec> jobs = jobs_in;
    std::size_t warm_started = 0;
    if (options_.warm_start) {
        auto cache =
            std::make_shared<WarmupCache>(options_.snapshot_dir);
        warm_started = applyWarmStart(jobs, std::move(cache));
    }

    const auto start = std::chrono::steady_clock::now();
    const auto elapsedMs = [start] {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    unsigned threads =
        options_.threads == 0 ? defaultThreadCount() : options_.threads;
    if (threads > jobs.size())
        threads = static_cast<unsigned>(jobs.size());
    if (threads == 0)
        threads = 1;

    summary_ = SweepSummary{};
    summary_.jobs = jobs.size();
    summary_.threads = threads;
    summary_.warm_started = warm_started;

    std::vector<JobResult> results(jobs.size());
    if (!jobs.empty()) {
        std::mutex report_mutex;
        SweepProgress progress;
        progress.total = jobs.size();

        ThreadPool pool(threads);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            pool.submit([&, i](unsigned worker) {
                JobSpec job = jobs[i];
                if (job.timeout_ms <= 0.0)
                    job.timeout_ms = options_.default_timeout_ms;
                JobResult result = runJob(job);
                result.worker = worker;

                std::lock_guard<std::mutex> lock(report_mutex);
                ++progress.done;
                switch (result.status) {
                case JobStatus::Ok:
                    ++progress.ok;
                    break;
                case JobStatus::Failed:
                    ++progress.failed;
                    break;
                case JobStatus::TimedOut:
                    ++progress.timed_out;
                    break;
                }
                progress.last_id = result.spec.id;
                progress.last_wall_ms = result.wall_ms;
                progress.elapsed_ms = elapsedMs();
                const auto left = progress.total - progress.done;
                progress.eta_ms =
                    progress.done == 0
                        ? 0.0
                        : progress.elapsed_ms /
                              static_cast<double>(progress.done) *
                              static_cast<double>(left);
                if (options_.sink)
                    options_.sink->write(result);
                results[i] = std::move(result);
                if (options_.on_progress)
                    options_.on_progress(progress);
            });
        }
        pool.wait();

        summary_.ok = progress.ok;
        summary_.failed = progress.failed;
        summary_.timed_out = progress.timed_out;
    }

    summary_.wall_ms = elapsedMs();
    if (options_.sink)
        options_.sink->finish(summary_);
    return results;
}

} // namespace asd
