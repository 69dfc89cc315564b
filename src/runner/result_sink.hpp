#ifndef ASD_RUNNER_RESULT_SINK_HPP
#define ASD_RUNNER_RESULT_SINK_HPP

/**
 * @file
 * Structured persistence for sweep results. A ResultSink receives
 * each finished JobResult (serialized by the runner — implementations
 * need no locking) and a final summary. JsonDirSink writes one JSON
 * record per job plus a manifest; CsvSink writes one flat CSV row per
 * job for spreadsheet-style analysis.
 */

#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

#include "runner/job.hpp"

namespace asd
{

/** Whole-sweep statistics handed to ResultSink::finish(). */
struct SweepSummary
{
    std::size_t jobs = 0;
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t timed_out = 0;

    /** Jobs wrapped to run from a shared warm-up snapshot. */
    std::size_t warm_started = 0;

    /** Wall-clock duration of the whole sweep. */
    double wall_ms = 0.0;

    /** Worker threads the sweep ran on. */
    unsigned threads = 0;
};

/** Consumer of finished jobs. Calls arrive serialized, in completion
 *  order (which is nondeterministic under parallelism). */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /** One job finished (any status). */
    virtual void write(const JobResult &result) = 0;

    /** The sweep is over; flush. */
    virtual void
    finish(const SweepSummary &summary)
    {
        (void)summary;
    }
};

/** @return @p id reduced to [A-Za-z0-9._-] for use as a file stem. */
std::string sanitizeFileStem(const std::string &id);

/**
 * Writes <dir>/<id>.json per job (schema "asdsweep/result/v1": id,
 * benchmark, status, error, wall_ms, seed, options, metrics) and a
 * <dir>/manifest.json index (schema "asdsweep/manifest/v1") listing
 * every record with its status and wall time, sorted by id. Creates
 * @p dir (and parents) on construction.
 */
class JsonDirSink : public ResultSink
{
  public:
    explicit JsonDirSink(std::string dir);

    void write(const JobResult &result) override;
    void finish(const SweepSummary &summary) override;

    const std::string &
    dir() const
    {
        return dir_;
    }

    /**
     * Try to adopt an existing record for @p spec (sweep resume): if
     * <dir>/<stem>.json exists, is valid JSON, and reports status
     * "ok" for this very job id and options (read back through
     * optionsFromJson), keep it in the manifest without re-running
     * the job and return true. Anything else — missing file,
     * unparseable JSON, failed/timed-out status, a different job's
     * record under the same stem, options that differ — returns
     * false, and the caller should run the job normally (overwriting
     * the stale record). Adopted records count toward the manifest's
     * "skipped" total.
     */
    bool adoptExisting(const JobSpec &spec);

    /** Records adopted by adoptExisting() so far. */
    std::size_t
    skipped() const
    {
        return skipped_;
    }

    /** Serialize one result to its record JSON (document string). */
    static std::string recordJson(const JobResult &result);

  private:
    struct Entry
    {
        std::string id;
        std::string file;
        std::string benchmark;
        std::string status;
        double wall_ms = 0.0;
    };

    std::string dir_;
    std::vector<Entry> entries_;
    std::size_t skipped_ = 0;
};

/** Appends one CSV row per job to a single file (header included). */
class CsvSink : public ResultSink
{
  public:
    explicit CsvSink(const std::string &path);

    void write(const JobResult &result) override;
    void finish(const SweepSummary &summary) override;

    /** The CSV header row this sink emits. */
    static std::string header();

  private:
    std::ofstream out_;
};

/** Fan one result stream out to several sinks. */
class TeeSink : public ResultSink
{
  public:
    explicit TeeSink(std::vector<ResultSink *> sinks)
        : sinks_(std::move(sinks))
    {
    }

    void
    write(const JobResult &result) override
    {
        for (ResultSink *sink : sinks_)
            sink->write(result);
    }

    void
    finish(const SweepSummary &summary) override
    {
        for (ResultSink *sink : sinks_)
            sink->finish(summary);
    }

  private:
    std::vector<ResultSink *> sinks_;
};

} // namespace asd

#endif // ASD_RUNNER_RESULT_SINK_HPP
