#include "runner/result_sink.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "common/json.hpp"
#include "common/log.hpp"
#include "sim/serialize.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

std::string
sanitizeFileStem(const std::string &id)
{
    std::string stem = id;
    for (char &c : stem) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        if (!ok)
            c = '_';
    }
    return stem.empty() ? std::string("job") : stem;
}

// --- JsonDirSink ---------------------------------------------------

JsonDirSink::JsonDirSink(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("cannot create result directory " + dir_ + ": " +
              ec.message());
}

std::string
JsonDirSink::recordJson(const JobResult &result)
{
    JsonWriter writer;
    writer.beginObject();
    writer.key("schema").value("asdsweep/result/v1");
    writer.key("id").value(result.spec.id);
    writer.key("benchmark").value(result.spec.bench.name);
    writer.key("status").value(toString(result.status));
    writer.key("error");
    if (result.error.empty())
        writer.null();
    else
        writer.value(result.error);
    writer.key("wall_ms").value(result.wall_ms);
    writer.key("worker")
        .value(static_cast<std::uint64_t>(result.worker));
    writer.key("seed").value(result.spec.seed
                                 ? *result.spec.seed
                                 : result.spec.bench.trace.seed);
    writer.key("options");
    writeJson(writer, result.spec.options);
    writer.key("metrics");
    if (result.status == JobStatus::Failed)
        writer.null();
    else
        writeJson(writer, result.metrics);
    writer.endObject();
    return writer.str();
}

void
JsonDirSink::write(const JobResult &result)
{
    Entry entry;
    entry.id = result.spec.id;
    entry.file = sanitizeFileStem(result.spec.id) + ".json";
    entry.benchmark = result.spec.bench.name;
    entry.status = toString(result.status);
    entry.wall_ms = result.wall_ms;

    const std::filesystem::path path =
        std::filesystem::path(dir_) / entry.file;
    std::ofstream out(path);
    if (!out)
        fatal("cannot write result record " + path.string());
    out << recordJson(result) << "\n";
    entries_.push_back(std::move(entry));
}

bool
JsonDirSink::adoptExisting(const JobSpec &spec)
{
    const std::string file = sanitizeFileStem(spec.id) + ".json";
    const std::filesystem::path path =
        std::filesystem::path(dir_) / file;
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::optional<JsonValue> doc = jsonParse(buffer.str());
    if (!doc)
        return false;
    // The record must be for this very job (a sanitized stem can
    // collide across ids) and must have finished cleanly; failed or
    // timed-out records are rerun.
    const auto stringAt = [&doc](std::string_view key) {
        const JsonValue *member = doc->find(key);
        const std::string *value = member ? member->asString() : nullptr;
        return value ? *value : std::string();
    };
    const JsonValue *wall_ms = doc->find("wall_ms");
    if (stringAt("schema") != "asdsweep/result/v1" ||
        stringAt("id") != spec.id || stringAt("status") != "ok" ||
        !wall_ms || !wall_ms->asDouble())
        return false;
    // An id need not spell out every knob: the stored options must be
    // this job's very options.
    const JsonValue *options = doc->find("options");
    try {
        if (!options ||
            toJson(optionsFromJson(*options)) != toJson(spec.options))
            return false;
    } catch (const SnapshotError &) {
        return false;
    }

    Entry entry;
    entry.id = spec.id;
    entry.file = file;
    entry.benchmark = spec.bench.name;
    entry.status = "ok";
    // Carry the original wall time into the new manifest.
    entry.wall_ms = *wall_ms->asDouble();
    entries_.push_back(std::move(entry));
    ++skipped_;
    return true;
}

void
JsonDirSink::finish(const SweepSummary &summary)
{
    // Completion order is scheduling-dependent; sort so the manifest
    // is stable across runs.
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry &a, const Entry &b) { return a.id < b.id; });

    JsonWriter writer;
    writer.beginObject();
    writer.key("schema").value("asdsweep/manifest/v1");
    writer.key("jobs").value(
        static_cast<std::uint64_t>(summary.jobs));
    writer.key("ok").value(static_cast<std::uint64_t>(summary.ok));
    writer.key("failed").value(
        static_cast<std::uint64_t>(summary.failed));
    writer.key("timed_out").value(
        static_cast<std::uint64_t>(summary.timed_out));
    writer.key("warm_started").value(
        static_cast<std::uint64_t>(summary.warm_started));
    writer.key("skipped").value(
        static_cast<std::uint64_t>(skipped_));
    writer.key("threads").value(
        static_cast<std::uint64_t>(summary.threads));
    writer.key("wall_ms").value(summary.wall_ms);
    writer.key("records").beginArray();
    for (const Entry &entry : entries_) {
        writer.beginObject();
        writer.key("id").value(entry.id);
        writer.key("file").value(entry.file);
        writer.key("benchmark").value(entry.benchmark);
        writer.key("status").value(entry.status);
        writer.key("wall_ms").value(entry.wall_ms);
        writer.endObject();
    }
    writer.endArray();
    writer.endObject();

    const std::filesystem::path path =
        std::filesystem::path(dir_) / "manifest.json";
    std::ofstream out(path);
    if (!out)
        fatal("cannot write manifest " + path.string());
    out << writer.str() << "\n";
}

// --- CsvSink -------------------------------------------------------

std::string
CsvSink::header()
{
    return "id,benchmark,status,wall_ms,mode,mc_prefetcher,"
           "buffer_lines,filter_slots,max_degree,seed,cycles,accesses,"
           "dram_watts,dram_energy_mj,coverage_pct,"
           "useful_prefetch_pct,delayed_regular_pct,mc_reads,"
           "mc_writes,ms_prefetches_issued,buffer_hits,lpq_drops";
}

CsvSink::CsvSink(const std::string &path)
{
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
    }
    out_.open(path);
    if (!out_)
        fatal("cannot write CSV " + path);
    out_ << header() << "\n";
}

void
CsvSink::write(const JobResult &result)
{
    const RunOptions &o = result.spec.options;
    const RunMetrics &m = result.metrics;
    std::ostringstream row;
    row << result.spec.id << ',' << result.spec.bench.name << ','
        << toString(result.status) << ',' << result.wall_ms << ','
        << toString(o.mode) << ',' << toString(o.mc_prefetcher) << ','
        << o.buffer_lines << ',' << o.filter_slots << ','
        << o.max_degree << ','
        << (result.spec.seed ? *result.spec.seed
                             : result.spec.bench.trace.seed);
    if (result.status == JobStatus::Failed) {
        // No metrics; keep the column count stable.
        for (int i = 0; i < 12; ++i)
            row << ',';
    } else {
        row << ',' << m.cycles << ',' << m.accesses << ','
            << m.dram_watts << ',' << m.dram_energy_mj << ','
            << m.coverage_pct << ',' << m.useful_prefetch_pct << ','
            << m.delayed_regular_pct << ',' << m.mc_reads << ','
            << m.mc_writes << ',' << m.ms_prefetches_issued << ','
            << m.buffer_hits << ',' << m.lpq_drops;
    }
    out_ << row.str() << "\n";
}

void
CsvSink::finish(const SweepSummary &)
{
    out_.flush();
}

} // namespace asd
