#ifndef ASD_SIM_SERIALIZE_HPP
#define ASD_SIM_SERIALIZE_HPP

/**
 * @file
 * Machine-readable views of the experiment layer: enum <-> string
 * names shared by the CLIs and the sweep runner's job ids, and JSON
 * serialization of RunOptions / RunMetrics so sweep results can be
 * consumed by scripts instead of scraped from text tables.
 *
 * Each record has one field list (visitFields in serialize.cpp) that
 * names every field once with its JSON key; the writers and readers
 * below all walk it. The options JSON is the only serialization of
 * RunOptions: sweep records, snapshot metadata, runConfigHash and
 * the warm-up key are all built from it.
 */

#include <optional>
#include <string>

#include "common/json.hpp"
#include "common/names.hpp"
#include "sim/experiment.hpp"

namespace asd
{

/**
 * The one name table of each enum with a text spelling. Every
 * conversion below, and each CLI's parsing and --help choices, is
 * derived from these. Found by argument-dependent lookup, so
 * valueFor<E>() in common/flags.hpp can reach them.
 */
NameTable<PrefetchMode> nameTable(PrefetchMode);
NameTable<McPrefetcherKind> nameTable(McPrefetcherKind);
NameTable<PsKind> nameTable(PsKind);
NameTable<SchedulerKind> nameTable(SchedulerKind);
NameTable<FrameAllocPolicy> nameTable(FrameAllocPolicy);
NameTable<PageWalkerKind> nameTable(PageWalkerKind);

std::string toString(PrefetchMode mode);
std::string toString(McPrefetcherKind kind);
std::string toString(PsKind kind);
std::string toString(SchedulerKind kind);
std::string toString(FrameAllocPolicy policy);
std::string toString(PageWalkerKind kind);

/** Case-sensitive inverse of toString(); nullopt on unknown text. */
std::optional<PrefetchMode> parsePrefetchMode(const std::string &text);
std::optional<McPrefetcherKind>
parseMcPrefetcherKind(const std::string &text);
std::optional<PsKind> parsePsKind(const std::string &text);
std::optional<SchedulerKind> parseSchedulerKind(const std::string &text);
std::optional<FrameAllocPolicy>
parseFrameAllocPolicy(const std::string &text);
std::optional<PageWalkerKind>
parsePageWalkerKind(const std::string &text);

/** Append @p options as one JSON object to @p writer. */
void writeJson(JsonWriter &writer, const RunOptions &options);

/** Append @p metrics as one JSON object to @p writer. */
void writeJson(JsonWriter &writer, const RunMetrics &metrics);

/** @return @p options as a standalone JSON document. */
std::string toJson(const RunOptions &options);

/** @return @p metrics as a standalone JSON document. */
std::string toJson(const RunMetrics &metrics);

/**
 * Inverse of writeJson(RunMetrics): rebuild metrics from a parsed
 * JSON object (e.g. the "metrics" member of a sweep result record).
 * @return nullopt when @p value is not an object or any field is
 * missing or of the wrong type — a round-trip must be exact, so
 * partial records are rejected rather than zero-filled.
 */
std::optional<RunMetrics> metricsFromJson(const JsonValue &value);

/**
 * Inverse of writeJson(RunOptions), so that
 * toJson(optionsFromJson(*jsonParse(toJson(o)))) == toJson(o). The
 * options' telemetry settings are not part of the JSON and come back
 * as defaults. Throws SnapshotError naming the key on a missing key,
 * a value of the wrong kind, an unknown enum spelling, an integer
 * that overflows its field, or a tune-space axis longer than 4096.
 */
RunOptions optionsFromJson(const JsonValue &value);

} // namespace asd

#endif // ASD_SIM_SERIALIZE_HPP
