#include "sim/serialize.hpp"

#include <cstddef>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "snapshot/snapshot.hpp"

namespace asd
{

NameTable<PrefetchMode>
nameTable(PrefetchMode)
{
    static constexpr EnumName<PrefetchMode> kNames[] = {
        {PrefetchMode::NP, "NP"},
        {PrefetchMode::PS, "PS"},
        {PrefetchMode::MS, "MS"},
        {PrefetchMode::PMS, "PMS"},
    };
    return kNames;
}

NameTable<McPrefetcherKind>
nameTable(McPrefetcherKind)
{
    static constexpr EnumName<McPrefetcherKind> kNames[] = {
        {McPrefetcherKind::Asd, "asd"},
        {McPrefetcherKind::NextLine, "nextline"},
        {McPrefetcherKind::P5Style, "p5"},
        {McPrefetcherKind::Ghb, "ghb"},
        {McPrefetcherKind::Stride, "stride"},
        {McPrefetcherKind::Dspatch, "dspatch"},
        {McPrefetcherKind::Perceptron, "perceptron"},
    };
    return kNames;
}

NameTable<PsKind>
nameTable(PsKind)
{
    static constexpr EnumName<PsKind> kNames[] = {
        {PsKind::Power5, "power5"},
        {PsKind::Asd, "asd"},
    };
    return kNames;
}

NameTable<SchedulerKind>
nameTable(SchedulerKind)
{
    static constexpr EnumName<SchedulerKind> kNames[] = {
        {SchedulerKind::Ahb, "ahb"},
        {SchedulerKind::Memoryless, "memoryless"},
        {SchedulerKind::InOrder, "inorder"},
        {SchedulerKind::FrFcfs, "frfcfs"},
    };
    return kNames;
}

NameTable<FrameAllocPolicy>
nameTable(FrameAllocPolicy)
{
    static constexpr EnumName<FrameAllocPolicy> kNames[] = {
        {FrameAllocPolicy::Identity, "identity"},
        {FrameAllocPolicy::Sequential, "seq"},
        {FrameAllocPolicy::RandomShuffle, "random"},
        {FrameAllocPolicy::HugePage, "huge"},
    };
    return kNames;
}

NameTable<PageWalkerKind>
nameTable(PageWalkerKind)
{
    static constexpr EnumName<PageWalkerKind> kNames[] = {
        {PageWalkerKind::Radix, "radix"},
        {PageWalkerKind::Hashed, "hashed"},
    };
    return kNames;
}

std::string
toString(PrefetchMode mode)
{
    return enumName(nameTable(mode), mode);
}

std::string
toString(McPrefetcherKind kind)
{
    return enumName(nameTable(kind), kind);
}

std::string
toString(PsKind kind)
{
    return enumName(nameTable(kind), kind);
}

std::string
toString(SchedulerKind kind)
{
    return enumName(nameTable(kind), kind);
}

std::string
toString(FrameAllocPolicy policy)
{
    return enumName(nameTable(policy), policy);
}

std::string
toString(PageWalkerKind kind)
{
    return enumName(nameTable(kind), kind);
}

std::optional<PrefetchMode>
parsePrefetchMode(const std::string &text)
{
    return enumFromName(nameTable(PrefetchMode{}), text);
}

std::optional<McPrefetcherKind>
parseMcPrefetcherKind(const std::string &text)
{
    return enumFromName(nameTable(McPrefetcherKind{}), text);
}

std::optional<PsKind>
parsePsKind(const std::string &text)
{
    return enumFromName(nameTable(PsKind{}), text);
}

std::optional<SchedulerKind>
parseSchedulerKind(const std::string &text)
{
    return enumFromName(nameTable(SchedulerKind{}), text);
}

std::optional<FrameAllocPolicy>
parseFrameAllocPolicy(const std::string &text)
{
    return enumFromName(nameTable(FrameAllocPolicy{}), text);
}

std::optional<PageWalkerKind>
parsePageWalkerKind(const std::string &text)
{
    return enumFromName(nameTable(PageWalkerKind{}), text);
}

namespace
{

/** The longest tune-space axis a reader accepts. */
constexpr std::size_t kMaxTuneAxis = 4096;

template <typename T>
constexpr bool kIsOptional = false;
template <typename T>
constexpr bool kIsOptional<std::optional<T>> = true;

/**
 * A record as the field lists see it: const when the visitor writes
 * JSON, mutable when it reads JSON back.
 */
template <typename V, typename T>
using FieldRef = std::conditional_t<V::kWrites, const T &, T &>;

/**
 * The one field list of RunOptions, in document order: each field
 * once, with its JSON key and the condition under which it or its
 * block is written. The writer and the reader both walk this list.
 * telemetry is deliberately absent: it only observes a run, and
 * listing it would change every options JSON and config hash.
 */
template <typename V>
void
visitFields(V &v, FieldRef<V, RunOptions> o)
{
    v.field("mode", o.mode);
    v.field("mc_prefetcher", o.mc_prefetcher);
    v.field("ps_kind", o.ps_kind);
    v.field("scheduler", o.scheduler);
    v.field("fixed_policy", o.fixed_policy);
    v.field("buffer_lines", o.buffer_lines);
    v.field("filter_slots", o.filter_slots);
    v.field("max_degree", o.max_degree);
    v.field("saturate_long_streams", o.saturate_long_streams);
    v.field("ps_oracle", o.ps_oracle);
    v.field("accesses", o.accesses);
    v.field("warmup_cycles", o.warmup_cycles);
    v.block("vm", [&] {
        v.field("enabled", o.vm.enabled);
        v.field("policy", o.vm.policy);
        v.field("page_bytes", o.vm.page_bytes);
        v.field("huge_bytes", o.vm.huge_bytes);
        v.field("phys_bytes", o.vm.phys_bytes);
        v.field("seed", o.vm.seed);
        v.field("tlb_entries", o.vm.tlb.entries);
        v.field("tlb_ways", o.vm.tlb.ways);
        v.field("walk_cycles", o.vm.tlb.walk_cycles);
        v.fieldUnless("walker", o.vm.walker, PageWalkerKind::Radix);
    });
    v.fieldUnless("ghb_delta_correlate", o.ghb_delta_correlate, false);
    v.blockIf("os", o.os.enabled, [&] {
        v.field("frames", o.os.frames);
        v.field("minor_fault_cycles", o.os.minor_fault_cycles);
        v.field("major_fault_cycles", o.os.major_fault_cycles);
        v.field("major_fault_frac", o.os.major_fault_frac);
        v.field("reclaim_cycles", o.os.reclaim_cycles);
        v.field("writeback_cycles", o.os.writeback_cycles);
        v.field("hashed_probe_cycles", o.os.hashed_probe_cycles);
        v.field("seed", o.os.seed);
    });
    v.blockIf("tenants", o.tenants.enabled, [&] {
        v.field("slots", o.tenants.slots);
        v.field("zipf_s", o.tenants.zipf_s);
        v.field("mean_lifetime", o.tenants.mean_lifetime);
        v.field("seed", o.tenants.seed);
    });
    v.blockIf("tuner", o.tuner.enabled, [&] {
        v.field("shadow_horizon", o.tuner.shadow_horizon);
        v.field("min_epochs_between", o.tuner.min_epochs_between);
        v.field("max_decisions", o.tuner.max_decisions);
        v.field("shadow_threads", o.tuner.shadow_threads);
        v.field("phase_window", o.tuner.phase_window);
        v.field("phase_threshold_milli_pct",
                o.tuner.phase_threshold_milli_pct);
        v.field("degrees", o.tuner.space.degrees);
        v.field("filter_slots", o.tuner.space.filter_slots);
        v.field("buffer_lines", o.tuner.space.buffer_lines);
        v.field("epoch_reads", o.tuner.space.epoch_reads);
        v.field("policies", o.tuner.space.policies);
    });
}

/** The one field list of RunMetrics (see the RunOptions list). */
template <typename V>
void
visitFields(V &v, FieldRef<V, RunMetrics> m)
{
    v.field("cycles", m.cycles);
    v.field("accesses", m.accesses);
    v.field("dram_watts", m.dram_watts);
    v.field("dram_energy_mj", m.dram_energy_mj);
    v.block("power_pj", [&] {
        v.field("background", m.power.background_pj);
        v.field("activate", m.power.activate_pj);
        v.field("read", m.power.read_pj);
        v.field("write", m.power.write_pj);
        v.field("refresh", m.power.refresh_pj);
        if constexpr (V::kWrites) // derived: written, never read back
            v.field("total", m.power.totalPj());
    });
    v.field("useful_prefetch_pct", m.useful_prefetch_pct);
    v.field("coverage_pct", m.coverage_pct);
    v.field("delayed_regular_pct", m.delayed_regular_pct);
    v.field("mc_reads", m.mc_reads);
    v.field("mc_writes", m.mc_writes);
    v.field("ms_prefetches_issued", m.ms_prefetches_issued);
    v.field("buffer_hits", m.buffer_hits);
    v.field("lpq_drops", m.lpq_drops);
    v.block("vm", [&] {
        v.field("enabled", m.vm_enabled);
        v.field("tlb_hits", m.tlb_hits);
        v.field("tlb_misses", m.tlb_misses);
        v.field("tlb_evictions", m.tlb_evictions);
        v.field("page_walk_cycles", m.page_walk_cycles);
        v.field("pages_mapped", m.pages_mapped);
    });
    v.blockIf("os", m.os_enabled, [&] {
        v.field("minor_faults", m.os_minor_faults);
        v.field("major_faults", m.os_major_faults);
        v.field("reclaims", m.os_reclaims);
        v.field("writebacks", m.os_writebacks);
        v.field("shootdowns", m.os_shootdowns);
        v.field("stall_cycles", m.os_stall_cycles);
        v.field("resident_pages", m.os_resident_pages);
    });
    v.blockIf("tenants", m.tenants_enabled, [&] {
        v.field("arrivals", m.tenant_arrivals);
        v.field("departures", m.tenant_departures);
        v.field("active", m.tenant_active);
    });
}

/**
 * Writes a record through its field list. A block or a
 * fieldUnless() member is left out when its condition says so,
 * which keeps every options JSON written before those fields
 * existed (and thus its runConfigHash) byte-identical.
 */
class FieldWriter
{
  public:
    static constexpr bool kWrites = true;

    explicit FieldWriter(JsonWriter &writer) : writer_(writer) {}

    template <typename T>
    void
    field(std::string_view key, const T &value)
    {
        writer_.key(key);
        if constexpr (std::is_enum_v<T>) {
            writer_.value(toString(value));
        } else if constexpr (kIsOptional<T>) {
            if (value)
                writer_.value(*value);
            else
                writer_.null();
        } else if constexpr (std::is_same_v<T, std::vector<std::uint32_t>>) {
            writer_.beginArray();
            for (const std::uint32_t item : value)
                writer_.value(item);
            writer_.endArray();
        } else {
            writer_.value(value);
        }
    }

    /** Written only when @p value differs from @p omitted. */
    template <typename T>
    void
    fieldUnless(std::string_view key, const T &value, const T &omitted)
    {
        if (value != omitted)
            field(key, value);
    }

    /** Written only when @p present. */
    template <typename Body>
    void
    blockIf(std::string_view key, bool present, const Body &body)
    {
        if (!present)
            return;
        writer_.key(key).beginObject();
        body();
        writer_.endObject();
    }

    template <typename Body>
    void
    block(std::string_view key, const Body &body)
    {
        blockIf(key, true, body);
    }

  private:
    JsonWriter &writer_;
};

/**
 * Reads a record back through its field list. Every listed key must
 * be present with a value of its field's kind, except that an absent
 * fieldUnless() member or blockIf() block reads as omitted. The
 * first problem stops the read and is kept as a message naming the
 * key's full path (e.g. "vm.policy").
 */
class FieldReader
{
  public:
    static constexpr bool kWrites = false;

    explicit FieldReader(const JsonValue &root) : object_(&root)
    {
        if (root.kind() != JsonValue::Kind::Object)
            error_ = "expects a JSON object";
    }

    /** Empty when every field read cleanly. */
    const std::string &
    error() const
    {
        return error_;
    }

    template <typename T>
    void
    field(std::string_view key, T &out)
    {
        if (const JsonValue *value = find(key, true)) {
            const std::string problem = read(*value, out);
            if (!problem.empty())
                fail(key, problem);
        }
    }

    template <typename T>
    void
    fieldUnless(std::string_view key, T &out, const T &omitted)
    {
        out = omitted;
        if (find(key, false))
            field(key, out);
    }

    template <typename Body>
    void
    blockIf(std::string_view key, bool &present, const Body &body)
    {
        const JsonValue *value = find(key, false);
        present = value != nullptr;
        if (!value)
            return;
        if (value->kind() != JsonValue::Kind::Object)
            return fail(key, "expects an object");
        const JsonValue *outer = object_;
        const std::size_t outer_prefix = prefix_.size();
        object_ = value;
        prefix_ += std::string(key) + ".";
        body();
        object_ = outer;
        prefix_.resize(outer_prefix);
    }

    template <typename Body>
    void
    block(std::string_view key, const Body &body)
    {
        bool present = false;
        blockIf(key, present, body);
        if (!present)
            fail(key, "is missing");
    }

  private:
    /** Member @p key of the current object; nullptr after an error. */
    const JsonValue *
    find(std::string_view key, bool required)
    {
        if (!error_.empty())
            return nullptr;
        const JsonValue *value = object_->find(key);
        if (!value && required)
            fail(key, "is missing");
        return value;
    }

    void
    fail(std::string_view key, const std::string &problem)
    {
        if (error_.empty())
            error_ = "key '" + prefix_ + std::string(key) + "' " + problem;
    }

    /**
     * Store @p value into @p out and return "", or leave @p out alone
     * and return what is wrong with @p value.
     */
    template <typename T>
    static std::string
    read(const JsonValue &value, T &out)
    {
        if constexpr (std::is_same_v<T, bool>) {
            if (!value.asBool())
                return "expects true or false";
            out = *value.asBool();
        } else if constexpr (std::is_enum_v<T>) {
            const std::string *text = value.asString();
            const std::optional<T> parsed =
                text ? enumFromName(nameTable(T{}), *text) : std::nullopt;
            if (!parsed)
                return "expects one of " + enumChoices(nameTable(T{}));
            out = *parsed;
        } else if constexpr (std::is_integral_v<T>) {
            const auto number = [&value] {
                if constexpr (std::is_signed_v<T>)
                    return value.asI64();
                else
                    return value.asU64();
            }();
            if (!number)
                return std::is_signed_v<T> ? "expects an integer"
                                           : "expects an unsigned integer";
            if (!std::in_range<T>(*number))
                return "value " + std::to_string(*number) +
                       " overflows its " + std::to_string(8 * sizeof(T)) +
                       "-bit field";
            out = static_cast<T>(*number);
        } else if constexpr (std::is_same_v<T, double>) {
            if (!value.asDouble())
                return "expects a number";
            out = *value.asDouble();
        } else if constexpr (std::is_same_v<T, std::vector<std::uint32_t>>) {
            if (value.kind() != JsonValue::Kind::Array)
                return "expects a list";
            if (value.items().size() > kMaxTuneAxis)
                return "lists " + std::to_string(value.items().size()) +
                       " values, more than " + std::to_string(kMaxTuneAxis);
            T items(value.items().size());
            for (std::size_t i = 0; i < items.size(); ++i) {
                const std::string problem = read(value.items()[i], items[i]);
                if (!problem.empty())
                    return "entry " + std::to_string(i) + " " + problem;
            }
            out = std::move(items);
        } else {
            static_assert(kIsOptional<T>, "field type without a reader");
            typename T::value_type inner{};
            const std::string problem =
                value.isNull() ? std::string() : read(value, inner);
            if (problem.empty())
                out = value.isNull() ? T() : T(inner);
            return problem;
        }
        return {};
    }

    const JsonValue *object_;
    std::string prefix_;
    std::string error_;
};

} // namespace

void
writeJson(JsonWriter &writer, const RunOptions &options)
{
    FieldWriter fields(writer);
    writer.beginObject();
    visitFields(fields, options);
    writer.endObject();
}

void
writeJson(JsonWriter &writer, const RunMetrics &metrics)
{
    FieldWriter fields(writer);
    writer.beginObject();
    visitFields(fields, metrics);
    writer.endObject();
}

std::string
toJson(const RunOptions &options)
{
    JsonWriter writer;
    writeJson(writer, options);
    return writer.str();
}

std::string
toJson(const RunMetrics &metrics)
{
    JsonWriter writer;
    writeJson(writer, metrics);
    return writer.str();
}

std::optional<RunMetrics>
metricsFromJson(const JsonValue &value)
{
    RunMetrics metrics;
    FieldReader fields(value);
    visitFields(fields, metrics);
    if (!fields.error().empty())
        return std::nullopt;
    return metrics;
}

RunOptions
optionsFromJson(const JsonValue &value)
{
    RunOptions options;
    FieldReader fields(value);
    visitFields(fields, options);
    if (!fields.error().empty())
        throw SnapshotError("run options: " + fields.error());
    return options;
}

} // namespace asd
