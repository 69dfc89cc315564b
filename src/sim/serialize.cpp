#include "sim/serialize.hpp"

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

void
writeJson(JsonWriter &writer, const RunOptions &options)
{
    writer.beginObject();
    writer.key("mode").value(toString(options.mode));
    writer.key("mc_prefetcher").value(toString(options.mc_prefetcher));
    writer.key("ps_kind").value(toString(options.ps_kind));
    writer.key("scheduler").value(toString(options.scheduler));
    writer.key("fixed_policy");
    if (options.fixed_policy)
        writer.value(*options.fixed_policy);
    else
        writer.null();
    writer.key("buffer_lines").value(options.buffer_lines);
    writer.key("filter_slots").value(options.filter_slots);
    writer.key("max_degree").value(options.max_degree);
    writer.key("saturate_long_streams")
        .value(options.saturate_long_streams);
    writer.key("ps_oracle").value(options.ps_oracle);
    writer.key("accesses");
    if (options.accesses)
        writer.value(*options.accesses);
    else
        writer.null();
    writer.key("warmup_cycles").value(options.warmup_cycles);
    writer.key("vm").beginObject();
    writer.key("enabled").value(options.vm.enabled);
    writer.key("policy").value(toString(options.vm.policy));
    writer.key("page_bytes").value(options.vm.page_bytes);
    writer.key("huge_bytes").value(options.vm.huge_bytes);
    writer.key("phys_bytes").value(options.vm.phys_bytes);
    writer.key("seed").value(options.vm.seed);
    writer.key("tlb_entries").value(options.vm.tlb.entries);
    writer.key("tlb_ways").value(options.vm.tlb.ways);
    writer.key("walk_cycles").value(options.vm.tlb.walk_cycles);
    // Emitted only when non-default so every pre-existing run's
    // options JSON (and thus its runConfigHash) stays byte-identical.
    if (options.vm.walker != PageWalkerKind::Radix)
        writer.key("walker").value(toString(options.vm.walker));
    writer.endObject();
    // Emitted only when set so every pre-existing run's options JSON
    // (and thus its runConfigHash) stays byte-identical.
    if (options.ghb_delta_correlate)
        writer.key("ghb_delta_correlate").value(true);
    if (options.os.enabled) {
        const OsConfig &os = options.os;
        writer.key("os").beginObject();
        writer.key("frames").value(os.frames);
        writer.key("minor_fault_cycles").value(os.minor_fault_cycles);
        writer.key("major_fault_cycles").value(os.major_fault_cycles);
        writer.key("major_fault_frac").value(os.major_fault_frac);
        writer.key("reclaim_cycles").value(os.reclaim_cycles);
        writer.key("writeback_cycles").value(os.writeback_cycles);
        writer.key("hashed_probe_cycles")
            .value(os.hashed_probe_cycles);
        writer.key("seed").value(os.seed);
        writer.endObject();
    }
    if (options.tenants.enabled) {
        const TenantMixConfig &ten = options.tenants;
        writer.key("tenants").beginObject();
        writer.key("slots").value(ten.slots);
        writer.key("zipf_s").value(ten.zipf_s);
        writer.key("mean_lifetime").value(ten.mean_lifetime);
        writer.key("seed").value(ten.seed);
        writer.endObject();
    }
    if (options.tuner.enabled) {
        const TunerConfig &t = options.tuner;
        writer.key("tuner").beginObject();
        writer.key("shadow_horizon").value(t.shadow_horizon);
        writer.key("min_epochs_between").value(t.min_epochs_between);
        writer.key("max_decisions").value(t.max_decisions);
        writer.key("shadow_threads").value(t.shadow_threads);
        writer.key("phase_window").value(t.phase_window);
        writer.key("phase_threshold_milli_pct")
            .value(t.phase_threshold_milli_pct);
        const auto axis = [&writer](const char *name,
                                    const std::vector<std::uint32_t>
                                        &values) {
            writer.key(name).beginArray();
            for (const std::uint32_t v : values)
                writer.value(v);
            writer.endArray();
        };
        axis("degrees", t.space.degrees);
        axis("filter_slots", t.space.filter_slots);
        axis("buffer_lines", t.space.buffer_lines);
        axis("epoch_reads", t.space.epoch_reads);
        axis("policies", t.space.policies);
        writer.endObject();
    }
    writer.endObject();
}

void
writeJson(JsonWriter &writer, const RunMetrics &metrics)
{
    writer.beginObject();
    writer.key("cycles").value(metrics.cycles);
    writer.key("accesses").value(metrics.accesses);
    writer.key("dram_watts").value(metrics.dram_watts);
    writer.key("dram_energy_mj").value(metrics.dram_energy_mj);
    writer.key("power_pj").beginObject();
    writer.key("background").value(metrics.power.background_pj);
    writer.key("activate").value(metrics.power.activate_pj);
    writer.key("read").value(metrics.power.read_pj);
    writer.key("write").value(metrics.power.write_pj);
    writer.key("refresh").value(metrics.power.refresh_pj);
    writer.key("total").value(metrics.power.totalPj());
    writer.endObject();
    writer.key("useful_prefetch_pct")
        .value(metrics.useful_prefetch_pct);
    writer.key("coverage_pct").value(metrics.coverage_pct);
    writer.key("delayed_regular_pct")
        .value(metrics.delayed_regular_pct);
    writer.key("mc_reads").value(metrics.mc_reads);
    writer.key("mc_writes").value(metrics.mc_writes);
    writer.key("ms_prefetches_issued")
        .value(metrics.ms_prefetches_issued);
    writer.key("buffer_hits").value(metrics.buffer_hits);
    writer.key("lpq_drops").value(metrics.lpq_drops);
    writer.key("vm").beginObject();
    writer.key("enabled").value(metrics.vm_enabled);
    writer.key("tlb_hits").value(metrics.tlb_hits);
    writer.key("tlb_misses").value(metrics.tlb_misses);
    writer.key("tlb_evictions").value(metrics.tlb_evictions);
    writer.key("page_walk_cycles").value(metrics.page_walk_cycles);
    writer.key("pages_mapped").value(metrics.pages_mapped);
    writer.endObject();
    // Emitted only when present so pre-existing metrics JSON stays
    // byte-identical (mirrors the options-side convention).
    if (metrics.os_enabled) {
        writer.key("os").beginObject();
        writer.key("minor_faults").value(metrics.os_minor_faults);
        writer.key("major_faults").value(metrics.os_major_faults);
        writer.key("reclaims").value(metrics.os_reclaims);
        writer.key("writebacks").value(metrics.os_writebacks);
        writer.key("shootdowns").value(metrics.os_shootdowns);
        writer.key("stall_cycles").value(metrics.os_stall_cycles);
        writer.key("resident_pages").value(metrics.os_resident_pages);
        writer.endObject();
    }
    if (metrics.tenants_enabled) {
        writer.key("tenants").beginObject();
        writer.key("arrivals").value(metrics.tenant_arrivals);
        writer.key("departures").value(metrics.tenant_departures);
        writer.key("active").value(metrics.tenant_active);
        writer.endObject();
    }
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

namespace
{

/** Read a required double member; false on absence or kind error. */
bool
readDouble(const JsonValue &object, std::string_view name,
           double &out)
{
    const JsonValue *member = object.find(name);
    if (!member)
        return false;
    const auto value = member->asDouble();
    if (!value)
        return false;
    out = *value;
    return true;
}

/** Read a required u64 member; false on absence or kind error. */
bool
readU64(const JsonValue &object, std::string_view name,
        std::uint64_t &out)
{
    const JsonValue *member = object.find(name);
    if (!member)
        return false;
    const auto value = member->asU64();
    if (!value)
        return false;
    out = *value;
    return true;
}

} // namespace

std::optional<RunMetrics>
metricsFromJson(const JsonValue &value)
{
    if (value.kind() != JsonValue::Kind::Object)
        return std::nullopt;
    RunMetrics m;
    if (!readU64(value, "cycles", m.cycles) ||
        !readU64(value, "accesses", m.accesses) ||
        !readDouble(value, "dram_watts", m.dram_watts) ||
        !readDouble(value, "dram_energy_mj", m.dram_energy_mj))
        return std::nullopt;
    const JsonValue *power = value.find("power_pj");
    if (!power || power->kind() != JsonValue::Kind::Object)
        return std::nullopt;
    if (!readDouble(*power, "background", m.power.background_pj) ||
        !readDouble(*power, "activate", m.power.activate_pj) ||
        !readDouble(*power, "read", m.power.read_pj) ||
        !readDouble(*power, "write", m.power.write_pj) ||
        !readDouble(*power, "refresh", m.power.refresh_pj))
        return std::nullopt;
    if (!readDouble(value, "useful_prefetch_pct",
                    m.useful_prefetch_pct) ||
        !readDouble(value, "coverage_pct", m.coverage_pct) ||
        !readDouble(value, "delayed_regular_pct",
                    m.delayed_regular_pct) ||
        !readU64(value, "mc_reads", m.mc_reads) ||
        !readU64(value, "mc_writes", m.mc_writes) ||
        !readU64(value, "ms_prefetches_issued",
                 m.ms_prefetches_issued) ||
        !readU64(value, "buffer_hits", m.buffer_hits) ||
        !readU64(value, "lpq_drops", m.lpq_drops))
        return std::nullopt;
    const JsonValue *vm = value.find("vm");
    if (!vm || vm->kind() != JsonValue::Kind::Object)
        return std::nullopt;
    const JsonValue *enabled = vm->find("enabled");
    if (!enabled || !enabled->asBool())
        return std::nullopt;
    m.vm_enabled = *enabled->asBool();
    if (!readU64(*vm, "tlb_hits", m.tlb_hits) ||
        !readU64(*vm, "tlb_misses", m.tlb_misses) ||
        !readU64(*vm, "tlb_evictions", m.tlb_evictions) ||
        !readU64(*vm, "page_walk_cycles", m.page_walk_cycles) ||
        !readU64(*vm, "pages_mapped", m.pages_mapped))
        return std::nullopt;
    // Optional blocks: absent in every record written before the OS
    // model / tenant engine existed (and in runs with them disabled).
    if (const JsonValue *os = value.find("os")) {
        if (os->kind() != JsonValue::Kind::Object)
            return std::nullopt;
        m.os_enabled = true;
        if (!readU64(*os, "minor_faults", m.os_minor_faults) ||
            !readU64(*os, "major_faults", m.os_major_faults) ||
            !readU64(*os, "reclaims", m.os_reclaims) ||
            !readU64(*os, "writebacks", m.os_writebacks) ||
            !readU64(*os, "shootdowns", m.os_shootdowns) ||
            !readU64(*os, "stall_cycles", m.os_stall_cycles) ||
            !readU64(*os, "resident_pages", m.os_resident_pages))
            return std::nullopt;
    }
    if (const JsonValue *ten = value.find("tenants")) {
        if (ten->kind() != JsonValue::Kind::Object)
            return std::nullopt;
        m.tenants_enabled = true;
        if (!readU64(*ten, "arrivals", m.tenant_arrivals) ||
            !readU64(*ten, "departures", m.tenant_departures) ||
            !readU64(*ten, "active", m.tenant_active))
            return std::nullopt;
    }
    return m;
}

} // namespace asd
