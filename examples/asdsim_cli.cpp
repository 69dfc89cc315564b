/**
 * @file
 * Command-line driver for the simulator: run any benchmark in any
 * configuration with every knob exposed, printing a report or a CSV
 * row. The scriptable front door for parameter studies beyond the
 * bundled figure benches.
 *
 * Examples:
 *   asdsim_cli --list
 *   asdsim_cli --bench lbm --mode PMS
 *   asdsim_cli --bench tpcc --mode MS --mc-prefetcher nextline --csv
 *   asdsim_cli --bench GemsFDTD --mode PMS --ps asd --smt
 *   asdsim_cli --bench milc --scheduler frfcfs --policy 3 --buffer 32
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "arena/registry.hpp"
#include "common/flags.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/serialize.hpp"
#include "sim/snapshot_io.hpp"
#include "telemetry/sinks.hpp"
#include "tuner/tuned_run.hpp"

namespace
{

using namespace asd;

struct CliArgs
{
    std::string bench = "GemsFDTD";
    RunOptions options;
    bool csv = false;
    bool smt = false;
    bool list = false;
    bool list_prefetchers = false;
    std::string json_path; //!< RunMetrics JSON path (empty = off)
    std::string telemetry_csv;   //!< per-epoch CSV path (empty = off)
    std::string telemetry_json;  //!< JSON time-series path
    std::string telemetry_trace; //!< Chrome trace-event path
    std::string save_path;       //!< --save-snapshot target (empty = off)
    Cycle save_cycle = 0;        //!< cycle at which to save
    std::string load_path;       //!< --load-snapshot source (empty = off)
    std::string tuner_csv;       //!< per-decision CSV path (empty = off)
    std::string tuner_json;      //!< per-decision JSON path
};

/**
 * Refuse a translation knob that would silently do nothing: the
 * --os-* knobs need --os, the placement knobs need --vm-policy, and
 * the granule and TLB knobs need one of the two. Inside an enabled
 * layer, the seed drives only the random and huge placements, the
 * walk latency only the radix walker and the probe cost only the
 * hashed one.
 */
void
requireTranslationLayer(const std::vector<std::string> &given,
                        const RunOptions &o)
{
    const auto startsWith = [](const std::string &name, const char *p) {
        return name.rfind(p, 0) == 0;
    };
    for (const std::string &name : given) {
        if (startsWith(name, "--os-") && !o.os.enabled)
            fatal(name + " has no effect without --os");
        if ((name == "--vm-seed" || name == "--vm-phys-mb") &&
            !o.vm.enabled)
            fatal(name + " has no effect without --vm-policy");
        if ((name == "--vm-page-bytes" || name == "--vm-walk-cycles" ||
             startsWith(name, "--vm-tlb-")) &&
            !o.vm.enabled && !o.os.enabled)
            fatal(name + " has no effect without --vm-policy or --os");
        if (name == "--vm-seed" &&
            (o.vm.policy == FrameAllocPolicy::Identity ||
             o.vm.policy == FrameAllocPolicy::Sequential))
            fatal(name + " has no effect with --vm-policy " +
                  toString(o.vm.policy));
        const bool hashed =
            o.os.enabled && o.vm.walker == PageWalkerKind::Hashed;
        if (name == "--vm-walk-cycles" && hashed)
            fatal(name + " has no effect with --os-walker hashed");
        if (name == "--os-probe-cycles" && o.os.enabled && !hashed)
            fatal(name + " has no effect with --os-walker radix");
    }
}

CliArgs
parseArgs(int argc, char **argv)
{
    CliArgs args;
    RunOptions &o = args.options;
    const auto telemetryOut = [&o](std::string &path) {
        return [&o, &path](std::string value) {
            path = std::move(value);
            o.telemetry.enabled = true;
        };
    };
    const std::vector<Flag> flags = {
        flag("--list", "list benchmarks and exit", args.list),
        flag("--list-prefetchers", "list the prefetcher registry and exit",
             args.list_prefetchers),
        flag("--bench", "benchmark to run (default GemsFDTD)", args.bench,
             "NAME"),
        flag("--mode", "prefetch configuration (default PMS)", o.mode),
        flag("--ps", "processor-side prefetcher kind (default power5)",
             o.ps_kind),
        flag("--mc-prefetcher", "memory-side prefetcher kind (default asd)",
             o.mc_prefetcher),
        flag("--scheduler", "memory scheduler (default ahb)", o.scheduler),
        flag("--policy", "pin the LPQ policy (1..5)", o.fixed_policy),
        flag("--buffer", "prefetch buffer lines (default 16)",
             o.buffer_lines),
        flag("--slots", "stream filter slots (default 8)", o.filter_slots),
        flag("--degree", "max prefetch degree (default 1)", o.max_degree),
        flag("--saturate", "keep prefetching streams beyond Lm",
             o.saturate_long_streams),
        flag("--ps-oracle", "idealized (instant, free) PS fills",
             o.ps_oracle),
        flag("--vm-policy",
             "enable virtual memory with this frame-allocation policy",
             valueFor<FrameAllocPolicy>(),
             [&o](FrameAllocPolicy policy) {
                 o.vm.enabled = true;
                 o.vm.policy = policy;
             }),
        flag("--vm-page-bytes", "base page size (default 4096)",
             o.vm.page_bytes),
        flag("--vm-phys-mb", "physical memory size (default 4096)",
             uintIn<std::uint64_t>(0, ~std::uint64_t{0} >> 20),
             [&o](std::uint64_t mb) { o.vm.phys_bytes = mb << 20; }),
        flag("--vm-tlb-entries", "TLB entries (default 64)",
             o.vm.tlb.entries),
        flag("--vm-tlb-ways", "TLB associativity (default 4)",
             o.vm.tlb.ways),
        flag("--vm-walk-cycles", "page-walk stall (default 60)",
             o.vm.tlb.walk_cycles),
        flag("--vm-seed", "frame-shuffle seed", o.vm.seed),
        flag("--os",
             "enable the OS memory model (demand paging over a finite "
             "frame pool with CLOCK reclaim; excludes --vm-policy)",
             o.os.enabled),
        flag("--os-frames", "physical frames in the pool (default 16384)",
             o.os.frames),
        flag("--os-minor-cycles", "minor page-fault stall (default 800)",
             o.os.minor_fault_cycles),
        flag("--os-major-cycles", "major page-fault stall (default 20000)",
             o.os.major_fault_cycles),
        flag("--os-major-frac",
             "fraction of faults that are major (default 0.02)",
             o.os.major_fault_frac),
        flag("--os-reclaim-cycles", "CLOCK reclaim stall (default 300)",
             o.os.reclaim_cycles),
        flag("--os-writeback-cycles",
             "dirty-victim writeback stall (default 2000)",
             o.os.writeback_cycles),
        flag("--os-walker", "page-table walker style (default radix)",
             o.vm.walker),
        flag("--os-probe-cycles",
             "hashed-walker per-probe stall (default 20)",
             o.os.hashed_probe_cycles),
        flag("--os-seed", "fault/frame-shuffle seed", o.os.seed),
        flag("--tenants",
             "interleave N tenants of the chosen benchmark (multi-tenant "
             "scenario engine; incompatible with --smt)",
             uintIn<std::uint32_t>(1, ~std::uint32_t{0}),
             [&o](std::uint32_t slots) {
                 o.tenants.enabled = true;
                 o.tenants.slots = slots;
             }),
        flag("--tenants-zipf",
             "Zipf exponent of the per-tenant intensity skew (default 1.0)",
             o.tenants.zipf_s),
        flag("--tenants-lifetime",
             "mean tenant lifetime in accesses before departure (0 = "
             "immortal; default 50000)",
             o.tenants.mean_lifetime),
        flag("--tenants-seed", "slot/lifetime draw seed", o.tenants.seed),
        flag("--accesses", "trace length override", o.accesses),
        flag("--smt", "co-run two copies (SMT pair)", args.smt),
        flag("--csv", "emit one CSV row instead of a table", args.csv),
        flag("--json", "also write RunMetrics JSON to PATH",
             args.json_path, "PATH"),
        // Recording with no output sink is useful with --save-snapshot:
        // the checkpoint carries the recorder state, so a later
        // --load-snapshot can emit the full time series.
        flag("--telemetry",
             "record per-epoch telemetry without an output sink (for "
             "--save-snapshot)",
             o.telemetry.enabled),
        flag("--telemetry-csv", "write per-epoch telemetry CSV",
             textValue(), telemetryOut(args.telemetry_csv), "PATH"),
        flag("--telemetry-json", "write per-epoch telemetry JSON",
             textValue(), telemetryOut(args.telemetry_json), "PATH"),
        flag("--telemetry-trace", "write chrome://tracing JSON",
             textValue(), telemetryOut(args.telemetry_trace), "PATH"),
        flag("--telemetry-max-epochs", "cap the recorded epochs (0 = all)",
             o.telemetry.max_epochs),
        {"--telemetry-no-slh", "", "omit per-thread SLH snapshots",
         [&o](const std::string &) { o.telemetry.capture_slh = false; }},
        flag("--warmup",
             "run N cycles before arming the memory-side prefetcher",
             o.warmup_cycles),
        flag("--tune",
             "enable the phase-adaptive tuner (requires MS/PMS with "
             "--mc-prefetcher asd; incompatible with --smt)",
             o.tuner.enabled),
        flag("--tune-horizon",
             "shadow simulation length in cycles (default 60000)",
             o.tuner.shadow_horizon),
        flag("--tune-min-epochs", "epochs between decisions (default 2)",
             o.tuner.min_epochs_between),
        flag("--tune-max-decisions", "cap decisions per run (0 = all)",
             o.tuner.max_decisions),
        flag("--tune-threads",
             "shadow worker threads (default 1; 0 = hardware default)",
             o.tuner.shadow_threads),
        flag("--tune-window", "phase detector window, epochs (default 3)",
             o.tuner.phase_window),
        flag("--tune-threshold",
             "phase change threshold, milli-pct (default 40000)",
             o.tuner.phase_threshold_milli_pct),
        flag("--tune-degrees", "degree axis", o.tuner.space.degrees),
        flag("--tune-slots", "filter-slot axis", o.tuner.space.filter_slots),
        flag("--tune-buffers", "buffer-line axis",
             o.tuner.space.buffer_lines),
        flag("--tune-epochs", "epoch-length axis",
             o.tuner.space.epoch_reads),
        flag("--tune-policies",
             "policy axis (0 = adaptive walk, 1..5 = pinned)",
             o.tuner.space.policies),
        flag("--tuner-csv", "write the per-decision CSV log",
             args.tuner_csv, "PATH"),
        flag("--tuner-json", "write the per-decision JSON log",
             args.tuner_json, "PATH"),
        {"--save-snapshot", "PATH@CYCLE",
         "run to CYCLE, write a checkpoint to PATH, and exit (no report)",
         [&args](const std::string &text) {
             const std::size_t at = text.rfind('@');
             const auto cycle =
                 at == std::string::npos
                     ? std::nullopt
                     : parseUnsigned<Cycle>(
                           std::string_view(text).substr(at + 1));
             if (at == 0 || !cycle)
                 flagError("--save-snapshot", "PATH@CYCLE", text);
             args.save_path = text.substr(0, at);
             args.save_cycle = *cycle;
         }},
        flag("--load-snapshot",
             "restore a checkpoint and run it to completion; the machine "
             "config comes from the snapshot, only output flags "
             "(--csv/--json/--telemetry-*) apply",
             args.load_path, "PATH"),
    };
    requireTranslationLayer(
        parseFlags(argc, argv, "usage: asdsim_cli [options]", flags), o);
    return args;
}

/** One line of the report: metric name, printed value. */
using ReportRow = std::pair<std::string, std::string>;

/**
 * The report in print order. The table prints every row and --csv
 * joins the values, so both list the same metrics the same way.
 */
std::vector<ReportRow>
reportRows(const std::string &bench_name, const RunMetrics &m)
{
    const auto count = [](std::uint64_t v) { return std::to_string(v); };
    std::vector<ReportRow> rows = {
        {"benchmark", bench_name},
        {"cycles", count(m.cycles)},
        {"accesses", count(m.accesses)},
        {"dram_watts", Table::num(m.dram_watts, 3)},
        {"dram_energy_mj", Table::num(m.dram_energy_mj, 3)},
        {"coverage_pct", Table::num(m.coverage_pct, 2)},
        {"useful_prefetch_pct", Table::num(m.useful_prefetch_pct, 2)},
        {"delayed_regular_pct", Table::num(m.delayed_regular_pct, 2)},
        {"ms_prefetches_issued", count(m.ms_prefetches_issued)},
        {"mc_reads", count(m.mc_reads)},
        {"mc_writes", count(m.mc_writes)},
    };
    // The VM layer and the OS model exclude each other; both
    // translate through a TLB.
    if (m.vm_enabled || m.os_enabled)
        rows.insert(rows.end(), {{"tlb_hits", count(m.tlb_hits)},
                                 {"tlb_misses", count(m.tlb_misses)}});
    if (m.vm_enabled)
        rows.insert(rows.end(),
                    {{"page_walk_cycles", count(m.page_walk_cycles)},
                     {"pages_mapped", count(m.pages_mapped)}});
    if (m.os_enabled)
        rows.insert(rows.end(),
                    {{"os_minor_faults", count(m.os_minor_faults)},
                     {"os_major_faults", count(m.os_major_faults)},
                     {"os_reclaims", count(m.os_reclaims)},
                     {"os_writebacks", count(m.os_writebacks)},
                     {"os_shootdowns", count(m.os_shootdowns)},
                     {"os_stall_cycles", count(m.os_stall_cycles)},
                     {"os_resident_pages", count(m.os_resident_pages)}});
    if (m.tenants_enabled)
        rows.insert(rows.end(),
                    {{"tenant_active", count(m.tenant_active)},
                     {"tenant_arrivals", count(m.tenant_arrivals)},
                     {"tenant_departures", count(m.tenant_departures)}});
    return rows;
}

void
listBenchmarks()
{
    for (const Suite suite :
         {Suite::Spec2006fp, Suite::Nas, Suite::Commercial}) {
        std::cout << suiteName(suite) << ":";
        for (const Benchmark &bench : suiteBenchmarks(suite))
            std::cout << " " << bench.name;
        std::cout << "\n";
    }
}

/**
 * --save-snapshot: run to the requested cycle, write the checkpoint
 * (a "cli" metadata section followed by the machine sections), and
 * exit without printing a report. Informational output goes to
 * stderr so a later --load-snapshot run's stdout byte-compares
 * against an uninterrupted run's.
 */
int
saveSnapshotRun(const CliArgs &args)
{
    const Benchmark &bench = findBenchmark(args.bench);
    const std::uint64_t accesses =
        scaledAccesses(bench, args.options);

    SnapshotWriter writer;
    writer.beginSection("cli");
    writer.str(bench.name);
    writer.u64(accesses);
    writer.str(toJson(args.options));
    const TelemetryConfig &telemetry = args.options.telemetry;
    writer.b(telemetry.enabled);
    writer.b(telemetry.capture_slh);
    writer.u64(telemetry.max_epochs);
    writer.endSection();

    Cycle saved_at = 0;
    if (args.options.tuner.enabled) {
        // Tuned runs checkpoint through TunedRun so the controller
        // state ("tun" section) rides along with the machine's.
        TunedRun run(bench, args.options, accesses);
        run.runUntil(args.save_cycle);
        run.saveSnapshot(writer);
        saved_at = run.system().nowCycle();
    } else {
        BenchmarkRun run({bench}, args.options, accesses);
        run.system().runUntil(args.save_cycle);
        run.system().saveSnapshot(writer);
        saved_at = run.system().nowCycle();
    }
    try {
        writeSnapshotFile(args.save_path,
                          writer.finish(runConfigHash(
                              bench.name, accesses, args.options)));
    } catch (const SnapshotError &e) {
        fatal(std::string("snapshot save failed: ") + e.what());
    }
    std::cerr << "asdsim_cli: saved " << bench.name << " at cycle "
              << saved_at << " to " << args.save_path << "\n";
    return 0;
}

/**
 * --load-snapshot: rebuild the machine from the snapshot's own
 * metadata (the command line only chooses the outputs), restore, and
 * run to completion.
 */
RunMetrics
loadSnapshotRun(const CliArgs &args, std::string &bench_name,
                std::vector<EpochRecord> &epochs, bool &telemetry_on,
                std::vector<TunerDecision> &decisions,
                bool &tuner_on)
{
    try {
        SnapshotReader reader(readSnapshotFile(args.load_path));
        reader.openSection("cli");
        bench_name = reader.str();
        const std::uint64_t accesses = reader.u64();
        const std::optional<JsonValue> json = jsonParse(reader.str());
        SnapshotReader::check(json.has_value(),
                              "run options are not valid JSON");
        RunOptions options = optionsFromJson(*json);
        options.telemetry.enabled = reader.b();
        options.telemetry.capture_slh = reader.b();
        options.telemetry.max_epochs =
            static_cast<std::size_t>(reader.u64());
        reader.endSection();
        reader.requireConfigHash(
            runConfigHash(bench_name, accesses, options));
        if (args.options.telemetry.enabled &&
            !options.telemetry.enabled) {
            fatal("telemetry output requested but the snapshot was "
                  "taken without telemetry");
        }
        telemetry_on = options.telemetry.enabled;
        tuner_on = options.tuner.enabled;

        const Benchmark &bench = findBenchmark(bench_name);
        if (options.tuner.enabled) {
            TunedRun run(bench, options, accesses);
            run.loadSnapshot(reader);
            std::cerr << "asdsim_cli: restored " << bench_name
                      << " at cycle " << run.system().nowCycle()
                      << " from " << args.load_path << "\n";
            run.runUntil(kNoCycle);
            const TunedRunResult res = run.result();
            if (telemetry_on)
                epochs = res.epochs;
            decisions = res.decisions;
            return res.metrics;
        }

        BenchmarkRun run({bench}, options, accesses);
        run.system().loadSnapshot(reader);
        std::cerr << "asdsim_cli: restored " << bench_name
                  << " at cycle " << run.system().nowCycle() << " from "
                  << args.load_path << "\n";
        RunResult res = run.run();
        epochs = std::move(res.epochs);
        return res.metrics;
    } catch (const SnapshotError &e) {
        fatal(std::string("snapshot load failed: ") + e.what());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args = parseArgs(argc, argv);
    if (args.list) {
        listBenchmarks();
        return 0;
    }
    if (args.list_prefetchers) {
        // The registry is the single source of truth for what can be
        // fielded; anything listed here works as --mc-prefetcher
        // (mem-side) or --ps (cpu-side, without the "ps-" prefix).
        for (const PrefetcherInfo &info :
             PrefetcherRegistry::instance().all()) {
            std::printf("%-12s %-9s %s\n", info.name.c_str(),
                        toString(info.side).c_str(),
                        info.description.c_str());
        }
        return 0;
    }

    if ((!args.save_path.empty() || !args.load_path.empty()) &&
        args.smt) {
        fatal("--smt cannot be combined with snapshot save/load");
    }
    if (args.options.tuner.enabled && args.smt)
        fatal("--tune cannot be combined with --smt");
    if (args.options.tenants.enabled && args.smt)
        fatal("--tenants cannot be combined with --smt (the mix is "
              "one interleaved trace)");
    if (args.options.os.enabled && args.options.vm.enabled)
        fatal("--os and --vm-policy are mutually exclusive (the OS "
              "model's finite frame pool replaces the VM layer's "
              "unbounded placement)");
    if (!args.save_path.empty() && !args.load_path.empty())
        fatal("--save-snapshot and --load-snapshot are mutually "
              "exclusive");
    if (!args.save_path.empty())
        return saveSnapshotRun(args);

    std::string bench_name = args.bench;
    std::vector<EpochRecord> epochs;
    std::vector<TunerDecision> decisions;
    bool telemetry_on = args.options.telemetry.enabled;
    bool tuner_on = args.options.tuner.enabled;
    RunMetrics m;
    if (!args.load_path.empty()) {
        m = loadSnapshotRun(args, bench_name, epochs, telemetry_on,
                            decisions, tuner_on);
    } else if (args.options.tuner.enabled) {
        const Benchmark &bench = findBenchmark(args.bench);
        TunedRun run(bench, args.options);
        const TunedRunResult res = run.run();
        m = res.metrics;
        if (telemetry_on)
            epochs = res.epochs;
        decisions = res.decisions;
    } else {
        const Benchmark &bench = findBenchmark(args.bench);
        std::vector<Benchmark> benches = {bench};
        if (args.smt)
            benches.push_back(bench);
        RunResult res = BenchmarkRun(benches, args.options).run();
        m = res.metrics;
        epochs = std::move(res.epochs);
    }

    if (tuner_on) {
        if (!args.tuner_csv.empty())
            saveTunerCsv(decisions, args.tuner_csv);
        if (!args.tuner_json.empty())
            saveTunerJson(decisions, args.tuner_json);
    } else if (!args.tuner_csv.empty() || !args.tuner_json.empty()) {
        fatal("--tuner-csv/--tuner-json need --tune (or a snapshot "
              "taken with it)");
    }

    if (telemetry_on) {
        if (epochs.empty())
            warn("telemetry enabled but no epochs were recorded");
        if (!args.telemetry_csv.empty())
            saveTelemetryCsv(epochs, args.telemetry_csv);
        if (!args.telemetry_json.empty())
            saveTelemetryJson(epochs, args.telemetry_json);
        if (!args.telemetry_trace.empty())
            saveTelemetryChromeTrace(epochs, args.telemetry_trace);
    }

    if (!args.json_path.empty()) {
        std::ofstream out(args.json_path, std::ios::binary);
        if (!out)
            fatal("cannot write " + args.json_path);
        out << toJson(m) << "\n";
    }

    const std::vector<ReportRow> rows = reportRows(bench_name, m);
    if (args.csv) {
        for (std::size_t i = 0; i < rows.size(); ++i)
            std::cout << (i ? "," : "") << rows[i].second;
        std::cout << "\n";
        return 0;
    }

    Table table({"metric", "value"});
    for (const ReportRow &row : rows)
        table.addRow({row.first, row.second});
    table.print(std::cout);
    return 0;
}
