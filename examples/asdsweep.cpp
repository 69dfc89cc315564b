/**
 * @file
 * Parallel configuration-grid sweep driver. Expands suite/benchmark
 * selections times a grid of prefetcher knobs into JobSpecs, fans
 * them out over the sweep runner's thread pool, and writes one JSON
 * record per job plus a manifest (and optionally a flat CSV) under
 * --out. Exit status is non-zero if any job failed.
 *
 * `asdsweep --help` lists the flags, generated from the flag table in
 * parseArgs().
 *
 * Thread count defaults to the ASD_SWEEP_THREADS environment
 * variable, then to the hardware concurrency.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/log.hpp"
#include "runner/result_sink.hpp"
#include "runner/sweep_runner.hpp"
#include "runner/thread_pool.hpp"
#include "sim/serialize.hpp"
#include "telemetry/sinks.hpp"
#include "tuner/tuned_run.hpp"

namespace
{

using namespace asd;

struct CliConfig
{
    std::vector<std::string> suites;
    std::vector<std::string> bench_names;
    std::vector<PrefetchMode> modes;
    std::vector<McPrefetcherKind> prefetchers;
    std::vector<std::uint32_t> buffer_lines;
    std::vector<std::uint32_t> filter_slots;
    std::vector<std::uint32_t> degrees;

    /** VM axis: nullopt = VM off for that grid point. */
    std::vector<std::optional<FrameAllocPolicy>> vm_policies;
    std::vector<std::uint64_t> vm_page_bytes;

    /** OS axis: nullopt = OS model off, value = frame-pool size. */
    std::vector<std::optional<std::uint64_t>> os_frames;

    /** Walker axis; only expanded for OS-enabled grid points. */
    std::vector<PageWalkerKind> os_walkers;

    /** Tenant axis: nullopt = single tenant, value = mix slots. */
    std::vector<std::optional<std::uint32_t>> tenant_slots;
    std::optional<std::uint64_t> accesses;
    std::optional<std::uint64_t> seed;
    unsigned threads = 0;
    double timeout_ms = 0.0;

    /** Warm-up cycles per job; > 0 enables warm-start sharing. */
    std::uint64_t warm_start_cycles = 0;

    /** On-disk warm-up snapshot cache; empty = in-memory only. */
    std::string snapshot_dir;

    /** Skip jobs whose result record already exists and is ok. */
    bool resume = false;

    std::string out_dir = "results/sweep";
    bool csv = false;
    bool quiet = false;
    bool telemetry = false;

    /** Tuner axis: also field a phase-adaptive variant of every
        eligible (ASD, MS/PMS) grid point. */
    bool tune = false;
};

CliConfig
parseArgs(int argc, char **argv)
{
    CliConfig cli;
    const auto grid = listOf(uintIn<std::uint32_t>(1, 1u << 20));
    const std::vector<Flag> flags = {
        flag("--suite",
             "spec|nas|commercial|detailed|all (repeatable; default "
             "detailed)",
             textValue(), appendTo(cli.suites), "NAME"),
        flag("--bench", "single benchmark (repeatable)", textValue(),
             appendTo(cli.bench_names), "NAME"),
        flag("--modes", "prefetch modes (default all four)",
             valueFor<std::vector<PrefetchMode>>(), appendTo(cli.modes)),
        flag("--prefetchers", "memory-side prefetchers (default asd)",
             valueFor<std::vector<McPrefetcherKind>>(),
             appendTo(cli.prefetchers)),
        flag("--buffer-lines", "Prefetch Buffer sizes (default 16)", grid,
             cli.buffer_lines),
        flag("--filter-slots", "Stream Filter sizes (default 8)", grid,
             cli.filter_slots),
        flag("--degrees", "max prefetch degrees (default 1)", grid,
             cli.degrees),
        flag("--vm-policies", "VM frame-allocation policies (default off)",
             listOf(offOr(valueFor<FrameAllocPolicy>())),
             appendTo(cli.vm_policies)),
        flag("--vm-page-bytes",
             "base page sizes (default 4096; needs a base-page VM "
             "policy)",
             listOf(uintIn<std::uint64_t>(128, 1ULL << 30)),
             appendTo(cli.vm_page_bytes)),
        flag("--os-frames",
             "off or frame-pool sizes; a size enables the OS memory model "
             "for that grid point (default off)",
             listOf(offOr(uintIn<std::uint64_t>(1, 1ULL << 32))),
             appendTo(cli.os_frames)),
        flag("--os-walkers",
             "page-table walkers (default radix; needs an OS frame "
             "count)",
             valueFor<std::vector<PageWalkerKind>>(),
             appendTo(cli.os_walkers)),
        flag("--tenants", "off or tenant-mix slot counts (default off)",
             listOf(offOr(uintIn<std::uint32_t>(1, 1024))),
             appendTo(cli.tenant_slots)),
        flag("--accesses", "per-benchmark trace-length override",
             cli.accesses),
        flag("--seed", "trace-seed override for every job", cli.seed),
        flag("--threads",
             "worker threads (default $ASD_SWEEP_THREADS or hardware)",
             cli.threads),
        flag("--timeout-ms", "soft per-job wall-clock limit",
             valueFor<std::uint64_t>(),
             [&cli](std::uint64_t ms) {
                 cli.timeout_ms = static_cast<double>(ms);
             }),
        flag("--warm-start",
             "warm every job up for CYCLES with the memory side disarmed; "
             "jobs sharing a warm-up simulate it once and fork the "
             "snapshot (results stay byte-identical to cold starts)",
             uintIn<std::uint64_t>(1, ~std::uint64_t{0}),
             cli.warm_start_cycles, "CYCLES"),
        flag("--snapshot-dir",
             "persist warm-up snapshots to DIR and reuse them across "
             "sweeps (default: in-memory only)",
             cli.snapshot_dir, "DIR"),
        flag("--resume",
             "skip jobs whose <out> record already exists, parses, "
             "reports status ok, and holds the same options",
             cli.resume),
        flag("--out", "result directory (default results/sweep)",
             cli.out_dir, "DIR"),
        flag("--csv", "also write <out>/sweep.csv", cli.csv),
        flag("--telemetry",
             "per-epoch telemetry per job under <out>/telemetry/ (ASD "
             "jobs only)",
             cli.telemetry),
        flag("--tune",
             "also run a phase-adaptive tuner variant of every ASD MS/PMS "
             "grid point (job id +.tune)",
             cli.tune),
        flag("--quiet", "no progress line", cli.quiet),
    };
    parseFlags(argc, argv, "usage: asdsweep [options]", flags);
    // Refuse a translation axis no grid point would use. VM and OS
    // points exclude each other, so a VM point needs an "off" OS
    // frame count and an OS point an "off" VM policy.
    const auto hasOff = [](const auto &axis) {
        return axis.empty() ||
               std::find(axis.begin(), axis.end(), std::nullopt) !=
                   axis.end();
    };
    const bool base_page_vm_point =
        hasOff(cli.os_frames) &&
        std::any_of(cli.vm_policies.begin(), cli.vm_policies.end(),
                    [](const auto &policy) {
                        return policy &&
                               *policy != FrameAllocPolicy::HugePage;
                    });
    if (!cli.vm_page_bytes.empty() && !base_page_vm_point)
        fatal("--vm-page-bytes has no effect: no grid point enables a "
              "base-page --vm-policies placement");
    const bool os_point =
        hasOff(cli.vm_policies) &&
        std::any_of(cli.os_frames.begin(), cli.os_frames.end(),
                    [](const auto &frames) { return frames.has_value(); });
    if (!cli.os_walkers.empty() && !os_point)
        fatal("--os-walkers has no effect: no grid point enables "
              "--os-frames");
    if (cli.modes.empty())
        cli.modes = {PrefetchMode::NP, PrefetchMode::PS,
                     PrefetchMode::MS, PrefetchMode::PMS};
    if (cli.prefetchers.empty())
        cli.prefetchers = {McPrefetcherKind::Asd};
    if (cli.buffer_lines.empty())
        cli.buffer_lines = {16};
    if (cli.filter_slots.empty())
        cli.filter_slots = {8};
    if (cli.degrees.empty())
        cli.degrees = {1};
    if (cli.vm_policies.empty())
        cli.vm_policies = {std::nullopt};
    if (cli.vm_page_bytes.empty())
        cli.vm_page_bytes = {4096};
    if (cli.os_frames.empty())
        cli.os_frames = {std::nullopt};
    if (cli.os_walkers.empty())
        cli.os_walkers = {PageWalkerKind::Radix};
    if (cli.tenant_slots.empty())
        cli.tenant_slots = {std::nullopt};
    if (cli.suites.empty() && cli.bench_names.empty())
        cli.suites = {"detailed"};
    return cli;
}

std::vector<Benchmark>
selectBenchmarks(const CliConfig &cli)
{
    std::vector<Benchmark> benches;
    const auto addSuite = [&](Suite suite) {
        for (const Benchmark &b : suiteBenchmarks(suite))
            benches.push_back(b);
    };
    for (const std::string &name : cli.suites) {
        if (name == "spec") {
            addSuite(Suite::Spec2006fp);
        } else if (name == "nas") {
            addSuite(Suite::Nas);
        } else if (name == "commercial") {
            addSuite(Suite::Commercial);
        } else if (name == "detailed") {
            for (const Benchmark &b : detailedStudyBenchmarks())
                benches.push_back(b);
        } else if (name == "all") {
            addSuite(Suite::Spec2006fp);
            addSuite(Suite::Nas);
            addSuite(Suite::Commercial);
        } else {
            fatal("unknown suite (use "
                  "spec|nas|commercial|detailed|all): " +
                  name);
        }
    }
    for (const std::string &name : cli.bench_names)
        benches.push_back(findBenchmark(name));
    return benches;
}

/**
 * Give @p job a custom body that mirrors the default one (seed
 * override + runBenchmark) but also captures the per-epoch telemetry
 * and writes it as <out>/telemetry/<id>.csv and <id>.trace.json.
 */
void
attachTelemetryBody(JobSpec &job, const std::string &out_dir)
{
    const std::string stem = out_dir + "/telemetry/" + job.id;
    job.body = [stem](const JobSpec &spec) {
        Benchmark bench = spec.bench;
        if (spec.seed)
            bench.trace.seed = *spec.seed;
        std::vector<EpochRecord> epochs;
        const RunMetrics metrics =
            runBenchmark(bench, spec.options, &epochs);
        saveTelemetryCsv(epochs, stem + ".csv");
        saveTelemetryChromeTrace(epochs, stem + ".trace.json");
        return metrics;
    };
}

/**
 * Give @p job a body that routes through TunedRun (runBenchmark
 * ignores options.tuner) and, when telemetry was also requested,
 * writes the tuned run's epochs the same way attachTelemetryBody
 * does for fixed-config jobs.
 */
void
attachTunerBody(JobSpec &job, const std::string &out_dir)
{
    const bool telemetry = job.options.telemetry.enabled;
    const std::string stem = out_dir + "/telemetry/" + job.id;
    job.body = [stem, telemetry](const JobSpec &spec) {
        Benchmark bench = spec.bench;
        if (spec.seed)
            bench.trace.seed = *spec.seed;
        TunedRun run(bench, spec.options);
        const TunedRunResult result = run.run();
        if (telemetry) {
            saveTelemetryCsv(result.epochs, stem + ".csv");
            saveTelemetryChromeTrace(result.epochs,
                                     stem + ".trace.json");
        }
        return result.metrics;
    };
}

std::vector<JobSpec>
buildJobs(const CliConfig &cli)
{
    std::vector<JobSpec> jobs;
    for (const Benchmark &bench : selectBenchmarks(cli)) {
        for (const PrefetchMode mode : cli.modes) {
            for (const McPrefetcherKind kind : cli.prefetchers) {
                for (const std::uint32_t pb : cli.buffer_lines) {
                    for (const std::uint32_t sf : cli.filter_slots) {
                        for (const std::uint32_t d : cli.degrees) {
                            for (const auto &vm : cli.vm_policies) {
                                // Page size only matters for enabled
                                // base-page policies; collapse the
                                // axis otherwise to avoid duplicate
                                // jobs.
                                const bool vary_pages =
                                    vm && *vm !=
                                              FrameAllocPolicy::
                                                  HugePage;
                                const std::size_t n_pages =
                                    vary_pages
                                        ? cli.vm_page_bytes.size()
                                        : 1;
                                for (std::size_t pi = 0;
                                     pi < n_pages; ++pi) {
                                  for (const auto &os :
                                       cli.os_frames) {
                                    // The OS model replaces the VM
                                    // layer's allocators; skip the
                                    // contradictory grid points.
                                    if (os && vm)
                                        continue;
                                    // Walkers only differentiate
                                    // OS-enabled machines; collapse
                                    // the axis otherwise.
                                    const std::size_t n_walkers =
                                        os ? cli.os_walkers.size()
                                           : 1;
                                    for (std::size_t wi = 0;
                                         wi < n_walkers; ++wi) {
                                     for (const auto &tenants :
                                          cli.tenant_slots) {
                                    RunOptions options;
                                    options.mode = mode;
                                    options.mc_prefetcher = kind;
                                    options.buffer_lines = pb;
                                    options.filter_slots = sf;
                                    options.max_degree = d;
                                    options.accesses = cli.accesses;
                                    options.warmup_cycles =
                                        cli.warm_start_cycles;
                                    if (vm) {
                                        options.vm.enabled = true;
                                        options.vm.policy = *vm;
                                        if (vary_pages)
                                            options.vm.page_bytes =
                                                cli.vm_page_bytes[pi];
                                    }
                                    if (os) {
                                        options.os.enabled = true;
                                        options.os.frames = *os;
                                        options.vm.walker =
                                            cli.os_walkers[wi];
                                    }
                                    if (tenants) {
                                        options.tenants.enabled =
                                            true;
                                        options.tenants.slots =
                                            *tenants;
                                    }
                                    if (cli.telemetry &&
                                        kind ==
                                            McPrefetcherKind::Asd) {
                                        options.telemetry.enabled =
                                            true;
                                    }
                                    JobSpec job = makeJob(
                                        bench, options, cli.seed);
                                    if (job.options.telemetry.enabled)
                                        attachTelemetryBody(
                                            job, cli.out_dir);
                                    jobs.push_back(std::move(job));
                                    // Tuner axis: a second, tuned
                                    // job per eligible grid point
                                    // (the tuner requires ASD on the
                                    // memory side).
                                    if (cli.tune &&
                                        kind ==
                                            McPrefetcherKind::Asd &&
                                        (mode == PrefetchMode::MS ||
                                         mode ==
                                             PrefetchMode::PMS)) {
                                        RunOptions tuned = options;
                                        tuned.tuner.enabled = true;
                                        JobSpec tuned_job = makeJob(
                                            bench, tuned, cli.seed);
                                        attachTunerBody(tuned_job,
                                                        cli.out_dir);
                                        jobs.push_back(
                                            std::move(tuned_job));
                                    }
                                     }
                                    }
                                  }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return jobs;
}

void
printProgress(const SweepProgress &p)
{
    std::fprintf(stderr,
                 "\r[%zu/%zu] %5.1f%%  eta %6.1fs  last %s (%.0f ms)"
                 "\033[K",
                 p.done, p.total,
                 100.0 * static_cast<double>(p.done) /
                     static_cast<double>(p.total),
                 p.eta_ms / 1000.0, p.last_id.c_str(),
                 p.last_wall_ms);
    if (p.done == p.total)
        std::fprintf(stderr, "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const CliConfig cli = parseArgs(argc, argv);
    std::vector<JobSpec> jobs = buildJobs(cli);
    if (jobs.empty())
        fatal("benchmark selection produced no jobs");

    JsonDirSink json_sink(cli.out_dir);
    if (cli.resume) {
        // Adopted records stay in the manifest; only the remainder
        // runs. (The optional CSV is rebuilt from scratch and covers
        // only the jobs that actually ran this time.)
        std::vector<JobSpec> pending;
        pending.reserve(jobs.size());
        for (JobSpec &job : jobs) {
            if (!json_sink.adoptExisting(job))
                pending.push_back(std::move(job));
        }
        jobs = std::move(pending);
        if (!cli.quiet && json_sink.skipped() > 0) {
            std::fprintf(stderr,
                         "resume: skipping %zu already-finished "
                         "job(s), %zu left to run\n",
                         json_sink.skipped(), jobs.size());
        }
    }

    std::vector<ResultSink *> sinks = {&json_sink};
    std::optional<CsvSink> csv_sink;
    if (cli.csv) {
        csv_sink.emplace(cli.out_dir + "/sweep.csv");
        sinks.push_back(&*csv_sink);
    }
    TeeSink tee(sinks);

    SweepOptions sweep;
    sweep.threads = cli.threads;
    sweep.default_timeout_ms = cli.timeout_ms;
    sweep.warm_start = cli.warm_start_cycles > 0;
    sweep.snapshot_dir = cli.snapshot_dir;
    sweep.sink = &tee;
    if (!cli.quiet && !jobs.empty())
        sweep.on_progress = printProgress;

    SweepRunner runner(sweep);
    const std::vector<JobResult> results = runner.run(jobs);
    const SweepSummary &summary = runner.lastSummary();

    if (!cli.quiet) {
        std::cout << summary.jobs << " jobs: " << summary.ok
                  << " ok, " << summary.failed << " failed, "
                  << summary.timed_out << " timed out";
        if (summary.warm_started > 0)
            std::cout << ", " << summary.warm_started
                      << " warm-started";
        if (json_sink.skipped() > 0)
            std::cout << " (+" << json_sink.skipped()
                      << " skipped on resume)";
        std::cout << " in " << summary.wall_ms / 1000.0 << " s on "
                  << summary.threads << " threads -> " << cli.out_dir
                  << "\n";
    }
    for (const JobResult &result : results) {
        if (result.status == JobStatus::Failed)
            warn("job " + result.spec.id + " failed: " +
                 result.error);
    }
    return summary.failed == 0 ? 0 : 1;
}
