/**
 * @file
 * Prefetcher bake-off driver: run every selected contender from the
 * prefetcher registry across workload suites under identical machine
 * conditions and emit a ranked report. Writes <out>/bakeoff.json
 * (schema "asdbakeoff/v1") and <out>/leaderboard.md, prints the
 * leaderboard, and exits non-zero if any job failed. The two report
 * files are byte-identical across runs and thread counts.
 *
 * `asdbakeoff --help` lists the flags, generated from the flag table
 * in parseArgs().
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "arena/bakeoff.hpp"
#include "arena/report.hpp"
#include "common/flags.hpp"
#include "common/log.hpp"

namespace
{

using namespace asd;

struct CliConfig
{
    BakeoffOptions bakeoff;
    std::string out_dir = "results/bakeoff";
    bool list = false;
    bool quiet = false;
};

CliConfig
parseArgs(int argc, char **argv)
{
    CliConfig cli;
    BakeoffOptions &b = cli.bakeoff;
    static constexpr EnumName<Suite> kSuiteNames[] = {
        {Suite::Spec2006fp, "spec"},
        {Suite::Nas, "nas"},
        {Suite::Commercial, "commercial"},
    };
    const std::vector<Flag> flags = {
        // "none" clears the suites, so the grid comes from --bench.
        flag("--suites", "workload suites (default all three)",
             listOf(offOr(enumValue<Suite>(kSuiteNames), "none")),
             [&b](const std::vector<std::optional<Suite>> &suites) {
                 b.suites.clear();
                 for (const std::optional<Suite> &suite : suites) {
                     if (suite)
                         b.suites.push_back(*suite);
                 }
             }),
        flag("--bench",
             "extra benchmark by name (repeatable; with --suites none, "
             "these are the whole grid)",
             textValue(), appendTo(b.benchmarks), "NAME"),
        flag("--prefetchers",
             "contender registry names (default: every registered one; "
             "see --list)",
             b.prefetchers),
        flag("--vm", "also run every workload with 4 KiB random-placement VM",
             b.vm_axis),
        flag("--os",
             "also run every workload under the OS memory model (demand "
             "paging, finite frames, CLOCK reclaim)",
             b.os_axis),
        flag("--accesses", "per-benchmark trace-length override",
             b.accesses),
        flag("--warm-start",
             "warm-up cycles shared across contenders per workload "
             "(default 20000; 0 disables snapshot sharing)",
             b.warmup_cycles, "CYCLES"),
        flag("--threads", "worker threads (default hardware)", b.threads),
        flag("--out",
             "report + per-job records + warm-up snapshots (default "
             "results/bakeoff)",
             cli.out_dir, "DIR"),
        flag("--resume", "adopt ok per-job records already under --out",
             b.resume),
        flag("--list", "print the prefetcher registry and exit", cli.list),
        flag("--quiet", "no progress line", cli.quiet),
    };
    parseFlags(argc, argv, "usage: asdbakeoff [options]", flags);
    return cli;
}

void
printRegistry()
{
    for (const PrefetcherInfo &info :
         PrefetcherRegistry::instance().all()) {
        std::printf("%-12s %-9s %s\n", info.name.c_str(),
                    toString(info.side).c_str(),
                    info.description.c_str());
    }
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

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write " + path.string());
    out << text;
}

} // namespace

int
main(int argc, char **argv)
{
    CliConfig cli = parseArgs(argc, argv);
    if (cli.list) {
        printRegistry();
        return 0;
    }
    cli.bakeoff.out_dir = cli.out_dir;
    if (!cli.quiet)
        cli.bakeoff.on_progress = printProgress;

    BakeoffRunner runner(std::move(cli.bakeoff));
    const BakeoffResult result = runner.run();

    const std::filesystem::path out(cli.out_dir);
    std::filesystem::create_directories(out);
    writeFile(out / "bakeoff.json", bakeoffJson(result) + "\n");
    const std::string markdown = bakeoffMarkdown(result);
    writeFile(out / "leaderboard.md", markdown);

    if (!cli.quiet) {
        std::cout << markdown;
        std::cout << "\n"
                  << result.summary.ok << " ok, "
                  << result.summary.failed << " failed";
        if (result.summary.warm_started > 0)
            std::cout << ", " << result.summary.warm_started
                      << " warm-started";
        if (result.adopted > 0)
            std::cout << " (+" << result.adopted
                      << " adopted on resume)";
        std::cout << " -> " << cli.out_dir << "\n";
    }

    std::size_t failed_cells = 0;
    for (const BakeoffCell &cell : result.cells)
        failed_cells += cell.status == JobStatus::Ok ? 0 : 1;
    return result.summary.failed == 0 && failed_cells == 0 ? 0 : 1;
}
