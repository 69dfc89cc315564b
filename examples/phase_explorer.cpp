/**
 * @file
 * Interactive-style example: visualize how the Stream Length
 * Histogram of a phased workload (the GemsFDTD analog by default)
 * evolves epoch by epoch, as ASCII bar charts, together with the
 * Adaptive Scheduling policy in force. This is the mechanism behind
 * the paper's Fig. 3: ASD re-learns the SLH every epoch and adapts.
 *
 * Usage: phase_explorer [benchmark] [epochs-to-show]
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/asd_prefetcher.hpp"
#include "core/slh_math.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "trace/synthetic.hpp"

namespace
{

void
printEpoch(const asd::SlhSnapshot &snap)
{
    std::vector<std::uint64_t> lht(snap.positive.size());
    for (std::size_t i = 0; i < lht.size(); ++i)
        lht[i] = snap.positive[i] + snap.negative[i];
    const auto bars = asd::readWeightedSlh(lht);

    std::cout << "epoch " << snap.epoch << "\n";
    for (std::size_t i = 0; i < bars.size(); ++i) {
        const int width = static_cast<int>(bars[i] * 60.0);
        std::cout << "  len " << (i + 1 < 10 ? " " : "") << i + 1
                  << " |" << std::string(static_cast<std::size_t>(width), '#')
                  << " " << asd::Table::num(bars[i] * 100.0) << "%\n";
    }
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace asd;

    const std::string name = argc > 1 ? argv[1] : "GemsFDTD";
    const std::size_t show =
        argc > 2 ? parseFlagValue("epochs-to-show",
                                  uintIn<std::size_t>(1, SIZE_MAX), argv[2])
                 : 6;

    const Benchmark &bench = findBenchmark(name);
    RunOptions options;
    options.mode = PrefetchMode::PMS;

    SyntheticConfig trace_config = bench.trace;
    trace_config.total_accesses = scaledAccesses(bench, options);
    SyntheticTraceGenerator trace(trace_config);
    System system(makeSystemConfig(options), {&trace});
    system.asd()->enableSlhHistory(512);
    system.run();

    const auto &history = system.asd()->slhHistory();
    std::cout << "Stream Length Histogram evolution for " << name
              << " (" << history.size() << " epochs of "
              << system.asd()->config().epoch_reads << " reads)\n\n";

    if (history.empty()) {
        std::cout << "no epochs completed; trace too short\n";
        return 1;
    }
    // Sample epochs evenly across the run.
    const std::size_t step =
        std::max<std::size_t>(1, history.size() / show);
    for (std::size_t e = 0; e < history.size() && e / step < show;
         e += step) {
        printEpoch(history[e]);
    }

    std::cout << "Adaptive Scheduling ended at policy "
              << system.asd()->schedulingPolicy()
              << " (1 = most conservative, 5 = most aggressive)\n";
    return 0;
}
