#include "tuner/shadow_tuner.hpp"

#include <algorithm>
#include <exception>

#include "common/log.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

namespace
{

/** Apply the policy-axis encoding: 0 = adaptive walk, 1..5 = pin. */
AsdTuning
withPolicy(const AsdTuning &base, std::uint32_t policy)
{
    AsdTuning t = base;
    if (policy == 0) {
        t.sched.adaptive = true;
    } else {
        t.sched.adaptive = false;
        t.sched.fixed_policy = static_cast<int>(policy);
    }
    return t;
}

void
pushUnique(std::vector<AsdTuning> &out, const AsdTuning &t)
{
    if (std::find(out.begin(), out.end(), t) == out.end())
        out.push_back(t);
}

} // namespace

ShadowTuner::ShadowTuner(const TunerConfig &config,
                         const SystemConfig &base_config,
                         TraceFactory traces)
    : config_(config),
      base_config_(base_config),
      traces_(std::move(traces)),
      pool_(config.shadow_threads != 0 ? config.shadow_threads
                                       : defaultThreadCount())
{
    // Shadows must never recurse into their own tuner.
    base_config_.tuner.enabled = false;
    for (const std::uint32_t p : config_.space.policies)
        if (p > 5)
            fatal("ShadowTuner: policy axis value " +
                  std::to_string(p) + " out of range (0..5)");
}

std::vector<AsdTuning>
ShadowTuner::candidates(const AsdTuning &current) const
{
    std::vector<AsdTuning> out;
    out.push_back(current); // index 0: the incumbent
    for (const std::uint32_t v : config_.space.degrees) {
        AsdTuning t = current;
        t.max_degree = v;
        pushUnique(out, t);
    }
    for (const std::uint32_t v : config_.space.filter_slots) {
        AsdTuning t = current;
        t.filter_slots = v;
        pushUnique(out, t);
    }
    for (const std::uint32_t v : config_.space.buffer_lines) {
        AsdTuning t = current;
        t.buffer_lines = v;
        pushUnique(out, t);
    }
    for (const std::uint32_t v : config_.space.epoch_reads) {
        AsdTuning t = current;
        t.epoch_reads = v;
        pushUnique(out, t);
    }
    for (const std::uint32_t v : config_.space.policies)
        pushUnique(out, withPolicy(current, v));
    return out;
}

ShadowVerdict
ShadowTuner::evaluate(const System &live, const AsdTuning &current)
{
    ShadowVerdict verdict;
    verdict.tunings = candidates(current);
    const std::size_t n = verdict.tunings.size();
    verdict.outcomes.assign(n, ShadowOutcome{});

    const Cycle start = live.nowCycle();
    SnapshotWriter writer;
    live.saveSnapshot(writer);
    // Forks check shapes structurally; no config hash to bind.
    const std::vector<std::uint8_t> bytes = writer.finish(0);

    for (std::size_t i = 0; i < n; ++i) {
        pool_.submit([this, &verdict, &bytes, &current, start,
                      i](unsigned) {
            ShadowOutcome out;
            out.candidate = static_cast<std::uint32_t>(i);
            try {
                const auto traces = traces_();
                std::vector<TraceSource *> ptrs;
                ptrs.reserve(traces.size());
                for (const auto &t : traces)
                    ptrs.push_back(t.get());

                // The fork is built in the live machine's shape (the
                // *current* tuning), restored, then retuned — the
                // same apply-path the live machine would take.
                SystemConfig config = base_config_;
                config.asd = withTuning(config.asd, current);
                System shadow(config, ptrs);
                SnapshotReader reader(bytes);
                shadow.loadSnapshot(reader);
                if (!shadow.asd())
                    throw SnapshotError("shadow has no ASD prefetcher");
                shadow.applyTuning(verdict.tunings[i]);
                shadow.runUntil(start + config_.shadow_horizon);

                const RunMetrics metrics = shadow.collectMetrics();
                out.accesses = metrics.accesses;
                out.traffic = metrics.mc_reads + metrics.mc_writes;
                out.shadow_cycles = shadow.nowCycle() - start;
                out.valid = true;
            } catch (const std::exception &) {
                // A failed fork scores zero and cannot win.
                out.accesses = 0;
                out.traffic = 0;
                out.shadow_cycles = 0;
                out.valid = false;
            }
            verdict.outcomes[i] = out; // distinct slots; no race
        });
    }
    pool_.wait();

    bool have = false;
    for (std::size_t i = 0; i < n; ++i) {
        const ShadowOutcome &o = verdict.outcomes[i];
        if (!o.valid)
            continue;
        verdict.shadow_cycles += o.shadow_cycles;
        if (!have) {
            verdict.winner = static_cast<std::uint32_t>(i);
            have = true;
            continue;
        }
        const ShadowOutcome &b = verdict.outcomes[verdict.winner];
        if (o.accesses > b.accesses ||
            (o.accesses == b.accesses && o.traffic < b.traffic))
            verdict.winner = static_cast<std::uint32_t>(i);
    }
    return verdict;
}

} // namespace asd
