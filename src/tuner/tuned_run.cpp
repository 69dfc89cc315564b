#include "tuner/tuned_run.hpp"

#include <utility>

#include "common/log.hpp"

namespace asd
{

TunedRun::TunedRun(const Benchmark &bench, const RunOptions &options,
                   std::uint64_t total_accesses)
    : bench_(bench), options_(options), accesses_(total_accesses),
      detector_(options.tuner)
{
    if (!options_.tuner.enabled)
        fatal("TunedRun: options.tuner.enabled must be set");
    if (options_.mode != PrefetchMode::MS &&
        options_.mode != PrefetchMode::PMS)
        fatal("TunedRun: tuning needs a memory-side prefetcher "
              "(mode MS or PMS)");
    if (options_.mc_prefetcher != McPrefetcherKind::Asd)
        fatal("TunedRun: the tuner reconfigures ASD; "
              "--mc-prefetcher must be asd");

    sys_config_ = makeSystemConfig(options_);
    // The controller reads phases off epoch telemetry, so force the
    // recorder on (it only observes — results are unchanged) and
    // uncapped; SLH capture would be dead weight unless asked for.
    if (!sys_config_.telemetry.enabled) {
        sys_config_.telemetry.enabled = true;
        sys_config_.telemetry.capture_slh = false;
    }
    sys_config_.telemetry.max_epochs = 0;

    current_ = tuningOf(sys_config_.asd);
    buildSystem(current_);

    shadow_ = std::make_unique<ShadowTuner>(
        options_.tuner, sys_config_,
        [bench = bench_, options = options_, accesses = accesses_]() {
            return makeTraceSources({bench}, options, accesses);
        });
}

void
TunedRun::buildSystem(const AsdTuning &tuning)
{
    SystemConfig config = sys_config_;
    config.asd = withTuning(config.asd, tuning);
    run_ = std::make_unique<BenchmarkRun>(
        std::vector<Benchmark>{bench_}, options_, accesses_, config);
    if (!system().asd())
        fatal("TunedRun: system has no ASD prefetcher to tune");
    installHooks();
}

void
TunedRun::installHooks()
{
    system().setEpochEndHook([this](Cycle now) { onEpochEnd(now); });
    system().setLoopHook([this](Cycle now) { onLoopTop(now); });
}

void
TunedRun::onEpochEnd(Cycle now)
{
    (void)now;
    const TelemetryRecorder *telemetry = system().telemetry();
    if (!telemetry || telemetry->records().empty())
        return;
    const EpochRecord &rec = telemetry->records().back();
    const bool changed = detector_.observe(rec);
    ++epochs_since_decision_;
    if (!changed || pending_decision_)
        return;
    if (epochs_since_decision_ < options_.tuner.min_epochs_between)
        return;
    if (options_.tuner.max_decisions != 0 &&
        decisions_made_ >= options_.tuner.max_decisions)
        return;
    // Detected mid-tick; applied at the next loop-top boundary.
    pending_decision_ = true;
    pending_epoch_ = rec.epoch;
    pending_phase_ = detector_.phase();
}

void
TunedRun::onLoopTop(Cycle now)
{
    while (!realize_queue_.empty() &&
           now >= realize_queue_.front().due) {
        recorder_.realize(realize_queue_.front().decision,
                          liveAccesses());
        realize_queue_.pop_front();
    }
    if (pending_decision_) {
        pending_decision_ = false;
        decide(now);
    }
}

void
TunedRun::decide(Cycle now)
{
    const ShadowVerdict verdict =
        shadow_->evaluate(system(), current_);
    const AsdTuning &winner = verdict.tunings[verdict.winner];

    TunerDecision d;
    d.decision = decisions_made_;
    d.cycle = now;
    d.epoch = pending_epoch_;
    d.phase = pending_phase_;
    d.candidates =
        static_cast<std::uint32_t>(verdict.tunings.size());
    d.shadow_cycles = verdict.shadow_cycles;
    d.adopted_change = winner != current_;
    d.adopted = winner;
    if (verdict.outcomes[0].valid)
        d.incumbent_shadow_accesses = verdict.outcomes[0].accesses;
    if (verdict.outcomes[verdict.winner].valid)
        d.winner_shadow_accesses =
            verdict.outcomes[verdict.winner].accesses;
    d.accesses_at_decision = liveAccesses();

    if (d.adopted_change) {
        system().applyTuning(winner);
        current_ = winner;
    }
    recorder_.append(d);
    realize_queue_.push_back(
        {d.decision, now + options_.tuner.shadow_horizon});
    ++decisions_made_;
    epochs_since_decision_ = 0;
}

std::uint64_t
TunedRun::liveAccesses() const
{
    return system().collectMetrics().accesses;
}

void
TunedRun::runUntil(Cycle target)
{
    system().runUntil(target);
}

TunedRunResult
TunedRun::run()
{
    runUntil(kNoCycle);
    return result();
}

TunedRunResult
TunedRun::result() const
{
    RunResult run = run_->result();
    TunedRunResult res;
    res.metrics = run.metrics;
    res.epochs = std::move(run.epochs);
    res.decisions = recorder_.decisions();
    return res;
}

void
TunedRun::saveSnapshot(SnapshotWriter &w) const
{
    w.beginSection("tun");
    w.u32(current_.max_degree);
    w.u32(current_.epoch_reads);
    w.u32(current_.filter_slots);
    w.u32(current_.buffer_lines);
    w.b(current_.sched.adaptive);
    w.i64(current_.sched.fixed_policy);
    w.i64(current_.sched.start_policy);
    w.u32(current_.sched.high_watermark);
    w.u32(current_.sched.low_watermark);
    w.b(pending_decision_);
    w.u64(pending_epoch_);
    w.u64(pending_phase_);
    w.u64(epochs_since_decision_);
    w.u64(decisions_made_);
    w.u64(realize_queue_.size());
    for (const PendingRealize &p : realize_queue_) {
        w.u64(p.decision);
        w.u64(p.due);
    }
    detector_.saveState(w);
    recorder_.saveState(w);
    w.endSection();
    system().saveSnapshot(w);
}

void
TunedRun::loadSnapshot(SnapshotReader &r)
{
    r.openSection("tun");
    AsdTuning t;
    t.max_degree = r.u32();
    t.epoch_reads = r.u32();
    t.filter_slots = r.u32();
    t.buffer_lines = r.u32();
    t.sched.adaptive = r.b();
    t.sched.fixed_policy = static_cast<int>(r.i64());
    t.sched.start_policy = static_cast<int>(r.i64());
    t.sched.high_watermark = r.u32();
    t.sched.low_watermark = r.u32();
    pending_decision_ = r.b();
    pending_epoch_ = r.u64();
    pending_phase_ = r.u64();
    epochs_since_decision_ = r.u64();
    decisions_made_ = r.u64();
    const std::uint64_t pending = r.u64();
    SnapshotReader::check(pending <= (1u << 20),
                          "realize queue implausibly long");
    realize_queue_.clear();
    for (std::uint64_t i = 0; i < pending; ++i) {
        PendingRealize p;
        p.decision = r.u64();
        p.due = r.u64();
        realize_queue_.push_back(p);
    }
    detector_.loadState(r);
    recorder_.loadState(r);
    r.endSection();

    // Rebuild the live machine in the adopted shape, then restore
    // into it — shapes now match the snapshot's sections.
    current_ = t;
    buildSystem(current_);
    system().loadSnapshot(r);
}

} // namespace asd
