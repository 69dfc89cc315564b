#include "tuner/tuned_run.hpp"

#include <utility>

#include "common/log.hpp"

namespace asd
{

TunedRun::TunedRun(const Benchmark &bench, const RunOptions &options,
                   std::uint64_t total_accesses)
    : bench_(bench), options_(options), detector_(options.tuner)
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

    trace_config_ = bench_.trace;
    trace_config_.total_accesses =
        total_accesses != 0 ? total_accesses
                            : scaledAccesses(bench_, options_);

    current_ = tuningOf(sys_config_.asd);
    buildSystem(current_);

    const SyntheticConfig trace_config = trace_config_;
    const TenantMixConfig tenants = options_.tenants;
    shadow_ = std::make_unique<ShadowTuner>(
        options_.tuner, sys_config_, [trace_config, tenants]() {
            std::vector<std::unique_ptr<TraceSource>> traces;
            if (tenants.enabled) {
                traces.push_back(std::make_unique<TenantMixSource>(
                    tenants, trace_config,
                    trace_config.total_accesses));
            } else {
                traces.push_back(
                    std::make_unique<SyntheticTraceGenerator>(
                        trace_config));
            }
            return traces;
        });
}

void
TunedRun::buildSystem(const AsdTuning &tuning)
{
    if (options_.tenants.enabled) {
        trace_ = std::make_unique<TenantMixSource>(
            options_.tenants, trace_config_,
            trace_config_.total_accesses);
    } else {
        trace_ =
            std::make_unique<SyntheticTraceGenerator>(trace_config_);
    }
    SystemConfig config = sys_config_;
    config.asd = withTuning(config.asd, tuning);
    system_ = std::make_unique<System>(
        config, std::vector<TraceSource *>{trace_.get()});
    if (!system_->asd())
        fatal("TunedRun: system has no ASD prefetcher to tune");
    if (options_.tenants.enabled) {
        const auto *mix =
            static_cast<const TenantMixSource *>(trace_.get());
        system_->setTenantProbe([mix]() {
            TenantTelemetrySample sample;
            sample.arrivals = mix->arrivals();
            sample.departures = mix->departures();
            return sample;
        });
    }
    installHooks();
}

void
TunedRun::installHooks()
{
    system_->setEpochEndHook(
        [this](Cycle now) { onEpochEnd(now); });
    system_->setLoopHook([this](Cycle now) { onLoopTop(now); });
}

void
TunedRun::onEpochEnd(Cycle now)
{
    (void)now;
    const TelemetryRecorder *telemetry = system_->telemetry();
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
        shadow_->evaluate(*system_, current_);
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
        system_->applyTuning(winner);
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
    return system_->collectMetrics().accesses;
}

void
TunedRun::runUntil(Cycle target)
{
    system_->runUntil(target);
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
    TunedRunResult res;
    res.metrics = system_->collectMetrics();
    if (options_.tenants.enabled) {
        const auto *mix =
            static_cast<const TenantMixSource *>(trace_.get());
        res.metrics.tenants_enabled = true;
        res.metrics.tenant_arrivals = mix->arrivals();
        res.metrics.tenant_departures = mix->departures();
        res.metrics.tenant_active = mix->activeTenants();
    }
    if (system_->telemetry())
        res.epochs = system_->telemetry()->records();
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
    system_->saveSnapshot(w);
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
    system_->loadSnapshot(r);
}

} // namespace asd
