#include "sim/system.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"

namespace asd
{

namespace
{

// Read-completion id encoding: kind | thread | line.
constexpr std::uint64_t kKindShift = 56;
constexpr std::uint64_t kThreadShift = 48;
constexpr std::uint64_t kLineMask = (1ULL << kThreadShift) - 1;

enum class ReqKind : std::uint64_t
{
    Load = 0,
    Rfo = 1,
    PsL1 = 2,
    PsL2 = 3,
};

std::uint64_t
encodeId(ReqKind kind, std::uint32_t thread, LineAddr line)
{
    panicIfNot(line <= kLineMask, "line address exceeds id encoding");
    return (static_cast<std::uint64_t>(kind) << kKindShift) |
           (static_cast<std::uint64_t>(thread) << kThreadShift) | line;
}

} // namespace

System::System(const SystemConfig &config,
               std::vector<TraceSource *> traces)
    : config_(config),
      dram_(config.dram),
      mc_(config.mc, dram_,
          [this](std::uint64_t id, Cycle done) { onReadDone(id, done); }),
      hierarchy_(config.hierarchy)
{
    if (traces.empty())
        fatal("System: at least one trace required");

    // During warm-up the controller must behave exactly as if no
    // memory-side prefetcher were attached; runUntil() arms it at the
    // boundary.
    if (config_.warmup_cycles > 0)
        mc_.setPrefetcherArmed(false);

    const auto threads = static_cast<std::uint32_t>(traces.size());

    if (config_.hasMs()) {
        AsdConfig asd_config = config_.asd;
        asd_config.threads = threads;
        switch (config_.mc_prefetcher) {
          case McPrefetcherKind::Asd:
            asd_ = std::make_unique<AsdPrefetcher>(asd_config);
            mc_.attachPrefetcher(asd_.get());
            buffer_ = &asd_->buffer();
            asd_->registerStats(registry_, "asd");
            break;
          case McPrefetcherKind::NextLine:
            baseline_ =
                std::make_unique<NextLineMcPrefetcher>(asd_config);
            mc_.attachPrefetcher(baseline_.get());
            buffer_ = &baseline_->buffer();
            break;
          case McPrefetcherKind::P5Style:
            baseline_ =
                std::make_unique<P5StyleMcPrefetcher>(asd_config);
            mc_.attachPrefetcher(baseline_.get());
            buffer_ = &baseline_->buffer();
            break;
          case McPrefetcherKind::Ghb:
            baseline_ = std::make_unique<GhbMcPrefetcher>(
                asd_config, config_.ghb);
            mc_.attachPrefetcher(baseline_.get());
            buffer_ = &baseline_->buffer();
            break;
          case McPrefetcherKind::Stride:
            baseline_ = std::make_unique<StrideMcPrefetcher>(
                asd_config, config_.stride);
            mc_.attachPrefetcher(baseline_.get());
            buffer_ = &baseline_->buffer();
            break;
          case McPrefetcherKind::Dspatch:
            baseline_ = std::make_unique<DspatchMcPrefetcher>(
                asd_config, config_.dspatch);
            mc_.attachPrefetcher(baseline_.get());
            buffer_ = &baseline_->buffer();
            break;
          case McPrefetcherKind::Perceptron:
            baseline_ = std::make_unique<PerceptronMcPrefetcher>(
                asd_config, config_.perceptron);
            mc_.attachPrefetcher(baseline_.get());
            buffer_ = &baseline_->buffer();
            break;
        }
    }

    if (config_.vm.enabled && config_.os.enabled)
        fatal("System: vm.enabled and os.enabled are mutually "
              "exclusive — the OS model's finite frame pool replaces "
              "the VM layer's unbounded placement");
    if (config_.os.enabled)
        kernel_ = std::make_unique<OsKernel>(config_.os, config_.vm);
    else if (config_.vm.enabled)
        kernel_ = std::make_unique<OsKernel>(config_.vm, threads);
    // Translation stats live under os.* for the OS model, vm.* else.
    const std::string xlat_scope = config_.os.enabled ? "os" : "vm";

    for (std::uint32_t t = 0; t < threads; ++t) {
        Mmu *mmu = nullptr;
        if (kernel_) {
            mmus_.push_back(
                std::make_unique<Mmu>(config_.vm, *kernel_, t));
            mmu = mmus_.back().get();
            mmu->registerStats(registry_,
                               xlat_scope + ".t" + std::to_string(t));
        }
        CpuPrefetcher *ps = nullptr;
        if (config_.hasPs()) {
            if (config_.ps_kind == PsKind::Asd) {
                ps_.push_back(std::make_unique<AsdPsPrefetcher>(
                    config_.asd_ps));
            } else {
                ps_.push_back(
                    std::make_unique<PsPrefetcher>(config_.ps));
            }
            ps = ps_.back().get();
            ps->registerStats(registry_,
                              "ps.t" + std::to_string(t));
        }
        cpus_.push_back(std::make_unique<TraceCpu>(
            config_.cpu, *traces[t], hierarchy_, ps, *this, t, mmu));
        cpus_.back()->registerStats(registry_,
                                    "cpu.t" + std::to_string(t));
    }

    if (config_.telemetry.enabled) {
        if (asd_) {
            telemetry_ = std::make_unique<TelemetryRecorder>(
                config_.telemetry, *asd_, mc_, dram_);
            asd_->setEpochEndHook([this](Cycle now) {
                telemetry_->onEpochEnd(now);
            });
            if (config_.os.enabled) {
                telemetry_->setOsProbe([this]() {
                    OsTelemetrySample sample;
                    sample.minor_faults = kernel_->minorFaults();
                    sample.major_faults = kernel_->majorFaults();
                    sample.reclaims = kernel_->reclaims();
                    sample.writebacks = kernel_->writebacks();
                    sample.shootdowns = kernel_->shootdowns();
                    return sample;
                });
                // Pick up counters accumulated between construction
                // of the recorder (above) and probe installation:
                // none yet, but rebaseline keeps the invariant
                // explicit if construction order ever changes.
                telemetry_->rebaseline(0);
            }
        } else {
            warn("telemetry requested but the memory-side prefetcher "
                 "is not ASD; no epochs to record");
        }
    }

    if (kernel_)
        kernel_->registerStats(registry_, xlat_scope);
    dram_.registerStats(registry_);
    mc_.registerStats(registry_, "mc");
    hierarchy_.registerStats(registry_, "cache");
    registry_.add("sys.ps_prefetch_reads", ps_prefetch_reads_);
    registry_.add("sys.ps_prefetch_l3_fills", ps_prefetch_l3_fills_);
    registry_.add("sys.ps_prefetch_dropped", ps_prefetch_dropped_);
    registry_.add("sys.ps_merged_demands", ps_merged_demands_);
}

bool
System::demandRead(LineAddr line, std::uint32_t thread, bool is_rfo)
{
    const ReqKind kind = is_rfo ? ReqKind::Rfo : ReqKind::Load;
    const std::uint64_t id = encodeId(kind, thread, line);
    if (ps_inflight_.count(line) > 0) {
        // Ride the in-flight processor-side prefetch of this line.
        ps_waiters_[line].push_back(id);
        ps_merged_demands_.inc();
        return true;
    }
    if (!mc_.enqueueRead(line, id, thread, now_))
        return false;
    memorySideChanged();
    return true;
}

void
System::psPrefetch(LineAddr line, std::uint32_t thread, bool to_l1)
{
    // Already close enough to the core? Nothing to do.
    if (hierarchy_.probe(HitLevel::L2, line) ||
        (to_l1 && hierarchy_.probe(HitLevel::L1, line))) {
        return;
    }
    if (hierarchy_.probe(HitLevel::L3, line)) {
        // Served on-module without a memory command.
        if (to_l1)
            hierarchy_.fillPrefetchL1(line);
        else
            hierarchy_.fillPrefetchL2(line);
        ps_prefetch_l3_fills_.inc();
        return;
    }
    if (ps_inflight_.count(line) > 0)
        return; // already being fetched
    if (config_.ps_oracle) {
        // Limit study: instant, free fills.
        if (to_l1)
            hierarchy_.fillPrefetchL1(line);
        else
            hierarchy_.fillPrefetchL2(line);
        return;
    }
    const ReqKind kind = to_l1 ? ReqKind::PsL1 : ReqKind::PsL2;
    if (mc_.enqueueRead(line, encodeId(kind, thread, line), thread,
                        now_)) {
        memorySideChanged();
        ps_prefetch_reads_.inc();
        ps_inflight_.insert(line);
    } else {
        ps_prefetch_dropped_.inc(); // prefetches are never retried
    }
}

void
System::onReadDone(std::uint64_t id, Cycle done)
{
    const auto kind = static_cast<ReqKind>(id >> kKindShift);
    const auto thread =
        static_cast<std::uint32_t>((id >> kThreadShift) & 0xff);
    const LineAddr line = id & kLineMask;
    switch (kind) {
      case ReqKind::Load:
        cpus_[thread]->loadDone(line, done);
        break;
      case ReqKind::Rfo:
        cpus_[thread]->storeDone(line, done);
        break;
      case ReqKind::PsL1:
      case ReqKind::PsL2:
        if (kind == ReqKind::PsL1)
            hierarchy_.fillPrefetchL1(line);
        else
            hierarchy_.fillPrefetchL2(line);
        ps_inflight_.erase(line);
        if (const auto it = ps_waiters_.find(line);
            it != ps_waiters_.end()) {
            const std::vector<std::uint64_t> waiters =
                std::move(it->second);
            ps_waiters_.erase(it);
            for (const std::uint64_t waiter_id : waiters)
                onReadDone(waiter_id, done);
        }
        break;
    }
}

void
System::drainWritebacks()
{
    for (const LineAddr line : hierarchy_.drainWritebacks())
        pending_writebacks_.push_back(line);
    while (!pending_writebacks_.empty()) {
        if (!mc_.enqueueWrite(pending_writebacks_.front(), now_))
            break;
        memorySideChanged();
        pending_writebacks_.pop_front();
    }
}

bool
System::everythingDone() const
{
    if (!pending_writebacks_.empty() || !mc_.idle())
        return false;
    return std::all_of(cpus_.begin(), cpus_.end(),
                       [](const auto &cpu) { return cpu->finished(); });
}

void
System::advance(Cycle target, bool epoch_ended)
{
    // The memory side's due cycle holds until the controller ticks or
    // something reaches it from outside.
    if (ms_due_ <= now_)
        ms_due_ = memorySideDue(now_);

    const Cycle next = now_ + 1;
    if (!pending_writebacks_.empty() || everythingDone()) {
        now_ = next; // retry the full write queue, or stop
        return;
    }

    if (!mc_.hasWork()) {
        // Idle memory side: jump to the CPUs' next event. The memory
        // side does not tick meanwhile, so a Stream Filter lifetime
        // that runs out in the gap expires at that tick.
        Cycles skip = kNoCycle;
        for (const auto &cpu : cpus_) {
            if (cpu->finished())
                continue;
            const Cycles in = cpu->nextEventIn(now_);
            if (in == kNoCycle) {
                now_ = next; // a CPU waits on a callback that cannot come
                return;
            }
            skip = std::min(skip, in);
        }
        now_ = skip == kNoCycle ? next : now_ + skip;
        return;
    }

    // Busy memory side: every cycle would be an iteration, so jump to
    // the earliest one at which any component can change state and
    // account for the quiet ticks in between.
    if (epoch_ended) {
        now_ = next; // the loop hook may apply a tuner decision there
        return;
    }
    Cycle event = std::min({target, config_.max_cycles, ms_due_});
    for (const auto &cpu : cpus_) {
        const Cycles in = cpu->nextChangeIn(now_);
        if (in != kNoCycle)
            event = std::min(event, now_ + in);
    }
    if (!mc_.prefetcherArmed())
        event = std::min(event, config_.warmup_cycles);
    if (event > next) {
        for (auto &cpu : cpus_)
            cpu->skipQuietTicks(event - 1);
        mc_.skipQuietCycles(next, event - 1);
    }
    now_ = event;
}

Cycle
System::memorySideDue(Cycle ticked) const
{
    Cycle due = mc_.nextEventAt(ticked);
    if (mc_.prefetcherArmed()) {
        // The System's own prefetcher, not whatever the controller has
        // attached: a wrapper need not forward nextEventAt.
        if (const MemSidePrefetcher *ms = msPrefetcher())
            due = std::min(due, ms->nextEventAt(ticked));
    }
    return due;
}

void
System::applyTuning(const AsdTuning &tuning)
{
    panicIfNot(asd_ != nullptr, "System::applyTuning needs ASD");
    asd_->applyTuning(tuning);
    memorySideChanged();
}

void
System::setEpochEndHook(std::function<void(Cycle)> hook)
{
    epoch_hook_ = std::move(hook);
    if (!asd_)
        return;
    // Re-install the chained prefetcher hook: telemetry first (so the
    // user hook sees the completed epoch's record), then the user.
    asd_->setEpochEndHook([this](Cycle now) {
        if (telemetry_)
            telemetry_->onEpochEnd(now);
        if (epoch_hook_)
            epoch_hook_(now);
    });
}

void
System::setLoopHook(std::function<void(Cycle)> hook)
{
    loop_hook_ = std::move(hook);
}

void
System::armPrefetcher()
{
    mc_.setPrefetcherArmed(true);
    memorySideChanged();
    if (telemetry_)
        telemetry_->rebaseline(now_);
}

void
System::runUntil(Cycle target)
{
    while (!everythingDone()) {
        // The target break comes BEFORE arming: runUntil(W) leaves
        // the machine disarmed at the boundary, and both "resume
        // after restore" and "run straight through" then arm at the
        // identical loop iteration.
        if (now_ >= target)
            break;
        if (loop_hook_)
            loop_hook_(now_);
        if (!mc_.prefetcherArmed() && now_ >= config_.warmup_cycles)
            armPrefetcher();
        if (now_ >= config_.max_cycles)
            fatal("System: max_cycles exceeded; simulation wedged?");
        const std::uint64_t epochs = asd_ ? asd_->epochsCompleted() : 0;
        for (auto &cpu : cpus_)
            cpu->tick(now_);
        drainWritebacks();
        if (now_ >= ms_due_) {
            mc_.tick(now_);
            memorySideChanged();
        } else {
            // Nothing reached the memory side since its due cycle was
            // computed, so this tick would be quiet: recomputed from
            // the current state, it must not have moved earlier.
            if (checksEnabled()) {
                checkThat(memorySideDue(now_ - 1) >= ms_due_,
                          "stale memory-side due cycle at " +
                              std::to_string(now_));
            }
            mc_.skipQuietCycles(now_, now_);
        }
        drainWritebacks();
        advance(target, asd_ && asd_->epochsCompleted() != epochs);
    }
}

RunMetrics
System::run()
{
    runUntil(kNoCycle);
    return collectMetrics();
}

RunMetrics
System::collectMetrics() const
{
    RunMetrics metrics;
    metrics.cycles = now_;
    for (const auto &cpu : cpus_)
        metrics.accesses += cpu->retiredAccesses();

    const PowerModel power_model(config_.dram);
    metrics.power = power_model.report(dram_, now_);
    metrics.dram_watts =
        metrics.power.averageWatts(now_, config_.cpu_hz);
    metrics.dram_energy_mj = metrics.power.totalPj() * 1e-9;

    metrics.vm_enabled = config_.vm.enabled;
    metrics.os_enabled = config_.os.enabled;
    for (const auto &mmu : mmus_) {
        metrics.tlb_hits += mmu->tlb().hits();
        metrics.tlb_misses += mmu->tlb().misses();
        metrics.tlb_evictions += mmu->tlb().evictions();
        metrics.page_walk_cycles += mmu->stallCycles();
    }
    if (kernel_)
        metrics.pages_mapped = kernel_->pagesMapped();
    if (config_.os.enabled) {
        metrics.os_minor_faults = kernel_->minorFaults();
        metrics.os_major_faults = kernel_->majorFaults();
        metrics.os_reclaims = kernel_->reclaims();
        metrics.os_writebacks = kernel_->writebacks();
        metrics.os_shootdowns = kernel_->shootdowns();
        metrics.os_stall_cycles = kernel_->stallCycles();
        metrics.os_resident_pages = kernel_->pool().resident();
    }

    metrics.mc_reads = mc_.readsObserved();
    metrics.mc_writes = mc_.writesObserved();
    metrics.ms_prefetches_issued = mc_.prefetchesIssued();
    metrics.buffer_hits = mc_.bufferHits();
    metrics.lpq_drops = mc_.lpqDrops();

    if (buffer_) {
        // Useful = consumed from the buffer + forwarded straight to a
        // merged demand read, over all memory-side prefetches issued.
        const std::uint64_t useful =
            buffer_->consumed() + mc_.prefetchesMergedUseful();
        if (metrics.ms_prefetches_issued > 0) {
            metrics.useful_prefetch_pct =
                100.0 * static_cast<double>(useful) /
                static_cast<double>(metrics.ms_prefetches_issued);
        }
        if (metrics.mc_reads > 0) {
            metrics.coverage_pct =
                100.0 * static_cast<double>(metrics.buffer_hits) /
                static_cast<double>(metrics.mc_reads);
        }
        const std::uint64_t regulars =
            metrics.mc_reads - metrics.buffer_hits + metrics.mc_writes;
        if (regulars > 0) {
            metrics.delayed_regular_pct =
                100.0 * static_cast<double>(mc_.regularsDelayed()) /
                static_cast<double>(regulars);
        }
    }
    return metrics;
}

MemSidePrefetcher *
System::msPrefetcher() const
{
    if (asd_)
        return asd_.get();
    return baseline_.get();
}

void
System::saveSnapshot(SnapshotWriter &w) const
{
    w.beginSection("sys");
    w.b(mc_.prefetcherArmed());
    w.u64(now_);
    w.u64(pending_writebacks_.size());
    for (const LineAddr line : pending_writebacks_)
        w.u64(line);
    // Unordered containers are written in sorted key order so that
    // save -> load -> save is byte-identical; simulation only point-
    // queries them, so restore order never changes behaviour.
    std::vector<std::uint64_t> inflight(ps_inflight_.begin(),
                                        ps_inflight_.end());
    std::sort(inflight.begin(), inflight.end());
    w.vecU64(inflight);
    std::vector<LineAddr> waiter_lines;
    waiter_lines.reserve(ps_waiters_.size());
    for (const auto &entry : ps_waiters_)
        waiter_lines.push_back(entry.first);
    std::sort(waiter_lines.begin(), waiter_lines.end());
    w.u64(waiter_lines.size());
    for (const LineAddr line : waiter_lines) {
        w.u64(line);
        w.vecU64(ps_waiters_.at(line));
    }
    w.u64(ps_prefetch_reads_.value());
    w.u64(ps_prefetch_l3_fills_.value());
    w.u64(ps_prefetch_dropped_.value());
    w.u64(ps_merged_demands_.value());
    w.u32(static_cast<std::uint32_t>(cpus_.size()));
    w.b(msPrefetcher() != nullptr);
    w.b(!ps_.empty());
    w.b(kernel_ != nullptr);
    w.b(telemetry_ != nullptr);
    w.endSection();

    for (std::size_t t = 0; t < cpus_.size(); ++t) {
        w.beginSection("cpu" + std::to_string(t));
        cpus_[t]->saveState(w);
        w.endSection();
    }

    w.beginSection("cache");
    hierarchy_.saveState(w);
    w.endSection();

    w.beginSection("mc");
    mc_.saveState(w);
    w.endSection();

    w.beginSection("dram");
    dram_.saveState(w);
    w.endSection();

    if (const MemSidePrefetcher *ms = msPrefetcher()) {
        w.beginSection("ms");
        w.u8(static_cast<std::uint8_t>(config_.mc_prefetcher));
        ms->saveState(w);
        w.endSection();
    }

    for (std::size_t t = 0; t < ps_.size(); ++t) {
        w.beginSection("ps" + std::to_string(t));
        ps_[t]->saveState(w);
        w.endSection();
    }

    if (kernel_) {
        w.beginSection("vm");
        kernel_->saveState(w);
        for (const auto &mmu : mmus_)
            mmu->saveState(w);
        w.endSection();
    }

    if (telemetry_) {
        w.beginSection("tel");
        telemetry_->saveState(w);
        w.endSection();
    }
}

void
System::loadSnapshot(SnapshotReader &r)
{
    memorySideChanged();
    r.openSection("sys");
    const bool armed = r.b();
    now_ = r.u64();
    const std::uint64_t writebacks = r.u64();
    pending_writebacks_.clear();
    for (std::uint64_t i = 0; i < writebacks; ++i)
        pending_writebacks_.push_back(r.u64());
    const std::vector<std::uint64_t> inflight = r.vecU64();
    ps_inflight_.clear();
    for (const std::uint64_t line : inflight) {
        SnapshotReader::check(ps_inflight_.insert(line).second,
                              "duplicate in-flight prefetch line");
    }
    const std::uint64_t waiter_lines = r.u64();
    ps_waiters_.clear();
    for (std::uint64_t i = 0; i < waiter_lines; ++i) {
        const LineAddr line = r.u64();
        std::vector<std::uint64_t> waiters = r.vecU64();
        SnapshotReader::check(
            ps_waiters_.emplace(line, std::move(waiters)).second,
            "duplicate prefetch-waiter line");
    }
    ps_prefetch_reads_.restore(r.u64());
    ps_prefetch_l3_fills_.restore(r.u64());
    ps_prefetch_dropped_.restore(r.u64());
    ps_merged_demands_.restore(r.u64());
    SnapshotReader::check(r.u32() == cpus_.size(),
                          "snapshot thread count mismatch");
    const bool snap_ms = r.b();
    const bool snap_ps = r.b();
    const bool snap_vm = r.b();
    const bool snap_tel = r.b();
    r.endSection();

    // The processor side and translation layer shape the pre-checkpoint
    // evolution, so they must match exactly. A snapshot WITHOUT
    // memory-side prefetcher / telemetry state may be restored into a
    // machine that HAS them (warm-start forking: the warm-up ran
    // disarmed, the restored machine arms at the boundary and its
    // prefetcher starts from its freshly-built state) — but not the
    // reverse.
    SnapshotReader::check(
        !snap_ms || msPrefetcher() != nullptr,
        "snapshot carries memory-side prefetcher state but this "
        "machine has none");
    SnapshotReader::check(snap_ps == !ps_.empty(),
                          "processor-side prefetcher presence mismatch");
    SnapshotReader::check(snap_vm == (kernel_ != nullptr),
                          "translation-layer presence mismatch");
    SnapshotReader::check(
        !snap_tel || telemetry_ != nullptr,
        "snapshot carries telemetry state but this machine has no "
        "recorder");
    mc_.setPrefetcherArmed(armed);

    for (std::size_t t = 0; t < cpus_.size(); ++t) {
        r.openSection("cpu" + std::to_string(t));
        cpus_[t]->loadState(r);
        r.endSection();
    }

    r.openSection("cache");
    hierarchy_.loadState(r);
    r.endSection();

    r.openSection("mc");
    mc_.loadState(r);
    r.endSection();

    r.openSection("dram");
    dram_.loadState(r);
    r.endSection();

    if (snap_ms) {
        r.openSection("ms");
        SnapshotReader::check(
            r.u8() ==
                static_cast<std::uint8_t>(config_.mc_prefetcher),
            "memory-side prefetcher kind mismatch");
        msPrefetcher()->loadState(r);
        r.endSection();
    }

    if (snap_ps) {
        for (std::size_t t = 0; t < ps_.size(); ++t) {
            r.openSection("ps" + std::to_string(t));
            ps_[t]->loadState(r);
            r.endSection();
        }
    }

    if (snap_vm) {
        r.openSection("vm");
        kernel_->loadState(r);
        for (const auto &mmu : mmus_)
            mmu->loadState(r);
        r.endSection();
    }

    if (snap_tel) {
        r.openSection("tel");
        telemetry_->loadState(r);
        r.endSection();
    }
}

} // namespace asd
