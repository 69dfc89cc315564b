#include "cpu/trace_cpu.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "os/mmu.hpp"

namespace asd
{

TraceCpu::TraceCpu(const CpuConfig &config, TraceSource &trace,
                   CacheHierarchy &hierarchy, CpuPrefetcher *ps,
                   MemPort &port, std::uint32_t thread,
                   Mmu *mmu)
    : config_(config),
      trace_(trace),
      hierarchy_(hierarchy),
      ps_(ps),
      port_(port),
      thread_(thread),
      mmu_(mmu),
      mem_loads_(config.mlp),
      store_rfos_(config.store_buffer)
{
    panicIfNot(config_.ipc > 0, "TraceCpu: ipc must be positive");
    panicIfNot(config_.mlp > 0, "TraceCpu: mlp must be positive");
}

void
TraceCpu::completeTimedLoads(Cycle now)
{
    timed_loads_.erase(
        std::remove_if(timed_loads_.begin(), timed_loads_.end(),
                       [now](Cycle done) { return done <= now; }),
        timed_loads_.end());
}

void
TraceCpu::observePs(LineAddr line, bool was_l1_miss)
{
    if (!ps_)
        return;
    for (const PsPrefetchReq &req : ps_->observe(line, was_l1_miss))
        port_.psPrefetch(req.line, thread_, req.to_l1);
}

bool
TraceCpu::tryIssue(Cycle now)
{
    Pending &p = pending_;

    if (p.access.dependent &&
        (mem_loads_.inUse() > 0 || !timed_loads_.empty())) {
        dep_stall_cycles_.inc();
        return false;
    }

    const bool is_store = p.access.op == MemOp::Write;

    if (!p.looked_up) {
        // Consult the hierarchy exactly once per access; retries only
        // re-attempt the slot allocation / memory-port call.
        const AccessResult result = hierarchy_.access(p.line, is_store);
        p.looked_up = true;
        p.needs_memory = result.needs_memory;
        p.hit_latency = result.latency;
        // PS observation is deferred until the demand read itself has
        // been issued: prefetch reads must reach the memory
        // controller AFTER the demand miss that triggered them, or
        // the controller-side stream filter sees lines out of order.
        p.ps_observe = !is_store;
        p.ps_was_miss = result.level != HitLevel::L1;
        if (is_store && !result.needs_memory) {
            // Store absorbed by L2/L3; the store buffer hides it.
            retired_.inc();
            p.valid = false;
            return true;
        }
    }

    if (!is_store && !p.needs_memory) {
        // Cache-hit load: occupies an outstanding-load slot until its
        // data returns from L1/L2/L3.
        if (timed_loads_.size() + mem_loads_.inUse() >= config_.mlp) {
            load_stall_cycles_.inc();
            return false;
        }
        timed_loads_.push_back(now + p.hit_latency);
        retired_.inc();
        p.valid = false;
        if (p.ps_observe)
            observePs(p.line, p.ps_was_miss);
        return true;
    }

    if (is_store) {
        if (store_rfos_.full()) {
            store_stall_cycles_.inc();
            return false;
        }
        if (!store_rfos_.allocate(p.line)) {
            // New RFO: send it, or park it for retry if the memory
            // controller is full (the MSHR waits, not the core).
            if (!port_.demandRead(p.line, thread_, true)) {
                mc_reject_cycles_.inc();
                retry_q_.push_back({p.line, true});
            }
        }
        retired_.inc();
        p.valid = false;
        return true;
    }

    // Load that needs memory.
    if (timed_loads_.size() + mem_loads_.inUse() >= config_.mlp) {
        load_stall_cycles_.inc();
        return false;
    }
    if (!mem_loads_.allocate(p.line)) {
        if (!port_.demandRead(p.line, thread_, false)) {
            mc_reject_cycles_.inc();
            retry_q_.push_back({p.line, false});
        }
    }
    retired_.inc();
    p.valid = false;
    if (p.ps_observe)
        observePs(p.line, p.ps_was_miss);
    return true;
}

void
TraceCpu::tick(Cycle now)
{
    completeTimedLoads(now);

    // Re-attempt parked misses before doing anything else; at most
    // one enqueue per cycle (one cache port to the controller).
    if (!retry_q_.empty()) {
        const RetryEntry entry = retry_q_.front();
        if (port_.demandRead(entry.line, thread_, entry.is_rfo))
            retry_q_.erase(retry_q_.begin());
        else
            mc_reject_cycles_.inc();
    }

    // The System may fast-forward between ticks; burn gap
    // instructions for the whole elapsed window, not one cycle.
    const Cycles elapsed =
        last_tick_ == kNoCycle || now <= last_tick_ ? 1
                                                    : now - last_tick_;
    last_tick_ = now;

    if (pending_.valid) {
        if (now < issue_ready_at_)
            return; // page walk in flight
        tryIssue(now);
        return;
    }

    if (compute_left_ > 0) {
        compute_left_ -= std::min<std::uint64_t>(
            compute_left_, elapsed * config_.ipc);
        if (compute_left_ > 0)
            return;
    }

    if (trace_done_)
        return;

    MemAccess access;
    if (!trace_.next(access)) {
        trace_done_ = true;
        return;
    }
    pending_.access = access;
    // Translate before anything downstream sees the address: caches,
    // controller, and the memory-side prefetcher all operate on
    // physical lines. A TLB miss holds the access at issue for the
    // page-walk (or, under the OS model, fault-service) latency.
    Addr paddr = access.addr;
    issue_ready_at_ = now;
    if (mmu_) {
        Cycles walk = 0;
        paddr = mmu_->translate(access, walk);
        if (walk > 0) {
            issue_ready_at_ = now + walk;
            walk_stall_cycles_.inc(walk);
        }
    }
    pending_.line = paddr / config_.line_bytes;
    pending_.valid = true;
    pending_.looked_up = false;
    pending_.needs_memory = false;
    compute_left_ = access.gap;
    if (now >= issue_ready_at_)
        tryIssue(now);
}

bool
TraceCpu::finished() const
{
    return trace_done_ && !pending_.valid && timed_loads_.empty() &&
           mem_loads_.inUse() == 0 && store_rfos_.inUse() == 0 &&
           retry_q_.empty();
}

Cycles
TraceCpu::nextEventIn(Cycle now) const
{
    if (finished())
        return kNoCycle;
    if (!retry_q_.empty())
        return 1;
    if (pending_.valid) {
        if (now < issue_ready_at_)
            return issue_ready_at_ - now; // page walk finishes then
        // Waiting on a memory callback (dependence or MC rejection)?
        if (mem_loads_.inUse() > 0 || store_rfos_.inUse() > 0) {
            if (timed_loads_.empty())
                return kNoCycle; // only a callback can unblock us
        }
        Cycle soonest = kNoCycle;
        for (const Cycle done : timed_loads_)
            soonest = std::min(soonest, done);
        if (soonest == kNoCycle)
            return 1;
        return soonest > now ? soonest - now : 1;
    }
    if (compute_left_ > 0)
        return (compute_left_ + config_.ipc - 1) / config_.ipc;
    if (trace_done_) {
        Cycle soonest = kNoCycle;
        for (const Cycle done : timed_loads_)
            soonest = std::min(soonest, done);
        if (soonest == kNoCycle)
            return kNoCycle;
        return soonest > now ? soonest - now : 1;
    }
    return 1;
}

void
TraceCpu::loadDone(LineAddr line, Cycle now)
{
    (void)now;
    if (mem_loads_.release(line) > 0)
        hierarchy_.fill(line, false);
}

void
TraceCpu::storeDone(LineAddr line, Cycle now)
{
    (void)now;
    if (store_rfos_.release(line) > 0)
        hierarchy_.fill(line, true);
}

void
TraceCpu::saveState(SnapshotWriter &w) const
{
    trace_.saveState(w);
    w.b(trace_done_);
    w.u64(compute_left_);
    w.u64(last_tick_);
    w.b(pending_.valid);
    w.u64(pending_.access.addr);
    w.u32(pending_.access.gap);
    w.u8(static_cast<std::uint8_t>(pending_.access.op));
    w.b(pending_.access.dependent);
    w.u32(pending_.access.space);
    w.u64(pending_.line);
    w.b(pending_.looked_up);
    w.b(pending_.needs_memory);
    w.b(pending_.ps_observe);
    w.b(pending_.ps_was_miss);
    w.u64(pending_.hit_latency);
    w.u64(issue_ready_at_);
    w.vecU64(timed_loads_);
    mem_loads_.saveState(w);
    store_rfos_.saveState(w);
    w.u64(retry_q_.size());
    for (const RetryEntry &entry : retry_q_) {
        w.u64(entry.line);
        w.b(entry.is_rfo);
    }
    w.u64(retired_.value());
    w.u64(load_stall_cycles_.value());
    w.u64(store_stall_cycles_.value());
    w.u64(dep_stall_cycles_.value());
    w.u64(mc_reject_cycles_.value());
    w.u64(walk_stall_cycles_.value());
}

void
TraceCpu::loadState(SnapshotReader &r)
{
    trace_.loadState(r);
    trace_done_ = r.b();
    compute_left_ = r.u64();
    last_tick_ = r.u64();
    pending_.valid = r.b();
    pending_.access.addr = r.u64();
    pending_.access.gap = r.u32();
    const std::uint8_t op = r.u8();
    SnapshotReader::check(
        op <= static_cast<std::uint8_t>(MemOp::Write),
        "memory op out of range");
    pending_.access.op = static_cast<MemOp>(op);
    pending_.access.dependent = r.b();
    pending_.access.space = r.u32();
    pending_.line = r.u64();
    pending_.looked_up = r.b();
    pending_.needs_memory = r.b();
    pending_.ps_observe = r.b();
    pending_.ps_was_miss = r.b();
    pending_.hit_latency = r.u64();
    issue_ready_at_ = r.u64();
    timed_loads_ = r.vecU64();
    mem_loads_.loadState(r);
    store_rfos_.loadState(r);
    const std::uint64_t retries = r.u64();
    retry_q_.clear();
    for (std::uint64_t i = 0; i < retries; ++i) {
        RetryEntry entry;
        entry.line = r.u64();
        entry.is_rfo = r.b();
        retry_q_.push_back(entry);
    }
    retired_.restore(r.u64());
    load_stall_cycles_.restore(r.u64());
    store_stall_cycles_.restore(r.u64());
    dep_stall_cycles_.restore(r.u64());
    mc_reject_cycles_.restore(r.u64());
    walk_stall_cycles_.restore(r.u64());
}

void
TraceCpu::registerStats(StatRegistry &registry,
                        const std::string &prefix) const
{
    registry.add(prefix + ".retired", retired_);
    registry.add(prefix + ".load_stall_cycles", load_stall_cycles_);
    registry.add(prefix + ".store_stall_cycles", store_stall_cycles_);
    registry.add(prefix + ".dep_stall_cycles", dep_stall_cycles_);
    registry.add(prefix + ".mc_reject_cycles", mc_reject_cycles_);
    if (mmu_)
        registry.add(prefix + ".walk_stall_cycles",
                     walk_stall_cycles_);
}

} // namespace asd
