#include "mc/memory_controller.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"

namespace asd
{

MemoryController::MemoryController(const McConfig &config, Dram &dram,
                                   ReadCallback on_read_done)
    : config_(config),
      dram_(dram),
      on_read_done_(std::move(on_read_done)),
      scheduler_(makeScheduler(config.scheduler))
{
    panicIfNot(config_.caq > 0, "MemoryController: CAQ must be nonempty");
    panicIfNot(static_cast<bool>(on_read_done_),
               "MemoryController: read callback required");
}

void
MemoryController::attachPrefetcher(MemSidePrefetcher *prefetcher)
{
    prefetcher_ = prefetcher;
}

bool
MemoryController::canAcceptRead() const
{
    return read_q_.size() < config_.read_queue;
}

bool
MemoryController::canAcceptWrite() const
{
    return write_q_.size() < config_.write_queue;
}

bool
MemoryController::prefetchInFlight(LineAddr line) const
{
    for (const auto &flight : in_flight_)
        if (flight.cmd.is_prefetch && flight.cmd.line == line)
            return true;
    return false;
}

bool
MemoryController::inLpq(LineAddr line) const
{
    for (const auto &cmd : lpq_)
        if (cmd.line == line)
            return true;
    return false;
}

void
MemoryController::cancelLpqEntry(LineAddr line)
{
    for (auto it = lpq_.begin(); it != lpq_.end(); ++it) {
        if (it->line == line) {
            lpq_.erase(it);
            lpq_promoted_.inc();
            return;
        }
    }
}

bool
MemoryController::mergeWithPrefetch(const McCommand &cmd)
{
    for (auto &flight : in_flight_) {
        if (flight.cmd.is_prefetch && flight.cmd.line == cmd.line) {
            flight.waiters.push_back(cmd);
            merged_with_prefetch_.inc();
            return true;
        }
    }
    return false;
}

void
MemoryController::pushPrefetches(const std::vector<LineAddr> &lines,
                                 Cycle now)
{
    MemSidePrefetcher *const prefetcher = activePrefetcher();
    for (const LineAddr line : lines) {
        if (lpq_.size() >= config_.lpq) {
            lpq_dropped_.inc();
            continue;
        }
        // Skip prefetches whose data is already buffered or being
        // fetched; they would only waste DRAM bandwidth.
        if (inLpq(line) || prefetchInFlight(line) ||
            (prefetcher && prefetcher->bufferContains(line))) {
            continue;
        }
        McCommand cmd;
        cmd.line = line;
        cmd.coord = dram_.decode(line);
        cmd.id = next_prefetch_id_++;
        cmd.enqueued_at = now;
        cmd.is_prefetch = true;
        lpq_.push_back(cmd);
        lpq_hwm_ = std::max(lpq_hwm_, lpq_.size());
    }
}

bool
MemoryController::enqueueRead(LineAddr line, std::uint64_t id,
                              std::uint32_t thread, Cycle now)
{
    // Probe the Prefetch Buffer before anything else: a hit squashes
    // the DRAM access and needs no queue slot. The probe consumes the
    // entry only on a hit, so a rejected (queue-full) read has no
    // side effects and can be retried.
    MemSidePrefetcher *const prefetcher = activePrefetcher();
    const bool buffer_hit = prefetcher && prefetcher->lookupBuffer(line);

    // A demand read matching an in-flight prefetch rides that
    // prefetch's completion instead of re-fetching the line (MSHR-
    // style merge); it needs no reorder-queue slot either.
    McCommand cmd;
    cmd.line = line;
    cmd.coord = dram_.decode(line);
    cmd.id = id;
    cmd.thread = thread;
    cmd.enqueued_at = now;
    const bool merged = !buffer_hit && prefetcher &&
                        config_.merge_inflight_prefetch &&
                        mergeWithPrefetch(cmd);

    if (!buffer_hit && !merged && !canAcceptRead())
        return false;

    // The Stream Filter observes every read accepted into the
    // controller, whether or not the Prefetch Buffer satisfied it
    // (Fig. 4: reads fan out to both paths).
    reads_observed_.inc();
    std::vector<LineAddr> candidates;
    if (prefetcher)
        candidates = prefetcher->observeRead(line, thread, now);

    if (buffer_hit) {
        buffer_hits_entry_.inc();
        InFlight flight;
        flight.done = now + config_.buffer_hit_latency;
        flight.cmd = cmd;
        flight.touches_dram = false;
        in_flight_.push_back(flight);
        pushPrefetches(candidates, now);
        ++demand_accepted_;
        return true;
    }
    if (merged) {
        pushPrefetches(candidates, now);
        ++demand_accepted_;
        return true;
    }

    // A prefetch still waiting in the LPQ is superseded by the read
    // itself (demand or processor-side prefetch).
    if (prefetcher && config_.cancel_lpq_on_demand)
        cancelLpqEntry(line);

    read_q_.push_back(cmd);
    read_q_hwm_ = std::max(read_q_hwm_, read_q_.size());
    pushPrefetches(candidates, now);
    ++demand_accepted_;
    return true;
}

bool
MemoryController::enqueueWrite(LineAddr line, Cycle now)
{
    if (!canAcceptWrite())
        return false;
    writes_observed_.inc();
    if (MemSidePrefetcher *const prefetcher = activePrefetcher())
        prefetcher->observeWrite(line, now);
    McCommand cmd;
    cmd.line = line;
    cmd.coord = dram_.decode(line);
    cmd.is_write = true;
    cmd.enqueued_at = now;
    write_q_.push_back(cmd);
    write_q_hwm_ = std::max(write_q_hwm_, write_q_.size());
    return true;
}

bool
MemoryController::policyAllowsLpq(int policy, Cycle now) const
{
    if (lpq_.empty())
        return false;
    switch (policy) {
      case 1:
        return caq_.empty() && read_q_.empty() && write_q_.empty();
      case 2: {
        if (!caq_.empty())
            return false;
        for (const auto &cmd : read_q_)
            if (dram_.canIssue(cmd.coord, now))
                return false;
        for (const auto &cmd : write_q_)
            if (dram_.canIssue(cmd.coord, now))
                return false;
        return true;
      }
      case 3:
        return caq_.empty();
      case 4:
        return caq_.size() <= 1 && lpq_.size() >= config_.lpq;
      case 5:
        return caq_.empty() ||
               lpq_.front().enqueued_at < caq_.front().enqueued_at;
      default:
        return false;
    }
}

void
MemoryController::moveToCaq(Cycle now)
{
    if (caq_.size() >= config_.caq)
        return;
    draining_writes_ = drainsWrites();
    const auto pick = scheduler_->pick(read_q_, write_q_, dram_, now,
                                       draining_writes_);
    // A not-ready pick is only the scheduler's preference (its bank
    // cannot accept a command). The FIFO CAQ issues strictly in
    // order, so parking it there would block younger ready commands;
    // leave it in the reorder queue where it stays schedulable.
    if (!pick || !pick->ready)
        return;
    auto &queue = pick->from_write_queue ? write_q_ : read_q_;
    panicIfNot(pick->index < queue.size(),
               "scheduler picked an out-of-range command");
    caq_.push_back(queue[pick->index]);
    caq_hwm_ = std::max(caq_hwm_, caq_.size());
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick->index));
}

void
MemoryController::issueToDram(Cycle now)
{
    MemSidePrefetcher *const prefetcher = activePrefetcher();
    const int policy = prefetcher ? prefetcher->schedulingPolicy() : 0;
    if (prefetcher && policyAllowsLpq(policy, now) &&
        dram_.canIssue(lpq_.front().coord, now)) {
        McCommand cmd = lpq_.front();
        lpq_.pop_front();
        const Cycle done = dram_.issue(
            cmd.coord, false, true, now + config_.command_overhead);
        prefetches_issued_.inc();
        InFlight flight;
        flight.done = done;
        flight.cmd = cmd;
        in_flight_.push_back(flight);
        return;
    }

    if (caq_.empty())
        return;
    McCommand &head = caq_.front();

    // Second Prefetch Buffer check: the data may have arrived while
    // the read sat in the CAQ.
    if (!head.is_write && prefetcher &&
        prefetcher->lookupBuffer(head.line)) {
        buffer_hits_caq_.inc();
        InFlight flight;
        flight.done = now + config_.return_overhead;
        flight.cmd = head;
        flight.touches_dram = false;
        in_flight_.push_back(flight);
        caq_.pop_front();
        return;
    }

    if (!dram_.canIssue(head.coord, now)) {
        // Adaptive Scheduling feedback: regular command blocked by a
        // bank still busy with a previously issued prefetch.
        if (dram_.occupant(head.coord, now) == BankOccupant::Prefetch) {
            prefetch_conflict_events_.inc();
            if (!head.delayed_by_prefetch) {
                head.delayed_by_prefetch = true;
                regulars_delayed_.inc();
                if (prefetcher)
                    prefetcher->notifyPrefetchConflict(now);
            }
        }
        return;
    }

    McCommand cmd = head;
    caq_.pop_front();
    const Cycle done = dram_.issue(cmd.coord, cmd.is_write, false,
                                   now + config_.command_overhead);
    scheduler_->notifyIssued(cmd);
    if (cmd.is_write)
        ++writes_issued_;
    if (!cmd.is_write) {
        InFlight flight;
        flight.done = done + config_.return_overhead;
        flight.cmd = cmd;
        in_flight_.push_back(flight);
    }
}

void
MemoryController::completeFinished(Cycle now)
{
    for (std::size_t i = 0; i < in_flight_.size();) {
        if (in_flight_[i].done > now) {
            ++i;
            continue;
        }
        const InFlight flight = in_flight_[i];
        in_flight_.erase(in_flight_.begin() +
                         static_cast<std::ptrdiff_t>(i));
        if (flight.cmd.is_prefetch) {
            if (flight.waiters.empty()) {
                if (MemSidePrefetcher *const prefetcher =
                        activePrefetcher())
                    prefetcher->fillBuffer(flight.cmd.line, now);
            } else {
                // Data forwarded straight to the merged demand
                // read(s); it moves into L1/L2 so the buffer copy
                // would be dead weight (same rule as a buffer hit).
                prefetches_merged_useful_.inc();
                for (const McCommand &waiter : flight.waiters) {
                    ++demand_completed_;
                    on_read_done_(waiter.id,
                                  flight.done +
                                      config_.return_overhead);
                }
            }
        } else {
            ++demand_completed_;
            on_read_done_(flight.cmd.id, flight.done);
        }
    }
}

void
MemoryController::tick(Cycle now)
{
    if (MemSidePrefetcher *const prefetcher = activePrefetcher())
        prefetcher->tick(now);
    completeFinished(now);
    moveToCaq(now);
    issueToDram(now);
    if (checksEnabled())
        checkInvariants();
}

bool
MemoryController::drainsWrites() const
{
    if (write_q_.size() >= config_.write_drain_high)
        return true;
    if (write_q_.size() <= config_.write_drain_low)
        return false;
    return draining_writes_;
}

Cycle
MemoryController::nextEventAt(Cycle now) const
{
    const Cycle next = now + 1;
    Cycle soonest = kNoCycle;
    for (const InFlight &flight : in_flight_)
        soonest = std::min(soonest, flight.done);

    // moveToCaq: the write-drain hysteresis, then the scheduler's pick.
    if (caq_.size() < config_.caq) {
        if (drainsWrites() != draining_writes_)
            return next;
        if (!read_q_.empty() || !write_q_.empty()) {
            soonest = std::min(soonest, scheduler_->readyPickAt(
                                            read_q_, write_q_, dram_,
                                            next));
        }
    }

    // issueToDram: an LPQ prefetch the policy lets through once its
    // bank clears. Policy 2 also depends on the reorder queues'
    // banks, but a queued command that turns issuable is a pick
    // above, so evaluating the policy at `next` is enough.
    MemSidePrefetcher *const prefetcher = activePrefetcher();
    if (prefetcher &&
        policyAllowsLpq(prefetcher->schedulingPolicy(), next)) {
        soonest =
            std::min(soonest, dram_.issuableAt(lpq_.front().coord));
    }

    // The CAQ head: a Prefetch Buffer hit, the first cycle a prefetch
    // blocks it (which marks it delayed), or its bank clearing.
    if (!caq_.empty()) {
        const McCommand &head = caq_.front();
        if (!head.is_write && prefetcher &&
            prefetcher->bufferContains(head.line)) {
            return next;
        }
        if (!head.delayed_by_prefetch &&
            dram_.occupant(head.coord, next) == BankOccupant::Prefetch) {
            return next;
        }
        soonest = std::min(soonest, dram_.issuableAt(head.coord));
    }
    return std::max(next, soonest);
}

void
MemoryController::skipQuietCycles(Cycle first, Cycle last)
{
    // The one thing a quiet tick does: count each cycle the delayed
    // CAQ head waits on a bank a prefetch still occupies.
    if (caq_.empty() ||
        dram_.occupant(caq_.front().coord, first) !=
            BankOccupant::Prefetch) {
        return;
    }
    const Cycle end =
        std::min(last + 1, dram_.bankReadyAt(caq_.front().coord));
    prefetch_conflict_events_.inc(end - first);
}

void
MemoryController::resetQueueHighWater()
{
    read_q_hwm_ = read_q_.size();
    write_q_hwm_ = write_q_.size();
    caq_hwm_ = caq_.size();
    lpq_hwm_ = lpq_.size();
}

void
MemoryController::checkInvariants() const
{
    checkThat(read_q_.size() <= config_.read_queue,
              "read reorder queue above capacity");
    checkThat(write_q_.size() <= config_.write_queue,
              "write reorder queue above capacity");
    checkThat(caq_.size() <= config_.caq, "CAQ above capacity");
    checkThat(lpq_.size() <= config_.lpq, "LPQ above capacity");

    std::size_t caq_reads = 0;
    std::size_t caq_writes = 0;
    for (const auto &cmd : caq_)
        (cmd.is_write ? caq_writes : caq_reads) += 1;
    for (const auto &cmd : lpq_)
        checkThat(cmd.is_prefetch && !cmd.is_write,
                  "non-prefetch command in the LPQ");

    // Every accepted demand read is exactly one of: completed, in the
    // read reorder queue, a read in the CAQ, a non-prefetch flight,
    // or a waiter riding an in-flight prefetch.
    std::uint64_t live = read_q_.size() + caq_reads;
    for (const auto &flight : in_flight_) {
        if (flight.cmd.is_prefetch) {
            live += flight.waiters.size();
        } else {
            checkThat(flight.waiters.empty(),
                      "waiters on a non-prefetch flight");
            live += 1;
        }
    }
    checkThat(demand_accepted_ == demand_completed_ + live,
              "demand-read conservation violated across MC queues");

    // Writes: observed = issued to DRAM + still queued + in the CAQ.
    checkThat(writes_observed_.value() ==
                  writes_issued_ + write_q_.size() + caq_writes,
              "write conservation violated across MC queues");
}

bool
MemoryController::idle() const
{
    return read_q_.empty() && write_q_.empty() && caq_.empty() &&
           in_flight_.empty();
}

namespace
{

void
saveCommand(SnapshotWriter &w, const McCommand &cmd)
{
    w.u64(cmd.line);
    w.u64(cmd.id);
    w.u32(cmd.thread);
    w.u64(cmd.enqueued_at);
    w.b(cmd.is_write);
    w.b(cmd.is_prefetch);
    w.b(cmd.delayed_by_prefetch);
}

McCommand
loadCommand(SnapshotReader &r, const Dram &dram)
{
    McCommand cmd;
    cmd.line = r.u64();
    cmd.coord = dram.decode(cmd.line);
    cmd.id = r.u64();
    cmd.thread = r.u32();
    cmd.enqueued_at = r.u64();
    cmd.is_write = r.b();
    cmd.is_prefetch = r.b();
    cmd.delayed_by_prefetch = r.b();
    return cmd;
}

void
saveQueue(SnapshotWriter &w, const std::deque<McCommand> &queue)
{
    w.u64(queue.size());
    for (const McCommand &cmd : queue)
        saveCommand(w, cmd);
}

void
loadQueue(SnapshotReader &r, const Dram &dram,
          std::deque<McCommand> &queue, std::size_t capacity,
          const char *what)
{
    const std::uint64_t count = r.u64();
    SnapshotReader::check(count <= capacity, what);
    queue.clear();
    for (std::uint64_t i = 0; i < count; ++i)
        queue.push_back(loadCommand(r, dram));
}

} // namespace

void
MemoryController::saveState(SnapshotWriter &w) const
{
    saveQueue(w, read_q_);
    saveQueue(w, write_q_);
    saveQueue(w, caq_);
    saveQueue(w, lpq_);
    w.b(draining_writes_);
    w.u64(in_flight_.size());
    for (const InFlight &flight : in_flight_) {
        w.u64(flight.done);
        saveCommand(w, flight.cmd);
        w.b(flight.touches_dram);
        w.u64(flight.waiters.size());
        for (const McCommand &waiter : flight.waiters)
            saveCommand(w, waiter);
    }
    w.u64(next_prefetch_id_);
    w.u64(read_q_hwm_);
    w.u64(write_q_hwm_);
    w.u64(caq_hwm_);
    w.u64(lpq_hwm_);
    w.u64(demand_accepted_);
    w.u64(demand_completed_);
    w.u64(writes_issued_);
    w.u64(reads_observed_.value());
    w.u64(writes_observed_.value());
    w.u64(buffer_hits_entry_.value());
    w.u64(buffer_hits_caq_.value());
    w.u64(prefetches_issued_.value());
    w.u64(lpq_dropped_.value());
    w.u64(regulars_delayed_.value());
    w.u64(prefetch_conflict_events_.value());
    w.u64(merged_with_prefetch_.value());
    w.u64(prefetches_merged_useful_.value());
    w.u64(lpq_promoted_.value());
    scheduler_->saveState(w);
}

void
MemoryController::loadState(SnapshotReader &r)
{
    loadQueue(r, dram_, read_q_, config_.read_queue,
              "read reorder queue above capacity in snapshot");
    loadQueue(r, dram_, write_q_, config_.write_queue,
              "write reorder queue above capacity in snapshot");
    loadQueue(r, dram_, caq_, config_.caq,
              "CAQ above capacity in snapshot");
    loadQueue(r, dram_, lpq_, config_.lpq,
              "LPQ above capacity in snapshot");
    draining_writes_ = r.b();
    const std::uint64_t flights = r.u64();
    in_flight_.clear();
    for (std::uint64_t i = 0; i < flights; ++i) {
        InFlight flight;
        flight.done = r.u64();
        flight.cmd = loadCommand(r, dram_);
        flight.touches_dram = r.b();
        const std::uint64_t waiters = r.u64();
        for (std::uint64_t j = 0; j < waiters; ++j)
            flight.waiters.push_back(loadCommand(r, dram_));
        in_flight_.push_back(std::move(flight));
    }
    next_prefetch_id_ = r.u64();
    read_q_hwm_ = static_cast<std::size_t>(r.u64());
    write_q_hwm_ = static_cast<std::size_t>(r.u64());
    caq_hwm_ = static_cast<std::size_t>(r.u64());
    lpq_hwm_ = static_cast<std::size_t>(r.u64());
    demand_accepted_ = r.u64();
    demand_completed_ = r.u64();
    writes_issued_ = r.u64();
    reads_observed_.restore(r.u64());
    writes_observed_.restore(r.u64());
    buffer_hits_entry_.restore(r.u64());
    buffer_hits_caq_.restore(r.u64());
    prefetches_issued_.restore(r.u64());
    lpq_dropped_.restore(r.u64());
    regulars_delayed_.restore(r.u64());
    prefetch_conflict_events_.restore(r.u64());
    merged_with_prefetch_.restore(r.u64());
    prefetches_merged_useful_.restore(r.u64());
    lpq_promoted_.restore(r.u64());
    scheduler_->loadState(r);
}

void
MemoryController::registerStats(StatRegistry &registry,
                                const std::string &prefix) const
{
    registry.add(prefix + ".reads", reads_observed_);
    registry.add(prefix + ".writes", writes_observed_);
    registry.add(prefix + ".buffer_hits_entry", buffer_hits_entry_);
    registry.add(prefix + ".buffer_hits_caq", buffer_hits_caq_);
    registry.add(prefix + ".prefetches_issued", prefetches_issued_);
    registry.add(prefix + ".lpq_dropped", lpq_dropped_);
    registry.add(prefix + ".regulars_delayed", regulars_delayed_);
    registry.add(prefix + ".prefetch_conflict_events",
                 prefetch_conflict_events_);
    registry.add(prefix + ".merged_with_prefetch",
                 merged_with_prefetch_);
    registry.add(prefix + ".lpq_promoted", lpq_promoted_);
}

} // namespace asd
