#include "core/asd_prefetcher.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace asd
{

AsdPrefetcher::ThreadState::ThreadState(const AsdConfig &config)
    : filter(config.filter_slots, config.lifetime_init,
             config.lifetime_extend),
      positive(config.lht_entries),
      negative(config.lht_entries)
{
}

AsdPrefetcher::AsdPrefetcher(const AsdConfig &config)
    : config_(config),
      buffer_(config.buffer_lines, config.buffer_ways),
      sched_(config.sched),
      stream_hist_(config.lht_entries)
{
    if (config_.threads == 0)
        fatal("AsdPrefetcher: at least one thread required");
    if (config_.epoch_reads == 0)
        fatal("AsdPrefetcher: epoch length must be positive");
    if (config_.max_degree == 0)
        fatal("AsdPrefetcher: max_degree must be >= 1");
    threads_.reserve(config_.threads);
    for (std::uint32_t t = 0; t < config_.threads; ++t)
        threads_.push_back(std::make_unique<ThreadState>(config_));
}

LikelihoodTablePair &
AsdPrefetcher::tables(ThreadState &state, StreamDir dir)
{
    return dir == StreamDir::Positive ? state.positive : state.negative;
}

void
AsdPrefetcher::streamDied(ThreadState &state, const DeadStream &dead)
{
    stream_hist_.add(dead.length);
    tables(state, dead.dir).streamDied(dead.length);
}

void
AsdPrefetcher::decide(ThreadState &state, const StreamObservation &obs,
                      LineAddr line, std::vector<LineAddr> &out)
{
    const auto k = static_cast<std::size_t>(obs.length);
    const LikelihoodTable &lht = tables(state, obs.dir).curr();

    if (k >= config_.lht_entries) {
        // Beyond the table the paper's math always answers "stop"
        // (lht(i > Lm) = 0); the saturate option keeps following a
        // confirmed long stream instead.
        if (config_.saturate_long_streams) {
            const std::int64_t step = dirStep(obs.dir);
            if (obs.dir == StreamDir::Positive || line >= 1) {
                out.push_back(static_cast<LineAddr>(
                    static_cast<std::int64_t>(line) + step));
                prefetches_suggested_.inc();
                return;
            }
        }
        decisions_negative_.inc();
        return;
    }

    // Degree-d prefetching via inequality (6); consecutive prefix of
    // lines after the current one (section 3.1's multi-line rule).
    bool any = false;
    for (std::size_t d = 1; d <= config_.max_degree; ++d) {
        if (!lht.shouldPrefetch(k, d))
            break;
        const std::int64_t step =
            dirStep(obs.dir) * static_cast<std::int64_t>(d);
        if (obs.dir == StreamDir::Negative &&
            line < static_cast<LineAddr>(d)) {
            break; // would underflow the address space
        }
        out.push_back(static_cast<LineAddr>(
            static_cast<std::int64_t>(line) + step));
        prefetches_suggested_.inc();
        any = true;
    }
    if (!any)
        decisions_negative_.inc();
}

std::vector<LineAddr>
AsdPrefetcher::observeRead(LineAddr line, std::uint32_t thread,
                           Cycle now)
{
    panicIfNot(thread < threads_.size(),
               "AsdPrefetcher: thread index out of range");
    ThreadState &state = *threads_[thread];
    std::vector<LineAddr> out;

    const StreamObservation obs = state.filter.observe(line, now);
    switch (obs.kind) {
      case StreamObservation::Kind::Overflow:
        // No slot: the SLH is updated as if a length-1 stream had
        // been detected, and no prefetch is generated (section 3.3).
        overflow_reads_.inc();
        streamDied(state, {1, StreamDir::Positive});
        break;
      case StreamObservation::Kind::SameLine:
        break; // lifetime refreshed; no new information
      case StreamObservation::Kind::Allocated:
      case StreamObservation::Kind::Extended:
        // Convergence: the read extended one stream onto another live
        // slot's last line; the retired slot's stream is dead.
        if (obs.converged) {
            stream_merges_.inc();
            streamDied(state, obs.converged_stream);
        }
        decide(state, obs, line, out);
        break;
    }

    if (++reads_this_epoch_ >= config_.epoch_reads)
        endEpoch(now);
    return out;
}

void
AsdPrefetcher::endEpoch(Cycle now)
{
    for (auto &thread : threads_) {
        // Remaining live streams fold into LHTnext before the swap.
        std::vector<std::uint64_t> leftover_pos;
        std::vector<std::uint64_t> leftover_neg;
        for (const DeadStream &dead : thread->filter.flushAll()) {
            stream_hist_.add(dead.length);
            (dead.dir == StreamDir::Positive ? leftover_pos
                                             : leftover_neg)
                .push_back(dead.length);
        }
        thread->positive.epochEnd(leftover_pos);
        thread->negative.epochEnd(leftover_neg);
    }
    sched_.epochEnd();
    ++epochs_done_;
    reads_this_epoch_ = 0;

    if (slh_history_cap_ > 0 && slh_history_.size() < slh_history_cap_) {
        SlhSnapshot snap;
        snap.epoch = epochs_done_;
        snap.positive = threads_[0]->positive.curr().counts();
        snap.negative = threads_[0]->negative.curr().counts();
        slh_history_.push_back(std::move(snap));
    }

    // Keep the registered underflow counter in sync with the tables
    // (clamps accumulate inside LikelihoodTable, not in a Counter).
    const std::uint64_t clamps = lhtUnderflowClamps();
    if (clamps > lht_underflow_.value())
        lht_underflow_.inc(clamps - lht_underflow_.value());

    if (epoch_end_hook_)
        epoch_end_hook_(now);
}

std::uint64_t
AsdPrefetcher::lhtUnderflowClamps() const
{
    std::uint64_t clamps = 0;
    for (const auto &thread : threads_) {
        clamps += thread->positive.underflowClamps();
        clamps += thread->negative.underflowClamps();
    }
    return clamps;
}

void
AsdPrefetcher::observeWrite(LineAddr line, Cycle now)
{
    (void)now;
    buffer_.invalidateOnWrite(line);
}

bool
AsdPrefetcher::lookupBuffer(LineAddr line)
{
    return buffer_.consume(line);
}

bool
AsdPrefetcher::bufferContains(LineAddr line) const
{
    return buffer_.contains(line);
}

void
AsdPrefetcher::fillBuffer(LineAddr line, Cycle now)
{
    (void)now;
    buffer_.insert(line);
}

int
AsdPrefetcher::schedulingPolicy() const
{
    return sched_.policy();
}

void
AsdPrefetcher::notifyPrefetchConflict(Cycle now)
{
    (void)now;
    sched_.notifyConflict();
}

void
AsdPrefetcher::tick(Cycle now)
{
    for (auto &thread : threads_)
        for (const DeadStream &dead : thread->filter.expireLifetimes(now))
            streamDied(*thread, dead);
}

Cycle
AsdPrefetcher::nextEventAt(Cycle now) const
{
    Cycle soonest = kNoCycle;
    for (const auto &thread : threads_)
        soonest = std::min(soonest, thread->filter.nextExpiry());
    return std::max(now + 1, soonest);
}

void
AsdPrefetcher::applyTuning(const AsdTuning &tuning)
{
    config_.max_degree = tuning.max_degree;
    config_.epoch_reads = tuning.epoch_reads;
    if (tuning.filter_slots != config_.filter_slots) {
        for (auto &thread : threads_) {
            for (const DeadStream &dead :
                 thread->filter.resize(tuning.filter_slots)) {
                streamDied(*thread, dead);
            }
        }
        config_.filter_slots = tuning.filter_slots;
    }
    if (tuning.buffer_lines != config_.buffer_lines) {
        buffer_.resize(tuning.buffer_lines, config_.buffer_ways);
        config_.buffer_lines = tuning.buffer_lines;
    }
    sched_.applyPolicyConfig(tuning.sched);
    config_.sched = tuning.sched;
}

void
AsdPrefetcher::enableSlhHistory(std::size_t max_epochs)
{
    slh_history_cap_ = max_epochs;
    slh_history_.reserve(max_epochs);
}

const LikelihoodTable &
AsdPrefetcher::lhtCurr(std::uint32_t thread, StreamDir dir) const
{
    panicIfNot(thread < threads_.size(),
               "AsdPrefetcher: thread index out of range");
    const ThreadState &state = *threads_[thread];
    return (dir == StreamDir::Positive ? state.positive : state.negative)
        .curr();
}

void
AsdPrefetcher::saveState(SnapshotWriter &w) const
{
    w.u64(threads_.size());
    for (const auto &thread : threads_) {
        thread->filter.saveState(w);
        thread->positive.saveState(w);
        thread->negative.saveState(w);
    }
    buffer_.saveState(w);
    sched_.saveState(w);
    w.u32(reads_this_epoch_);
    w.u64(epochs_done_);
    w.vecU64(stream_hist_.counts());
    w.u64(slh_history_cap_);
    w.u64(slh_history_.size());
    for (const SlhSnapshot &snap : slh_history_) {
        w.u64(snap.epoch);
        w.vecU64(snap.positive);
        w.vecU64(snap.negative);
    }
    w.u64(prefetches_suggested_.value());
    w.u64(decisions_negative_.value());
    w.u64(overflow_reads_.value());
    w.u64(stream_merges_.value());
    w.u64(lht_underflow_.value());
}

void
AsdPrefetcher::loadState(SnapshotReader &r)
{
    SnapshotReader::check(r.u64() == threads_.size(),
                          "ASD thread count mismatch");
    for (auto &thread : threads_) {
        thread->filter.loadState(r);
        thread->positive.loadState(r);
        thread->negative.loadState(r);
    }
    buffer_.loadState(r);
    sched_.loadState(r);
    reads_this_epoch_ = r.u32();
    epochs_done_ = r.u64();
    const std::vector<std::uint64_t> hist = r.vecU64();
    SnapshotReader::check(hist.size() == stream_hist_.buckets(),
                          "stream histogram size mismatch");
    stream_hist_.restore(hist);
    slh_history_cap_ = static_cast<std::size_t>(r.u64());
    const std::uint64_t snaps = r.u64();
    SnapshotReader::check(snaps <= slh_history_cap_,
                          "SLH history longer than its cap");
    slh_history_.clear();
    slh_history_.reserve(slh_history_cap_);
    for (std::uint64_t i = 0; i < snaps; ++i) {
        SlhSnapshot snap;
        snap.epoch = r.u64();
        snap.positive = r.vecU64();
        snap.negative = r.vecU64();
        slh_history_.push_back(std::move(snap));
    }
    prefetches_suggested_.restore(r.u64());
    decisions_negative_.restore(r.u64());
    overflow_reads_.restore(r.u64());
    stream_merges_.restore(r.u64());
    lht_underflow_.restore(r.u64());
}

void
AsdPrefetcher::registerStats(StatRegistry &registry,
                             const std::string &prefix) const
{
    registry.add(prefix + ".suggested", prefetches_suggested_);
    registry.add(prefix + ".suppressed", decisions_negative_);
    registry.add(prefix + ".overflow_reads", overflow_reads_);
    registry.add(prefix + ".stream_merges", stream_merges_);
    registry.add(prefix + ".lht_underflow", lht_underflow_);
    buffer_.registerStats(registry, prefix + ".buffer");
    sched_.registerStats(registry, prefix + ".sched");
}

} // namespace asd
