#include "prefetch/mc_baselines.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace asd
{

BufferedMcPrefetcher::BufferedMcPrefetcher(const AsdConfig &config)
    : config_(config),
      buffer_(config.buffer_lines, config.buffer_ways),
      sched_(config.sched)
{
}

void
BufferedMcPrefetcher::observeWrite(LineAddr line, Cycle now)
{
    (void)now;
    buffer_.invalidateOnWrite(line);
}

bool
BufferedMcPrefetcher::lookupBuffer(LineAddr line)
{
    return buffer_.consume(line);
}

bool
BufferedMcPrefetcher::bufferContains(LineAddr line) const
{
    return buffer_.contains(line);
}

void
BufferedMcPrefetcher::fillBuffer(LineAddr line, Cycle now)
{
    (void)now;
    buffer_.insert(line);
}

int
BufferedMcPrefetcher::schedulingPolicy() const
{
    return sched_.policy();
}

void
BufferedMcPrefetcher::notifyPrefetchConflict(Cycle now)
{
    (void)now;
    sched_.notifyConflict();
}

void
BufferedMcPrefetcher::tick(Cycle now)
{
    (void)now; // the shared plumbing has no per-cycle state
}

Cycle
BufferedMcPrefetcher::nextEventAt(Cycle now) const
{
    (void)now;
    return kNoCycle;
}

void
BufferedMcPrefetcher::countReadForEpoch()
{
    if (++epoch_reads_seen_ >= config_.epoch_reads) {
        epoch_reads_seen_ = 0;
        sched_.epochEnd();
    }
}

std::vector<LineAddr>
NextLineMcPrefetcher::observeRead(LineAddr line, std::uint32_t thread,
                                  Cycle now)
{
    (void)thread;
    (void)now;
    countReadForEpoch();
    return {line + 1};
}

P5StyleMcPrefetcher::P5StyleMcPrefetcher(const AsdConfig &config)
    : BufferedMcPrefetcher(config)
{
    filters_.reserve(config_.threads);
    for (std::uint32_t t = 0; t < config_.threads; ++t)
        filters_.emplace_back(config_.filter_slots,
                              config_.lifetime_init,
                              config_.lifetime_extend);
}

std::vector<LineAddr>
P5StyleMcPrefetcher::observeRead(LineAddr line, std::uint32_t thread,
                                 Cycle now)
{
    panicIfNot(thread < filters_.size(),
               "P5StyleMcPrefetcher: bad thread index");
    std::vector<LineAddr> out;
    const StreamObservation obs = filters_[thread].observe(line, now);
    // Fixed policy: once a stream is confirmed (two sequential reads)
    // always fetch the next line; no histogram consultation.
    if (obs.kind == StreamObservation::Kind::Extended &&
        obs.length >= 2) {
        const std::int64_t target =
            static_cast<std::int64_t>(line) + dirStep(obs.dir);
        if (target >= 0)
            out.push_back(static_cast<LineAddr>(target));
    }
    countReadForEpoch();
    return out;
}

void
P5StyleMcPrefetcher::tick(Cycle now)
{
    for (auto &filter : filters_)
        filter.expireLifetimes(now);
}

Cycle
P5StyleMcPrefetcher::nextEventAt(Cycle now) const
{
    Cycle soonest = kNoCycle;
    for (const StreamFilter &filter : filters_)
        soonest = std::min(soonest, filter.nextExpiry());
    return std::max(now + 1, soonest);
}

void
BufferedMcPrefetcher::saveState(SnapshotWriter &w) const
{
    buffer_.saveState(w);
    sched_.saveState(w);
    w.u32(epoch_reads_seen_);
}

void
BufferedMcPrefetcher::loadState(SnapshotReader &r)
{
    buffer_.loadState(r);
    sched_.loadState(r);
    epoch_reads_seen_ = r.u32();
}

void
P5StyleMcPrefetcher::saveState(SnapshotWriter &w) const
{
    BufferedMcPrefetcher::saveState(w);
    w.u64(filters_.size());
    for (const StreamFilter &filter : filters_)
        filter.saveState(w);
}

void
P5StyleMcPrefetcher::loadState(SnapshotReader &r)
{
    BufferedMcPrefetcher::loadState(r);
    SnapshotReader::check(r.u64() == filters_.size(),
                          "P5 filter count mismatch");
    for (StreamFilter &filter : filters_)
        filter.loadState(r);
}

} // namespace asd
