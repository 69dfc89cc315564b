#include "prefetch/perceptron_prefetcher.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"

namespace asd
{

namespace
{

/** Mix a 64-bit value into a table row (splitmix64 finalizer). */
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

} // namespace

PerceptronMcPrefetcher::PerceptronMcPrefetcher(
    const AsdConfig &shared, const PerceptronConfig &config)
    : BufferedMcPrefetcher(shared), config_(config)
{
    panicIfNot(config_.table_size > 0 &&
                   std::has_single_bit(config_.table_size),
               "PerceptronMcPrefetcher: table_size must be a power "
               "of two");
    panicIfNot(config_.pending_entries > 0,
               "PerceptronMcPrefetcher: pending_entries must be > 0");
    filters_.reserve(shared.threads);
    for (std::uint32_t t = 0; t < shared.threads; ++t)
        filters_.emplace_back(shared.filter_slots,
                              shared.lifetime_init,
                              shared.lifetime_extend);
    weights_.assign(
        static_cast<std::size_t>(kFeatures) * config_.table_size, 0);
    pending_.resize(config_.pending_entries);
}

void
PerceptronMcPrefetcher::featureRows(
    LineAddr candidate, std::uint64_t stream_len, StreamDir dir,
    std::uint32_t distance, std::uint32_t rows[kFeatures]) const
{
    const std::uint32_t mask = config_.table_size - 1;
    const std::uint64_t dir_bit =
        dir == StreamDir::Positive ? 0 : 1;
    // f0: offset within a 64-line region — spatial bias.
    rows[0] = static_cast<std::uint32_t>(candidate & 63) & mask;
    // f1: confirmed stream length (saturated) x direction — how far
    // the stream has already run predicts how far it will.
    const std::uint64_t len = stream_len < 15 ? stream_len : 15;
    rows[1] =
        static_cast<std::uint32_t>(((len << 1) | dir_bit) & mask);
    // f2: lookahead distance — deep candidates must earn more trust.
    rows[2] = distance & mask;
    // f3: hashed region identity — per-locality accuracy history.
    rows[3] = static_cast<std::uint32_t>(mix64(candidate >> 6) &
                                         mask);
}

std::int32_t
PerceptronMcPrefetcher::sumRows(
    const std::uint32_t rows[kFeatures]) const
{
    std::int32_t sum = 0;
    for (std::uint32_t f = 0; f < kFeatures; ++f)
        sum += weights_[static_cast<std::size_t>(f) *
                            config_.table_size +
                        rows[f]];
    return sum;
}

void
PerceptronMcPrefetcher::trainRows(const std::uint32_t rows[kFeatures],
                                  bool useful)
{
    const std::int32_t sum = sumRows(rows);
    // Perceptron-with-margin: leave confidently correct weights be.
    if (useful && sum > config_.train_margin)
        return;
    if (!useful && sum < -config_.train_margin)
        return;
    for (std::uint32_t f = 0; f < kFeatures; ++f) {
        std::int32_t &w =
            weights_[static_cast<std::size_t>(f) *
                         config_.table_size +
                     rows[f]];
        if (useful && w < config_.weight_max)
            ++w;
        else if (!useful && w > -config_.weight_max)
            --w;
    }
}

void
PerceptronMcPrefetcher::resolveDemand(LineAddr line)
{
    for (Pending &p : pending_) {
        if (p.valid && p.line == line) {
            // Demanded within the window: the prefetch (or the
            // suppressed candidate) would have been useful.
            trainRows(p.feature_rows, true);
            p.valid = false;
            return;
        }
    }
}

void
PerceptronMcPrefetcher::expirePending()
{
    for (Pending &p : pending_) {
        if (p.valid &&
            reads_seen_ - p.born > config_.pending_window_reads) {
            // Never demanded: issuing it was (or would have been) a
            // waste of bandwidth.
            trainRows(p.feature_rows, false);
            p.valid = false;
        }
    }
}

void
PerceptronMcPrefetcher::remember(LineAddr line,
                                 const std::uint32_t rows[kFeatures],
                                 bool issued)
{
    Pending *victim = nullptr;
    for (Pending &p : pending_) {
        if (!p.valid) {
            victim = &p;
            break;
        }
        if (!victim || p.born < victim->born)
            victim = &p;
    }
    if (victim->valid) // table full: oldest record expires untrained
        victim->valid = false;
    victim->line = line;
    for (std::uint32_t f = 0; f < kFeatures; ++f)
        victim->feature_rows[f] = rows[f];
    victim->born = reads_seen_;
    victim->issued = issued;
    victim->valid = true;
}

std::vector<LineAddr>
PerceptronMcPrefetcher::observeRead(LineAddr line,
                                    std::uint32_t thread, Cycle now)
{
    panicIfNot(thread < filters_.size(),
               "PerceptronMcPrefetcher: bad thread index");
    ++reads_seen_;
    countReadForEpoch();
    expirePending();
    // A demand read reaching the controller missed the buffer; if a
    // record for this line is pending it was a suppressed candidate
    // (issued ones are consumed via lookupBuffer).
    resolveDemand(line);

    std::vector<LineAddr> out;
    const StreamObservation obs = filters_[thread].observe(line, now);
    if (obs.kind != StreamObservation::Kind::Extended ||
        obs.length < 2)
        return out;

    const std::int64_t step = dirStep(obs.dir);
    for (std::uint32_t d = 1; d <= config_.degree; ++d) {
        const std::int64_t target =
            static_cast<std::int64_t>(line) +
            step * static_cast<std::int64_t>(d);
        if (target < 0)
            break;
        const auto candidate = static_cast<LineAddr>(target);
        if (buffer().contains(candidate))
            continue; // already in flight or buffered
        std::uint32_t rows[kFeatures];
        featureRows(candidate, obs.length, obs.dir, d, rows);
        const bool issue = sumRows(rows) >= config_.threshold;
        remember(candidate, rows, issue);
        if (issue)
            out.push_back(candidate);
    }
    return out;
}

bool
PerceptronMcPrefetcher::lookupBuffer(LineAddr line)
{
    const bool hit = BufferedMcPrefetcher::lookupBuffer(line);
    if (hit)
        resolveDemand(line);
    return hit;
}

void
PerceptronMcPrefetcher::tick(Cycle now)
{
    for (StreamFilter &filter : filters_)
        filter.expireLifetimes(now);
}

Cycle
PerceptronMcPrefetcher::nextEventAt(Cycle now) const
{
    Cycle soonest = kNoCycle;
    for (const StreamFilter &filter : filters_)
        soonest = std::min(soonest, filter.nextExpiry());
    return std::max(now + 1, soonest);
}

std::int32_t
PerceptronMcPrefetcher::score(LineAddr candidate,
                              std::uint64_t stream_len, StreamDir dir,
                              std::uint32_t distance) const
{
    std::uint32_t rows[kFeatures];
    featureRows(candidate, stream_len, dir, distance, rows);
    return sumRows(rows);
}

std::size_t
PerceptronMcPrefetcher::pendingCount() const
{
    std::size_t live = 0;
    for (const Pending &p : pending_)
        live += p.valid ? 1 : 0;
    return live;
}

void
PerceptronMcPrefetcher::saveState(SnapshotWriter &w) const
{
    BufferedMcPrefetcher::saveState(w);
    w.u64(reads_seen_);
    w.u64(filters_.size());
    for (const StreamFilter &filter : filters_)
        filter.saveState(w);
    w.u64(weights_.size());
    for (const std::int32_t weight : weights_)
        w.i64(weight);
    w.u64(pending_.size());
    for (const Pending &p : pending_) {
        w.b(p.valid);
        w.u64(p.line);
        for (std::uint32_t f = 0; f < kFeatures; ++f)
            w.u32(p.feature_rows[f]);
        w.u64(p.born);
        w.b(p.issued);
    }
}

void
PerceptronMcPrefetcher::loadState(SnapshotReader &r)
{
    BufferedMcPrefetcher::loadState(r);
    reads_seen_ = r.u64();
    SnapshotReader::check(r.u64() == filters_.size(),
                          "perceptron filter count mismatch");
    for (StreamFilter &filter : filters_)
        filter.loadState(r);
    SnapshotReader::check(r.u64() == weights_.size(),
                          "perceptron weight count mismatch");
    for (std::int32_t &weight : weights_) {
        const std::int64_t v = r.i64();
        SnapshotReader::check(v >= -config_.weight_max &&
                                  v <= config_.weight_max,
                              "perceptron weight out of range");
        weight = static_cast<std::int32_t>(v);
    }
    SnapshotReader::check(r.u64() == pending_.size(),
                          "perceptron pending count mismatch");
    for (Pending &p : pending_) {
        p.valid = r.b();
        p.line = r.u64();
        for (std::uint32_t f = 0; f < kFeatures; ++f)
            p.feature_rows[f] = r.u32();
        p.born = r.u64();
        p.issued = r.b();
        for (std::uint32_t f = 0; f < kFeatures; ++f) {
            SnapshotReader::check(
                p.feature_rows[f] < config_.table_size,
                "perceptron feature row out of range");
        }
    }
}

} // namespace asd
