#include "trace/synthetic.hpp"

#include <array>
#include <cmath>

#include "common/log.hpp"

namespace asd
{

namespace
{

/** Lines kept in the reuse pool for generating cache hits. */
constexpr std::size_t kReusePoolSize = 512;

} // namespace

SyntheticTraceGenerator::SyntheticTraceGenerator(SyntheticConfig config)
    : config_(std::move(config)),
      rng_(config_.seed)
{
    if (config_.phases.empty())
        fatal("SyntheticTraceGenerator: at least one phase required");
    if (config_.concurrent_streams == 0)
        fatal("SyntheticTraceGenerator: concurrent_streams must be >= 1");
    if (config_.line_bytes == 0 ||
        (config_.line_bytes & (config_.line_bytes - 1)) != 0) {
        fatal("SyntheticTraceGenerator: line_bytes must be a power of two");
    }
    ws_lines_ = config_.working_set_bytes / config_.line_bytes;
    if (ws_lines_ == 0)
        fatal("SyntheticTraceGenerator: working set smaller than a line");
    const double gap_p = 1.0 / (1.0 + config_.mean_gap);
    gap_log_q_ = std::log1p(-gap_p);

    phase_samplers_.reserve(config_.phases.size());
    for (const auto &phase : config_.phases)
        phase_samplers_.emplace_back(phase.stream_len_weights);
    stride_sampler_ =
        std::make_unique<DiscreteSampler>(config_.stride_weights);

    reset();
}

void
SyntheticTraceGenerator::reset()
{
    rng_ = Rng(config_.seed);
    emitted_ = 0;
    phase_idx_ = 0;
    phase_left_ = config_.phases[0].accesses;
    recent_lines_.clear();
    recent_pos_ = 0;
    streams_.assign(config_.concurrent_streams, LiveStream{});
    for (auto &stream : streams_)
        refill(stream);
}

LineAddr
SyntheticTraceGenerator::randomLine()
{
    return rng_.nextBelow(ws_lines_);
}

std::uint32_t
SyntheticTraceGenerator::drawTouches()
{
    const double mean = config_.mean_touches_per_line;
    if (mean <= 1.0)
        return 1;
    // Uniform on [1, 2*mean - 1] keeps the requested mean with small
    // integer support.
    const auto hi = static_cast<std::uint64_t>(2.0 * mean) - 1;
    return static_cast<std::uint32_t>(rng_.nextInRange(1, hi));
}

void
SyntheticTraceGenerator::refill(LiveStream &stream)
{
    const auto len = static_cast<std::uint32_t>(
        phase_samplers_[phase_idx_].sample(rng_) + 1);
    stream.lines_left = len - 1;
    stream.touches_left = drawTouches();
    // Unit-stride-only configs skip the draw so their traces are
    // bit-identical to pre-stride versions of the generator.
    stream.stride =
        stride_sampler_->size() == 1
            ? 1
            : static_cast<std::uint32_t>(
                  stride_sampler_->sample(rng_) + 1);
    stream.dir = rng_.chance(config_.negative_dir_frac)
                     ? StreamDir::Negative
                     : StreamDir::Positive;
    // Choose the start so the whole stream stays inside the working
    // set regardless of direction.
    const LineAddr span =
        static_cast<LineAddr>(len) * stream.stride + 1;
    LineAddr start = randomLine();
    if (stream.dir == StreamDir::Positive) {
        if (start + span >= ws_lines_)
            start = ws_lines_ > span ? ws_lines_ - span - 1 : 0;
    } else {
        if (start < span)
            start = span;
    }
    stream.line = start;
}

std::uint32_t
SyntheticTraceGenerator::drawGap()
{
    if (config_.mean_gap <= 0.0)
        return 0;
    // Geometric with the configured mean, sampled via inversion.
    const double u = rng_.nextDouble();
    const double g = std::floor(std::log1p(-u) / gap_log_q_);
    return static_cast<std::uint32_t>(g < 0.0 ? 0.0 : g);
}

void
SyntheticTraceGenerator::advancePhase()
{
    if (phase_left_ == 0)
        return; // phase lasts the rest of the trace
    if (--phase_left_ > 0)
        return;
    phase_idx_ = (phase_idx_ + 1) % config_.phases.size();
    phase_left_ = config_.phases[phase_idx_].accesses;
    // New phase, new streams: flush live streams so the new PMF takes
    // effect immediately rather than after the old streams drain.
    for (auto &stream : streams_)
        refill(stream);
}

void
SyntheticTraceGenerator::saveState(SnapshotWriter &w) const
{
    const std::array<std::uint64_t, 4> rng_state = rng_.state();
    for (const std::uint64_t word : rng_state)
        w.u64(word);
    w.u64(emitted_);
    w.u64(phase_idx_);
    w.u64(phase_left_);
    w.vecU64(recent_lines_);
    w.u64(recent_pos_);
    w.u32(static_cast<std::uint32_t>(streams_.size()));
    for (const LiveStream &stream : streams_) {
        w.u64(stream.line);
        w.u32(stream.lines_left);
        w.u32(stream.touches_left);
        w.u32(stream.stride);
        w.u8(static_cast<std::uint8_t>(stream.dir));
    }
}

void
SyntheticTraceGenerator::loadState(SnapshotReader &r)
{
    std::array<std::uint64_t, 4> rng_state;
    for (std::uint64_t &word : rng_state)
        word = r.u64();
    rng_.setState(rng_state);
    emitted_ = r.u64();
    const std::uint64_t phase_idx = r.u64();
    SnapshotReader::check(phase_idx < config_.phases.size(),
                          "synthetic trace phase index out of range");
    phase_idx_ = static_cast<std::size_t>(phase_idx);
    phase_left_ = r.u64();
    recent_lines_ = r.vecU64();
    SnapshotReader::check(recent_lines_.size() <= kReusePoolSize,
                          "synthetic trace reuse pool too large");
    const std::uint64_t recent_pos = r.u64();
    SnapshotReader::check(recent_pos < kReusePoolSize,
                          "synthetic trace reuse cursor out of range");
    recent_pos_ = static_cast<std::size_t>(recent_pos);
    const std::uint32_t stream_count = r.u32();
    SnapshotReader::check(stream_count == streams_.size(),
                          "synthetic trace stream count mismatch "
                          "(different concurrent_streams config?)");
    for (LiveStream &stream : streams_) {
        stream.line = r.u64();
        stream.lines_left = r.u32();
        stream.touches_left = r.u32();
        stream.stride = r.u32();
        stream.dir = static_cast<StreamDir>(r.u8());
    }
}

bool
SyntheticTraceGenerator::next(MemAccess &out)
{
    if (emitted_ >= config_.total_accesses)
        return false;
    ++emitted_;
    advancePhase();

    out.gap = drawGap();
    out.op = rng_.chance(config_.write_frac) ? MemOp::Write : MemOp::Read;
    out.dependent = out.op == MemOp::Read &&
                    rng_.chance(config_.dependent_frac);

    LineAddr line;
    if (!recent_lines_.empty() && rng_.chance(config_.reuse_frac)) {
        line = recent_lines_[rng_.nextBelow(recent_lines_.size())];
    } else {
        auto &stream = streams_[rng_.nextBelow(streams_.size())];
        line = stream.line;
        if (--stream.touches_left == 0) {
            if (stream.lines_left == 0) {
                refill(stream);
            } else {
                --stream.lines_left;
                stream.line = static_cast<LineAddr>(
                    static_cast<std::int64_t>(stream.line) +
                    dirStep(stream.dir) *
                        static_cast<std::int64_t>(stream.stride));
                stream.touches_left = drawTouches();
            }
        }
        if (recent_lines_.size() < kReusePoolSize) {
            recent_lines_.push_back(line);
        } else {
            recent_lines_[recent_pos_] = line;
            recent_pos_ = (recent_pos_ + 1) % kReusePoolSize;
        }
    }
    out.addr = line * config_.line_bytes +
               rng_.nextBelow(config_.line_bytes);
    return true;
}

} // namespace asd
