#include "os/frame_pool.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

#include "common/log.hpp"

namespace asd
{

namespace
{

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

FramePool::FramePool(const VmConfig &vm)
    : placement_(vm.policy == FrameAllocPolicy::Identity
                     ? Placement::Identity
                 : vm.policy == FrameAllocPolicy::Sequential
                     ? Placement::Sequential
                     : Placement::Shuffle),
      size_(vm.frames()),
      page_bytes_(vm.pageBytes()),
      rng_(vm.seed)
{
    panicIfNot(isPowerOfTwo(vm.page_bytes),
               "vm: page_bytes must be a power of two");
    panicIfNot(isPowerOfTwo(vm.huge_bytes),
               "vm: huge_bytes must be a power of two");
    if (vm.huge_bytes < vm.page_bytes)
        fatal("vm: huge_bytes smaller than page_bytes");
    if (size_ == 0)
        fatal("vm: phys_bytes smaller than one page");
}

FramePool::FramePool(std::uint64_t frames, std::uint64_t seed)
    : placement_(Placement::Clock), size_(frames), page_bytes_(0),
      rng_(seed)
{
    if (frames == 0)
        fatal("os: frame pool must hold at least one frame");
    frames_.resize(frames);
    free_order_.resize(frames);
    std::iota(free_order_.begin(), free_order_.end(), 0ULL);
    // Deterministic Fisher-Yates over the hand-out order: first
    // touches land on scattered frames, like a fragmented free list.
    for (std::uint64_t i = frames - 1; i > 0; --i) {
        const std::uint64_t j = rng_.nextBelow(i + 1);
        std::swap(free_order_[i], free_order_[j]);
    }
}

void
FramePool::exhausted() const
{
    fatal("vm: out of physical frames (" + std::to_string(size_) +
          " frames of " + std::to_string(page_bytes_) +
          " bytes); raise phys_bytes or page size");
}

std::uint64_t
FramePool::drawShuffled()
{
    if (next_ >= size_)
        exhausted();
    // Lazy Fisher-Yates: swap a uniformly drawn not-yet-used position
    // into slot `next_` and consume it. O(1) time and space per draw.
    const std::uint64_t i = next_++;
    const std::uint64_t j = i + rng_.nextBelow(size_ - i);
    const auto at = [this](std::uint64_t pos) {
        const auto it = shuffle_.find(pos);
        return it == shuffle_.end() ? pos : it->second;
    };
    const std::uint64_t frame = at(j);
    shuffle_[j] = at(i);
    shuffle_.erase(i); // slot i is consumed; reclaim its map entry
    return frame;
}

std::uint64_t
FramePool::claimClock(std::uint32_t space, std::uint64_t vpn,
                      bool is_write, bool &evicted, OsVictim &victim)
{
    std::uint64_t pfn;
    if (next_ < size_) {
        pfn = free_order_[next_++];
    } else {
        // CLOCK: sweep past referenced frames (clearing R as the
        // second chance) until an unreferenced victim is found. With
        // every frame referenced this degenerates to FIFO after one
        // full sweep, so it always terminates.
        while (frames_[hand_].referenced) {
            frames_[hand_].referenced = false;
            hand_ = (hand_ + 1) % size_;
        }
        pfn = hand_;
        hand_ = (hand_ + 1) % size_;
        const Frame &old = frames_[pfn];
        victim.space = old.space;
        victim.vpn = old.vpn;
        victim.dirty = old.dirty;
        evicted = true;
    }
    Frame &frame = frames_[pfn];
    frame.space = space;
    frame.vpn = vpn;
    frame.valid = true;
    frame.referenced = true;
    frame.dirty = is_write;
    return pfn;
}

std::uint64_t
FramePool::acquire(std::uint32_t space, std::uint64_t vpn,
                   bool is_write, bool &evicted, OsVictim &victim)
{
    allocated_.inc();
    evicted = false;
    switch (placement_) {
      case Placement::Identity:
        return vpn % size_;
      case Placement::Sequential:
        if (next_ >= size_)
            exhausted();
        return next_++;
      case Placement::Shuffle:
        return drawShuffled();
      case Placement::Clock:
        return claimClock(space, vpn, is_write, evicted, victim);
    }
    panic("unhandled frame placement");
}

void
FramePool::markAccess(std::uint64_t pfn, bool is_write)
{
    if (!finite())
        return;
    panicIfNot(pfn < size_ && frames_[pfn].valid,
               "os: access to an unmapped frame");
    frames_[pfn].referenced = true;
    if (is_write)
        frames_[pfn].dirty = true;
}

void
FramePool::registerStats(StatRegistry &registry,
                         const std::string &prefix) const
{
    registry.add(prefix + ".frames_allocated", allocated_);
}

void
FramePool::saveState(SnapshotWriter &w) const
{
    w.u8(static_cast<std::uint8_t>(placement_));
    w.u64(size_);
    for (const std::uint64_t word : rng_.state())
        w.u64(word);
    w.u64(next_);
    // Sorted key order: the shuffle is only ever point-queried, so
    // iteration order is irrelevant to behavior, but sorting makes
    // save -> load -> save byte-identical.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(
        shuffle_.begin(), shuffle_.end());
    std::sort(sorted.begin(), sorted.end());
    w.u64(sorted.size());
    for (const auto &[pos, frame] : sorted) {
        w.u64(pos);
        w.u64(frame);
    }
    for (const Frame &frame : frames_) {
        w.u32(frame.space);
        w.u64(frame.vpn);
        w.b(frame.valid);
        w.b(frame.referenced);
        w.b(frame.dirty);
    }
    w.u64(hand_);
    w.u64(allocated_.value());
}

void
FramePool::loadState(SnapshotReader &r)
{
    SnapshotReader::check(r.u8() == static_cast<std::uint8_t>(placement_),
                          "frame placement policy mismatch");
    SnapshotReader::check(r.u64() == size_, "frame pool size mismatch");
    std::array<std::uint64_t, 4> state;
    for (std::uint64_t &word : state)
        word = r.u64();
    rng_.setState(state);
    next_ = r.u64();
    SnapshotReader::check(next_ <= size_,
                          "frame pool cursor out of range");
    const std::uint64_t count = r.u64();
    shuffle_.clear();
    shuffle_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t pos = r.u64();
        const std::uint64_t frame = r.u64();
        SnapshotReader::check(shuffle_.emplace(pos, frame).second,
                              "duplicate shuffle entry");
    }
    for (Frame &frame : frames_) {
        frame.space = r.u32();
        frame.vpn = r.u64();
        frame.valid = r.b();
        frame.referenced = r.b();
        frame.dirty = r.b();
    }
    hand_ = r.u64();
    SnapshotReader::check(hand_ < size_, "CLOCK hand out of range");
    allocated_.restore(r.u64());
}

} // namespace asd
