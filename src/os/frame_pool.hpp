#ifndef ASD_OS_FRAME_POOL_HPP
#define ASD_OS_FRAME_POOL_HPP

/**
 * @file
 * The machine's physical-frame pool: one pool backs every hardware
 * thread, so co-running threads compete for frames and interleave in
 * physical memory the way co-running processes do under a real OS.
 * Frames are placed by one of five policies:
 *
 *  - identity, seq, random, huge (an unbounded pool built from a
 *    VmConfig): identity maps page n to frame n modulo the pool;
 *    seq hands frames out in first-touch order; random and huge draw
 *    each frame from a lazily materialized Fisher-Yates permutation
 *    (huge at the huge-page granule). Nothing is ever reclaimed,
 *    memory scales with the pages mapped rather than with physical
 *    memory, and running out of frames is fatal;
 *  - clock (a finite pool built from a frame count, the OS model):
 *    frames are handed out in an eagerly shuffled order until the
 *    pool is full, after which every new page steals a victim chosen
 *    by sweeping a clock hand past referenced frames.
 *
 * The pool only places frames and tracks their metadata; walk, fault
 * and reclaim latencies are charged by the OsKernel.
 */

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/random.hpp"
#include "common/stats.hpp"
#include "os/vm_config.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

/** The page evicted by a reclaim, as the kernel needs to undo it. */
struct OsVictim
{
    std::uint32_t space = 0;
    std::uint64_t vpn = 0;
    bool dirty = false;
};

/** Physical-frame pool with one of five placement policies. */
class FramePool : public Snapshottable
{
  public:
    /**
     * Unbounded pool placing by @p vm's policy at its granule.
     * Deterministic for a given VmConfig: random and huge draw from a
     * dedicated xoshiro PRNG seeded by VmConfig::seed.
     */
    explicit FramePool(const VmConfig &vm);

    /**
     * Finite pool with CLOCK reclaim.
     * @param frames pool size; must be positive.
     * @param seed   deterministic shuffle of the hand-out order, so
     *               physical placement fragments virtual streams the
     *               way a long-running OS's free list would.
     */
    FramePool(std::uint64_t frames, std::uint64_t seed);

    /**
     * Claim a frame for (@p space, @p vpn). Identity placement maps
     * equal page numbers of different threads to the same frame
     * (matching the untranslated simulator, where thread address
     * spaces alias freely); every other policy hands each claim a
     * distinct frame. A finite pool reclaims the CLOCK victim when no
     * free frame remains; its claimed frame starts referenced, with
     * its dirty bit set iff @p is_write.
     * @param evicted set when a resident page was reclaimed.
     * @param victim  filled with the evicted page when @p evicted.
     * @return the claimed physical frame number.
     */
    std::uint64_t acquire(std::uint32_t space, std::uint64_t vpn,
                          bool is_write, bool &evicted,
                          OsVictim &victim);

    /**
     * Record a touch of resident frame @p pfn (sets R, and D on
     * writes). Only a finite pool keeps frame metadata, so CLOCK can
     * see it; an unbounded pool ignores the call.
     */
    void markAccess(std::uint64_t pfn, bool is_write);

    /** Finite (CLOCK) pool: faults and reclaim apply. */
    bool finite() const { return placement_ == Placement::Clock; }

    /** Pool size in frames. */
    std::uint64_t size() const { return size_; }

    /** Frames taken from the free supply; in a finite pool, the
        frames currently backing a page. */
    std::uint64_t resident() const { return next_; }

    /** Claims so far (identity claims included). */
    std::uint64_t allocated() const { return allocated_.value(); }

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    void saveState(SnapshotWriter &w) const override;
    void loadState(SnapshotReader &r) override;

  private:
    enum class Placement : std::uint8_t
    {
        Identity,
        Sequential,
        Shuffle, //!< random and huge: lazy Fisher-Yates
        Clock,   //!< finite: eager shuffle, then CLOCK reclaim
    };

    struct Frame
    {
        std::uint32_t space = 0;
        std::uint64_t vpn = 0;
        bool valid = false;
        bool referenced = false;
        bool dirty = false;
    };

    [[noreturn]] void exhausted() const;
    std::uint64_t drawShuffled();
    std::uint64_t claimClock(std::uint32_t space, std::uint64_t vpn,
                             bool is_write, bool &evicted,
                             OsVictim &victim);

    Placement placement_;
    std::uint64_t size_;
    // asdlint:allow(snapshot-field-coverage): translation granule from config, only named in the out-of-frames error
    std::uint64_t page_bytes_;
    Rng rng_; //!< the shuffle's draws

    /** Frames taken from the free supply so far. */
    std::uint64_t next_ = 0;

    /**
     * Lazy shuffle: position i holds the i-th randomly drawn frame.
     * Only touched positions are stored, so memory scales with pages
     * mapped, not with physical memory size.
     */
    std::unordered_map<std::uint64_t, std::uint64_t> shuffle_;

    /** Clock: per-frame metadata, and the eager hand-out order. */
    std::vector<Frame> frames_;
    // asdlint:allow(snapshot-field-coverage): hand-out permutation derived from the seed in the constructor
    std::vector<std::uint64_t> free_order_;
    std::uint64_t hand_ = 0; //!< CLOCK hand

    Counter allocated_;
};

} // namespace asd

#endif // ASD_OS_FRAME_POOL_HPP
