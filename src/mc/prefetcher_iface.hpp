#ifndef ASD_MC_PREFETCHER_IFACE_HPP
#define ASD_MC_PREFETCHER_IFACE_HPP

/**
 * @file
 * Interface between the memory controller and a memory-side
 * prefetcher. The ASD prefetcher (src/core) and the baseline MC-
 * resident prefetchers (next-line, P5-style; src/prefetch) implement
 * this, so Fig. 11's head-to-head comparison swaps implementations
 * without touching the controller.
 */

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

/**
 * Observer + policy provider for memory-side prefetching. All hooks
 * are called by the MemoryController; implementations must not call
 * back into it. Every implementation is checkpointable: a prefetcher
 * restored from a snapshot must continue bit-identically.
 */
class MemSidePrefetcher : public Snapshottable
{
  public:
    virtual ~MemSidePrefetcher() = default;

    /**
     * A demand read entered the controller (after the prefetch-buffer
     * entry check missed).
     * @return line addresses to prefetch, in issue order.
     */
    virtual std::vector<LineAddr> observeRead(LineAddr line,
                                              std::uint32_t thread,
                                              Cycle now) = 0;

    /** A write entered the controller (invalidate buffered copies). */
    virtual void observeWrite(LineAddr line, Cycle now) = 0;

    /**
     * Probe the prefetch buffer for a demand read; a hit consumes
     * (invalidates) the entry per the paper's buffer policy.
     * @retval true on hit: the controller squashes the DRAM access.
     */
    virtual bool lookupBuffer(LineAddr line) = 0;

    /** True when @p line is already buffered (no consume). */
    virtual bool bufferContains(LineAddr line) const = 0;

    /** Prefetched data returned from DRAM; install into the buffer. */
    virtual void fillBuffer(LineAddr line, Cycle now) = 0;

    /**
     * Current LPQ arbitration policy, 1 (most conservative) to 5
     * (least conservative); see the paper's section 3.5.
     */
    virtual int schedulingPolicy() const = 0;

    /**
     * A regular command was blocked this cycle by a bank busy with a
     * previously issued prefetch (Adaptive Scheduling feedback).
     */
    virtual void notifyPrefetchConflict(Cycle now) = 0;

    /** Per-CPU-cycle housekeeping (stream lifetimes, epochs). */
    virtual void tick(Cycle now) = 0;

    /**
     * Earliest cycle after @p now (the cycle just ticked) at which
     * tick() can change state, such as a Stream Filter lifetime
     * expiring; kNoCycle when no tick ever can. The default, the next
     * cycle, is always safe: the System then ticks every cycle while
     * the memory side is busy.
     */
    virtual Cycle
    nextEventAt(Cycle now) const
    {
        return now + 1;
    }
};

} // namespace asd

#endif // ASD_MC_PREFETCHER_IFACE_HPP
