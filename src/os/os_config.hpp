#ifndef ASD_OS_OS_CONFIG_HPP
#define ASD_OS_OS_CONFIG_HPP

/**
 * @file
 * Configuration of the OS memory model: a finite physical-frame pool
 * with demand paging and memory-pressure reclaim, layered on the VM
 * config's translation granule, TLB geometry, and walker selection.
 * Where the plain VM layer charges a fixed walk cost against an
 * unbounded frame pool, the OS model charges minor/major fault
 * latencies, CLOCK reclaim, and dirty writebacks — the machinery
 * that actually shreds physical streams on a loaded server. Disabled
 * by default: runs are bit-identical to the pre-OS simulator.
 */

#include <cstdint>

#include "common/types.hpp"

namespace asd
{

/** Everything needed to build the OS kernel model. */
struct OsConfig
{
    /** Off by default: bit-identical to the pre-OS simulator. */
    bool enabled = false;

    /**
     * Physical frames in the pool. At the default 4 KB granule,
     * 16384 frames back a 64 MB resident set — small enough that the
     * paper-scale working sets generate steady reclaim pressure.
     */
    std::uint64_t frames = 16384;

    /** Stall for a minor fault (mapping established, page resident). */
    Cycles minor_fault_cycles = 800;

    /** Stall for a major fault (page read from backing store). */
    Cycles major_fault_cycles = 20000;

    /** Fraction of faults that miss in the page cache (major). */
    double major_fault_frac = 0.02;

    /** Extra stall when a fault must reclaim a victim frame. */
    Cycles reclaim_cycles = 300;

    /** Extra stall when the reclaimed victim was dirty. */
    Cycles writeback_cycles = 2000;

    /**
     * Per-probe cost of the hashed/inverted walker's chain walk
     * (PageWalkerKind::Hashed); the radix walker charges the TLB
     * config's fixed walk_cycles instead.
     */
    Cycles hashed_probe_cycles = 20;

    /** Seed for frame-placement shuffling and major-fault draws. */
    std::uint64_t seed = 0x05edULL;
};

} // namespace asd

#endif // ASD_OS_OS_CONFIG_HPP
