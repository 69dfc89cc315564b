#ifndef ASD_MC_COMMAND_HPP
#define ASD_MC_COMMAND_HPP

/**
 * @file
 * Memory-controller command records shared by the reorder queues, the
 * CAQ, the LPQ and the schedulers.
 */

#include <cstdint>

#include "common/types.hpp"
#include "dram/dram.hpp"

namespace asd
{

/** One command travelling through the memory controller. */
struct McCommand
{
    LineAddr line = 0;

    /**
     * DRAM coordinates of @p line, decoded once when the command
     * enters the controller. Derived state: snapshots store the line
     * and recompute these on load.
     */
    DramCoord coord;

    /** Identifier the owner uses to match read completions. */
    std::uint64_t id = 0;

    /** Hardware thread that produced the command. */
    std::uint32_t thread = 0;

    /** Cycle the command entered the memory controller. */
    Cycle enqueued_at = 0;

    bool is_write = false;

    /** Memory-side prefetch (LPQ path). */
    bool is_prefetch = false;

    /** Set once the command was delayed by an in-flight prefetch. */
    bool delayed_by_prefetch = false;
};

} // namespace asd

#endif // ASD_MC_COMMAND_HPP
