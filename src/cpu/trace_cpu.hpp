#ifndef ASD_CPU_TRACE_CPU_HPP
#define ASD_CPU_TRACE_CPU_HPP

/**
 * @file
 * Trace-driven CPU model. Replays a MemAccess stream against the
 * cache hierarchy with a bounded number of outstanding loads (memory-
 * level parallelism), a store buffer for write misses (RFOs), and
 * serialization on dependent (pointer-chasing) loads. Non-memory
 * instructions burn at a fixed IPC.
 *
 * This is the stand-in for the paper's proprietary Power5+ core
 * model: it produces a realistic L2/L3-miss read stream and couples
 * execution time to memory latency, which is all the memory-side
 * prefetcher study needs (DESIGN.md section 2).
 */

#include <cstdint>
#include <vector>

#include "cache/hierarchy.hpp"
#include "cache/mshr.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "prefetch/cpu_prefetcher.hpp"
#include "trace/trace_source.hpp"

namespace asd
{

class Mmu;

/** How the CPU reaches memory; implemented by sim::System. */
class MemPort
{
  public:
    virtual ~MemPort() = default;

    /**
     * Issue a demand read (or store RFO) for @p line.
     * @retval false when the controller cannot accept (retry later).
     */
    virtual bool demandRead(LineAddr line, std::uint32_t thread,
                            bool is_rfo) = 0;

    /**
     * Issue a processor-side prefetch read. Dropped (returns true) or
     * rejected silently; the CPU never retries these.
     */
    virtual void psPrefetch(LineAddr line, std::uint32_t thread,
                            bool to_l1) = 0;
};

/** CPU model parameters. */
struct CpuConfig
{
    /** Non-memory instructions retired per cycle. */
    std::uint32_t ipc = 2;

    /** Maximum outstanding loads (hit or miss). */
    std::uint32_t mlp = 4;

    /** Store buffer entries (outstanding store RFOs). */
    std::uint32_t store_buffer = 8;

    /** Cache line size. */
    std::uint32_t line_bytes = 128;
};

/** One hardware thread replaying a trace. */
class TraceCpu : public Snapshottable
{
  public:
    /**
     * @param ps optional processor-side prefetcher (PS/PMS configs).
     * @param thread this CPU's hardware thread id.
     * @param mmu optional memory-management unit (VM layer or OS
     *        model); when present every trace address is translated
     *        before it touches the hierarchy, and TLB misses stall
     *        issue by the walk/fault latency. Null = addresses pass
     *        through untranslated.
     */
    TraceCpu(const CpuConfig &config, TraceSource &trace,
             CacheHierarchy &hierarchy, CpuPrefetcher *ps,
             MemPort &port, std::uint32_t thread,
             Mmu *mmu = nullptr);

    /** Advance one cycle. */
    void tick(Cycle now);

    /** Trace exhausted and no loads/stores outstanding. */
    bool finished() const;

    /**
     * Cycles until this CPU next needs a tick (fast-forward hint);
     * kNoCycle when blocked on a memory completion callback.
     */
    Cycles nextEventIn(Cycle now) const;

    /** A demand load's memory data arrived. */
    void loadDone(LineAddr line, Cycle now);

    /** A store RFO's data arrived. */
    void storeDone(LineAddr line, Cycle now);

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    std::uint64_t retiredAccesses() const { return retired_.value(); }

    /**
     * Checkpoint the core and its trace cursor. The attached PS
     * prefetcher and MMU are snapshotted by the System in their own
     * sections (their presence depends on the machine configuration).
     */
    void saveState(SnapshotWriter &w) const override;
    void loadState(SnapshotReader &r) override;

  private:
    /** The access currently being issued, with cached lookup state. */
    struct Pending
    {
        MemAccess access;
        LineAddr line = 0;
        bool valid = false;
        bool looked_up = false;  //!< hierarchy already consulted
        bool needs_memory = false;
        bool ps_observe = false; //!< notify the PS unit after issue
        bool ps_was_miss = false;
        Cycles hit_latency = 0;  //!< valid when !needs_memory
    };

    void completeTimedLoads(Cycle now);
    bool tryIssue(Cycle now);
    void observePs(LineAddr line, bool was_l1_miss);

    CpuConfig config_;
    TraceSource &trace_;
    CacheHierarchy &hierarchy_;
    CpuPrefetcher *ps_;
    MemPort &port_;
    // asdlint:allow(snapshot-field-coverage): thread id is wiring configuration fixed at construction, never dynamic state
    std::uint32_t thread_;
    Mmu *mmu_;

    bool trace_done_ = false;
    std::uint64_t compute_left_ = 0; //!< gap instructions remaining
    Cycle last_tick_ = kNoCycle;     //!< for elapsed-time compute burn
    Pending pending_;

    /** Earliest cycle the pending access may issue (walk/fault stall). */
    Cycle issue_ready_at_ = 0;

    std::vector<Cycle> timed_loads_;  //!< cache-hit completions
    MshrFile mem_loads_;              //!< loads waiting on memory
    MshrFile store_rfos_;             //!< stores waiting on memory

    /**
     * Misses whose MSHR is allocated but whose memory-controller
     * enqueue was rejected (queue full). They retry every tick while
     * the core keeps executing — the MSHR, not the core, waits.
     */
    struct RetryEntry
    {
        LineAddr line;
        bool is_rfo;
    };
    std::vector<RetryEntry> retry_q_;

    Counter retired_;
    Counter load_stall_cycles_;
    Counter store_stall_cycles_;
    Counter dep_stall_cycles_;
    Counter mc_reject_cycles_;
    Counter walk_stall_cycles_;
};

} // namespace asd

#endif // ASD_CPU_TRACE_CPU_HPP
