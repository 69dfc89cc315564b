#ifndef ASD_OS_KERNEL_HPP
#define ASD_OS_KERNEL_HPP

/**
 * @file
 * The kernel behind every translation: on a TLB miss the per-thread
 * Mmu calls touch(), which walks the page table and, on an absent
 * page, places a frame from the machine's one FramePool. It comes in
 * two builds:
 *
 *  - the OS model (finite pool): one table shared by every thread and
 *    tenant, keyed by osPageKey(space, vpn). An absent page takes a
 *    minor or major fault; when the pool is full a CLOCK victim is
 *    reclaimed, unmapped and shot out of every TLB, with a writeback
 *    charge when dirty. One tenant's fault pressure evicts another
 *    tenant's frames, exactly the cross-tenant interference the
 *    multi-tenant scenarios study;
 *  - the plain VM layer (unbounded pool): a private radix table per
 *    hardware thread keyed by vpn, so SMT threads never share a
 *    mapping. A miss costs only the walk; nothing faults or is
 *    reclaimed.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "os/frame_pool.hpp"
#include "os/os_config.hpp"
#include "os/page_walker.hpp"
#include "os/tlb.hpp"

namespace asd
{

/** What one walk did and cost. */
struct OsTouchResult
{
    std::uint64_t pfn = 0;
    Cycles stall_cycles = 0;
    bool minor_fault = false;
    bool major_fault = false;
    bool reclaimed = false;
    bool wrote_back = false;
};

/** Shared translation kernel; one instance per simulated machine. */
class OsKernel : public Snapshottable
{
  public:
    /**
     * The OS model: a finite pool of OsConfig::frames with CLOCK
     * reclaim, demand faults, and one shared table.
     * @param vm supplies the TLB walk cost and the walker selection.
     */
    OsKernel(const OsConfig &config, const VmConfig &vm);

    /**
     * The plain VM layer: an unbounded pool placing by VmConfig::policy
     * and a private radix table for each of @p threads hardware
     * threads, walks costing VmConfig::tlb.walk_cycles.
     */
    OsKernel(const VmConfig &vm, std::uint32_t threads);

    /** Finite pool: faults, reclaim and shootdowns apply. */
    bool finite() const { return pool_.finite(); }

    /**
     * The key the page table and the TLBs use for (@p space, @p vpn):
     * the OS model keeps tenants apart in one key space, while the
     * plain VM layer's private tables key by vpn alone.
     */
    std::uint64_t
    pageKey(std::uint32_t space, std::uint64_t vpn) const
    {
        return finite() ? osPageKey(space, vpn) : vpn;
    }

    /**
     * Register a TLB for shootdowns; every per-thread Mmu TLB must be
     * registered so reclaim can invalidate stale translations.
     */
    void registerTlb(Tlb *tlb) { tlbs_.push_back(tlb); }

    /**
     * Full translation path for a TLB miss of hardware thread
     * @p thread on (@p space, @p vpn): walk, and place a frame if the
     * page is absent (faulting, and reclaiming if the pool is full).
     */
    OsTouchResult touch(std::uint32_t space, std::uint64_t vpn,
                        bool is_write, std::uint32_t thread = 0);

    /** Record a TLB-hit access so CLOCK sees R (and D) bits. */
    void
    markAccess(std::uint64_t pfn, bool is_write)
    {
        if (finite())
            pool_.markAccess(pfn, is_write);
    }

    const FramePool &pool() const { return pool_; }

    std::uint64_t minorFaults() const { return minor_faults_.value(); }
    std::uint64_t majorFaults() const { return major_faults_.value(); }
    std::uint64_t reclaims() const { return reclaims_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }
    std::uint64_t shootdowns() const { return shootdowns_.value(); }
    std::uint64_t stallCycles() const { return stall_cycles_.value(); }

    /** Distinct pages mapped, summed over the tables. */
    std::uint64_t pagesMapped() const;

    /**
     * Register under @p prefix: the OS model's fault, reclaim and
     * stall counters plus its table's pages_mapped, or the VM layer's
     * frames_allocated plus each thread's pages_mapped under
     * @p prefix.t<k>.
     */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    void saveState(SnapshotWriter &w) const override;
    void loadState(SnapshotReader &r) override;

  private:
    PageWalker &tableOf(std::uint32_t thread);

    // asdlint:allow(snapshot-field-coverage): configuration fixed at construction
    OsConfig config_;
    FramePool pool_;
    /** One shared table (OS model) or one per thread (VM layer). */
    std::vector<std::unique_ptr<PageWalker>> tables_;
    Rng rng_; //!< major-vs-minor fault draws
    // asdlint:allow(snapshot-field-coverage): wiring to the per-thread TLBs, rebuilt at construction
    std::vector<Tlb *> tlbs_;

    Counter minor_faults_;
    Counter major_faults_;
    Counter reclaims_;
    Counter writebacks_;
    Counter shootdowns_;
    Counter stall_cycles_;
};

} // namespace asd

#endif // ASD_OS_KERNEL_HPP
