#ifndef ASD_OS_MMU_HPP
#define ASD_OS_MMU_HPP

/**
 * @file
 * One hardware thread's memory-management unit: a private TLB over
 * the machine's shared OsKernel. The trace CPU calls translate() on
 * every access's virtual byte address and receives the physical
 * address plus the stall to charge (0 on a TLB hit; the walk, plus
 * any fault and reclaim, on a miss). Everything downstream (caches,
 * memory controller, ASD) then operates purely on physical
 * addresses.
 */

#include <cstdint>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "os/kernel.hpp"
#include "os/tlb.hpp"
#include "trace/mem_access.hpp"

namespace asd
{

/** Memory-management unit for one hardware thread. */
class Mmu : public Snapshottable
{
  public:
    /**
     * @param vm     supplies the translation granule and TLB geometry.
     * @param kernel shared kernel; must outlive the Mmu.
     */
    Mmu(const VmConfig &vm, OsKernel &kernel, std::uint32_t thread);

    /** The kernel holds the TLB's address for shootdowns. */
    Mmu(const Mmu &) = delete;
    Mmu &operator=(const Mmu &) = delete;

    /**
     * Translate @p access's virtual byte address.
     * @param stall_cycles set to the translation stall to charge
     *        before the access may issue (0 on a TLB hit).
     * @return the physical byte address.
     */
    Addr translate(const MemAccess &access, Cycles &stall_cycles);

    const Tlb &tlb() const { return tlb_; }

    /** Total translation stall charged by this thread so far. */
    std::uint64_t stallCycles() const { return stall_cycles_.value(); }

    /**
     * Register the TLB under @p prefix.tlb and the stall counter as
     * @p prefix.stall_cycles (OS model) or @p prefix.walk_cycles
     * (plain VM layer, where every stall is a walk).
     */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    void saveState(SnapshotWriter &w) const override;
    void loadState(SnapshotReader &r) override;

  private:
    // asdlint:allow(snapshot-field-coverage): wiring to the shared kernel, fixed at construction
    OsKernel &kernel_;
    // asdlint:allow(snapshot-field-coverage): translation granule derived from config at construction
    std::uint64_t page_bytes_;
    // asdlint:allow(snapshot-field-coverage): thread id is wiring configuration fixed at construction
    std::uint32_t thread_;
    Tlb tlb_;
    Counter stall_cycles_;
};

} // namespace asd

#endif // ASD_OS_MMU_HPP
