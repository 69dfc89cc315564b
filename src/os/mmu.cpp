#include "os/mmu.hpp"

#include "common/log.hpp"

namespace asd
{

Mmu::Mmu(const VmConfig &vm, OsKernel &kernel, std::uint32_t thread)
    : kernel_(kernel),
      page_bytes_(vm.pageBytes()),
      thread_(thread),
      tlb_(vm.tlb)
{
    panicIfNot(page_bytes_ > 0, "vm: zero translation granule");
    kernel_.registerTlb(&tlb_);
}

Addr
Mmu::translate(const MemAccess &access, Cycles &stall_cycles)
{
    const std::uint64_t vpn = access.addr / page_bytes_;
    const Addr offset = access.addr % page_bytes_;
    const bool is_write = access.op == MemOp::Write;
    const std::uint64_t key = kernel_.pageKey(access.space, vpn);
    if (const auto pfn = tlb_.lookup(key)) {
        // The hardware set R/D bits on the TLB hit; CLOCK must see
        // them or it would reclaim hot pages.
        kernel_.markAccess(*pfn, is_write);
        stall_cycles = 0;
        return *pfn * page_bytes_ + offset;
    }
    const OsTouchResult result =
        kernel_.touch(access.space, vpn, is_write, thread_);
    tlb_.insert(key, result.pfn);
    stall_cycles = result.stall_cycles;
    stall_cycles_.inc(stall_cycles);
    return result.pfn * page_bytes_ + offset;
}

void
Mmu::registerStats(StatRegistry &registry,
                   const std::string &prefix) const
{
    tlb_.registerStats(registry, prefix + ".tlb");
    registry.add(prefix + (kernel_.finite() ? ".stall_cycles"
                                            : ".walk_cycles"),
                 stall_cycles_);
}

void
Mmu::saveState(SnapshotWriter &w) const
{
    tlb_.saveState(w);
    w.u64(stall_cycles_.value());
}

void
Mmu::loadState(SnapshotReader &r)
{
    tlb_.loadState(r);
    stall_cycles_.restore(r.u64());
}

} // namespace asd
