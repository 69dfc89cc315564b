#include "os/kernel.hpp"

#include <array>

#include "common/log.hpp"

namespace asd
{

OsKernel::OsKernel(const OsConfig &config, const VmConfig &vm)
    : config_(config),
      pool_(config.frames, config.seed),
      rng_(config.seed ^ 0x05c0ffeeULL)
{
    if (config_.major_fault_frac < 0.0 ||
        config_.major_fault_frac > 1.0)
        fatal("os: major_fault_frac must be in [0, 1]");
    tables_.push_back(
        makePageWalker(vm, config.hashed_probe_cycles, config.frames));
}

OsKernel::OsKernel(const VmConfig &vm, std::uint32_t threads)
    : pool_(vm), rng_(config_.seed ^ 0x05c0ffeeULL)
{
    for (std::uint32_t t = 0; t < threads; ++t)
        tables_.push_back(
            std::make_unique<RadixWalker>(vm.tlb.walk_cycles));
}

PageWalker &
OsKernel::tableOf(std::uint32_t thread)
{
    if (finite())
        return *tables_.front();
    panicIfNot(thread < tables_.size(), "vm: thread has no page table");
    return *tables_[thread];
}

OsTouchResult
OsKernel::touch(std::uint32_t space, std::uint64_t vpn, bool is_write,
                std::uint32_t thread)
{
    OsTouchResult result;
    PageWalker &table = tableOf(thread);
    const std::uint64_t key = pageKey(space, vpn);
    Cycles walk = 0;
    if (table.lookup(key, result.pfn, walk)) {
        result.stall_cycles = walk;
        markAccess(result.pfn, is_write);
        stall_cycles_.inc(result.stall_cycles);
        return result;
    }

    // Absent page: the failed walk is already paid. Under the OS model
    // a fault's service time follows, then reclaim if the pool is full.
    result.stall_cycles = walk;
    if (finite()) {
        result.major_fault = rng_.chance(config_.major_fault_frac);
        result.minor_fault = !result.major_fault;
        if (result.major_fault) {
            major_faults_.inc();
            result.stall_cycles += config_.major_fault_cycles;
        } else {
            minor_faults_.inc();
            result.stall_cycles += config_.minor_fault_cycles;
        }
    }

    bool evicted = false;
    OsVictim victim;
    result.pfn = pool_.acquire(space, vpn, is_write, evicted, victim);
    if (evicted) {
        result.reclaimed = true;
        reclaims_.inc();
        result.stall_cycles += config_.reclaim_cycles;
        if (victim.dirty) {
            result.wrote_back = true;
            writebacks_.inc();
            result.stall_cycles += config_.writeback_cycles;
        }
        const std::uint64_t victim_key =
            osPageKey(victim.space, victim.vpn);
        table.unmap(victim_key);
        for (Tlb *tlb : tlbs_) {
            if (tlb->invalidate(victim_key))
                shootdowns_.inc();
        }
    }
    table.map(key, result.pfn);
    stall_cycles_.inc(result.stall_cycles);
    return result;
}

std::uint64_t
OsKernel::pagesMapped() const
{
    std::uint64_t pages = 0;
    for (const auto &table : tables_)
        pages += table->pagesMapped();
    return pages;
}

void
OsKernel::registerStats(StatRegistry &registry,
                        const std::string &prefix) const
{
    if (!finite()) {
        pool_.registerStats(registry, prefix);
        for (std::size_t t = 0; t < tables_.size(); ++t)
            tables_[t]->registerStats(registry,
                                      prefix + ".t" + std::to_string(t));
        return;
    }
    registry.add(prefix + ".minor_faults", minor_faults_);
    registry.add(prefix + ".major_faults", major_faults_);
    registry.add(prefix + ".reclaims", reclaims_);
    registry.add(prefix + ".writebacks", writebacks_);
    registry.add(prefix + ".shootdowns", shootdowns_);
    registry.add(prefix + ".stall_cycles", stall_cycles_);
    tables_.front()->registerStats(registry, prefix);
}

void
OsKernel::saveState(SnapshotWriter &w) const
{
    pool_.saveState(w);
    for (const auto &table : tables_)
        table->saveState(w);
    for (const std::uint64_t word : rng_.state())
        w.u64(word);
    w.u64(minor_faults_.value());
    w.u64(major_faults_.value());
    w.u64(reclaims_.value());
    w.u64(writebacks_.value());
    w.u64(shootdowns_.value());
    w.u64(stall_cycles_.value());
}

void
OsKernel::loadState(SnapshotReader &r)
{
    pool_.loadState(r);
    for (const auto &table : tables_)
        table->loadState(r);
    std::array<std::uint64_t, 4> state;
    for (std::uint64_t &word : state)
        word = r.u64();
    rng_.setState(state);
    minor_faults_.restore(r.u64());
    major_faults_.restore(r.u64());
    reclaims_.restore(r.u64());
    writebacks_.restore(r.u64());
    shootdowns_.restore(r.u64());
    stall_cycles_.restore(r.u64());
}

} // namespace asd
