#include "os/tlb.hpp"

#include "common/log.hpp"

namespace asd
{

Tlb::Tlb(const TlbConfig &config) : config_(config)
{
    if (config_.entries == 0 || config_.ways == 0)
        fatal("vm: TLB entries and ways must be positive");
    if (config_.entries % config_.ways != 0)
        fatal("vm: TLB ways must divide entries");
    sets_ = config_.entries / config_.ways;
    entries_.resize(config_.entries);
}

std::size_t
Tlb::setIndex(std::uint64_t vpn) const
{
    return static_cast<std::size_t>(vpn % sets_);
}

Tlb::Entry *
Tlb::find(std::uint64_t vpn)
{
    Entry *set = &entries_[setIndex(vpn) * config_.ways];
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
        if (set[w].valid && set[w].vpn == vpn)
            return &set[w];
    }
    return nullptr;
}

const Tlb::Entry *
Tlb::find(std::uint64_t vpn) const
{
    const Entry *set = &entries_[setIndex(vpn) * config_.ways];
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
        if (set[w].valid && set[w].vpn == vpn)
            return &set[w];
    }
    return nullptr;
}

std::optional<std::uint64_t>
Tlb::lookup(std::uint64_t vpn)
{
    if (Entry *entry = find(vpn)) {
        entry->lru = ++clock_;
        hits_.inc();
        return entry->pfn;
    }
    misses_.inc();
    return std::nullopt;
}

void
Tlb::insert(std::uint64_t vpn, std::uint64_t pfn)
{
    if (Entry *entry = find(vpn)) {
        entry->pfn = pfn;
        entry->lru = ++clock_;
        return;
    }
    Entry *set = &entries_[setIndex(vpn) * config_.ways];
    Entry *victim = &set[0];
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lru < victim->lru)
            victim = &set[w];
    }
    if (victim->valid)
        evictions_.inc();
    victim->vpn = vpn;
    victim->pfn = pfn;
    victim->lru = ++clock_;
    victim->valid = true;
}

bool
Tlb::probe(std::uint64_t vpn) const
{
    return find(vpn) != nullptr;
}

bool
Tlb::invalidate(std::uint64_t vpn)
{
    Entry *entry = find(vpn);
    if (entry == nullptr)
        return false;
    entry->valid = false;
    evictions_.inc();
    return true;
}

void
Tlb::registerStats(StatRegistry &registry,
                   const std::string &prefix) const
{
    registry.add(prefix + ".hits", hits_);
    registry.add(prefix + ".misses", misses_);
    registry.add(prefix + ".evictions", evictions_);
}

void
Tlb::saveState(SnapshotWriter &w) const
{
    w.u64(entries_.size());
    for (const Entry &entry : entries_) {
        w.u64(entry.vpn);
        w.u64(entry.pfn);
        w.u64(entry.lru);
        w.b(entry.valid);
    }
    w.u64(clock_);
    w.u64(hits_.value());
    w.u64(misses_.value());
    w.u64(evictions_.value());
}

void
Tlb::loadState(SnapshotReader &r)
{
    SnapshotReader::check(r.u64() == entries_.size(),
                          "TLB geometry mismatch");
    for (Entry &entry : entries_) {
        entry.vpn = r.u64();
        entry.pfn = r.u64();
        entry.lru = r.u64();
        entry.valid = r.b();
    }
    clock_ = r.u64();
    hits_.restore(r.u64());
    misses_.restore(r.u64());
    evictions_.restore(r.u64());
}

} // namespace asd
