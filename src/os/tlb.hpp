#ifndef ASD_OS_TLB_HPP
#define ASD_OS_TLB_HPP

/**
 * @file
 * Small set-associative translation lookaside buffer with true-LRU
 * replacement, mirroring the cache tag store's structure. Entries map
 * one translation granule (a base page, or a whole huge page under
 * FrameAllocPolicy::HugePage — that coalescing is why huge pages cut
 * the miss rate so sharply). A miss costs the kernel's page-table
 * walk (and, under the OS model, any fault), charged by the CPU model
 * as an issue stall.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "os/vm_config.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

/** Tag store for translations; data payload is the frame number. */
class Tlb : public Snapshottable
{
  public:
    explicit Tlb(const TlbConfig &config);

    /**
     * Look @p vpn up; a hit refreshes LRU and returns the cached
     * frame number. Counts hits/misses.
     */
    std::optional<std::uint64_t> lookup(std::uint64_t vpn);

    /**
     * Install @p vpn -> @p pfn at MRU, evicting the set's LRU entry
     * if the set is full. Re-inserting a resident vpn updates it.
     */
    void insert(std::uint64_t vpn, std::uint64_t pfn);

    /** Tag-only probe with no LRU or counter side effects. */
    bool probe(std::uint64_t vpn) const;

    /**
     * Drop @p vpn if resident (a shootdown: the OS reclaimed the
     * backing frame). Counts as an eviction when something was
     * actually dropped.
     * @retval true when an entry was invalidated.
     */
    bool invalidate(std::uint64_t vpn);

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }

    const TlbConfig &config() const { return config_; }

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    void saveState(SnapshotWriter &w) const override;
    void loadState(SnapshotReader &r) override;

  private:
    struct Entry
    {
        std::uint64_t vpn = 0;
        std::uint64_t pfn = 0;
        std::uint64_t lru = 0; //!< larger = more recent
        bool valid = false;
    };

    std::size_t setIndex(std::uint64_t vpn) const;
    Entry *find(std::uint64_t vpn);
    const Entry *find(std::uint64_t vpn) const;

    TlbConfig config_;
    // asdlint:allow(snapshot-field-coverage): geometry (entries / ways) derived from config_ in the constructor
    std::uint64_t sets_ = 1;
    std::vector<Entry> entries_; //!< sets x ways, row-major
    std::uint64_t clock_ = 0;

    Counter hits_;
    Counter misses_;
    Counter evictions_;
};

} // namespace asd

#endif // ASD_OS_TLB_HPP
