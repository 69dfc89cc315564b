#ifndef ASD_OS_PAGE_WALKER_HPP
#define ASD_OS_PAGE_WALKER_HPP

/**
 * @file
 * Page-table organizations. Every translation is walked through one
 * of these: a radix-style map with a fixed walk latency (the plain VM
 * layer's private per-thread tables, and the OS model's default), or
 * a hashed/inverted table whose lookup cost grows with the probe
 * chain, so collisions under memory pressure cost real cycles. The
 * OS model selects its shared table via VmConfig::walker.
 */

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "os/vm_config.hpp"
#include "snapshot/snapshot.hpp"

namespace asd
{

/** Bits of a page key reserved for the virtual page number. */
inline constexpr std::uint32_t kOsVpnBits = 40;

/**
 * Compose an address-space id and a virtual page number into the
 * single key the walkers and TLBs operate on. Keeping tenants apart
 * in the key space means one tenant's translations can never alias
 * another's.
 */
inline std::uint64_t
osPageKey(std::uint32_t space, std::uint64_t vpn)
{
    return (static_cast<std::uint64_t>(space) << kOsVpnBits) | vpn;
}

/** Abstract page-table organization. */
class PageWalker : public Snapshottable
{
  public:
    virtual ~PageWalker() = default;

    /**
     * Walk the table for @p key.
     * @param pfn filled with the frame on a hit.
     * @param walk_cycles set to the walk cost (charged on hit *and*
     *        miss — a fault first discovers the page is absent).
     * @retval false when no mapping exists (page fault).
     */
    virtual bool lookup(std::uint64_t key, std::uint64_t &pfn,
                        Cycles &walk_cycles) = 0;

    /** Install @p key -> @p pfn; the key must not be mapped. */
    virtual void map(std::uint64_t key, std::uint64_t pfn) = 0;

    /** Remove @p key (reclaim); the key must be mapped. */
    virtual void unmap(std::uint64_t key) = 0;

    /** Live mappings. */
    virtual std::uint64_t mapped() const = 0;

    /** Distinct pages ever mapped. */
    std::uint64_t pagesMapped() const { return pages_mapped_.value(); }

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

  protected:
    Counter pages_mapped_;
};

/**
 * Radix-style organization: a hashed map standing in for the
 * multi-level tree, every walk costing the same @p walk_cycles. It
 * is only point-queried, so the map is sorted only when saved.
 */
class RadixWalker : public PageWalker
{
  public:
    explicit RadixWalker(Cycles walk_cycles);

    bool lookup(std::uint64_t key, std::uint64_t &pfn,
                Cycles &walk_cycles) override;
    void map(std::uint64_t key, std::uint64_t pfn) override;
    void unmap(std::uint64_t key) override;
    std::uint64_t mapped() const override { return map_.size(); }

    void saveState(SnapshotWriter &w) const override;
    void loadState(SnapshotReader &r) override;

  private:
    // asdlint:allow(snapshot-field-coverage): fixed walk latency from config, set at construction
    Cycles walk_cycles_;
    std::unordered_map<std::uint64_t, std::uint64_t> map_;
};

/**
 * Hashed/inverted organization: buckets of collision chains, walk
 * cost proportional to the probes performed. A miss walks the whole
 * chain before faulting.
 */
class HashedWalker : public PageWalker
{
  public:
    /**
     * @param buckets chain-anchor count, rounded up to a power of
     *        two; sized from the frame pool (an inverted table has
     *        one entry per frame).
     * @param probe_cycles cost per chain entry probed.
     */
    HashedWalker(std::uint64_t buckets, Cycles probe_cycles);

    bool lookup(std::uint64_t key, std::uint64_t &pfn,
                Cycles &walk_cycles) override;
    void map(std::uint64_t key, std::uint64_t pfn) override;
    void unmap(std::uint64_t key) override;
    std::uint64_t mapped() const override { return mapped_; }

    void saveState(SnapshotWriter &w) const override;
    void loadState(SnapshotReader &r) override;

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint64_t pfn = 0;
    };

    std::size_t bucketOf(std::uint64_t key) const;

    // asdlint:allow(snapshot-field-coverage): per-probe latency from config, set at construction
    Cycles probe_cycles_;
    std::vector<std::vector<Entry>> buckets_;
    std::uint64_t mapped_ = 0;
};

/** Build the walker VmConfig::walker selects. */
std::unique_ptr<PageWalker> makePageWalker(const VmConfig &vm,
                                           Cycles hashed_probe_cycles,
                                           std::uint64_t frames);

} // namespace asd

#endif // ASD_OS_PAGE_WALKER_HPP
