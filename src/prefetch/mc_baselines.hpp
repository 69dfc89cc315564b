#ifndef ASD_PREFETCH_MC_BASELINES_HPP
#define ASD_PREFETCH_MC_BASELINES_HPP

/**
 * @file
 * The two memory-controller-resident baseline prefetchers of Fig. 11:
 * a next-line prefetcher and a Power5-style stream prefetcher, both
 * running "no ASD + adaptive scheduling". They share ASD's prefetch
 * buffer and Adaptive Scheduling machinery so the comparison isolates
 * the stream-detection policy itself.
 */

#include <cstdint>
#include <vector>

#include "core/adaptive_scheduler.hpp"
#include "core/asd_config.hpp"
#include "core/prefetch_buffer.hpp"
#include "core/stream_filter.hpp"
#include "mc/prefetcher_iface.hpp"

namespace asd
{

/**
 * Shared plumbing for MC-resident baselines: prefetch buffer,
 * adaptive scheduling, write invalidation. Subclasses only override
 * the candidate-generation policy.
 */
class BufferedMcPrefetcher : public MemSidePrefetcher
{
  public:
    explicit BufferedMcPrefetcher(const AsdConfig &config);

    void observeWrite(LineAddr line, Cycle now) override;
    bool lookupBuffer(LineAddr line) override;
    bool bufferContains(LineAddr line) const override;
    void fillBuffer(LineAddr line, Cycle now) override;
    int schedulingPolicy() const override;
    void notifyPrefetchConflict(Cycle now) override;
    void tick(Cycle now) override;
    Cycle nextEventAt(Cycle now) const override;

    /**
     * Checkpoint the shared plumbing (buffer, adaptive scheduler,
     * epoch read count). Subclasses with policy state of their own
     * override and call the base first.
     */
    void saveState(SnapshotWriter &w) const override;
    void loadState(SnapshotReader &r) override;

    const PrefetchBuffer &buffer() const { return buffer_; }

  protected:
    /** Count a read toward the Adaptive Scheduling epoch. */
    void countReadForEpoch();

    AsdConfig config_;
    PrefetchBuffer buffer_;
    AdaptiveScheduler sched_;

  private:
    std::uint32_t epoch_reads_seen_ = 0;
};

/** Prefetch line + 1 on every read ("no ASD + next-line"). */
class NextLineMcPrefetcher : public BufferedMcPrefetcher
{
  public:
    explicit NextLineMcPrefetcher(const AsdConfig &config)
        : BufferedMcPrefetcher(config)
    {}

    std::vector<LineAddr> observeRead(LineAddr line,
                                      std::uint32_t thread,
                                      Cycle now) override;
};

/**
 * Power5-style stream prefetching transplanted into the memory
 * controller: confirm a stream on two sequential reads, then keep
 * prefetching one line ahead until the stream dies (its inevitable
 * end-of-stream overshoot is exactly what ASD eliminates).
 */
class P5StyleMcPrefetcher : public BufferedMcPrefetcher
{
  public:
    explicit P5StyleMcPrefetcher(const AsdConfig &config);

    std::vector<LineAddr> observeRead(LineAddr line,
                                      std::uint32_t thread,
                                      Cycle now) override;

    void tick(Cycle now) override;
    Cycle nextEventAt(Cycle now) const override;

    void saveState(SnapshotWriter &w) const override;
    void loadState(SnapshotReader &r) override;

  private:
    std::vector<StreamFilter> filters_; //!< one per thread
};

} // namespace asd

#endif // ASD_PREFETCH_MC_BASELINES_HPP
