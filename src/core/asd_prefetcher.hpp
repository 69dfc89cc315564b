#ifndef ASD_CORE_ASD_PREFETCHER_HPP
#define ASD_CORE_ASD_PREFETCHER_HPP

/**
 * @file
 * The Adaptive Stream Detection memory-side prefetcher (the paper's
 * primary contribution, sections 3.1-3.5) packaged behind the memory
 * controller's MemSidePrefetcher interface.
 *
 * Per hardware thread: one Stream Filter and one LHTcurr/LHTnext pair
 * per stream direction. Shared across threads: the Prefetch Buffer
 * and the Adaptive Scheduling policy selector. Epochs are counted in
 * Read commands observed by the controller.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "core/adaptive_scheduler.hpp"
#include "core/asd_config.hpp"
#include "core/likelihood_table.hpp"
#include "core/prefetch_buffer.hpp"
#include "core/stream_filter.hpp"
#include "mc/prefetcher_iface.hpp"

namespace asd
{

/** Snapshot of one epoch's Stream Length Histogram (both directions). */
struct SlhSnapshot
{
    std::uint64_t epoch = 0;
    std::vector<std::uint64_t> positive; //!< stream-count lht()
    std::vector<std::uint64_t> negative;
};

/** The ASD prefetcher. */
class AsdPrefetcher : public MemSidePrefetcher
{
  public:
    explicit AsdPrefetcher(const AsdConfig &config);

    // MemSidePrefetcher interface ------------------------------------
    std::vector<LineAddr> observeRead(LineAddr line,
                                      std::uint32_t thread,
                                      Cycle now) override;
    void observeWrite(LineAddr line, Cycle now) override;
    bool lookupBuffer(LineAddr line) override;
    bool bufferContains(LineAddr line) const override;
    void fillBuffer(LineAddr line, Cycle now) override;
    int schedulingPolicy() const override;
    void notifyPrefetchConflict(Cycle now) override;
    void tick(Cycle now) override;
    Cycle nextEventAt(Cycle now) const override;
    void saveState(SnapshotWriter &w) const override;
    void loadState(SnapshotReader &r) override;

    // Introspection for figures, benches and tests -------------------

    /**
     * Called once per epoch boundary, after the SLH swap and the
     * Adaptive Scheduling policy step, with the boundary cycle. The
     * telemetry recorder hangs off this; at most one hook.
     */
    void
    setEpochEndHook(std::function<void(Cycle)> hook)
    {
        epoch_end_hook_ = std::move(hook);
    }

    /** Keep per-epoch SLH snapshots (costs memory; off by default). */
    void enableSlhHistory(std::size_t max_epochs);

    /** Recorded epoch SLHs (oldest first). */
    const std::vector<SlhSnapshot> &slhHistory() const
    {
        return slh_history_;
    }

    /** Stream-length histogram over every completed stream. */
    const Histogram &streamLengthHist() const { return stream_hist_; }

    /** Live LHTcurr of @p thread in direction @p dir. */
    const LikelihoodTable &lhtCurr(std::uint32_t thread,
                                   StreamDir dir) const;

    const PrefetchBuffer &buffer() const { return buffer_; }
    const AdaptiveScheduler &scheduler() const { return sched_; }
    std::uint64_t epochsCompleted() const { return epochs_done_; }
    std::uint32_t threadCount() const
    {
        return static_cast<std::uint32_t>(threads_.size());
    }

    // Raw counter values (telemetry recorder takes per-epoch deltas).
    std::uint64_t suggested() const
    {
        return prefetches_suggested_.value();
    }
    std::uint64_t suppressed() const
    {
        return decisions_negative_.value();
    }
    std::uint64_t overflowReads() const
    {
        return overflow_reads_.value();
    }
    std::uint64_t streamMerges() const
    {
        return stream_merges_.value();
    }

    /** LHT depletion clamps summed over threads and directions. */
    std::uint64_t lhtUnderflowClamps() const;

    void registerStats(StatRegistry &registry,
                       const std::string &prefix) const;

    const AsdConfig &config() const { return config_; }

    // Online reconfiguration -----------------------------------------

    /**
     * Apply a new tuning to the live prefetcher, preserving trained
     * state wherever the shape allows:
     *  - max_degree / epoch_reads change in place (an epoch already
     *    longer than the new length ends on the next read);
     *  - the Stream Filter resizes per thread, folding any streams a
     *    shrink drops into the SLH as dead streams;
     *  - the Prefetch Buffer rebuilds at the new capacity keeping
     *    resident lines by recency (a shrink evicts the oldest);
     *  - the scheduler swaps policy configuration, keeping the
     *    current policy as the walk position unless newly pinned.
     * LHT depth, lifetimes, ways and thread count are NOT tunable —
     * the likelihood tables and stream histogram are keyed on them.
     * Inside a System, call System::applyTuning, which also makes the
     * controller tick.
     */
    void applyTuning(const AsdTuning &tuning);

    /** The tuning currently in force. */
    AsdTuning currentTuning() const { return tuningOf(config_); }

  private:
    struct ThreadState
    {
        ThreadState(const AsdConfig &config);

        StreamFilter filter;
        LikelihoodTablePair positive;
        LikelihoodTablePair negative;
    };

    LikelihoodTablePair &tables(ThreadState &state, StreamDir dir);

    /** Fold a dead stream into histograms and LHTs. */
    void streamDied(ThreadState &state, const DeadStream &dead);

    /** Run the prefetch decision for the k-th element of a stream. */
    void decide(ThreadState &state, const StreamObservation &obs,
                LineAddr line, std::vector<LineAddr> &out);

    void endEpoch(Cycle now);

    AsdConfig config_;
    std::vector<std::unique_ptr<ThreadState>> threads_;
    PrefetchBuffer buffer_;
    AdaptiveScheduler sched_;

    std::uint32_t reads_this_epoch_ = 0;
    std::uint64_t epochs_done_ = 0;

    Histogram stream_hist_;
    std::vector<SlhSnapshot> slh_history_;
    std::size_t slh_history_cap_ = 0;

    Counter prefetches_suggested_;
    Counter decisions_negative_;
    Counter overflow_reads_;
    Counter stream_merges_;  //!< filter slots retired by convergence
    Counter lht_underflow_;  //!< mirror of lhtUnderflowClamps()

    std::function<void(Cycle)> epoch_end_hook_;
};

} // namespace asd

#endif // ASD_CORE_ASD_PREFETCHER_HPP
