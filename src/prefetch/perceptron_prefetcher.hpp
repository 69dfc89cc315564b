#ifndef ASD_PREFETCH_PERCEPTRON_PREFETCHER_HPP
#define ASD_PREFETCH_PERCEPTRON_PREFETCHER_HPP

/**
 * @file
 * A perceptron-filtered stream prefetcher (after Bhatia et al.'s
 * perceptron-based prefetch filtering) in the memory controller. A
 * P5-style per-thread Stream Filter proposes up to `degree` lines
 * ahead of every confirmed stream; each candidate is then scored by a
 * hashed perceptron — a sum of small integer weights selected by
 * feature values — and issued only when the sum clears a threshold.
 *
 * The filter trains itself online from prefetch outcomes:
 *  - an issued prefetch consumed by a demand read was useful ->
 *    weights move positive;
 *  - an issued prefetch still unconsumed after a window of reads was
 *    useless -> weights move negative;
 *  - a *suppressed* candidate demanded within the window was a false
 *    rejection -> weights move positive, re-opening the spigot.
 *
 * All state is integer, fixed-size, and snapshottable; decisions are
 * a pure function of machine state, so runs are deterministic.
 */

#include <cstdint>
#include <vector>

#include "core/stream_filter.hpp"
#include "prefetch/mc_baselines.hpp"

namespace asd
{

/** Perceptron-filter geometry and training parameters. */
struct PerceptronConfig
{
    /** Weight-table rows per feature (power of two). */
    std::uint32_t table_size = 128;

    /** Weights saturate at +/- this magnitude. */
    std::int32_t weight_max = 31;

    /** Issue a candidate when its weight sum >= this. */
    std::int32_t threshold = 0;

    /**
     * Stop reinforcing once |sum| exceeds this margin and the
     * decision was already correct (perceptron-with-margin rule;
     * keeps weights from saturating on easy streams).
     */
    std::int32_t train_margin = 16;

    /** In-flight prefetch/rejection records. */
    std::uint32_t pending_entries = 64;

    /** Reads before an unconsumed record trains negative. */
    std::uint64_t pending_window_reads = 512;

    /** Candidate lines proposed per confirmed stream extension. */
    std::uint32_t degree = 2;
};

/** The MC-resident perceptron-filtered stream prefetcher. */
class PerceptronMcPrefetcher : public BufferedMcPrefetcher
{
  public:
    PerceptronMcPrefetcher(const AsdConfig &shared,
                           const PerceptronConfig &config);

    std::vector<LineAddr> observeRead(LineAddr line,
                                      std::uint32_t thread,
                                      Cycle now) override;

    /** Buffer consumption = positive outcome for the issued record. */
    bool lookupBuffer(LineAddr line) override;

    void tick(Cycle now) override;
    Cycle nextEventAt(Cycle now) const override;

    void saveState(SnapshotWriter &w) const override;
    void loadState(SnapshotReader &r) override;

    /** Perceptron score a candidate would get right now (tests). */
    std::int32_t score(LineAddr candidate, std::uint64_t stream_len,
                       StreamDir dir, std::uint32_t distance) const;

    /** Records currently awaiting an outcome (tests). */
    std::size_t pendingCount() const;

  private:
    static constexpr std::uint32_t kFeatures = 4;

    /** An issued or suppressed candidate awaiting its outcome. */
    struct Pending
    {
        LineAddr line = 0;
        std::uint32_t feature_rows[kFeatures] = {};
        std::uint64_t born = 0; //!< in observed reads
        bool issued = false;
        bool valid = false;
    };

    /** Weight-table rows for one candidate's feature values. */
    void featureRows(LineAddr candidate, std::uint64_t stream_len,
                     StreamDir dir, std::uint32_t distance,
                     std::uint32_t rows[kFeatures]) const;

    std::int32_t sumRows(const std::uint32_t rows[kFeatures]) const;

    /** Saturating weight update along @p rows. */
    void trainRows(const std::uint32_t rows[kFeatures], bool useful);

    /** Resolve (train + free) any pending record for @p line. */
    void resolveDemand(LineAddr line);

    /** Age out records past the window, training them negative. */
    void expirePending();

    /** Track a decision in the pending table (evicting the oldest). */
    void remember(LineAddr line, const std::uint32_t rows[kFeatures],
                  bool issued);

    PerceptronConfig config_;
    std::vector<StreamFilter> filters_;       //!< one per thread
    std::vector<std::int32_t> weights_;       //!< kFeatures tables
    std::vector<Pending> pending_;
    std::uint64_t reads_seen_ = 0;
};

} // namespace asd

#endif // ASD_PREFETCH_PERCEPTRON_PREFETCHER_HPP
