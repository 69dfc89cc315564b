#ifndef ASD_SIM_SYSTEM_HPP
#define ASD_SIM_SYSTEM_HPP

/**
 * @file
 * Full-system wiring: trace CPUs -> cache hierarchy -> memory
 * controller (+ memory-side prefetcher) -> DDR2 DRAM, with the
 * processor-side prefetcher and writeback plumbing. One System
 * instance simulates one benchmark run in one configuration.
 */

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/hierarchy.hpp"
#include "common/stats.hpp"
#include "core/asd_prefetcher.hpp"
#include "cpu/trace_cpu.hpp"
#include "dram/dram.hpp"
#include "dram/power.hpp"
#include "mc/memory_controller.hpp"
#include "prefetch/mc_baselines.hpp"
#include "prefetch/ps_prefetcher.hpp"
#include "os/kernel.hpp"
#include "os/mmu.hpp"
#include "sim/metrics.hpp"
#include "sim/system_config.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/recorder.hpp"

namespace asd
{

/** A complete simulated machine. */
class System : public MemPort
{
  public:
    /**
     * @param traces one trace per hardware thread (1 = single
     *        threaded, 2 = the paper's SMT experiments). Pointers
     *        must outlive the System.
     */
    System(const SystemConfig &config,
           std::vector<TraceSource *> traces);

    /** Run to completion and report. */
    RunMetrics run();

    /**
     * Advance the machine until everything is done or @p target is
     * reached (whichever comes first; pass kNoCycle for "run to
     * completion"). Resumable: calling runUntil(kNoCycle) after
     * runUntil(C) produces the exact cycle-by-cycle evolution of a
     * single uninterrupted run — the checkpoint/restore path depends
     * on this.
     */
    void runUntil(Cycle target);

    /** Summarize the machine as it stands now (run() = runUntil +
     *  collectMetrics). */
    RunMetrics collectMetrics() const;

    // Checkpoint/restore --------------------------------------------
    /**
     * Serialize the complete machine state into @p w as named
     * sections ("sys", "cpu<t>", "cache", "mc", "dram", plus "ms",
     * "ps<t>", "vm", "tel" when those layers are present; "vm" holds
     * the translation layer, VM or OS model). The caller owns the
     * surrounding file format (config hash, metadata).
     * Deterministic: saving twice from the same state yields
     * byte-identical payloads.
     */
    void saveSnapshot(SnapshotWriter &w) const;

    /**
     * Restore state saved by saveSnapshot into a System built from an
     * equivalent SystemConfig and identical traces. Throws
     * SnapshotError when the snapshot's shape does not match this
     * machine (section missing, table size mismatch, value out of
     * range).
     */
    void loadSnapshot(SnapshotReader &r);

    // MemPort interface (called by the trace CPUs) ------------------
    bool demandRead(LineAddr line, std::uint32_t thread,
                    bool is_rfo) override;
    void psPrefetch(LineAddr line, std::uint32_t thread,
                    bool to_l1) override;

    // Introspection for benches/tests -------------------------------
    const MemoryController &mc() const { return mc_; }

    /**
     * Mutable controller access for experiment harnesses that
     * interpose on the prefetcher interface (e.g. the Fig. 16 SLH
     * accuracy probe taps the controller-visible read stream).
     */
    MemoryController &mc() { return mc_; }
    const Dram &dram() const { return dram_; }
    const CacheHierarchy &hierarchy() const { return hierarchy_; }
    const StatRegistry &stats() const { return registry_; }

    /** Non-null when the MC prefetcher is ASD. */
    AsdPrefetcher *asd() { return asd_.get(); }
    const AsdPrefetcher *asd() const { return asd_.get(); }

    /**
     * Non-null when SystemConfig::telemetry.enabled and the MC
     * prefetcher is ASD (epochs are an ASD notion).
     */
    const TelemetryRecorder *telemetry() const
    {
        return telemetry_.get();
    }

    /** Thread @p t's MMU; null when addresses are untranslated. */
    const Mmu *mmu(std::uint32_t t) const
    {
        return t < mmus_.size() ? mmus_[t].get() : nullptr;
    }

    /**
     * The translation kernel (VM layer or OS model); null when
     * addresses are untranslated.
     */
    const OsKernel *kernel() const { return kernel_.get(); }

    /**
     * Forward a tenant-counter sampler to the telemetry recorder so
     * per-epoch records carry arrival/departure columns (the System
     * itself never sees the trace-source type). No-op when telemetry
     * is off; install before the first epoch completes.
     */
    void setTenantProbe(std::function<TenantTelemetrySample()> probe)
    {
        if (telemetry_)
            telemetry_->setTenantProbe(std::move(probe));
    }

    Cycle nowCycle() const { return now_; }

    // Tuner hooks ---------------------------------------------------
    /**
     * Install a callback fired at every ASD epoch boundary, AFTER the
     * telemetry recorder (when present) has appended its record — so
     * the hook can read the freshly completed epoch via telemetry().
     * No-op when the MC prefetcher is not ASD (epochs are an ASD
     * notion). At most one System-level hook; installing replaces.
     */
    void setEpochEndHook(std::function<void(Cycle)> hook);

    /**
     * Install a callback fired once per runUntil loop iteration, after
     * the target-break check and before the machine ticks. Placing it
     * after the break means a run split at cycle T and resumed
     * services a pending callback at the identical iteration an
     * uninterrupted run would — the tuner's reconfiguration point
     * depends on this for checkpoint determinism.
     */
    void setLoopHook(std::function<void(Cycle)> hook);

  private:
    void onReadDone(std::uint64_t id, Cycle done);
    void drainWritebacks();
    bool everythingDone() const;
    Cycles fastForwardable() const;

    /**
     * End of warm-up: let the controller see its prefetcher and
     * re-anchor telemetry so epoch deltas exclude warm-up activity.
     */
    void armPrefetcher();

    /** The active memory-side prefetcher, whichever kind it is. */
    MemSidePrefetcher *msPrefetcher() const;

    SystemConfig config_;
    Dram dram_;
    MemoryController mc_;
    CacheHierarchy hierarchy_;

    std::unique_ptr<AsdPrefetcher> asd_;
    std::unique_ptr<TelemetryRecorder> telemetry_;
    std::function<void(Cycle)> epoch_hook_; //!< after telemetry
    std::function<void(Cycle)> loop_hook_;  //!< top of runUntil loop
    std::unique_ptr<BufferedMcPrefetcher> baseline_;
    const PrefetchBuffer *buffer_ = nullptr; //!< whichever is active

    std::vector<std::unique_ptr<CpuPrefetcher>> ps_;

    /** Shared kernel + per-thread MMUs (VM layer or OS model). */
    std::unique_ptr<OsKernel> kernel_;
    std::vector<std::unique_ptr<Mmu>> mmus_;

    std::vector<std::unique_ptr<TraceCpu>> cpus_;

    std::deque<LineAddr> pending_writebacks_;
    Cycle now_ = 0;

    /**
     * Processor-side prefetch reads currently in flight, and demand
     * requests merged onto them (MSHR-style: a demand miss to a line
     * already being prefetched waits for that fill instead of
     * re-fetching it).
     */
    std::unordered_set<LineAddr> ps_inflight_;
    std::unordered_map<LineAddr, std::vector<std::uint64_t>>
        ps_waiters_;

    StatRegistry registry_;
    Counter ps_prefetch_reads_;
    Counter ps_prefetch_l3_fills_;
    Counter ps_prefetch_dropped_;
    Counter ps_merged_demands_;
};

} // namespace asd

#endif // ASD_SIM_SYSTEM_HPP
