#ifndef ASD_TUNER_TUNED_RUN_HPP
#define ASD_TUNER_TUNED_RUN_HPP

/**
 * @file
 * The online phase-adaptive reconfiguration loop: one TunedRun wraps
 * one live System and closes the control loop
 *
 *     telemetry epoch -> PhaseDetector -> (phase change?)
 *         -> snapshot + ShadowTuner fork race -> adopt winner
 *         -> System::applyTuning on the live machine
 *
 * Decisions are *detected* at epoch boundaries (inside the machine's
 * tick) but *applied* at the top of the next runUntil iteration via
 * the System loop hook — a clean cycle boundary that a checkpointed
 * run resumes at exactly, so tuned runs checkpoint/restore
 * byte-identically. One shadow horizon after each decision the
 * realized live progress is recorded against the winner's prediction
 * (TunerDecision::realized_accesses).
 *
 * Requirements: the memory-side prefetcher must be ASD (epochs and
 * the apply-path are ASD notions) and the run is single-threaded
 * (no SMT). Telemetry is forced on internally — the recorder only
 * reads the machine, so results are unchanged — but the caller's
 * RunOptions are reported unmodified.
 */

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "tuner/phase_detector.hpp"
#include "tuner/shadow_tuner.hpp"
#include "tuner/tuner_recorder.hpp"
#include "workloads/profiles.hpp"

namespace asd
{

/** Everything a finished tuned run produced. */
struct TunedRunResult
{
    RunMetrics metrics;
    std::vector<EpochRecord> epochs;
    std::vector<TunerDecision> decisions;
};

/** One benchmark run under the phase-adaptive tuner. */
class TunedRun
{
  public:
    /**
     * @p options.tuner.enabled must be set; fatal() otherwise.
     * @p total_accesses pins the exact trace length (snapshot
     *    restore); 0 derives it from options/ASD_BENCH_SCALE.
     */
    TunedRun(const Benchmark &bench, const RunOptions &options,
             std::uint64_t total_accesses = 0);

    /** Run to completion and report. */
    TunedRunResult run();

    /** Advance to @p target (kNoCycle = completion); resumable. */
    void runUntil(Cycle target);

    TunedRunResult result() const;

    System &system() { return run_->system(); }
    const System &system() const { return run_->system(); }

    const TunerRecorder &recorder() const { return recorder_; }

    /**
     * Serialize controller state (a "tun" section: adopted tuning,
     * phase detector, decision log, pending work) followed by the
     * live machine's sections. finish()/config-hash handling belongs
     * to the caller, as with System::saveSnapshot.
     */
    void saveSnapshot(SnapshotWriter &w) const;

    /**
     * Restore a tuned checkpoint. Reads the "tun" section first to
     * learn the tuning adopted before the save, rebuilds the live
     * machine in that shape, then restores it — the same two-step
     * the shadow forks use. The TunedRun must have been constructed
     * from the identical benchmark and options.
     */
    void loadSnapshot(SnapshotReader &r);

  private:
    void buildSystem(const AsdTuning &tuning);
    void installHooks();
    void onEpochEnd(Cycle now);
    void onLoopTop(Cycle now);
    void decide(Cycle now);
    std::uint64_t liveAccesses() const;

    Benchmark bench_;
    RunOptions options_;
    SystemConfig sys_config_; //!< telemetry forced on
    std::uint64_t accesses_; //!< pinned trace length, 0 = derived

    /** The live run, rebuilt in the adopted shape on a restore. */
    std::unique_ptr<BenchmarkRun> run_;
    std::unique_ptr<ShadowTuner> shadow_;
    PhaseDetector detector_;
    TunerRecorder recorder_;

    AsdTuning current_;

    // Controller state (snapshotted in the "tun" section).
    bool pending_decision_ = false;
    std::uint64_t pending_epoch_ = 0;
    std::uint64_t pending_phase_ = 0;
    std::uint64_t epochs_since_decision_ = 0;
    std::uint64_t decisions_made_ = 0;

    /** Decisions awaiting their realized measurement. */
    struct PendingRealize
    {
        std::uint64_t decision = 0;
        Cycle due = 0;
    };
    std::deque<PendingRealize> realize_queue_;
};

} // namespace asd

#endif // ASD_TUNER_TUNED_RUN_HPP
