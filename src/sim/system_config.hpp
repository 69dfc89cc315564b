#ifndef ASD_SIM_SYSTEM_CONFIG_HPP
#define ASD_SIM_SYSTEM_CONFIG_HPP

/**
 * @file
 * Top-level configuration: which prefetchers are present (the paper's
 * NP / PS / MS / PMS configurations) and the parameters of every
 * substrate.
 */

#include <cstdint>

#include "cache/hierarchy.hpp"
#include "core/asd_config.hpp"
#include "cpu/trace_cpu.hpp"
#include "dram/dram_config.hpp"
#include "mc/memory_controller.hpp"
#include "os/os_config.hpp"
#include "os/vm_config.hpp"
#include "prefetch/asd_ps_prefetcher.hpp"
#include "prefetch/dspatch_prefetcher.hpp"
#include "prefetch/ghb_prefetcher.hpp"
#include "prefetch/perceptron_prefetcher.hpp"
#include "prefetch/stride_prefetcher.hpp"
#include "prefetch/ps_prefetcher.hpp"
#include "sim/tuner_config.hpp"
#include "telemetry/telemetry_config.hpp"

namespace asd
{

/** The four evaluated configurations (section 5.2). */
enum class PrefetchMode : std::uint8_t
{
    NP,  //!< no prefetching
    PS,  //!< processor-side only
    MS,  //!< memory-side only
    PMS, //!< both
};

/** Which processor-side prefetcher the cores use. */
enum class PsKind : std::uint8_t
{
    Power5, //!< the paper's baseline sequential stream prefetcher
    Asd,    //!< ASD on the processor side (paper section 6 future work)
};

/** Which memory-side prefetcher sits in the controller (Fig. 11). */
enum class McPrefetcherKind : std::uint8_t
{
    Asd,      //!< Adaptive Stream Detection (the paper's design)
    NextLine, //!< no ASD + next-line + adaptive scheduling
    P5Style,  //!< no ASD + P5-style streams + adaptive scheduling
    Ghb,      //!< Global History Buffer (G/AC), related work [18]
    Stride,   //!< Baer-Chen-style stride detector, related work [2]
    Dspatch,  //!< DSPatch-style dual spatial bit-patterns (MICRO'19)
    Perceptron, //!< perceptron-filtered stream prefetching
};

/** Everything needed to build a System. */
struct SystemConfig
{
    PrefetchMode mode = PrefetchMode::PMS;
    McPrefetcherKind mc_prefetcher = McPrefetcherKind::Asd;

    PsKind ps_kind = PsKind::Power5;

    CpuConfig cpu;

    /**
     * Virtual-memory layer (per-thread TLB and page table over an
     * unbounded frame pool placing by vm.policy). Disabled by default: trace addresses reach the hierarchy
     * untranslated and results are bit-identical to a machine without
     * the layer.
     */
    VmConfig vm;

    /**
     * OS memory model (demand paging over a finite frame pool with
     * CLOCK reclaim). Mutually exclusive with the plain VM layer: the
     * OS model's finite pool replaces its unbounded placement. It reads
     * the granule, TLB geometry, and walker selection from `vm` but
     * ignores vm.enabled. Disabled by default; when off, runs are
     * bit-identical to a machine without the OS layer.
     */
    OsConfig os;

    /**
     * Per-epoch telemetry recorder (ASD memory-side prefetcher only,
     * since epochs are an ASD notion). Disabled by default; when off,
     * the recorder is never constructed and simulation output is
     * byte-identical to a build without the telemetry layer.
     */
    TelemetryConfig telemetry;

    /**
     * Phase-adaptive tuner parameters. The System itself never reads
     * these — the controller lives above the sim layer (src/tuner/)
     * and drives the machine through its public hooks — but carrying
     * them here keeps one config object describing the whole tuned
     * machine (and binds them into snapshot config hashes).
     */
    TunerConfig tuner;

    HierarchyConfig hierarchy;
    DramConfig dram;
    McConfig mc;
    AsdConfig asd;
    PsConfig ps;
    AsdPsConfig asd_ps;
    GhbConfig ghb;
    StrideConfig stride;
    DspatchConfig dspatch;
    PerceptronConfig perceptron;

    /** Simulated CPU frequency (power reporting). */
    double cpu_hz = 2.132e9;

    /** Hard stop against wedged simulations. */
    Cycle max_cycles = 400'000'000;

    /**
     * Cycles to run before the memory-side prefetcher is armed.
     * While disarmed the controller behaves exactly as if no MS
     * prefetcher were attached, so the pre-boundary machine state is
     * independent of every ASD/baseline knob — which is what lets a
     * sweep snapshot one warm-up and fork it across configurations
     * that differ only in prefetcher parameters. 0 = armed from
     * cycle 0 (the default, identical to historical behaviour).
     */
    Cycle warmup_cycles = 0;

    /**
     * Skip cycles in which no component can make progress. Purely a
     * simulation speedup; results are identical either way (tested).
     */
    bool fast_forward = true;

    /**
     * Idealized processor-side prefetching: PS requests fill the
     * caches instantly instead of travelling through the memory
     * system. A limit study knob — it bounds how much of the PS
     * configuration's shortfall is due to prefetch timing and
     * bandwidth rather than prediction quality.
     */
    bool ps_oracle = false;

    bool
    hasPs() const
    {
        return mode == PrefetchMode::PS || mode == PrefetchMode::PMS;
    }

    bool
    hasMs() const
    {
        return mode == PrefetchMode::MS || mode == PrefetchMode::PMS;
    }
};

} // namespace asd

#endif // ASD_SIM_SYSTEM_CONFIG_HPP
