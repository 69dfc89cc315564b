/**
 * @file
 * Tests for the virtual-memory layer: the frame pool's unbounded
 * placement policies and their determinism, the kernel's private
 * per-thread tables and first-touch behavior, TLB hit/miss/eviction
 * accounting, huge-page coalescing, and the two system-level
 * properties the subsystem exists for — VM off is bit-identical to
 * the untranslated simulator, and random 4 KB placement measurably
 * shortens the physical streams ASD observes.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.hpp"
#include "core/asd_prefetcher.hpp"
#include "os/frame_pool.hpp"
#include "os/kernel.hpp"
#include "os/mmu.hpp"
#include "os/tlb.hpp"
#include "sim/experiment.hpp"
#include "sim/serialize.hpp"
#include "sim/system.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/synthetic.hpp"
#include "workloads/tenant_mix.hpp"

namespace asd
{
namespace
{

VmConfig
baseVm()
{
    VmConfig vm;
    vm.enabled = true;
    vm.policy = FrameAllocPolicy::Identity;
    vm.page_bytes = 4096;
    vm.phys_bytes = 1ULL << 32;
    return vm;
}

/** Claim a frame for @p vpn from an unbounded pool (never evicts). */
std::uint64_t
place(FramePool &pool, std::uint64_t vpn)
{
    bool evicted = false;
    OsVictim victim;
    const std::uint64_t pfn = pool.acquire(0, vpn, false, evicted, victim);
    EXPECT_FALSE(evicted);
    return pfn;
}

TEST(FramePool, IdentityMapsPageToSameFrame)
{
    FramePool pool(baseVm());
    EXPECT_EQ(place(pool, 0), 0u);
    EXPECT_EQ(place(pool, 1234), 1234u);
    // Identity wraps at the physical frame count.
    const std::uint64_t frames = baseVm().frames();
    EXPECT_EQ(place(pool, frames + 7), 7u);
    EXPECT_EQ(pool.allocated(), 3u);
}

TEST(FramePool, SequentialBumpsFrames)
{
    VmConfig vm = baseVm();
    vm.policy = FrameAllocPolicy::Sequential;
    FramePool pool(vm);
    EXPECT_EQ(place(pool, 900), 0u);
    EXPECT_EQ(place(pool, 17), 1u);
    EXPECT_EQ(place(pool, 900), 2u);
}

TEST(FramePool, RandomShuffleIsDeterministicForSeed)
{
    VmConfig vm = baseVm();
    vm.policy = FrameAllocPolicy::RandomShuffle;
    vm.seed = 99;
    FramePool a(vm);
    FramePool b(vm);
    std::vector<std::uint64_t> first;
    bool any_different_seed_diff = false;
    vm.seed = 100;
    FramePool c(vm);
    for (std::uint64_t vpn = 0; vpn < 2000; ++vpn) {
        const std::uint64_t fa = place(a, vpn);
        EXPECT_EQ(fa, place(b, vpn));
        any_different_seed_diff |= fa != place(c, vpn);
        first.push_back(fa);
    }
    EXPECT_TRUE(any_different_seed_diff);
    // Frames are handed out without duplicates.
    std::sort(first.begin(), first.end());
    EXPECT_EQ(std::adjacent_find(first.begin(), first.end()),
              first.end());
}

TEST(FramePool, ExhaustionIsFatal)
{
    VmConfig vm = baseVm();
    vm.policy = FrameAllocPolicy::Sequential;
    vm.phys_bytes = 4 * vm.page_bytes; // 4 frames
    FramePool pool(vm);
    for (std::uint64_t vpn = 0; vpn < 4; ++vpn)
        place(pool, vpn);
    EXPECT_EXIT(place(pool, 4), testing::ExitedWithCode(1),
                "out of physical frames");
}

TEST(OsKernel, UnboundedFirstTouchPlacesThenStable)
{
    VmConfig vm = baseVm();
    vm.policy = FrameAllocPolicy::Sequential;
    OsKernel kernel(vm, 1);
    const OsTouchResult first = kernel.touch(0, 42, false);
    const std::uint64_t f0 = first.pfn;
    const std::uint64_t f1 = kernel.touch(0, 7, false).pfn;
    EXPECT_NE(f0, f1);
    // An unbounded pool never faults: a miss costs only the walk.
    EXPECT_EQ(first.stall_cycles, vm.tlb.walk_cycles);
    EXPECT_FALSE(first.minor_fault || first.major_fault);
    // Repeats hit the existing mapping: no new frames.
    EXPECT_EQ(kernel.touch(0, 42, false).pfn, f0);
    EXPECT_EQ(kernel.touch(0, 7, false).pfn, f1);
    EXPECT_EQ(kernel.pagesMapped(), 2u);
    EXPECT_EQ(kernel.pool().allocated(), 2u);
}

TEST(OsKernel, UnboundedThreadsGetPrivateMappings)
{
    VmConfig vm = baseVm();
    vm.policy = FrameAllocPolicy::Sequential;
    OsKernel kernel(vm, 2);
    // Same vpn, different address spaces -> different frames.
    EXPECT_NE(kernel.touch(0, 5, false, 0).pfn,
              kernel.touch(0, 5, false, 1).pfn);
}

TEST(Tlb, CountsHitsMissesAndEvictions)
{
    TlbConfig config;
    config.entries = 4;
    config.ways = 2; // 2 sets; even vpns all land in set 0
    Tlb tlb(config);

    EXPECT_FALSE(tlb.lookup(0).has_value());
    tlb.insert(0, 100);
    EXPECT_FALSE(tlb.lookup(2).has_value());
    tlb.insert(2, 102);
    ASSERT_TRUE(tlb.lookup(0).has_value());
    EXPECT_EQ(*tlb.lookup(0), 100u);

    // Set 0 is full; vpn 2 is now LRU and must be the victim.
    tlb.insert(4, 104);
    EXPECT_EQ(tlb.evictions(), 1u);
    EXPECT_TRUE(tlb.probe(0));
    EXPECT_FALSE(tlb.probe(2));
    EXPECT_TRUE(tlb.probe(4));

    EXPECT_EQ(tlb.hits(), 2u);   // the two lookups of vpn 0
    EXPECT_EQ(tlb.misses(), 2u); // vpn 0 and vpn 2 cold misses
}

TEST(Tlb, RejectsNonDividingWays)
{
    TlbConfig config;
    config.entries = 8;
    config.ways = 3;
    EXPECT_EXIT(Tlb{config}, testing::ExitedWithCode(1),
                "ways must divide");
}

/** A read of virtual byte address @p addr. */
MemAccess
readAt(Addr addr)
{
    MemAccess access;
    access.addr = addr;
    return access;
}

TEST(Mmu, ChargesWalkOnMissOnly)
{
    VmConfig vm = baseVm();
    vm.tlb.walk_cycles = 25;
    OsKernel kernel(vm, 1);
    Mmu mmu(vm, kernel, 0);

    Cycles walk = 0;
    const Addr paddr = mmu.translate(readAt(4096 + 123), walk);
    EXPECT_EQ(walk, 25u);
    EXPECT_EQ(paddr, 4096u + 123u); // identity keeps the address

    walk = 99;
    EXPECT_EQ(mmu.translate(readAt(4096 + 200), walk), 4096u + 200u);
    EXPECT_EQ(walk, 0u); // same page -> TLB hit
    EXPECT_EQ(mmu.stallCycles(), 25u);
    EXPECT_EQ(mmu.tlb().hits(), 1u);
    EXPECT_EQ(mmu.tlb().misses(), 1u);
}

TEST(Mmu, HugePagesCoalesceTranslations)
{
    VmConfig small = baseVm();
    small.policy = FrameAllocPolicy::RandomShuffle;
    VmConfig huge = baseVm();
    huge.policy = FrameAllocPolicy::HugePage;

    OsKernel small_kernel(small, 1);
    OsKernel huge_kernel(huge, 1);
    Mmu small_mmu(small, small_kernel, 0);
    Mmu huge_mmu(huge, huge_kernel, 0);

    // Touch one 4 KB page in each of 64 consecutive 32 KB strides:
    // all inside a single 2 MB region.
    for (Addr addr = 0; addr < (2ULL << 20); addr += 32 * 1024) {
        Cycles walk = 0;
        small_mmu.translate(readAt(addr), walk);
        huge_mmu.translate(readAt(addr), walk);
    }
    EXPECT_EQ(huge_kernel.pagesMapped(), 1u);
    EXPECT_EQ(small_kernel.pagesMapped(), 64u);
    EXPECT_EQ(huge_mmu.tlb().misses(), 1u);
    EXPECT_EQ(small_mmu.tlb().misses(), 64u);

    // Contiguity inside the huge page is preserved even though the
    // huge frame itself is placed randomly.
    Cycles walk = 0;
    const Addr base = huge_mmu.translate(readAt(0), walk);
    EXPECT_EQ(huge_mmu.translate(readAt(4096), walk), base + 4096);
}

/**
 * The seed-compatibility contract: a disabled VM layer must leave
 * every metric bit-identical to the pre-VM simulator, and an identity
 * mapping with free page walks only adds the (then all-hit-free) TLB
 * accounting without perturbing timing or traffic.
 */
TEST(VmSystem, DisabledAndFreeIdentityMatchBaseline)
{
    RunOptions off;
    off.accesses = 20000;

    RunOptions identity = off;
    identity.vm = baseVm();
    identity.vm.tlb.walk_cycles = 0;

    const Benchmark bench = findBenchmark("bwaves");
    const RunMetrics m_off = runBenchmark(bench, off);
    RunMetrics m_vm = runBenchmark(bench, identity);

    EXPECT_FALSE(m_off.vm_enabled);
    EXPECT_TRUE(m_vm.vm_enabled);
    EXPECT_GT(m_vm.pages_mapped, 0u);
    EXPECT_GT(m_vm.tlb_hits, 0u);

    // Blank out the VM-only counters; everything else must agree
    // exactly (cycles, power doubles, all traffic counters).
    m_vm.vm_enabled = false;
    m_vm.tlb_hits = 0;
    m_vm.tlb_misses = 0;
    m_vm.tlb_evictions = 0;
    m_vm.page_walk_cycles = 0;
    m_vm.pages_mapped = 0;
    EXPECT_EQ(m_vm, m_off);
}

TEST(VmSystem, RunsAreDeterministic)
{
    RunOptions options;
    options.accesses = 10000;
    options.vm = baseVm();
    options.vm.policy = FrameAllocPolicy::RandomShuffle;
    const Benchmark bench = findBenchmark("tpcc");
    EXPECT_EQ(runBenchmark(bench, options),
              runBenchmark(bench, options));
}

double
histMean(const Histogram &hist)
{
    double sum = 0.0;
    for (std::uint64_t len = 1; len <= hist.buckets(); ++len)
        sum += static_cast<double>(len) *
               static_cast<double>(hist.count(len));
    return sum / static_cast<double>(hist.total());
}

double
meanStreamLength(const VmConfig &vm)
{
    SyntheticConfig trace_config;
    trace_config.seed = 7;
    trace_config.total_accesses = 40000;
    trace_config.working_set_bytes = 512ULL << 20;
    trace_config.mean_gap = 4.0;
    trace_config.write_frac = 0.1;
    trace_config.concurrent_streams = 4;
    std::vector<double> weights(16, 0.0);
    weights[15] = 1.0; // all streams 16 lines = 2 KB
    trace_config.phases = {PhaseProfile{weights, 0}};

    RunOptions options;
    options.vm = vm;
    SyntheticTraceGenerator trace(trace_config);
    System system(makeSystemConfig(options), {&trace});
    system.run();
    return histMean(system.asd()->streamLengthHist());
}

/**
 * The paper-level point of the subsystem: ASD sees physical streams,
 * and random 4 KB frame placement breaks a 2 KB virtual stream at
 * roughly every other page boundary, while identity placement keeps
 * it intact. The gap must be clearly measurable.
 */
TEST(VmSystem, Random4kShortensPhysicalStreams)
{
    const double identity = meanStreamLength(baseVm());
    VmConfig random = baseVm();
    random.policy = FrameAllocPolicy::RandomShuffle;
    const double shuffled = meanStreamLength(random);

    // Interleaving of the 4 concurrent streams already fragments a
    // little, so identity lands around ~9 rather than a full 16.
    EXPECT_GT(identity, 8.0);
    EXPECT_LT(shuffled, 0.75 * identity);
}

/** FNV-1a digest of @p metrics' JSON and every counter of @p system. */
std::string
registryDigest(const System &system, const RunMetrics &metrics)
{
    std::string text = toJson(metrics);
    for (const auto &[name, value] : system.stats().dump())
        text += '\n' + name + '=' + std::to_string(value);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(text)));
    return hex;
}

/**
 * Every translation stat name and value, and the metrics JSON, match
 * digests recorded with the simulator that kept the VM layer and the
 * OS model apart: a two-thread seq VM machine (private per-thread
 * tables, vm.t<k>.* and vm.frames_allocated) and an OS machine with
 * four churning tenants over the hashed walker (os.t<k>.* and os.*).
 */
TEST(VmSystem, RegistryMatchesParent)
{
    constexpr std::uint64_t kAccesses = 20000;
    {
        RunOptions options;
        options.vm = baseVm();
        options.vm.policy = FrameAllocPolicy::Sequential;
        SyntheticConfig a = findBenchmark("bwaves").trace;
        a.total_accesses = kAccesses;
        SyntheticConfig b = a;
        b.seed = b.seed * 7919 + 17;
        SyntheticTraceGenerator trace_a(a);
        SyntheticTraceGenerator trace_b(b);
        System system(makeSystemConfig(options), {&trace_a, &trace_b});
        const RunMetrics metrics = system.run();
        EXPECT_TRUE(system.stats().has("vm.t1.pages_mapped"));
        EXPECT_EQ(registryDigest(system, metrics), "4c8773c094081c76");
    }
    {
        RunOptions options;
        options.os.enabled = true;
        options.os.frames = 256;
        options.vm.walker = PageWalkerKind::Hashed;
        options.tenants.enabled = true;
        options.tenants.slots = 4;
        options.tenants.mean_lifetime = 8000;
        SyntheticConfig trace = findBenchmark("tpcc").trace;
        trace.total_accesses = kAccesses;
        TenantMixSource mix(options.tenants, trace, kAccesses);
        System system(makeSystemConfig(options), {&mix});
        const RunMetrics metrics = system.run();
        EXPECT_GT(metrics.os_reclaims, 0u);
        EXPECT_EQ(registryDigest(system, metrics), "64ebb6dc0f2086d6");
    }
}

} // namespace
} // namespace asd
