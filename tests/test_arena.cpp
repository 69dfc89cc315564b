/**
 * @file
 * Tests for the bake-off arena: registry completeness against the
 * enums it mirrors, scoring math and deterministic tie-breaks, report
 * formatting, the JSON DOM / metrics round-trip that powers resume,
 * and the BakeoffRunner end to end (grid resolution, thread-count
 * determinism, record adoption).
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "arena/bakeoff.hpp"
#include "arena/registry.hpp"
#include "arena/report.hpp"
#include "arena/scoring.hpp"
#include "common/json.hpp"
#include "sim/serialize.hpp"

namespace asd
{
namespace
{

// --- registry -------------------------------------------------------

TEST(Registry, CoversEveryMemSidePrefetcherKind)
{
    const PrefetcherRegistry &reg = PrefetcherRegistry::instance();
    const auto last =
        static_cast<std::uint8_t>(McPrefetcherKind::Perceptron);
    for (std::uint8_t k = 0; k <= last; ++k) {
        const auto kind = static_cast<McPrefetcherKind>(k);
        const PrefetcherInfo *info = reg.find(toString(kind));
        ASSERT_NE(info, nullptr) << toString(kind);
        EXPECT_EQ(info->side, PrefetcherSide::MemSide);
        EXPECT_EQ(info->defaults.mc_prefetcher, kind);
        EXPECT_EQ(info->defaults.mode, PrefetchMode::MS);
        EXPECT_FALSE(info->description.empty());
    }
    // One entry per enum value plus the two variant contenders
    // (ghb-dc and asd+tuner): extending McPrefetcherKind without
    // registering the newcomer fails here.
    EXPECT_EQ(reg.names(PrefetcherSide::MemSide).size(),
              static_cast<std::size_t>(last) + 3);

    const PrefetcherInfo *ghb_dc = reg.find("ghb-dc");
    ASSERT_NE(ghb_dc, nullptr);
    EXPECT_EQ(ghb_dc->defaults.mc_prefetcher, McPrefetcherKind::Ghb);
    EXPECT_TRUE(ghb_dc->defaults.ghb_delta_correlate);

    const PrefetcherInfo *tuned = reg.find("asd+tuner");
    ASSERT_NE(tuned, nullptr);
    EXPECT_EQ(tuned->defaults.mc_prefetcher, McPrefetcherKind::Asd);
    EXPECT_TRUE(tuned->defaults.tuner.enabled);
}

TEST(Registry, CoversEveryCpuSidePrefetcher)
{
    const PrefetcherRegistry &reg = PrefetcherRegistry::instance();
    const PrefetcherInfo *power5 = reg.find("ps-power5");
    ASSERT_NE(power5, nullptr);
    EXPECT_EQ(power5->side, PrefetcherSide::CpuSide);
    EXPECT_EQ(power5->defaults.mode, PrefetchMode::PS);
    EXPECT_EQ(power5->defaults.ps_kind, PsKind::Power5);

    const PrefetcherInfo *ps_asd = reg.find("ps-asd");
    ASSERT_NE(ps_asd, nullptr);
    EXPECT_EQ(ps_asd->defaults.ps_kind, PsKind::Asd);
    EXPECT_EQ(reg.names(PrefetcherSide::CpuSide).size(), 2u);
}

TEST(Registry, LookupAndOrdering)
{
    const PrefetcherRegistry &reg = PrefetcherRegistry::instance();
    EXPECT_EQ(reg.find("no-such-prefetcher"), nullptr);
    const std::vector<std::string> names = reg.names();
    EXPECT_EQ(names.size(), reg.all().size());
    // Memory-side entries first, in registration order.
    EXPECT_EQ(names.front(), "asd");
    EXPECT_EQ(names.back(), "ps-asd");
}

// --- scoring --------------------------------------------------------

BakeoffCell
cell(std::string prefetcher, std::string workload, Cycle baseline,
     Cycle cycles, double useful_pct, std::uint64_t issued,
     std::uint64_t reads)
{
    BakeoffCell c;
    c.prefetcher = std::move(prefetcher);
    c.workload = std::move(workload);
    c.baseline_cycles = baseline;
    c.metrics.cycles = cycles;
    c.metrics.useful_prefetch_pct = useful_pct;
    c.metrics.ms_prefetches_issued = issued;
    c.metrics.mc_reads = reads;
    return c;
}

TEST(Scoring, SpeedupMilliPctExact)
{
    EXPECT_EQ(speedupMilliPct(200000, 100000), 100000); // 2x = +100%
    EXPECT_EQ(speedupMilliPct(100000, 200000), -50000);
    EXPECT_EQ(speedupMilliPct(100000, 100000), 0);
    EXPECT_EQ(speedupMilliPct(100001, 100000), 1); // milli-pct floor
    EXPECT_EQ(speedupMilliPct(0, 100), 0);
    EXPECT_EQ(speedupMilliPct(100, 0), 0);
}

TEST(Scoring, AggregatesMeansAcrossWorkloads)
{
    std::vector<BakeoffCell> cells;
    BakeoffCell a1 = cell("alpha", "w1", 200000, 100000, 80.0, 10, 100);
    a1.metrics.coverage_pct = 50.0;
    a1.metrics.delayed_regular_pct = 10.0;
    BakeoffCell a2 = cell("alpha", "w2", 150000, 100000, 60.0, 20, 100);
    a2.metrics.coverage_pct = 30.0;
    a2.metrics.delayed_regular_pct = 6.0;
    cells.push_back(a1);
    cells.push_back(cell("beta", "w1", 200000, 200000, 0.0, 0, 100));
    cells.push_back(a2);
    cells.push_back(cell("beta", "w2", 150000, 150000, 0.0, 0, 100));

    const std::vector<PrefetcherScore> scores = scoreBakeoff(cells);
    ASSERT_EQ(scores.size(), 2u);
    const PrefetcherScore &alpha = scores[0];
    EXPECT_EQ(alpha.name, "alpha");
    EXPECT_EQ(alpha.rank, 1u);
    EXPECT_EQ(alpha.jobs_ok, 2u);
    EXPECT_EQ(alpha.speedup_milli_pct, 75000); // (100% + 50%) / 2
    EXPECT_EQ(alpha.accuracy_milli_pct, 70000);
    EXPECT_EQ(alpha.coverage_milli_pct, 40000);
    EXPECT_EQ(alpha.timeliness_milli_pct, 92000); // 100% - 8% delayed
    EXPECT_EQ(alpha.traffic_overhead_milli_pct, 15000); // 30 / 200
    EXPECT_EQ(alpha.cycles_total, 200000u);
    EXPECT_EQ(scores[1].name, "beta");
    EXPECT_EQ(scores[1].rank, 2u);
    EXPECT_EQ(scores[1].speedup_milli_pct, 0);
}

TEST(Scoring, TieBreaksAreDeterministic)
{
    // All speedups equal (cycles == baseline). Input order is
    // scrambled to prove the ranking is not input order.
    std::vector<BakeoffCell> cells;
    cells.push_back(cell("dd", "w", 100000, 100000, 50.0, 20, 100));
    cells.push_back(cell("cc", "w", 100000, 100000, 50.0, 10, 100));
    cells.push_back(cell("bb", "w", 100000, 100000, 70.0, 30, 100));
    cells.push_back(cell("aa", "w", 100000, 100000, 50.0, 20, 100));

    const std::vector<PrefetcherScore> scores = scoreBakeoff(cells);
    ASSERT_EQ(scores.size(), 4u);
    EXPECT_EQ(scores[0].name, "bb"); // accuracy desc wins first
    EXPECT_EQ(scores[1].name, "cc"); // then traffic asc
    EXPECT_EQ(scores[2].name, "aa"); // then name asc
    EXPECT_EQ(scores[3].name, "dd");
    EXPECT_EQ(scores[3].rank, 4u);
}

TEST(Scoring, FailedCellsCountButDoNotSkewMeans)
{
    std::vector<BakeoffCell> cells;
    BakeoffCell bad = cell("gamma", "w1", 100000, 0, 0.0, 0, 0);
    bad.status = JobStatus::Failed;
    cells.push_back(bad);
    cells.push_back(cell("gamma", "w2", 100000, 50000, 90.0, 5, 100));

    const std::vector<PrefetcherScore> scores = scoreBakeoff(cells);
    ASSERT_EQ(scores.size(), 1u);
    EXPECT_EQ(scores[0].jobs_ok, 1u);
    EXPECT_EQ(scores[0].jobs_failed, 1u);
    // Means over the one ok cell only.
    EXPECT_EQ(scores[0].speedup_milli_pct, 100000);
    EXPECT_EQ(scores[0].accuracy_milli_pct, 90000);
}

// --- report formatting ---------------------------------------------

TEST(Report, FormatMilliPct)
{
    EXPECT_EQ(formatMilliPct(0), "0.000");
    EXPECT_EQ(formatMilliPct(7), "0.007");
    EXPECT_EQ(formatMilliPct(12345), "12.345");
    EXPECT_EQ(formatMilliPct(-500), "-0.500");
    EXPECT_EQ(formatMilliPct(100000), "100.000");
    EXPECT_EQ(formatMilliPct(-123456), "-123.456");
}

// --- JSON DOM -------------------------------------------------------

TEST(JsonDom, ParsesAndNavigates)
{
    const auto doc = jsonParse(
        R"({"a":1,"b":[true,null,"xA"],"c":-2.5,"a":99})");
    ASSERT_TRUE(doc.has_value());
    const JsonValue *a = doc->find("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->asU64(), 1u); // first occurrence wins
    const JsonValue *b = doc->find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(b->items().size(), 3u);
    EXPECT_EQ(b->items()[0].asBool(), true);
    EXPECT_TRUE(b->items()[1].isNull());
    ASSERT_NE(b->items()[2].asString(), nullptr);
    EXPECT_EQ(*b->items()[2].asString(), "xA");
    const JsonValue *c = doc->find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->asDouble(), -2.5);
    EXPECT_FALSE(c->asU64().has_value()); // not a non-negative int
    EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(JsonDom, RejectsMalformedInput)
{
    EXPECT_FALSE(jsonParse("{").has_value());
    EXPECT_FALSE(jsonParse("[1,]").has_value());
    EXPECT_FALSE(jsonParse("{} trailing").has_value());
    EXPECT_FALSE(jsonParse("").has_value());
}

TEST(JsonDom, MetricsRoundTripIsExact)
{
    RunMetrics m;
    m.cycles = 123456;
    m.accesses = 789;
    m.power.background_pj = 1.25;
    m.power.activate_pj = 2.5;
    m.power.read_pj = 3.75;
    m.power.write_pj = 4.5;
    m.power.refresh_pj = 5.125;
    m.dram_watts = 1.375;
    m.dram_energy_mj = 0.0625;
    m.useful_prefetch_pct = 33.25;
    m.coverage_pct = 12.5;
    m.delayed_regular_pct = 1.75;
    m.mc_reads = 1000;
    m.mc_writes = 200;
    m.ms_prefetches_issued = 333;
    m.buffer_hits = 111;
    m.lpq_drops = 7;
    m.vm_enabled = true;
    m.tlb_hits = 900;
    m.tlb_misses = 100;
    m.tlb_evictions = 50;
    m.page_walk_cycles = 4000;
    m.pages_mapped = 64;

    const auto doc = jsonParse(toJson(m));
    ASSERT_TRUE(doc.has_value());
    const auto back = metricsFromJson(*doc);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, m);
}

TEST(JsonDom, MetricsRejectPartialRecords)
{
    const auto doc = jsonParse(R"({"cycles":1})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_FALSE(metricsFromJson(*doc).has_value());
    EXPECT_FALSE(
        metricsFromJson(JsonValue::makeNull()).has_value());
}

// --- BakeoffRunner end to end --------------------------------------

BakeoffOptions
tinyBakeoff()
{
    BakeoffOptions options;
    options.suites = {};
    options.benchmarks = {"bwaves"};
    options.prefetchers = {"stride", "nextline"};
    options.accesses = 1500;
    options.warmup_cycles = 500;
    options.threads = 1;
    return options;
}

TEST(Bakeoff, ResolvesGridBeforeRunning)
{
    BakeoffRunner runner(tinyBakeoff());
    ASSERT_EQ(runner.workloads().size(), 1u);
    EXPECT_EQ(runner.workloads()[0].label, "extra/bwaves");
    EXPECT_FALSE(runner.workloads()[0].vm);
    ASSERT_EQ(runner.contenders().size(), 2u);
    EXPECT_EQ(runner.contenders()[0]->name, "stride");
    EXPECT_EQ(runner.contenders()[1]->name, "nextline");
}

TEST(Bakeoff, RunsGridAndReportsAreValid)
{
    BakeoffResult result = BakeoffRunner(tinyBakeoff()).run();
    EXPECT_EQ(result.total_jobs, 3u); // NP baseline + 2 contenders
    ASSERT_EQ(result.cells.size(), 2u);
    for (const BakeoffCell &c : result.cells) {
        EXPECT_EQ(c.status, JobStatus::Ok);
        EXPECT_GT(c.metrics.cycles, 0u);
        EXPECT_GT(c.baseline_cycles, 0u);
        EXPECT_EQ(c.workload, "extra/bwaves");
    }
    ASSERT_EQ(result.scores.size(), 2u);
    EXPECT_EQ(result.scores[0].rank, 1u);
    EXPECT_EQ(result.scores[1].rank, 2u);

    const std::string json = bakeoffJson(result);
    EXPECT_TRUE(jsonParse(json).has_value());
    EXPECT_NE(json.find("asdbakeoff/v1"), std::string::npos);
    const std::string md = bakeoffMarkdown(result);
    EXPECT_NE(md.find("stride"), std::string::npos);
    EXPECT_NE(md.find("nextline"), std::string::npos);
}

TEST(Bakeoff, ReportIsIdenticalAcrossThreadCounts)
{
    BakeoffOptions serial = tinyBakeoff();
    BakeoffOptions parallel = tinyBakeoff();
    parallel.threads = 4;
    const std::string a = bakeoffJson(BakeoffRunner(serial).run());
    const std::string b = bakeoffJson(BakeoffRunner(parallel).run());
    EXPECT_EQ(a, b);
}

TEST(Bakeoff, ResumeAdoptsPersistedRecords)
{
    const std::string dir =
        testing::TempDir() + "asd_test_arena_resume";
    std::filesystem::remove_all(dir);

    BakeoffOptions options = tinyBakeoff();
    options.out_dir = dir;
    const BakeoffResult fresh = BakeoffRunner(options).run();
    EXPECT_EQ(fresh.adopted, 0u);

    options.resume = true;
    const BakeoffResult resumed = BakeoffRunner(options).run();
    EXPECT_EQ(resumed.adopted, resumed.total_jobs);
    ASSERT_EQ(resumed.cells.size(), fresh.cells.size());
    for (std::size_t i = 0; i < fresh.cells.size(); ++i) {
        EXPECT_EQ(resumed.cells[i].status, JobStatus::Ok);
        // Adoption recovers the exact metrics, not approximations.
        EXPECT_EQ(resumed.cells[i].metrics, fresh.cells[i].metrics);
        EXPECT_EQ(resumed.cells[i].baseline_cycles,
                  fresh.cells[i].baseline_cycles);
    }
    ASSERT_EQ(resumed.scores.size(), fresh.scores.size());
    for (std::size_t i = 0; i < fresh.scores.size(); ++i) {
        EXPECT_EQ(resumed.scores[i].name, fresh.scores[i].name);
        EXPECT_EQ(resumed.scores[i].speedup_milli_pct,
                  fresh.scores[i].speedup_milli_pct);
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace asd
