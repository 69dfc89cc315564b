/**
 * @file
 * Sweep-runner subsystem tests: parallel-vs-serial determinism,
 * structured failure capture, edge cases (empty job list, one
 * thread, more threads than jobs), the soft timeout, the JSON/CSV
 * result sinks (records must be parseable), the JSON serialization
 * helpers and their round trips, warm-up keys, job-id identity,
 * resume, and the hardened ASD_BENCH_SCALE parser.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "runner/result_sink.hpp"
#include "runner/sweep_runner.hpp"
#include "runner/thread_pool.hpp"
#include "runner/warm_start.hpp"
#include "sim/serialize.hpp"
#include "snapshot/snapshot.hpp"

namespace
{

using namespace asd;

/** Trace length that keeps one job in the low milliseconds. */
constexpr std::uint64_t kShortTrace = 2000;

/** The acceptance sweep: 4 benchmarks x the four paper modes. */
std::vector<JobSpec>
fourWaySweepJobs()
{
    std::vector<JobSpec> jobs;
    const std::vector<Benchmark> benches = detailedStudyBenchmarks();
    for (std::size_t b = 0; b < 4; ++b) {
        for (const PrefetchMode mode :
             {PrefetchMode::NP, PrefetchMode::PS, PrefetchMode::MS,
              PrefetchMode::PMS}) {
            RunOptions options;
            options.mode = mode;
            options.accesses = kShortTrace;
            jobs.push_back(makeJob(benches[b], options));
        }
    }
    return jobs;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count](unsigned) { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitOnIdlePoolReturns)
{
    ThreadPool pool(2);
    pool.wait(); // no tasks: must not hang
    EXPECT_EQ(pool.threadCount(), 2u);
}

TEST(JobId, EncodesVariedFields)
{
    const Benchmark &bench = findBenchmark("bwaves");
    RunOptions options;
    options.mode = PrefetchMode::MS;
    options.buffer_lines = 32;
    const std::string id = makeJobId(bench, options, 7);
    EXPECT_NE(id.find("bwaves"), std::string::npos);
    EXPECT_NE(id.find("MS"), std::string::npos);
    EXPECT_NE(id.find("pb32"), std::string::npos);
    EXPECT_NE(id.find("seed7"), std::string::npos);

    RunOptions other = options;
    other.filter_slots = 16;
    EXPECT_NE(makeJobId(bench, options), makeJobId(bench, other));
}

TEST(SweepRunner, ParallelMatchesSerialAndWritesJson)
{
    const std::vector<JobSpec> jobs = fourWaySweepJobs();
    ASSERT_EQ(jobs.size(), 16u);

    SweepOptions serial_options;
    serial_options.threads = 1;
    const std::vector<JobResult> serial =
        SweepRunner(serial_options).run(jobs);

    const std::filesystem::path dir = "results/test_runner_sweep";
    std::filesystem::remove_all(dir);
    JsonDirSink sink(dir.string());
    SweepOptions parallel_options;
    parallel_options.threads = 4;
    parallel_options.sink = &sink;
    const std::vector<JobResult> parallel =
        SweepRunner(parallel_options).run(jobs);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(serial[i].status, JobStatus::Ok) << jobs[i].id;
        EXPECT_EQ(parallel[i].status, JobStatus::Ok) << jobs[i].id;
        EXPECT_EQ(serial[i].spec.id, parallel[i].spec.id);
        // Bit-identical metrics regardless of thread count.
        EXPECT_TRUE(serial[i].metrics == parallel[i].metrics)
            << jobs[i].id;
    }

    // Every record plus the manifest must be valid JSON.
    const std::string manifest = readFile(dir / "manifest.json");
    ASSERT_FALSE(manifest.empty());
    EXPECT_TRUE(jsonParse(manifest).has_value());
    EXPECT_NE(manifest.find("\"jobs\":16"), std::string::npos);
    EXPECT_NE(manifest.find("\"ok\":16"), std::string::npos);
    std::size_t records = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().filename() == "manifest.json")
            continue;
        const std::string record = readFile(entry.path());
        EXPECT_TRUE(jsonParse(record).has_value())
            << entry.path();
        EXPECT_NE(record.find("\"cycles\""), std::string::npos);
        EXPECT_NE(record.find("\"options\""), std::string::npos);
        ++records;
    }
    EXPECT_EQ(records, jobs.size());
}

TEST(SweepRunner, FailingJobYieldsFailureRecordOthersComplete)
{
    std::vector<JobSpec> jobs = fourWaySweepJobs();
    jobs.resize(4);
    jobs[1].id = "boomjob";
    jobs[1].body = [](const JobSpec &) -> RunMetrics {
        throw std::runtime_error("boom");
    };

    SweepOptions options;
    options.threads = 2;
    const std::vector<JobResult> results =
        SweepRunner(options).run(jobs);

    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[1].status, JobStatus::Failed);
    EXPECT_NE(results[1].error.find("boom"), std::string::npos);
    for (const std::size_t i : {0u, 2u, 3u}) {
        EXPECT_EQ(results[i].status, JobStatus::Ok);
        EXPECT_GT(results[i].metrics.cycles, 0u);
    }

    // Failure records serialize with null metrics, still parseable.
    const std::string record =
        JsonDirSink::recordJson(results[1]);
    EXPECT_TRUE(jsonParse(record).has_value());
    EXPECT_NE(record.find("\"status\":\"failed\""),
              std::string::npos);
    EXPECT_NE(record.find("\"metrics\":null"), std::string::npos);
}

TEST(SweepRunner, RefusesTwoJobsSharingAnIdWithDifferentOptions)
{
    // makeJobId rounds the Zipf exponent to milli-units, so these two
    // tenant mixes get one id; their records would overwrite each
    // other, so the runner refuses the list before running anything.
    RunOptions options;
    options.accesses = kShortTrace;
    options.tenants.enabled = true;
    RunOptions skewed = options;
    skewed.tenants.zipf_s = 1.0004;
    const Benchmark &bench = findBenchmark("bwaves");
    const std::vector<JobSpec> jobs = {makeJob(bench, options),
                                       makeJob(bench, skewed)};
    ASSERT_EQ(jobs[0].id, jobs[1].id);
    EXPECT_EXIT(SweepRunner().run(jobs), testing::ExitedWithCode(1),
                "job id '" + jobs[0].id + "'");
}

TEST(SweepRunner, AllowsARepeatedJob)
{
    RunOptions options;
    options.accesses = kShortTrace;
    const JobSpec job = makeJob(findBenchmark("bwaves"), options);
    const std::vector<JobResult> results = SweepRunner().run({job, job});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].metrics == results[1].metrics);
}

TEST(SweepRunner, EmptyJobListFinishesImmediately)
{
    SweepOptions options;
    options.threads = 4;
    SweepRunner runner(options);
    const std::vector<JobResult> results = runner.run({});
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(runner.lastSummary().jobs, 0u);
    EXPECT_EQ(runner.lastSummary().failed, 0u);
}

TEST(SweepRunner, MoreThreadsThanJobs)
{
    std::vector<JobSpec> jobs = fourWaySweepJobs();
    jobs.resize(2);
    SweepOptions options;
    options.threads = 16;
    SweepRunner runner(options);
    const std::vector<JobResult> results = runner.run(jobs);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, JobStatus::Ok);
    EXPECT_EQ(results[1].status, JobStatus::Ok);
    // The pool is clamped to the job count.
    EXPECT_EQ(runner.lastSummary().threads, 2u);
}

TEST(SweepRunner, SoftTimeoutDowngradesResult)
{
    JobSpec job;
    job.id = "sleeper";
    job.bench = findBenchmark("bwaves");
    job.timeout_ms = 1.0;
    job.body = [](const JobSpec &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return RunMetrics{};
    };
    const JobResult result = runJob(job);
    EXPECT_EQ(result.status, JobStatus::TimedOut);
    EXPECT_NE(result.error.find("timeout"), std::string::npos);
    EXPECT_GE(result.wall_ms, 1.0);
}

TEST(SweepRunner, ProgressHookSeesEveryJob)
{
    std::vector<JobSpec> jobs = fourWaySweepJobs();
    jobs.resize(6);
    std::vector<SweepProgress> snapshots;
    SweepOptions options;
    options.threads = 3;
    options.on_progress = [&snapshots](const SweepProgress &p) {
        snapshots.push_back(p);
    };
    SweepRunner(options).run(jobs);
    ASSERT_EQ(snapshots.size(), jobs.size());
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
        EXPECT_EQ(snapshots[i].done, i + 1);
        EXPECT_EQ(snapshots[i].total, jobs.size());
        EXPECT_GE(snapshots[i].eta_ms, 0.0);
    }
    EXPECT_EQ(snapshots.back().ok, jobs.size());
}

TEST(ResultSink, CsvHasOneRowPerJobPlusHeader)
{
    std::vector<JobSpec> jobs = fourWaySweepJobs();
    jobs.resize(3);
    const std::filesystem::path path =
        "results/test_runner_sweep.csv";
    std::filesystem::remove(path);
    {
        CsvSink sink(path.string());
        SweepOptions options;
        options.threads = 2;
        options.sink = &sink;
        SweepRunner(options).run(jobs);
    }
    std::ifstream in(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line))
        if (!line.empty())
            ++lines;
    EXPECT_EQ(lines, jobs.size() + 1);
}

TEST(Serialize, JsonHelpersEmitParseableDocuments)
{
    RunOptions options;
    options.fixed_policy = 3;
    options.accesses = 12345;
    const std::string options_json = toJson(options);
    EXPECT_TRUE(jsonParse(options_json).has_value());
    EXPECT_NE(options_json.find("\"mode\":\"PMS\""),
              std::string::npos);
    EXPECT_NE(options_json.find("\"fixed_policy\":3"),
              std::string::npos);

    RunMetrics metrics;
    metrics.cycles = 42;
    metrics.dram_watts = 1.25;
    const std::string metrics_json = toJson(metrics);
    EXPECT_TRUE(jsonParse(metrics_json).has_value());
    EXPECT_NE(metrics_json.find("\"cycles\":42"), std::string::npos);
    EXPECT_NE(metrics_json.find("\"dram_watts\":1.25"),
              std::string::npos);
}

TEST(Serialize, EnumRoundTrips)
{
    for (const PrefetchMode mode :
         {PrefetchMode::NP, PrefetchMode::PS, PrefetchMode::MS,
          PrefetchMode::PMS})
        EXPECT_EQ(parsePrefetchMode(toString(mode)), mode);
    for (const McPrefetcherKind kind :
         {McPrefetcherKind::Asd, McPrefetcherKind::NextLine,
          McPrefetcherKind::P5Style, McPrefetcherKind::Ghb,
          McPrefetcherKind::Stride})
        EXPECT_EQ(parseMcPrefetcherKind(toString(kind)), kind);
    EXPECT_EQ(parsePrefetchMode("np"), std::nullopt);
    EXPECT_EQ(parseMcPrefetcherKind("bogus"), std::nullopt);
}

/** One options configuration per field-list feature. */
std::vector<RunOptions>
roundTripConfigurations()
{
    std::vector<RunOptions> configs(1); // defaults
    for (const FrameAllocPolicy policy :
         {FrameAllocPolicy::Identity, FrameAllocPolicy::Sequential,
          FrameAllocPolicy::RandomShuffle, FrameAllocPolicy::HugePage}) {
        RunOptions o;
        o.vm.enabled = true;
        o.vm.policy = policy;
        o.vm.page_bytes = 65536;
        o.vm.seed = ~std::uint64_t{0}; // above the i64 range
        o.vm.tlb.entries = 128;
        configs.push_back(o);
    }
    RunOptions os;
    os.os.enabled = true;
    os.os.frames = 256;
    os.os.major_fault_frac = 0.020000001;
    os.vm.walker = PageWalkerKind::Hashed;
    configs.push_back(os);
    RunOptions tenants;
    tenants.tenants.enabled = true;
    tenants.tenants.slots = 3;
    tenants.tenants.zipf_s = 1.0004;
    tenants.tenants.mean_lifetime = 0;
    configs.push_back(tenants);
    RunOptions tuner;
    tuner.tuner.enabled = true;
    tuner.tuner.max_decisions = 7;
    tuner.tuner.space.degrees = {1, 8};
    tuner.tuner.space.filter_slots = {};
    tuner.tuner.space.buffer_lines = {64};
    tuner.tuner.space.epoch_reads = {500, 1000, 2000, 4000};
    tuner.tuner.space.policies = {0, 5};
    configs.push_back(tuner);
    RunOptions pinned;
    pinned.fixed_policy = -3;
    pinned.mode = PrefetchMode::MS;
    pinned.scheduler = SchedulerKind::FrFcfs;
    pinned.ps_kind = PsKind::Asd;
    configs.push_back(pinned);
    RunOptions accesses;
    accesses.accesses = 123456789;
    accesses.ps_oracle = true;
    accesses.saturate_long_streams = true;
    configs.push_back(accesses);
    RunOptions warmup;
    warmup.warmup_cycles = 40000;
    warmup.mc_prefetcher = McPrefetcherKind::Perceptron;
    configs.push_back(warmup);
    RunOptions ghb;
    ghb.mc_prefetcher = McPrefetcherKind::Ghb;
    ghb.ghb_delta_correlate = true;
    configs.push_back(ghb);
    return configs;
}

TEST(Serialize, OptionsRoundTripThroughJson)
{
    for (const RunOptions &options : roundTripConfigurations()) {
        const std::string json = toJson(options);
        const std::optional<JsonValue> doc = jsonParse(json);
        ASSERT_TRUE(doc) << json;
        EXPECT_EQ(toJson(optionsFromJson(*doc)), json);
    }
}

TEST(Serialize, MetricsRoundTripThroughJson)
{
    RunMetrics metrics;
    metrics.cycles = 123;
    metrics.power.refresh_pj = 0.1;
    metrics.dram_watts = 1.0 / 3.0;
    metrics.os_enabled = true;
    metrics.os_major_faults = 9;
    metrics.tenants_enabled = true;
    metrics.tenant_active = 2;
    const std::optional<JsonValue> doc = jsonParse(toJson(metrics));
    ASSERT_TRUE(doc);
    EXPECT_EQ(metricsFromJson(*doc), metrics);
    // The derived total is written for readers of the JSON only.
    EXPECT_NE(toJson(metrics).find("\"total\":"), std::string::npos);
}

TEST(Json, WriterAndChecker)
{
    JsonWriter writer;
    writer.beginObject()
        .key("a")
        .value(std::uint64_t{1})
        .key("b")
        .beginArray()
        .value("x\"y")
        .value(true)
        .null()
        .value(-2.5)
        .endArray()
        .endObject();
    EXPECT_EQ(writer.str(),
              "{\"a\":1,\"b\":[\"x\\\"y\",true,null,-2.5]}");
    EXPECT_TRUE(jsonParse(writer.str()).has_value());

    EXPECT_TRUE(jsonParse("[]").has_value());
    EXPECT_TRUE(
        jsonParse("  {\"k\": [1, 2.0e-3, \"s\"]} ").has_value());
    EXPECT_FALSE(jsonParse("").has_value());
    EXPECT_FALSE(jsonParse("{").has_value());
    EXPECT_FALSE(jsonParse("{\"a\":}").has_value());
    EXPECT_FALSE(jsonParse("{} trailing").has_value());
    EXPECT_FALSE(jsonParse("[1,]").has_value());
    EXPECT_FALSE(jsonParse("nan").has_value());
}

TEST(Json, IntegersKeepTheirExactReading)
{
    const auto number = [](const char *text) { return *jsonParse(text); };
    EXPECT_EQ(number("18446744073709551615").asU64(),
              ~std::uint64_t{0});
    EXPECT_EQ(number("18446744073709551615").asI64(), std::nullopt);
    EXPECT_EQ(number("18446744073709551616").asU64(), std::nullopt);
    EXPECT_EQ(number("9223372036854775807").asI64(),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(number("-9223372036854775808").asI64(),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(number("-9223372036854775809").asI64(), std::nullopt);
    EXPECT_EQ(number("-7").asI64(), -7);
    EXPECT_EQ(number("-7").asU64(), std::nullopt);
    EXPECT_EQ(number("-0").asU64(), 0u);
    EXPECT_EQ(number("7.0").asU64(), std::nullopt);
    EXPECT_EQ(number("7.0").asDouble(), 7.0);
}

// --- warm-start reuse ----------------------------------------------

/** A small grid whose jobs share warm-ups across MS knobs. */
std::vector<JobSpec>
warmStartGridJobs(Cycle warmup)
{
    std::vector<JobSpec> jobs;
    const std::vector<Benchmark> benches = detailedStudyBenchmarks();
    for (std::size_t b = 0; b < 2; ++b) {
        for (const PrefetchMode mode :
             {PrefetchMode::MS, PrefetchMode::PMS}) {
            for (const std::uint32_t lines : {8u, 32u}) {
                RunOptions options;
                options.mode = mode;
                options.buffer_lines = lines;
                options.accesses = kShortTrace;
                options.warmup_cycles = warmup;
                jobs.push_back(makeJob(benches[b], options));
            }
        }
    }
    return jobs;
}

TEST(WarmStart, KeyIgnoresMemorySideKnobsOnly)
{
    std::vector<JobSpec> jobs = warmStartGridJobs(3000);
    ASSERT_EQ(jobs.size(), 8u); // 2 benchmarks x MS/PMS x 8/32 lines
    // Same benchmark, same PS presence, different Prefetch Buffer
    // size: one warm-up.
    EXPECT_EQ(warmupKey(jobs[0]), warmupKey(jobs[1]));
    // PMS has a processor side, MS does not: different warm-ups.
    EXPECT_NE(warmupKey(jobs[0]), warmupKey(jobs[2]));
    // Different benchmark: different warm-up.
    EXPECT_NE(warmupKey(jobs[0]), warmupKey(jobs[4]));
    // Different warm-up length: different warm-up.
    JobSpec longer = jobs[0];
    longer.options.warmup_cycles = 4000;
    EXPECT_NE(warmupKey(jobs[0]), warmupKey(longer));

    EXPECT_TRUE(warmStartEligible(jobs[0]));
    JobSpec cold = jobs[0];
    cold.options.warmup_cycles = 0;
    EXPECT_FALSE(warmStartEligible(cold));
    JobSpec custom = jobs[0];
    custom.body = [](const JobSpec &) { return RunMetrics{}; };
    EXPECT_FALSE(warmStartEligible(custom));

    // A tenant mix restores like any other trace source, so it
    // shares a warm-up too, but never with a single-tenant run.
    JobSpec mix = jobs[0];
    mix.options.tenants.enabled = true;
    EXPECT_TRUE(warmStartEligible(mix));
    EXPECT_NE(warmupKey(jobs[0]), warmupKey(mix));
    JobSpec mix_larger_pb = mix;
    mix_larger_pb.options.buffer_lines = 64;
    EXPECT_EQ(warmupKey(mix), warmupKey(mix_larger_pb));
}

TEST(WarmStart, KeySeesEveryDigitOfMachineKnobs)
{
    // The key carries the options JSON, whose doubles round-trip
    // exactly: two OS machines whose major-fault fractions differ in
    // the ninth digit must not share a warm-up.
    JobSpec a = warmStartGridJobs(3000)[0];
    a.options.os.enabled = true;
    JobSpec b = a;
    b.options.os.major_fault_frac = 0.020000001;
    ASSERT_EQ(a.options.os.major_fault_frac, 0.02);
    EXPECT_NE(warmupKey(a), warmupKey(b));
    EXPECT_EQ(warmupKey(a).rfind("asdwarm/v2;", 0), 0u);

    // Telemetry settings never reach a shared warm-up, but every
    // machine and trace knob does, the tenant mix's included.
    JobSpec walker = a;
    walker.options.vm.walker = PageWalkerKind::Hashed;
    EXPECT_NE(warmupKey(a), warmupKey(walker));
    JobSpec mix = a;
    mix.options.tenants.enabled = true;
    JobSpec churnier = mix;
    churnier.options.tenants.mean_lifetime = 49999;
    EXPECT_NE(warmupKey(mix), warmupKey(churnier));
    JobSpec telemetry = a;
    telemetry.options.telemetry.enabled = true;
    EXPECT_EQ(warmupKey(a), warmupKey(telemetry));
}

TEST(WarmStart, SweepMatchesColdStartBitForBit)
{
    std::vector<JobSpec> jobs = warmStartGridJobs(3000);
    // A tenant mix short-lived enough to churn on both sides of the
    // warm-up boundary (2 of its 48 departures come before it).
    RunOptions mix = jobs.back().options;
    mix.tenants.enabled = true;
    mix.tenants.mean_lifetime = 40;
    jobs.push_back(makeJob(jobs.back().bench, mix));

    SweepOptions cold_options;
    cold_options.threads = 2;
    const std::vector<JobResult> cold =
        SweepRunner(cold_options).run(jobs);

    SweepOptions warm_options;
    warm_options.threads = 2;
    warm_options.warm_start = true;
    SweepRunner warm_runner(warm_options);
    const std::vector<JobResult> warm = warm_runner.run(jobs);

    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(cold[i].status, JobStatus::Ok) << jobs[i].id;
        EXPECT_EQ(warm[i].status, JobStatus::Ok) << jobs[i].id;
        EXPECT_TRUE(cold[i].metrics == warm[i].metrics)
            << jobs[i].id;
    }
    EXPECT_EQ(warm_runner.lastSummary().warm_started, jobs.size());
}

/**
 * Every detailed-study benchmark under PMS with Prefetch Buffers of
 * 8, 16 and 64 lines, with a warm-up of five cycles per access
 * (about half the run): restoring the shared warm-up snapshot and
 * finishing gives the cold run's metrics exactly.
 */
TEST(WarmStart, EveryDetailedBenchmarkMatchesColdStart)
{
    constexpr std::uint64_t kAccesses = 4000;
    WarmupCache cache;
    for (const Benchmark &bench : detailedStudyBenchmarks()) {
        for (const std::uint32_t lines : {8u, 16u, 64u}) {
            RunOptions options;
            options.mode = PrefetchMode::PMS;
            options.buffer_lines = lines;
            options.accesses = kAccesses;
            options.warmup_cycles = 5 * kAccesses;
            const JobSpec job = makeJob(bench, options);
            const RunMetrics cold = runBenchmark(bench, options);
            const RunMetrics warm = runWarmStarted(job, cache);
            EXPECT_GT(cold.cycles, options.warmup_cycles) << job.id;
            EXPECT_TRUE(cold == warm) << job.id;
        }
    }
}

TEST(WarmStart, CacheComputesEachKeyOnce)
{
    WarmupCache cache;
    std::atomic<int> made{0};
    const auto make = [&made] {
        ++made;
        SnapshotWriter writer;
        writer.beginSection("x");
        writer.u64(1);
        writer.endSection();
        return writer.finish(fnv1a64("k1"));
    };
    const auto a = cache.obtain("k1", make);
    const auto b = cache.obtain("k1", make);
    EXPECT_EQ(made.load(), 1);
    EXPECT_EQ(a.get(), b.get());
}

TEST(WarmStart, DiskCachePersistsAndRejectsDamage)
{
    const std::filesystem::path dir = "results/test_warm_cache";
    std::filesystem::remove_all(dir);

    std::atomic<int> made{0};
    const auto make = [&made] {
        ++made;
        SnapshotWriter writer;
        writer.beginSection("x");
        writer.u64(1);
        writer.endSection();
        return writer.finish(fnv1a64("k1"));
    };
    {
        WarmupCache cache(dir.string());
        cache.obtain("k1", make);
    }
    EXPECT_EQ(made.load(), 1);
    // A second cache (fresh memory) must hit the disk file instead.
    {
        WarmupCache cache(dir.string());
        cache.obtain("k1", make);
    }
    EXPECT_EQ(made.load(), 1);

    // Corrupt every cached file: the cache must fall back to a
    // fresh warm-up rather than serve damaged state.
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        std::fstream file(entry.path(), std::ios::in | std::ios::out |
                                            std::ios::binary);
        file.seekp(-1, std::ios::end);
        file.put('\x7f');
    }
    {
        WarmupCache cache(dir.string());
        cache.obtain("k1", make);
    }
    EXPECT_EQ(made.load(), 2);
}

TEST(WarmStart, SweepWithDiskCacheMatchesColdStart)
{
    const std::filesystem::path dir = "results/test_warm_sweep_cache";
    std::filesystem::remove_all(dir);
    const std::vector<JobSpec> jobs = warmStartGridJobs(3000);

    const std::vector<JobResult> cold = SweepRunner().run(jobs);

    SweepOptions warm_options;
    warm_options.warm_start = true;
    warm_options.snapshot_dir = dir.string();
    // Two runs: the first populates the disk cache, the second
    // restores from it. Both must equal the cold sweep.
    for (int round = 0; round < 2; ++round) {
        const std::vector<JobResult> warm =
            SweepRunner(warm_options).run(jobs);
        ASSERT_EQ(cold.size(), warm.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(warm[i].status, JobStatus::Ok) << jobs[i].id;
            EXPECT_TRUE(cold[i].metrics == warm[i].metrics)
                << jobs[i].id << " round " << round;
        }
    }
    // The grid shares warm-ups: fewer snapshot files than jobs.
    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        (void)entry;
        ++files;
    }
    EXPECT_GT(files, 0u);
    EXPECT_LT(files, jobs.size());
}

// --- resume ---------------------------------------------------------

TEST(Resume, AdoptsOnlyValidOkRecords)
{
    const std::filesystem::path dir = "results/test_resume";
    std::filesystem::remove_all(dir);
    std::vector<JobSpec> jobs = fourWaySweepJobs();
    jobs.resize(4);

    {
        JsonDirSink sink(dir.string());
        SweepOptions options;
        options.sink = &sink;
        SweepRunner(options).run(jobs);
    }

    // Damage the records: delete one, corrupt one, fail one.
    const auto record = [&](const JobSpec &job) {
        return dir / (sanitizeFileStem(job.id) + ".json");
    };
    std::filesystem::remove(record(jobs[1]));
    {
        std::ofstream out(record(jobs[2]));
        out << "{\"truncated\"";
    }
    {
        std::string failed = readFile(record(jobs[3]));
        const std::size_t at = failed.find("\"status\":\"ok\"");
        ASSERT_NE(at, std::string::npos);
        failed.replace(at, 14, "\"status\":\"failed\"");
        std::ofstream out(record(jobs[3]));
        out << failed;
    }

    JsonDirSink sink(dir.string());
    EXPECT_TRUE(sink.adoptExisting(jobs[0]));
    EXPECT_FALSE(sink.adoptExisting(jobs[1]));
    EXPECT_FALSE(sink.adoptExisting(jobs[2]));
    EXPECT_FALSE(sink.adoptExisting(jobs[3]));
    EXPECT_EQ(sink.skipped(), 1u);

    // A record written under the right stem but for a different job
    // id must not be adopted.
    JobSpec imposter = jobs[0];
    imposter.id = jobs[0].id + "X";
    std::filesystem::copy_file(
        record(jobs[0]), record(imposter),
        std::filesystem::copy_options::overwrite_existing);
    EXPECT_FALSE(sink.adoptExisting(imposter));

    // Finishing after adoption keeps the record in the manifest and
    // reports the skip count.
    SweepSummary summary;
    summary.jobs = 0;
    sink.finish(summary);
    const std::string manifest = readFile(dir / "manifest.json");
    EXPECT_TRUE(jsonParse(manifest).has_value());
    EXPECT_NE(manifest.find("\"skipped\":1"), std::string::npos);
    EXPECT_NE(manifest.find(jobs[0].id), std::string::npos);
}

TEST(Resume, ReadsTopLevelFieldsOfTheParsedRecord)
{
    const std::filesystem::path dir = "results/test_resume_fields";
    std::filesystem::remove_all(dir);
    JobResult result;
    result.spec = fourWaySweepJobs()[0];
    result.wall_ms = 12.5;
    const std::filesystem::path path =
        dir / (sanitizeFileStem(result.spec.id) + ".json");
    const auto writeRecord = [&path](const std::string &text) {
        std::ofstream out(path);
        out << text << "\n";
    };

    JsonDirSink sink(dir.string());
    // A timed-out record is rerun even when a nested member spells out
    // an ok status: only the top-level member counts.
    JobResult timed_out = result;
    timed_out.status = JobStatus::TimedOut;
    writeRecord("{\"extra\":{\"status\":\"ok\"}," +
                JsonDirSink::recordJson(timed_out).substr(1));
    EXPECT_FALSE(sink.adoptExisting(result.spec));

    writeRecord(JsonDirSink::recordJson(result));
    EXPECT_TRUE(sink.adoptExisting(result.spec));
    SweepSummary summary;
    sink.finish(summary);
    const std::optional<JsonValue> manifest =
        jsonParse(readFile(dir / "manifest.json"));
    ASSERT_TRUE(manifest);
    const JsonValue *records = manifest->find("records");
    ASSERT_TRUE(records);
    ASSERT_EQ(records->items().size(), 1u);
    EXPECT_EQ(records->items()[0].find("wall_ms")->asDouble(), 12.5);
}

TEST(Resume, RerunsARecordWhoseOptionsDiffer)
{
    const std::filesystem::path dir = "results/test_resume_options";
    std::filesystem::remove_all(dir);
    JobResult result;
    result.spec = fourWaySweepJobs()[0];
    const std::filesystem::path path =
        dir / (sanitizeFileStem(result.spec.id) + ".json");
    JsonDirSink sink(dir.string());
    {
        std::ofstream out(path);
        out << JsonDirSink::recordJson(result) << "\n";
    }

    // Same id, but a knob the id does not spell out differs: the
    // stored record is for another run, so the job reruns.
    JobSpec changed = result.spec;
    changed.options.vm.seed += 1;
    ASSERT_EQ(changed.id, result.spec.id);
    EXPECT_FALSE(sink.adoptExisting(changed));

    // An options member that does not read back is not adopted.
    std::string damaged = JsonDirSink::recordJson(result);
    const std::size_t at = damaged.find("\"scheduler\":\"ahb\"");
    ASSERT_NE(at, std::string::npos);
    damaged.replace(at, 17, "\"scheduler\":\"xyz\"");
    {
        std::ofstream out(path);
        out << damaged << "\n";
    }
    EXPECT_FALSE(sink.adoptExisting(result.spec));

    {
        std::ofstream out(path);
        out << JsonDirSink::recordJson(result) << "\n";
    }
    EXPECT_TRUE(sink.adoptExisting(result.spec));
    EXPECT_EQ(sink.skipped(), 1u);
}

TEST(ThreadPool, DefaultThreadCountFallsBackOnMalformedEnv)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    setenv("ASD_SWEEP_THREADS", "3", 1);
    EXPECT_EQ(defaultThreadCount(), 3u);
    for (const char *bad : {"", "0", "-2", "+3", " 3", "3x", "abc",
                            "99999999999"}) {
        setenv("ASD_SWEEP_THREADS", bad, 1);
        EXPECT_EQ(defaultThreadCount(), hw) << bad;
    }
    unsetenv("ASD_SWEEP_THREADS");
    EXPECT_EQ(defaultThreadCount(), hw);
}

TEST(BenchScale, RejectsGarbageAndKeepsValidValues)
{
    EXPECT_DOUBLE_EQ(parseBenchScale(nullptr), 1.0);
    EXPECT_DOUBLE_EQ(parseBenchScale(""), 1.0);
    EXPECT_DOUBLE_EQ(parseBenchScale("0.5"), 0.5);
    EXPECT_DOUBLE_EQ(parseBenchScale("2"), 2.0);
    EXPECT_DOUBLE_EQ(parseBenchScale("0"), 1.0);
    EXPECT_DOUBLE_EQ(parseBenchScale("-3"), 1.0);
    EXPECT_DOUBLE_EQ(parseBenchScale("abc"), 1.0);
    EXPECT_DOUBLE_EQ(parseBenchScale("1.5x"), 1.0);
    EXPECT_DOUBLE_EQ(parseBenchScale("inf"), 1.0);
    EXPECT_DOUBLE_EQ(parseBenchScale("nan"), 1.0);
}

} // namespace
