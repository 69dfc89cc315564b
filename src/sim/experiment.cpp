#include "sim/experiment.hpp"

#include <cstdlib>
#include <string>

#include "common/flags.hpp"
#include "common/log.hpp"
#include "trace/synthetic.hpp"

namespace asd
{

double
parseBenchScale(const char *text)
{
    if (!text || *text == '\0')
        return 1.0;
    const std::optional<double> v = parseFinite(text);
    if (!v || *v <= 0.0) {
        warn("ignoring ASD_BENCH_SCALE \"" + std::string(text) +
             "\" (expects a finite number above 0)");
        return 1.0;
    }
    return *v;
}

double
benchScale()
{
    // Deliberate CI trace-length scaling knob, read once and cached;
    // every derived trace length flows into the job id, so two
    // differently-scaled runs can never collide in the sweep store.
    // asdlint:allow(wall-clock-and-env): CI scale knob, read once at startup and cached; scaled lengths feed the job id
    static const double scale = parseBenchScale(std::getenv("ASD_BENCH_SCALE"));
    return scale;
}

std::uint64_t
scaledAccesses(const Benchmark &bench, const RunOptions &options)
{
    const std::uint64_t base =
        options.accesses.value_or(bench.trace.total_accesses);
    const auto scaled =
        static_cast<std::uint64_t>(static_cast<double>(base) *
                                   benchScale());
    return scaled < 1000 ? 1000 : scaled;
}

SystemConfig
makeSystemConfig(const RunOptions &options)
{
    SystemConfig config;
    config.mode = options.mode;
    config.mc_prefetcher = options.mc_prefetcher;
    config.ps_kind = options.ps_kind;
    config.ps_oracle = options.ps_oracle;
    config.vm = options.vm;
    config.os = options.os;
    config.mc.scheduler = options.scheduler;
    config.asd.buffer_lines = options.buffer_lines;
    config.asd.filter_slots = options.filter_slots;
    config.asd.max_degree = options.max_degree;
    config.asd.saturate_long_streams = options.saturate_long_streams;
    if (options.fixed_policy) {
        config.asd.sched.adaptive = false;
        config.asd.sched.fixed_policy = *options.fixed_policy;
    }
    config.ghb.delta_correlate = options.ghb_delta_correlate;
    config.telemetry = options.telemetry;
    config.tuner = options.tuner;
    config.warmup_cycles = options.warmup_cycles;
    return config;
}

std::vector<std::unique_ptr<TraceSource>>
makeTraceSources(const std::vector<Benchmark> &benches,
                 const RunOptions &options, std::uint64_t accesses)
{
    if (options.tenants.enabled && benches.size() != 1)
        fatal("a tenant mix is one interleaved trace; it cannot run "
              "as an SMT pair");
    std::vector<std::unique_ptr<TraceSource>> sources;
    for (const Benchmark &bench : benches) {
        SyntheticConfig trace_config = bench.trace;
        trace_config.total_accesses =
            accesses != 0 ? accesses : scaledAccesses(bench, options);
        // Distinct seeds so co-running identical benchmarks do not
        // share address streams.
        if (!sources.empty())
            trace_config.seed = trace_config.seed * 7919 + 17;
        if (options.tenants.enabled)
            sources.push_back(std::make_unique<TenantMixSource>(
                options.tenants, trace_config,
                trace_config.total_accesses));
        else
            sources.push_back(
                std::make_unique<SyntheticTraceGenerator>(trace_config));
    }
    return sources;
}

namespace
{

std::vector<TraceSource *>
pointersTo(const std::vector<std::unique_ptr<TraceSource>> &sources)
{
    std::vector<TraceSource *> out;
    for (const auto &source : sources)
        out.push_back(source.get());
    return out;
}

} // namespace

BenchmarkRun::BenchmarkRun(const std::vector<Benchmark> &benches,
                           const RunOptions &options,
                           std::uint64_t accesses,
                           const std::optional<SystemConfig> &config)
    : sources_(makeTraceSources(benches, options, accesses)),
      mix_(options.tenants.enabled
               ? static_cast<const TenantMixSource *>(sources_[0].get())
               : nullptr),
      system_(config ? *config : makeSystemConfig(options),
              pointersTo(sources_))
{
    // Epoch records sample the mix's counters; install the probe
    // before the first epoch (or a restore) so every path that
    // builds a mix records what an uninterrupted run records.
    if (mix_) {
        system_.setTenantProbe([mix = mix_]() {
            TenantTelemetrySample sample;
            sample.arrivals = mix->arrivals();
            sample.departures = mix->departures();
            return sample;
        });
    }
}

RunResult
BenchmarkRun::run()
{
    system_.runUntil(kNoCycle);
    return result();
}

RunResult
BenchmarkRun::result() const
{
    RunResult out;
    out.metrics = system_.collectMetrics();
    if (mix_) {
        out.metrics.tenants_enabled = true;
        out.metrics.tenant_arrivals = mix_->arrivals();
        out.metrics.tenant_departures = mix_->departures();
        out.metrics.tenant_active = mix_->activeTenants();
    }
    if (system_.telemetry())
        out.epochs = system_.telemetry()->records();
    return out;
}

RunMetrics
runBenchmark(const Benchmark &bench, const RunOptions &options)
{
    return BenchmarkRun({bench}, options).run().metrics;
}

RunMetrics
runSmtPair(const Benchmark &a, const Benchmark &b,
           const RunOptions &options)
{
    return BenchmarkRun({a, b}, options).run().metrics;
}

} // namespace asd
