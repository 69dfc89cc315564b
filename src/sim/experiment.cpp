#include "sim/experiment.hpp"

#include <cstdlib>
#include <string>

#include "common/flags.hpp"
#include "common/log.hpp"
#include "sim/system.hpp"
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

namespace
{

void
copyEpochs(const System &system, std::vector<EpochRecord> *out)
{
    if (!out)
        return;
    out->clear();
    if (system.telemetry())
        *out = system.telemetry()->records();
}

void
fillTenantMetrics(RunMetrics &metrics, const TenantMixSource &mix)
{
    metrics.tenants_enabled = true;
    metrics.tenant_arrivals = mix.arrivals();
    metrics.tenant_departures = mix.departures();
    metrics.tenant_active = mix.activeTenants();
}

} // namespace

RunMetrics
runBenchmark(const Benchmark &bench, const RunOptions &options)
{
    return runBenchmark(bench, options, nullptr);
}

RunMetrics
runBenchmark(const Benchmark &bench, const RunOptions &options,
             std::vector<EpochRecord> *epochs_out)
{
    SyntheticConfig trace_config = bench.trace;
    trace_config.total_accesses = scaledAccesses(bench, options);

    if (options.tenants.enabled) {
        TenantMixSource mix(options.tenants, trace_config,
                            trace_config.total_accesses);
        System system(makeSystemConfig(options), {&mix});
        system.setTenantProbe([&mix]() {
            TenantTelemetrySample sample;
            sample.arrivals = mix.arrivals();
            sample.departures = mix.departures();
            return sample;
        });
        RunMetrics metrics = system.run();
        fillTenantMetrics(metrics, mix);
        copyEpochs(system, epochs_out);
        return metrics;
    }

    SyntheticTraceGenerator trace(trace_config);
    System system(makeSystemConfig(options), {&trace});
    const RunMetrics metrics = system.run();
    copyEpochs(system, epochs_out);
    return metrics;
}

RunMetrics
runSmtPair(const Benchmark &a, const Benchmark &b,
           const RunOptions &options)
{
    return runSmtPair(a, b, options, nullptr);
}

RunMetrics
runSmtPair(const Benchmark &a, const Benchmark &b,
           const RunOptions &options,
           std::vector<EpochRecord> *epochs_out)
{
    SyntheticConfig config_a = a.trace;
    SyntheticConfig config_b = b.trace;
    config_a.total_accesses = scaledAccesses(a, options);
    config_b.total_accesses = scaledAccesses(b, options);
    // Distinct seeds so co-running identical benchmarks do not share
    // address streams.
    config_b.seed = config_b.seed * 7919 + 17;
    SyntheticTraceGenerator trace_a(config_a);
    SyntheticTraceGenerator trace_b(config_b);

    System system(makeSystemConfig(options), {&trace_a, &trace_b});
    const RunMetrics metrics = system.run();
    copyEpochs(system, epochs_out);
    return metrics;
}

} // namespace asd
