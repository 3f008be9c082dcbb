#include "queueing/request_sim.h"

#include <cmath>

#include "queueing/arrivals.h"
#include "queueing/event_engine.h"
#include "stats/streaming_tail.h"
#include "util/log.h"
#include "util/rng.h"

namespace stretch::queueing
{

double
LatencyResult::tail(double percentile) const
{
    if (percentile >= 99.9)
        return p999Ms;
    if (percentile >= 99.0)
        return p99Ms;
    if (percentile >= 95.0)
        return p95Ms;
    return p50Ms;
}

LatencyResult
simulateService(const ServiceSpec &spec, double rate_per_ms,
                const SimKnobs &knobs)
{
    STRETCH_ASSERT(rate_per_ms > 0.0, "arrival rate must be positive");
    STRETCH_ASSERT(knobs.perfScale >= 1.0, "perfScale < 1 is a speedup");

    Rng rng(knobs.seed, 0x9e37);
    ArrivalProcess arrivals = ArrivalProcess::mmpp(
        rate_per_ms, spec.burstRatio, spec.dwellLowMs, spec.dwellHighMs);
    DutyCycleModulator modulator(knobs.duty, knobs.quantumMs);

    // Lognormal demand with the requested mean: mu = ln(mean) - sigma^2/2.
    double mu = std::log(spec.meanServiceMs) -
                spec.logSigma * spec.logSigma / 2.0;

    // The worker pool is a central FCFS queue: every request goes to the
    // worker that frees up first.
    stats::StreamingTail hist;
    EventEngine engine(spec.workers);
    // Typed policy: every hook below inlines into the engine loop. No
    // gap batching here: this rng interleaves arrival and demand draws,
    // so drawing gaps ahead would change the realized samples.
    auto policy = makePolicy(
        [&] { return EventEngine::Arrival{arrivals.next(rng), 0}; },
        [&](std::uint32_t) {
            return rng.lognormal(mu, spec.logSigma) * knobs.perfScale;
        },
        [&](double, double, std::uint32_t) {
            return engine.leastFreeServer();
        },
        [&](std::size_t, double start, double demand) {
            return modulator.finish(start, demand);
        },
        [&](const Completion &c) {
            if (c.index >= knobs.warmup)
                hist.record(c.latencyMs());
        });
    policy.rateHint = rate_per_ms;
    engine.run(knobs.warmup + knobs.requests, policy);

    LatencyResult r;
    r.count = hist.count();
    r.meanMs = hist.mean();
    r.p50Ms = hist.percentile(50.0);
    r.p95Ms = hist.percentile(95.0);
    r.p99Ms = hist.percentile(99.0);
    r.p999Ms = hist.percentile(99.9);
    r.maxMs = hist.max();
    return r;
}

} // namespace stretch::queueing
