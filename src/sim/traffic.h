/**
 * @file
 * The latency-sensitive traffic an experiment offers, declared once.
 *
 * Stretch's mode controller reacts to the traffic it is offered: the load
 * level, the bursts, the diurnal curve and the class mix. Every layer
 * that describes an experiment — `scenario::Scenario`,
 * `sim::FleetConfig`, `sim::DispatchConfig` and
 * `cluster::ClusterConfig` — inherits `TrafficSpec`, so the knobs keep
 * their flat `cfg.field` spelling at every level while the declaration
 * (and its defaults) lives only here. A level that lowers into the next
 * copies the slice whole and then overrides only what it resolves:
 * a load fraction into a rate, a day-sized `requests`, an hourly
 * timeline, a rack-wide count.
 *
 * Two rules that used to be written once per level live here too: the
 * default offered rate (`offeredRatePerMs`) and the choice of arrival
 * process. The draw loop lives here as well: `RequestSource` turns a
 * spec into gaps, class tags and unit-mean demands, and both the fleet
 * dispatcher and the rack ingress draw from it. Callers keep only their
 * RNG seeds and stream tags and their own arrival scaling, so a fleet
 * and a rack node built from the same spec draw the same kind of
 * traffic by construction.
 *
 * Units: rates are requests per millisecond, times are milliseconds of
 * simulated time.
 */

#ifndef STRETCH_SIM_TRAFFIC_H
#define STRETCH_SIM_TRAFFIC_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "queueing/arrivals.h"
#include "queueing/diurnal.h"
#include "util/rng.h"
#include "workload/service_class.h"

namespace stretch::sim
{

/** The offered request stream: length, rate, shape, classes, and how
 *  its latencies are reported. */
struct TrafficSpec
{
    std::uint64_t requests = 20000; ///< stream length (0 = measure only)

    /**
     * Arrival rate (requests per millisecond). 0 targets 70% of the
     * aggregate baseline service capacity as the *mean* offered load
     * (see `offeredRatePerMs`). Under a diurnal trace an explicit rate is
     * the PEAK rate (the rate at 100% trace load).
     */
    double arrivalRatePerMs = 0.0;

    /// @name Arrival burstiness: 1 = Poisson, > 1 = MMPP-2 bursts with
    /// these mean state dwells.
    /// @{
    double burstRatio = 1.0;
    double dwellLowMs = 200.0;
    double dwellHighMs = 40.0;
    /// @}

    /// @name Diurnal load replay.
    /// A trace overrides burstRatio: arrivals become a non-homogeneous
    /// Poisson process whose rate follows the 24-hour curve.
    /// @{
    std::optional<queueing::DiurnalTrace> trace;
    /** Time compression: simulated milliseconds per trace hour. */
    double msPerHour = 50.0;
    /// @}

    /**
     * Classless demand dispersion: 0 draws exponential unit-mean demands,
     * > 0 lognormal unit-mean demands with this sigma. Ignored with
     * service classes (each class draws from its own distribution).
     */
    double demandLogSigma = 0.0;

    /**
     * Request service classes. Empty keeps the untagged single stream.
     * Non-empty tags every arrival with a weighted class id, draws
     * demands from the class's own distribution, and reports per-class
     * latency and SLO attainment.
     */
    workloads::ServiceClassRegistry classes;

    /**
     * Give every service class its own arrival process (requires a
     * non-empty class registry). Each class sources an independent
     * stream — its normalised share of the total rate
     * (`ServiceClassRegistry::arrivalShares`), its own burstiness and its
     * own diurnal phase offset, all from `ServiceClass::traffic` — and
     * the superposition is consumed by next-arrival competition. The
     * spec-wide burstRatio/dwell knobs are then ignored, while `trace`
     * and `arrivalRatePerMs` keep their meaning (the trace and the total
     * rate the shares divide). False keeps one shared stream with
     * weighted class tagging.
     */
    bool perClassArrivals = false;

    /** Completion-timeline bucket in milliseconds: > 0 reports
     *  per-bucket latency summaries in `DispatchOutcome::timeline`
     *  (e.g. one bucket per replayed hour); 0 = no timeline. */
    double timelineBucketMs = 0.0;

    /**
     * Latency-quantile fidelity. False records completions into streaming
     * log-scale histograms (`stats::StreamingTail`): quantiles within one
     * bin (< 0.8% relative) of the exact order statistic. True keeps
     * every raw sample and reproduces the sort-based type-7 quantiles bit
     * for bit — for golden tests and figure benches.
     */
    bool exactTailQuantiles = false;
};

/**
 * The arrival rate a spec offers to @p capacityPerMs of aggregate
 * baseline service capacity: the explicit `arrivalRatePerMs` when set;
 * otherwise 70% of capacity as the mean load — under a trace that is the
 * peak rate 0.7 x capacity / meanLoad(), so the effective mean load
 * stays at 70% whatever the trace shape.
 */
double offeredRatePerMs(const TrafficSpec &spec, double capacityPerMs);

/** One request as the offered stream draws it. */
struct OfferedRequest
{
    double gapMs = 0.0;        ///< unscaled gap since the previous arrival
    std::uint32_t classId = 0; ///< class tag (0 without classes)
    double demand = 0.0;       ///< unit-mean service demand
};

/**
 * The offered request stream of a `TrafficSpec` at a given rate: each
 * `next()` draws one arrival gap, its class tag and its unit-mean
 * demand.
 *
 * Arrivals: with `perClassArrivals` every class k gets its share of the
 * rate and an `Rng(deriveSeed(seed, streamTag, k))`: diurnal replay at
 * the class's phase offset under a trace, else MMPP-2 when the class is
 * bursty, else Poisson; the superposition fixes gap and tag jointly.
 * Otherwise one shared process drawn from the `arrivals` RNG (diurnal
 * under a trace, where the rate is the peak; MMPP-2 when
 * `burstRatio > 1`; else Poisson), with tags drawn from `tags` by class
 * weight; @p seed and @p streamTag are then unused. Demands come from
 * the class's own law, or without classes from a unit-mean exponential
 * (lognormal when `demandLogSigma > 0`), drawn from `demands`.
 *
 * The three RNGs feed nothing else, so gaps and classless demands are
 * drawn 256 ahead (`ArrivalProcess::fill`, `Rng::fill*`): every value is
 * bit-identical to the one-at-a-time draw, at one dispatch per block.
 * @p spec must outlive the source.
 */
class RequestSource
{
  public:
    RequestSource(const TrafficSpec &spec, double ratePerMs, Rng arrivals,
                  Rng tags, Rng demands, std::uint64_t seed,
                  std::uint64_t streamTag);

    /** Draw the next request. */
    OfferedRequest
    next()
    {
        OfferedRequest r;
        if (perClass) {
            const queueing::EventEngine::Arrival a = perClass->next();
            r.gapMs = a.gapMs;
            r.classId = a.classId;
        } else {
            if (gapNext == gapBlock.size()) {
                shared->fill(arrivalRng, gapBlock.data(), gapBlock.size());
                gapNext = 0;
            }
            r.gapMs = gapBlock[gapNext++];
            if (classes)
                r.classId = classes->sample(tagRng);
        }
        if (classes) {
            r.demand = classes->drawDemand(r.classId, demandRng);
            return r;
        }
        if (demandNext == demandBlock.size()) {
            if (demandLogSigma > 0.0) {
                demandRng.fillLognormal(demandMu, demandLogSigma,
                                        demandBlock.data(),
                                        demandBlock.size());
            } else {
                demandRng.fillExponential(1.0, demandBlock.data(),
                                          demandBlock.size());
            }
            demandNext = 0;
        }
        r.demand = demandBlock[demandNext++];
        return r;
    }

  private:
    const workloads::ServiceClassRegistry *classes; ///< null = classless
    double demandLogSigma;
    double demandMu; ///< -sigma^2 / 2: unit-mean lognormal demands
    /// Exactly one arrival source is engaged.
    std::optional<queueing::ArrivalProcess> shared;
    std::optional<queueing::ClassArrivalSuperposition> perClass;
    Rng arrivalRng;
    Rng tagRng;
    Rng demandRng;
    std::array<double, 256> gapBlock;
    std::array<double, 256> demandBlock;
    std::size_t gapNext = gapBlock.size();
    std::size_t demandNext = demandBlock.size();
};

} // namespace stretch::sim

#endif // STRETCH_SIM_TRAFFIC_H
