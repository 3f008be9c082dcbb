#include "sim/traffic.h"

#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/seed_stream.h"

namespace stretch::sim
{

namespace
{

/** One process at @p rate: the spec's diurnal replay (at @p shape's
 *  phase) when it has a trace, else @p shape's burstiness. */
queueing::ArrivalProcess
arrivalProcess(const TrafficSpec &spec, const workloads::ClassTraffic &shape,
               double rate)
{
    if (spec.trace) {
        return queueing::ArrivalProcess::diurnal(
            rate, *spec.trace, spec.msPerHour, shape.phaseOffsetHours);
    }
    if (shape.burstRatio > 1.0) {
        return queueing::ArrivalProcess::mmpp(
            rate, shape.burstRatio, shape.dwellLowMs, shape.dwellHighMs);
    }
    return queueing::ArrivalProcess::poisson(rate);
}

} // namespace

double
offeredRatePerMs(const TrafficSpec &spec, double capacityPerMs)
{
    if (spec.arrivalRatePerMs > 0.0)
        return spec.arrivalRatePerMs;
    if (spec.trace)
        return 0.7 * capacityPerMs / spec.trace->meanLoad();
    return 0.7 * capacityPerMs;
}

ArrivalStream
makeArrivalStream(const TrafficSpec &spec, double ratePerMs,
                  std::uint64_t seed, std::uint64_t streamTag)
{
    ArrivalStream out;
    if (!spec.perClassArrivals) {
        workloads::ClassTraffic shape;
        shape.burstRatio = spec.burstRatio;
        shape.dwellLowMs = spec.dwellLowMs;
        shape.dwellHighMs = spec.dwellHighMs;
        out.shared = arrivalProcess(spec, shape, ratePerMs);
        return out;
    }

    // One independent stream per class, its RNG derived from (seed,
    // stream tag, class id), so adding a class never perturbs another
    // class's draws.
    const std::vector<double> shares = spec.classes.arrivalShares();
    std::vector<queueing::ClassArrivalSuperposition::Stream> streams;
    streams.reserve(shares.size());
    for (std::size_t k = 0; k < shares.size(); ++k) {
        const workloads::ClassTraffic &shape =
            spec.classes.at(static_cast<workloads::ClassId>(k)).traffic;
        streams.push_back({arrivalProcess(spec, shape, shares[k] * ratePerMs),
                           Rng(util::deriveSeed(seed, streamTag, k))});
    }
    out.perClass.emplace(std::move(streams));
    return out;
}

} // namespace stretch::sim
