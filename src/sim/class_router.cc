#include "sim/class_router.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "util/log.h"

namespace stretch::sim
{

namespace
{

/**
 * Fraction of the serving cores (by measured baseline rate, fastest
 * first, at least one) forming the *big* set hot classes are pinned to.
 * The rest form the *little* set.
 */
constexpr double bigCoreFraction = 0.5;

/**
 * Diurnal-replay load fraction above which the big set is reserved for
 * hot classes. Below the cutoff (the overnight trough) loose classes may
 * use the idle big cores too. Without a trace the dispatcher is assumed
 * to run at peak, so the reservation always holds.
 */
constexpr double reserveLoadCutoff = 0.6;

} // namespace

ClassRouter::ClassRouter(const workloads::ServiceClassRegistry &classes,
                         const std::vector<double> &baseline_rate_per_ms,
                         const ClassRouterConfig &cfg,
                         const queueing::DiurnalTrace *trace,
                         double ms_per_hour, bool per_class_phases)
    : classes(classes), cfg(cfg), trace(trace), msPerHour(ms_per_hour),
      perClassPhases(per_class_phases)
{
    STRETCH_ASSERT(!classes.empty(), "class router needs at least one "
                                     "service class");
    STRETCH_ASSERT(cfg.shedFactor > 0.0, "shed factor must be positive");
    STRETCH_ASSERT(!trace || ms_per_hour > 0.0,
                   "hour-aware routing needs a positive ms-per-hour");

    std::vector<std::size_t> serving;
    for (std::size_t c = 0; c < baseline_rate_per_ms.size(); ++c) {
        STRETCH_ASSERT(baseline_rate_per_ms[c] >= 0.0,
                       "negative baseline rate");
        if (baseline_rate_per_ms[c] > 0.0)
            serving.push_back(c);
    }
    STRETCH_ASSERT(!serving.empty(), "no core in the fleet can serve "
                                     "requests");

    // Fastest first, ties to the lowest core id (stable + deterministic).
    std::stable_sort(serving.begin(), serving.end(),
                     [&](std::size_t a, std::size_t b) {
                         return baseline_rate_per_ms[a] >
                                baseline_rate_per_ms[b];
                     });
    auto nbig = static_cast<std::size_t>(std::ceil(
        bigCoreFraction * static_cast<double>(serving.size())));
    nbig = std::max<std::size_t>(1, std::min(nbig, serving.size()));
    big.assign(serving.begin(),
               serving.begin() + static_cast<std::ptrdiff_t>(nbig));
    little.assign(serving.begin() + static_cast<std::ptrdiff_t>(nbig),
                  serving.end());
}

bool
ClassRouter::reservedAt(double now) const
{
    if (!trace)
        return true; // no trace: steady load, assume peak hours
    double hour = now / msPerHour;
    double load = trace->loadAt(hour);
    if (perClassPhases) {
        // With per-class arrival processes a hot class's day may be
        // phase-shifted; reserve the big cores whenever any hot class is
        // near ITS peak, not just when the raw fleet trace is.
        for (std::size_t k = 0; k < classes.size(); ++k) {
            auto cls = static_cast<workloads::ClassId>(k);
            if (!isHot(cls))
                continue;
            load = std::max(
                load, trace->loadAt(
                          hour + classes.at(cls).traffic.phaseOffsetHours));
        }
    }
    return load >= reserveLoadCutoff;
}

bool
ClassRouter::isHot(workloads::ClassId cls) const
{
    const workloads::ServiceClass &c = classes.at(cls);
    return c.priority == 0 || c.batchTolerance < 0.5;
}

std::size_t
ClassRouter::route(workloads::ClassId cls, double now, double demand,
                   const queueing::EventEngine &engine,
                   const std::vector<double> &rate_per_ms) const
{
    const workloads::ServiceClass &c = classes.at(cls);

    // Best core (minimum predicted sojourn: backlog + own service time
    // at the core's current effective rate) within a candidate set.
    auto best = [&](const std::vector<std::size_t> &set) {
        std::size_t target = queueing::EventEngine::shed;
        double best_pred = std::numeric_limits<double>::infinity();
        for (std::size_t core : set) {
            double pred = engine.backlogMs(core, now) +
                          demand / rate_per_ms[core];
            if (pred < best_pred) {
                best_pred = pred;
                target = core;
            }
        }
        return std::make_pair(target, best_pred);
    };

    std::size_t target;
    double predicted;
    bool onLittle = false;
    const bool hot = isHot(cls);
    if (hot) {
        // Hot classes live on the big cores; overflow to the whole fleet
        // only when every big core already predicts an SLO miss (the
        // little cores are then the lesser evil).
        std::tie(target, predicted) = best(big);
        if (predicted > c.sloMs && !little.empty()) {
            auto [lt, lp] = best(little);
            if (lp < predicted) {
                target = lt;
                predicted = lp;
                onLittle = true;
            }
        }
    } else if (!little.empty() && reservedAt(now)) {
        // Peak hours: the big cores are reserved for hot traffic.
        std::tie(target, predicted) = best(little);
        onLittle = true;
    } else {
        // Trough hours (or a fleet with no little set): loose classes
        // may soak up the idle big cores too.
        std::tie(target, predicted) = best(big);
        if (!little.empty()) {
            auto [lt, lp] = best(little);
            if (lp < predicted) {
                target = lt;
                predicted = lp;
                onLittle = true;
            }
        }
    }

    if (cfg.shedEnabled && c.sheddable &&
        predicted > cfg.shedFactor * c.sloMs) {
        ++stats.shedAdmission;
        return queueing::EventEngine::shed;
    }
    if (hot)
        ++(onLittle ? stats.hotOverflow : stats.hotPinned);
    else
        ++(onLittle ? stats.looseLittle : stats.looseBig);
    return target;
}

} // namespace stretch::sim
