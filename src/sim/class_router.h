/**
 * @file
 * Class-aware request routing for the fleet dispatcher.
 *
 * RackSched-style request-class scheduling: the router partitions the
 * fleet's serving cores into a *big* set (fastest measured baseline
 * capacity) and a *little* set, pins hot classes (tier-0 priority or low
 * batch-colocation tolerance) to the big cores, and reserves those cores
 * during high-load hours of a diurnal replay while letting loose classes
 * ride the idle big cores through the overnight trough. On top of
 * placement it implements per-class admission control: a sheddable class
 * whose predicted sojourn time blows its SLO budget has its arrivals
 * dropped until the backlog drains.
 *
 * Units: all times are milliseconds of simulated time, rates are
 * requests per millisecond, demands are mean-request units (converted to
 * ms by the serving core's rate). The router is a deterministic pure
 * function of its inputs plus the shed counters it accumulates; it is
 * not thread-safe (the dispatcher is single-threaded by construction).
 */

#ifndef STRETCH_SIM_CLASS_ROUTER_H
#define STRETCH_SIM_CLASS_ROUTER_H

#include <cstdint>
#include <vector>

#include "queueing/diurnal.h"
#include "queueing/event_engine.h"
#include "workload/service_class.h"

namespace stretch::sim
{

/** Knobs of the class-aware routing and admission policy. */
struct ClassRouterConfig
{
    /**
     * Admission budget: a sheddable class's request is dropped when its
     * best predicted sojourn time exceeds shedFactor x the class SLO.
     * Predicted-latency shedding is self-correcting — as the queues
     * drain the prediction falls back under the budget and admission
     * resumes.
     */
    double shedFactor = 3.0;

    /** Master switch for admission control. */
    bool shedEnabled = true;
};

/**
 * Deterministic class-to-core routing over a fixed set of serving cores.
 *
 * Construction sorts the serving cores by baseline rate and fixes the
 * big/little partition; `route` then scores candidate cores by predicted
 * sojourn time (current backlog plus this request's service time at the
 * core's *current* effective rate) and returns the best, or
 * `queueing::EventEngine::shed` when admission control drops the
 * request.
 */
class ClassRouter
{
  public:
    /**
     * @param classes the fleet's class mix (held by reference; must
     *        outlive the router).
     * @param baseline_rate_per_ms per-core baseline LS service rate;
     *        0 marks a core that cannot serve.
     * @param cfg routing and admission knobs.
     * @param trace optional diurnal trace for hour-aware reservation
     *        (nullptr = always reserved); must outlive the router.
     * @param ms_per_hour simulated milliseconds per trace hour.
     * @param per_class_phases honour each class's diurnal phase offset
     *        (`ServiceClass::traffic.phaseOffsetHours`) when judging the
     *        reservation: with per-class arrival processes a hot class
     *        whose day is shifted peaks at different wall-clock hours,
     *        so the big-core reservation follows the busiest *hot*
     *        class's shifted load rather than the raw fleet trace.
     */
    ClassRouter(const workloads::ServiceClassRegistry &classes,
                const std::vector<double> &baseline_rate_per_ms,
                const ClassRouterConfig &cfg,
                const queueing::DiurnalTrace *trace = nullptr,
                double ms_per_hour = 1.0, bool per_class_phases = false);

    /**
     * Core for a class-@p cls request of @p demand arriving at @p now,
     * or `queueing::EventEngine::shed` when the class's admission budget
     * is blown. @p rate_per_ms is each core's *current* effective rate
     * (mode and throttle applied), @p engine supplies the backlogs.
     * Stateless per request; shed accounting is the caller's (the
     * dispatcher counts per class in its `onShed` hook).
     */
    std::size_t route(workloads::ClassId cls, double now, double demand,
                      const queueing::EventEngine &engine,
                      const std::vector<double> &rate_per_ms) const;

    /** True when the big-core reservation is in force at @p now. */
    bool reservedAt(double now) const;

    /** Is this class routed as hot (tier-0 or batch-intolerant)? */
    bool isHot(workloads::ClassId cls) const;

    /// @name Fixed core partition (for tests and reporting).
    /// @{
    const std::vector<std::size_t> &bigCores() const { return big; }
    const std::vector<std::size_t> &littleCores() const { return little; }
    /// @}

    /** Per-decision routing tallies (telemetry; see RoutingStats). */
    struct RoutingStats
    {
        std::uint64_t hotPinned = 0;    ///< hot request kept on a big core
        std::uint64_t hotOverflow = 0;  ///< hot request spilled to little
        std::uint64_t looseLittle = 0;  ///< loose request on the little set
        std::uint64_t looseBig = 0;     ///< loose request on an idle big core
        std::uint64_t shedAdmission = 0; ///< dropped by admission control
    };

    /** Tallies accumulated by route() since construction. */
    const RoutingStats &routingStats() const { return stats; }

  private:
    const workloads::ServiceClassRegistry &classes;
    ClassRouterConfig cfg;
    const queueing::DiurnalTrace *trace;
    double msPerHour;
    bool perClassPhases;
    std::vector<std::size_t> big;    ///< fastest serving cores
    std::vector<std::size_t> little; ///< remaining serving cores
    /** route() is a const routing decision; the tallies are observation
     *  only, hence mutable. */
    mutable RoutingStats stats;
};

} // namespace stretch::sim

#endif // STRETCH_SIM_CLASS_ROUTER_H
