/**
 * @file
 * The incident layer: typed mid-run faults for scenario experiments,
 * plus declarative QoS assertions that turn a run into a pass/fail
 * verdict.
 *
 * The paper's claim is not that Stretch performs under steady state —
 * it is that the control loops *hold QoS when the world misbehaves*.
 * This layer injects the events that break real fleets: flash crowds,
 * retry storms whose amplification couples to observed latency,
 * antagonist phase changes, core degradation and outright failure, and
 * mid-run SLO reshuffles. Each typed incident compiles to a list of
 * plain `sim::IncidentAction`s applied at exact simulated timestamps
 * through the event engine's scheduled-event channel, so an incident
 * run is exactly as deterministic as a quiet one — and an empty
 * incident list is bit-identical to a run before this layer existed.
 *
 * `QosAssertion` closes the loop: declarative bounds — per-class or
 * fleet p99 during a window, attainment over the whole run, recovery
 * time after an incident clears — evaluated against the existing
 * `TimelineBucket`/`ClassOutcome` reporting. A preset + incidents +
 * assertions triple is a regression test (see scenario/presets.h for
 * the curated drill catalog).
 *
 * Units: all incident times are milliseconds of simulated time
 * (absolute, from run start); factors are dimensionless multipliers.
 * The drill runner stores *fractional* times (0..1 of the run horizon)
 * and scales them via `scaleIncidentTimes`/`scaleAssertionTimes` once
 * the horizon is known.
 */

#ifndef STRETCH_SCENARIO_INCIDENTS_H
#define STRETCH_SCENARIO_INCIDENTS_H

#include <limits>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "sim/fleet.h"

namespace stretch::scenario
{

struct Scenario;

/**
 * A surge of legitimate traffic: the fleet arrival rate is multiplied
 * by `factor` over [startMs, endMs) and returns to nominal after.
 * Overlapping crowds do not stack — the latest to take effect wins the
 * base multiplier (retry storms multiply on top; see RetryStorm).
 */
struct FlashCrowd
{
    double startMs = 0.0;
    double endMs = 0.0;
    double factor = 2.0; ///< arrival-rate multiplier during the window
};

/**
 * A latency-coupled retry storm: clients re-issue requests when
 * responses run late, so load amplifies exactly when the fleet is
 * slowest. Between startMs and endMs the arrival multiplier is
 * re-evaluated every `tickMs` as
 *
 *     1 + amplification * (late completions / completions)
 *
 * over the window since the previous tick, where a completion is late
 * above `latencyThresholdMs` (0 auto-derives: the tightest class SLO,
 * or the monitor QoS target without classes). The multiplier applies
 * on top of any flash-crowd base, and resets to 1 at endMs.
 */
struct RetryStorm
{
    double startMs = 0.0;
    double endMs = 0.0;
    double amplification = 1.0; ///< gain per unit lateness fraction
    double tickMs = 5.0;        ///< feedback re-evaluation period
    double latencyThresholdMs = 0.0; ///< lateness bound (0 = auto)
};

/**
 * A batch co-runner entering a cache-hostile phase on one core: the
 * core's effective LS capacity is multiplied by `capacityFactor` over
 * [startMs, endMs) and restored after. The dispatcher's control loops
 * see the slowdown only through its consequences — inflated sojourn
 * times — exactly as a real CPI² deployment would.
 */
struct AntagonistPhaseChange
{
    std::size_t core = 0;
    double startMs = 0.0;
    double endMs = 0.0;
    double capacityFactor = 0.6; ///< capacity multiplier during the phase
};

/**
 * Partial hardware degradation of one core (thermal throttling, a
 * failing DIMM channel): capacity is multiplied by `capacityFactor`
 * from `atMs` on, and restored at `restoreMs` (0 = never restored).
 */
struct CoreDegradation
{
    std::size_t core = 0;
    double atMs = 0.0;
    double capacityFactor = 0.5;
    double restoreMs = 0.0; ///< 0 = degraded for the rest of the run
};

/** Outright loss of one core at `atMs`: queued work drains, nothing new
 *  is routed there for the rest of the run. */
struct CoreFailure
{
    std::size_t core = 0;
    double atMs = 0.0;
};

/**
 * A mid-run SLO reshuffle of one service class: from `atMs` on the
 * class's sojourn target becomes `newSloMs` (when > 0) or
 * `factor * old target`. Admission budgets, per-class monitors, and
 * subsequent attainment accounting all follow the new target.
 */
struct SloReshuffle
{
    std::string className;
    double atMs = 0.0;
    double factor = 0.0;   ///< new target as a multiple of the old one
    double newSloMs = 0.0; ///< absolute new target (overrides factor)
};

/**
 * Partial degradation of one whole *node* in a rack scenario (a shared
 * power cap, a failing NIC): every core of the node serves at
 * `capacityFactor` x nominal from `atMs` on, restored at `restoreMs`
 * (0 = never). The ingress discounts the node's fluid drain rate at
 * the same instant, so the steering signal and the engine degrade
 * together. Rack scenarios (nodes > 1) only.
 */
struct NodeDegradation
{
    std::size_t node = 0;
    double atMs = 0.0;
    double capacityFactor = 0.5;
    double restoreMs = 0.0; ///< 0 = degraded for the rest of the run
};

/**
 * Outright loss of one node at `atMs`: the ingress marks it dead
 * immediately, re-steers its queued work to live nodes (each request
 * pays the failover delay end to end), and routes nothing to it
 * afterwards; work already started drains in place (connection-drain
 * semantics). Rack scenarios (nodes > 1) only.
 */
struct NodeFailure
{
    std::size_t node = 0;
    double atMs = 0.0;
};

/** Any one typed incident. */
using Incident = std::variant<FlashCrowd, RetryStorm, AntagonistPhaseChange,
                              CoreDegradation, CoreFailure, SloReshuffle,
                              NodeDegradation, NodeFailure>;

/** Human-readable incident-kind name (kebab-case, stable for labels). */
const char *incidentName(const Incident &incident);

/** First instant the incident acts. */
double incidentStartMs(const Incident &incident);

/** Instant the incident clears (== start for permanent incidents). */
double incidentEndMs(const Incident &incident);

/** Multiply every timestamp field of every incident by @p factor — the
 *  drill catalog stores times as fractions of the run horizon and
 *  scales them by the resolved horizon before running. */
void scaleIncidentTimes(std::vector<Incident> &incidents, double factor);

/**
 * Validate @p s's incidents against its topology/classes and compile
 * them to the dispatcher's sorted absolute-timestamp action list
 * (fatal on an invalid incident, with the field named). Storm ticks
 * are materialised here, so the dispatcher stays a pure executor.
 */
std::vector<sim::IncidentAction> compileIncidents(const Scenario &s);

/** Validation messages for a scenario's incidents (empty = valid);
 *  the builder-facing twin of `compileIncidents`'s fatal checks. */
std::vector<std::string> incidentErrors(const Scenario &s);

/** Fatal when @p s has an invalid incident: the message names the
 *  scenario and lists every `incidentErrors` message. */
void requireValidIncidents(const Scenario &s);

/**
 * One declarative QoS bound evaluated against a finished run's
 * timeline and per-class reporting. Build via the factory helpers
 * below; evaluate with `evaluate`.
 */
struct QosAssertion
{
    enum class Kind
    {
        /** Class p99 sojourn <= bound in every timeline bucket that
         *  overlaps [fromMs, untilMs) and saw completions. */
        ClassTailAtMost,
        /** Fleet p99 sojourn <= bound over the same bucket window. */
        FleetTailAtMost,
        /** Class SLO attainment over the whole run >= bound (a
         *  fraction; shed requests count as misses). */
        AttainmentAtLeast,
        /** Within `bound` ms after fromMs, some bucket's p99 (class or
         *  fleet) has returned under latencyBoundMs — recovery time
         *  after an incident clears. */
        RecoveryWithin,
    };

    Kind kind = Kind::FleetTailAtMost;
    std::string className; ///< empty = fleet-wide (tail/recovery kinds)
    double bound = 0.0;    ///< ms, or fraction for AttainmentAtLeast
    double fromMs = 0.0;   ///< window start (tail) / incident end (recovery)
    double untilMs = std::numeric_limits<double>::infinity(); ///< window end
    double latencyBoundMs = 0.0; ///< RecoveryWithin: the "recovered" bar
};

/// @name Assertion factories.
/// @{
QosAssertion classTailAtMost(std::string class_name, double bound_ms,
                             double from_ms = 0.0,
                             double until_ms =
                                 std::numeric_limits<double>::infinity());
QosAssertion fleetTailAtMost(double bound_ms, double from_ms = 0.0,
                             double until_ms =
                                 std::numeric_limits<double>::infinity());
QosAssertion attainmentAtLeast(std::string class_name, double fraction);
/** Recovered when a post-`after_ms` bucket's p99 (of @p class_name, or
 *  the fleet when empty) is back under @p latency_bound_ms; fails when
 *  that takes longer than @p within_ms. */
QosAssertion recoveryWithin(std::string class_name, double latency_bound_ms,
                            double within_ms, double after_ms);
/// @}

/** Scale the *time* fields of every assertion by @p factor (window
 *  bounds, and the recovery allowance — latency bounds and attainment
 *  fractions are left alone). */
void scaleAssertionTimes(std::vector<QosAssertion> &assertions,
                         double factor);

/** Human-readable assertion-kind name (kebab-case, stable — used as the
 *  `kind` field of run-report assertion entries). */
const char *toString(QosAssertion::Kind kind);

/** Verdict of one assertion against one run. */
struct AssertionResult
{
    QosAssertion assertion;
    bool pass = false;
    double observed = 0.0; ///< worst p99 / attainment / recovery ms
    std::string detail;    ///< human-readable one-liner
};

/** A simulated-time window (for trace attachments). */
struct TraceWindow
{
    double fromMs = 0.0;
    double untilMs = 0.0;
};

/**
 * The window of simulated time around the timeline buckets that made
 * @p v fail, padded by one bucket on each side and clamped to the run
 * — the slice of trace a run report attaches to a failed assertion.
 * Empty for passing assertions; attainment failures (no bucket window
 * of their own) cover the whole run.
 */
std::optional<TraceWindow>
violationWindow(const AssertionResult &v, const sim::FleetResult &result,
                double timeline_bucket_ms);

/**
 * Evaluate assertions against a finished run. Tail and recovery kinds
 * need the run's timeline (@p timeline_bucket_ms must match the
 * config's bucketing; fatal when a timeline-dependent assertion meets
 * a run without one); attainment reads `DispatchOutcome::perClass`.
 */
std::vector<AssertionResult>
evaluate(const std::vector<QosAssertion> &assertions,
         const sim::FleetResult &result, double timeline_bucket_ms);

} // namespace stretch::scenario

#endif // STRETCH_SCENARIO_INCIDENTS_H
