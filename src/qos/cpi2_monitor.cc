#include "qos/cpi2_monitor.h"

#include <algorithm>
#include <cmath>

#include "stats/summary.h"
#include "util/log.h"

namespace stretch
{

Cpi2Monitor::Cpi2Monitor(const MonitorConfig &cfg) : cfg(cfg)
{
    STRETCH_ASSERT(cfg.qosTarget > 0.0, "QoS target must be positive");
    STRETCH_ASSERT(cfg.engageFraction < cfg.disengageFraction,
                   "engage threshold must sit below disengage threshold");
    window.reserve(cfg.windowRequests);
    if (cfg.cpiHistory >= 8)
        cpiRing.assign(cfg.cpiHistory, 0.0);
}

void
Cpi2Monitor::recordLatency(double latency)
{
    window.push_back(latency);
}

MonitorDecision
Cpi2Monitor::evaluateWindow()
{
    STRETCH_ASSERT(windowReady(), "evaluateWindow before window filled");
    // The window is discarded below, so sort it in place.
    std::sort(window.begin(), window.end());
    double tail = stats::percentileSorted(window, cfg.tailPercentile);
    window.clear();
    return evaluateTail(tail);
}

MonitorDecision
Cpi2Monitor::evaluateWindowNow()
{
    if (window.empty())
        return last;
    // The window is discarded below, so sort it in place.
    std::sort(window.begin(), window.end());
    double tail = stats::percentileSorted(window, cfg.tailPercentile);
    window.clear();
    return evaluateTail(tail);
}

void
Cpi2Monitor::retarget(double qos_target, double tail_percentile)
{
    STRETCH_ASSERT(qos_target > 0.0, "QoS target must be positive");
    STRETCH_ASSERT(tail_percentile > 0.0 && tail_percentile <= 100.0,
                   "tail percentile must be in (0, 100]");
    cfg.qosTarget = qos_target;
    cfg.tailPercentile = tail_percentile;
}

MonitorDecision
Cpi2Monitor::evaluateTail(double tail)
{
    MonitorDecision d = last;
    d.tailLatency = tail;
    ++windowsEval;

    if (tail > cfg.qosTarget) {
        ++violations;
        // First corrective action: disengage B-mode (step to Baseline or
        // Q-mode). If violations persist across windows, fall back to the
        // CPI2 ladder and throttle the co-runner. A CPI outlier names the
        // antagonist directly, so the tolerance count is skipped.
        ++consecutiveViolations;
        d.mode = cfg.hasQMode ? StretchMode::QosBoost : StretchMode::Baseline;
        if (consecutiveViolations > cfg.violationsBeforeThrottle ||
            cpiOutlier()) {
            d.throttleCoRunner = true;
        }
    } else {
        consecutiveViolations = 0;
        if (d.throttleCoRunner && tail < cfg.engageFraction * cfg.qosTarget) {
            // Load has receded: lift the throttle first.
            d.throttleCoRunner = false;
            d.mode = StretchMode::Baseline;
        } else if (!d.throttleCoRunner) {
            switch (last.mode) {
              case StretchMode::BatchBoost:
                // Hysteresis: stay in B-mode until slack shrinks.
                if (tail > cfg.disengageFraction * cfg.qosTarget) {
                    d.mode = cfg.hasQMode && tail > cfg.qmodeFraction *
                                                        cfg.qosTarget
                                 ? StretchMode::QosBoost
                                 : StretchMode::Baseline;
                }
                break;
              case StretchMode::Baseline:
              case StretchMode::QosBoost:
                if (tail < cfg.engageFraction * cfg.qosTarget) {
                    d.mode = StretchMode::BatchBoost;
                } else if (cfg.hasQMode &&
                           tail > cfg.qmodeFraction * cfg.qosTarget) {
                    d.mode = StretchMode::QosBoost;
                } else if (last.mode == StretchMode::QosBoost &&
                           tail < cfg.disengageFraction * cfg.qosTarget) {
                    d.mode = StretchMode::Baseline;
                }
                break;
            }
        }
    }

    if (d.throttleCoRunner && !last.throttleCoRunner)
        ++throttleEngages;
    last = d;
    return d;
}

namespace
{

/** Unit roundoff of double: |fl(a op b) - a op b| <= kUnit |fl(a op b)|
 *  for + - * / and sqrt, barring underflow. */
constexpr double kUnit = 0x1p-53;
/** Absolute error an underflowing product or quotient may add. */
constexpr double kTiny = 0x1p-1074;
/** Covers sqrt(kTiny)-sized errors of a subnormal variance. */
constexpr double kTinyStddev = 1e-160;
/** Samples above this magnitude (and NaNs) stay out of the sums, so no
 *  square, sum or Welford term can overflow. */
constexpr double kTame = 1e140;

bool
tame(double x)
{
    return std::fabs(x) <= kTame;
}

} // namespace

void
Cpi2Monitor::accumulatePrior(double x, double sign)
{
    const double sq = x * x;
    priorSum += sign * x;
    priorSq += sign * sq;
    priorSumErr += kUnit * std::fabs(priorSum);
    priorSqErr += kUnit * (sq + std::fabs(priorSq)) + kTiny;
}

void
Cpi2Monitor::resyncPriorSums()
{
    priorSum = priorSumErr = priorSq = priorSqErr = 0.0;
    pushesSinceSync = 0;
    if (wildPrior)
        return;
    const std::size_t cap = cpiRing.size();
    std::size_t i = cpiCount == cap ? cpiNext : 0;
    for (std::size_t k = 0; k + 1 < cpiCount; ++k) {
        accumulatePrior(cpiRing[i], 1.0);
        if (++i == cap)
            i = 0;
    }
}

bool
Cpi2Monitor::welfordVerdict() const
{
    const std::size_t cap = cpiRing.size();
    std::size_t i = cpiCount == cap ? cpiNext : 0;
    stats::RunningStat rs;
    for (std::size_t k = 0; k + 1 < cpiCount; ++k) {
        rs.add(cpiRing[i]);
        if (++i == cap)
            i = 0;
    }
    return cpiRing[i] > rs.mean() + 2.0 * rs.stddev();
}

/*
 * Decide `newest > T` without running the loop, where T is the threshold
 * welfordVerdict() computes over the m prior samples x_1..x_m (all tame,
 * so nothing below overflows). Returns 1 or 0 when certain, -1 when the
 * loop must decide. u = kUnit; eta = kTiny.
 *
 * Exact quantities: mu = sum/m, M2 = sum (x - mu)^2, sd = sqrt(M2/(m-1)),
 * and the spread R = max - min <= sqrt(2 M2) (any two samples a, b have
 * (a-mu)^2 + (b-mu)^2 >= (a-b)^2/2).
 *
 * 1. The sums. S and Q differ from the exact prior sums by at most eS and
 *    eQ (each add, subtract or square errs by at most u times its result,
 *    plus eta for an underflowing square). Then
 *      muF = fl(S/m):       |muF - mu| <= eMu = eS/m + u|muF| + eta
 *      m2F = fl(Q - fl(S muF)):
 *                           |m2F - M2| <= eM2 = eQ + eS|muF|
 *                                          + (|S| + eS) eMu
 *                                          + u(|S muF| + |m2F|) + eta
 *    so M2 <= M2hi = max(m2F, 0) + eM2, R <= sqrt(2 M2hi), and every
 *    sample and every partial mean mu_k lies within A = |muF| + eMu + R
 *    of zero.
 *
 * 2. The Welford loop (RunningStat::add). Step 1 is exact (M_1 = x_1,
 *    m2_1 = 0). Step k >= 2 computes d = fl(x - M), M' = fl(M + fl(d/k)),
 *    m2' = fl(m2 + fl(d fl(x - M'))). With eps_k = M_k - mu_k the exact
 *    recurrence mu_k = mu_{k-1} + (x_k - mu_{k-1})/k gives
 *      |eps_k| <= |eps_{k-1}| (1 - 1/k) + 2.01u (R + |eps_{k-1}|)/k
 *                 + u (A + |eps_k|) + eta,
 *    so over m - 1 steps |eps| <= E = 1.01 (m-1) (u (A + 2.01 R) + eta).
 *    The exact term (x - mu_{k-1})(x - mu_k) and the computed one differ
 *    by at most 2 E R + E^2 (shifted means) + 3.01u (R + E)^2 (three
 *    roundings) + eta, and each sum adds u m2_k <= u M2hi (M2_k grows
 *    with k), so |m2_W - M2| <= eW = 1.01 (m-1) (2 E R + E^2
 *    + 3.01u (R + E)^2 + u M2hi + eta). m2_W >= 0 always: d and
 *    fl(x - M') never differ in sign, since M' cannot pass x.
 *
 * 3. The threshold. The loop's M_W is within eMu + E of muF and m2_W
 *    within eM2 + eW of m2F. Doubling both bounds also absorbs the
 *    rounding of this function's own arithmetic (each error term is
 *    computed to within a few u, and eM2 >= u|m2F| keeps the cancelling
 *    subtraction below honest). The loop's final division, sqrt and
 *    add err by at most u(A + 2 sd) each, plus sqrt(eta) for a
 *    subnormal variance, and this function's additions by the same
 *    order: 16u (A + 2 sdHi) + kTinyStddev covers all of them. Hence
 *    tLo <= T <= tHi, and newest outside [tLo, tHi] is decided.
 */
int
Cpi2Monitor::boundedVerdict(double newest) const
{
    const double m = static_cast<double>(cpiCount - 1);
    const double mu = priorSum / m;
    const double eMu = priorSumErr / m + kUnit * std::fabs(mu) + kTiny;
    const double p = priorSum * mu;
    const double m2 = priorSq - p;
    const double eM2 = priorSqErr + priorSumErr * std::fabs(mu) +
                       (std::fabs(priorSum) + priorSumErr) * eMu +
                       kUnit * (std::fabs(p) + std::fabs(m2)) + kTiny;
    const double m2Hi = std::max(m2, 0.0) + eM2;

    const double spread = std::sqrt(2.0 * m2Hi);
    const double big = std::fabs(mu) + eMu + spread;
    const double eMean =
        1.01 * (m - 1.0) * (kUnit * (big + 2.01 * spread) + kTiny);
    const double dev = spread + eMean;
    const double eW =
        1.01 * (m - 1.0) *
        (2.0 * eMean * spread + eMean * eMean + 3.01 * kUnit * dev * dev +
         kUnit * m2Hi + kTiny);

    const double eT = 2.0 * (eMu + eMean);
    const double e2 = 2.0 * (eM2 + eW);
    const double sdLo = std::sqrt(std::max(m2 - e2, 0.0) / (m - 1.0));
    const double sdHi = std::sqrt((m2 + e2) / (m - 1.0));
    const double slack = 16.0 * kUnit * (big + 2.0 * sdHi) + kTinyStddev;
    if (newest > mu + eT + 2.0 * sdHi + slack)
        return 1;
    if (newest <= mu - eT + 2.0 * sdLo - slack)
        return 0;
    return -1;
}

void
Cpi2Monitor::recordCpi(double cpi)
{
    const std::size_t cap = cpiRing.size();
    if (cap == 0)
        return;

    // The previous newest sample joins the prior set; a full ring's
    // oldest (cap >= 8, so never the newest) leaves it. Wild samples
    // stay out of the sums; the sums restart from the ring when the
    // last one leaves, and every cap pushes to shed accumulated error.
    const bool hadPrev = cpiCount > 0;
    const bool full = cpiCount == cap;
    const double prev = hadPrev ? cpiRing[cpiNext ? cpiNext - 1 : cap - 1]
                                : 0.0;
    const double leaving = cpiRing[cpiNext];
    cpiRing[cpiNext] = cpi;
    if (++cpiNext == cap)
        cpiNext = 0;
    if (!full)
        ++cpiCount;

    bool resync = ++pushesSinceSync >= cap;
    if (hadPrev) {
        if (!tame(prev))
            ++wildPrior;
        else if (!wildPrior)
            accumulatePrior(prev, 1.0);
    }
    if (full) {
        if (!tame(leaving))
            resync |= --wildPrior == 0;
        else if (!wildPrior)
            accumulatePrior(leaving, -1.0);
    }
    if (resync)
        resyncPriorSums();

    if (cpiCount < 8) {
        outlier = false;
        return;
    }
    const int bounded = wildPrior || !tame(cpi) ? -1 : boundedVerdict(cpi);
    outlier = bounded < 0 ? welfordVerdict() : bounded == 1;
}

} // namespace stretch
