/**
 * @file
 * Unit tests for the Stretch control plane: the mode register encoding,
 * the StretchController (partition programming + mode-change flush), and
 * the CPI2-style monitor's decision ladder.
 */

#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <vector>

#include "qos/cpi2_monitor.h"
#include "qos/stretch_controller.h"
#include "stats/summary.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace stretch
{
namespace
{

struct Machine
{
    Machine()
        : mem([] {
              HierarchyConfig cfg;
              cfg.llcWayPartition = {8, 8};
              return cfg;
          }()),
          core(CoreParams{}, mem, bp)
    {
    }
    MemoryHierarchy mem;
    BranchUnit bp;
    SmtCore core;
};

TEST(ModeRegister, EncodeDecode)
{
    StretchModeRegister reg;
    EXPECT_EQ(reg.decode(), StretchMode::Baseline);
    reg.write(StretchModeRegister::encode(StretchMode::BatchBoost));
    EXPECT_EQ(reg.decode(), StretchMode::BatchBoost);
    EXPECT_EQ(reg.read(), 0x1);
    reg.write(StretchModeRegister::encode(StretchMode::QosBoost));
    EXPECT_EQ(reg.decode(), StretchMode::QosBoost);
    EXPECT_EQ(reg.read(), 0x3);
    reg.write(StretchModeRegister::encode(StretchMode::Baseline));
    EXPECT_EQ(reg.decode(), StretchMode::Baseline);
}

TEST(ModeRegister, UndefinedBitsMasked)
{
    StretchModeRegister reg;
    reg.write(0xff);
    EXPECT_EQ(reg.read(), 0x3);
    // B/Q bit without the S-bit means Stretch is disengaged.
    reg.write(0x2);
    EXPECT_EQ(reg.decode(), StretchMode::Baseline);
}

TEST(Controller, BModeProgramsSkewAndLsq)
{
    Machine m;
    StretchController ctl(m.core, 0, {56, 136}, {136, 56});
    ctl.engage(StretchMode::BatchBoost);
    EXPECT_EQ(m.core.rob().limit(0), 56u);
    EXPECT_EQ(m.core.rob().limit(1), 136u);
    // LSQ managed in proportion to the ROB (64 total, 192 ROB -> 1:3).
    EXPECT_EQ(m.core.lsq().limit(0), 56u / 3);
    EXPECT_EQ(m.core.lsq().limit(1), 136u / 3);
}

TEST(Controller, QModeMirrors)
{
    Machine m;
    StretchController ctl(m.core, 0);
    ctl.engage(StretchMode::QosBoost);
    EXPECT_EQ(m.core.rob().limit(0), 136u);
    EXPECT_EQ(m.core.rob().limit(1), 56u);
}

TEST(Controller, BaselineRestoresEqualPartition)
{
    Machine m;
    StretchController ctl(m.core, 0);
    ctl.engage(StretchMode::BatchBoost);
    ctl.engage(StretchMode::Baseline);
    EXPECT_EQ(m.core.rob().limit(0), 96u);
    EXPECT_EQ(m.core.rob().limit(1), 96u);
    EXPECT_EQ(m.core.lsq().limit(0), 32u);
}

TEST(Controller, ModeChangeFlushesPipeline)
{
    Machine m;
    SynthProfile p;
    p.name = "t";
    p.loadFrac = 0.2;
    p.codeBytes = 4096;
    TraceGenerator gen(p, 1, 0);
    m.core.attachThread(0, &gen);
    m.core.run(3000); // past the cold I-side misses
    ASSERT_GT(m.core.robOccupancy(0), 0u);
    StretchController ctl(m.core, 0);
    ctl.engage(StretchMode::BatchBoost);
    EXPECT_EQ(m.core.robOccupancy(0), 0u); // squashed
    EXPECT_EQ(ctl.modeChanges(), 1u);
}

TEST(Controller, ReengageSameModeIsNoOp)
{
    Machine m;
    StretchController ctl(m.core, 0);
    ctl.engage(StretchMode::BatchBoost);
    ctl.engage(StretchMode::BatchBoost);
    EXPECT_EQ(ctl.modeChanges(), 1u);
}

TEST(Controller, LsThreadReassignmentMirrorsLimits)
{
    // Either hardware thread can host the LS software thread
    // (Section IV-D).
    Machine m;
    StretchController ctl(m.core, 0);
    ctl.engage(StretchMode::BatchBoost);
    EXPECT_EQ(m.core.rob().limit(0), 56u);
    ctl.setLsThread(1);
    EXPECT_EQ(m.core.rob().limit(1), 56u);
    EXPECT_EQ(m.core.rob().limit(0), 136u);
    EXPECT_EQ(ctl.lsThread(), 1);
}

MonitorConfig
monitorConfig()
{
    MonitorConfig cfg;
    cfg.qosTarget = 100.0;
    cfg.windowRequests = 8;
    cfg.violationsBeforeThrottle = 2;
    return cfg;
}

void
feedWindow(Cpi2Monitor &mon, double latency)
{
    while (!mon.windowReady())
        mon.recordLatency(latency);
}

TEST(Monitor, EngagesBModeOnSlack)
{
    Cpi2Monitor mon(monitorConfig());
    feedWindow(mon, 20.0); // far below the 100 ms target
    MonitorDecision d = mon.evaluateWindow();
    EXPECT_EQ(d.mode, StretchMode::BatchBoost);
    EXPECT_FALSE(d.throttleCoRunner);
}

TEST(Monitor, StaysBaselineInMidBand)
{
    Cpi2Monitor mon(monitorConfig());
    feedWindow(mon, 75.0); // between engage (60) and qmode (95) thresholds
    EXPECT_EQ(mon.evaluateWindow().mode, StretchMode::Baseline);
}

TEST(Monitor, HysteresisKeepsBMode)
{
    Cpi2Monitor mon(monitorConfig());
    feedWindow(mon, 20.0);
    mon.evaluateWindow(); // B-mode engaged
    feedWindow(mon, 75.0); // above engage (60) but below disengage (85)
    EXPECT_EQ(mon.evaluateWindow().mode, StretchMode::BatchBoost);
    feedWindow(mon, 90.0); // above disengage
    EXPECT_NE(mon.evaluateWindow().mode, StretchMode::BatchBoost);
}

TEST(Monitor, ViolationDisengagesThenThrottles)
{
    Cpi2Monitor mon(monitorConfig());
    feedWindow(mon, 20.0);
    mon.evaluateWindow(); // B-mode
    feedWindow(mon, 120.0); // violation 1: step out of B-mode
    MonitorDecision d1 = mon.evaluateWindow();
    EXPECT_NE(d1.mode, StretchMode::BatchBoost);
    EXPECT_FALSE(d1.throttleCoRunner);
    feedWindow(mon, 120.0); // violation 2
    mon.evaluateWindow();
    feedWindow(mon, 120.0); // violation 3: beyond tolerance -> throttle
    MonitorDecision d3 = mon.evaluateWindow();
    EXPECT_TRUE(d3.throttleCoRunner);
    EXPECT_EQ(mon.violationWindows(), 3u);
}

TEST(Monitor, RecoveryLiftsThrottle)
{
    Cpi2Monitor mon(monitorConfig());
    for (int i = 0; i < 4; ++i) {
        feedWindow(mon, 150.0);
        mon.evaluateWindow();
    }
    ASSERT_TRUE(mon.current().throttleCoRunner);
    feedWindow(mon, 20.0); // load receded
    MonitorDecision d = mon.evaluateWindow();
    EXPECT_FALSE(d.throttleCoRunner);
    // Next quiet window re-engages B-mode.
    feedWindow(mon, 20.0);
    EXPECT_EQ(mon.evaluateWindow().mode, StretchMode::BatchBoost);
}

TEST(Monitor, QModeWithoutProvisioningFallsToBaseline)
{
    MonitorConfig cfg = monitorConfig();
    cfg.hasQMode = false;
    Cpi2Monitor mon(cfg);
    feedWindow(mon, 120.0);
    EXPECT_EQ(mon.evaluateWindow().mode, StretchMode::Baseline);
}

TEST(Monitor, QModeEngagedNearTarget)
{
    Cpi2Monitor mon(monitorConfig());
    feedWindow(mon, 97.0); // above qmodeFraction (95) but below target
    EXPECT_EQ(mon.evaluateWindow().mode, StretchMode::QosBoost);
}

TEST(Monitor, TailUsesConfiguredPercentile)
{
    MonitorConfig cfg = monitorConfig();
    cfg.windowRequests = 100;
    Cpi2Monitor mon(cfg);
    // 95 fast requests and five slow ones: p99 captures the outliers.
    for (int i = 0; i < 95; ++i)
        mon.recordLatency(10.0);
    for (int i = 0; i < 5; ++i)
        mon.recordLatency(500.0);
    MonitorDecision d = mon.evaluateWindow();
    EXPECT_GT(d.tailLatency, 100.0);
}

TEST(Monitor, EvaluateWindowNowUsesPartialWindow)
{
    Cpi2Monitor mon(monitorConfig());
    // Three samples of an eight-request window: still enough for a
    // quantum-boundary decision.
    mon.recordLatency(20.0);
    mon.recordLatency(25.0);
    mon.recordLatency(30.0);
    ASSERT_FALSE(mon.windowReady());
    EXPECT_EQ(mon.windowFill(), 3u);
    MonitorDecision d = mon.evaluateWindowNow();
    EXPECT_EQ(d.mode, StretchMode::BatchBoost);
    EXPECT_EQ(mon.windowFill(), 0u); // window consumed
}

TEST(Monitor, EvaluateWindowNowEmptyKeepsLastDecision)
{
    Cpi2Monitor mon(monitorConfig());
    feedWindow(mon, 20.0);
    mon.evaluateWindow(); // B-mode engaged
    MonitorDecision d = mon.evaluateWindowNow();
    EXPECT_EQ(d.mode, StretchMode::BatchBoost);
    EXPECT_EQ(mon.violationWindows(), 0u); // no window was evaluated
}

TEST(Monitor, CpiOutlierDetection)
{
    Cpi2Monitor mon(monitorConfig());
    for (int i = 0; i < 32; ++i)
        mon.recordCpi(1.0 + 0.01 * (i % 5));
    EXPECT_FALSE(mon.cpiOutlier());
    mon.recordCpi(3.0);
    EXPECT_TRUE(mon.cpiOutlier());
}

TEST(Monitor, EvaluateTailDirectFeed)
{
    Cpi2Monitor mon(monitorConfig());
    EXPECT_EQ(mon.evaluateTail(10.0).mode, StretchMode::BatchBoost);
    EXPECT_EQ(mon.evaluateTail(120.0).mode, StretchMode::QosBoost);
}

/**
 * The CPI history and outlier check as first written: the last
 * `history` samples in a vector that drops its front, and a Welford pass
 * over all but the newest per query. The monitor must agree with it on
 * every verdict.
 */
class ReferenceCpiHistory
{
  public:
    explicit ReferenceCpiHistory(std::size_t history) : history(history) {}

    void
    recordCpi(double cpi)
    {
        samples.push_back(cpi);
        if (samples.size() > history)
            samples.erase(samples.begin());
    }

    bool
    cpiOutlier() const
    {
        if (samples.size() < 8)
            return false;
        return samples.back() > threshold();
    }

    /** The threshold the next sample will be judged against: mean +
     *  2 sigma of the samples that stay in the history beside it. */
    double
    nextThreshold() const
    {
        stats::RunningStat rs;
        std::size_t first =
            samples.size() >= history ? samples.size() + 1 - history : 0;
        for (std::size_t i = first; i < samples.size(); ++i)
            rs.add(samples[i]);
        return rs.mean() + 2.0 * rs.stddev();
    }

  private:
    double
    threshold() const
    {
        stats::RunningStat rs;
        for (std::size_t i = 0; i + 1 < samples.size(); ++i)
            rs.add(samples[i]);
        return rs.mean() + 2.0 * rs.stddev();
    }

    std::size_t history;
    std::vector<double> samples;
};

constexpr int kCpiFamilies = 6;

/** The parameter of one stream of a sample family (see drawCpi). */
double
drawCpiBase(int family, Rng &rng)
{
    switch (family) {
    case 0:
        return 0.1 + 1.5 * rng.uniform();
    case 4:
        return static_cast<double>(rng.between(0, 60));
    case 5:
        return 0.05 + rng.uniform();
    default:
        return std::ldexp(1.0 + rng.uniform(),
                          static_cast<int>(rng.between(-60, 60)));
    }
}

/** One sample of a CPI-like stream family with parameter @p base. */
double
drawCpi(int family, Rng &rng, double base)
{
    switch (family) {
    case 0: // lognormal slowdowns; half the requests never queue
        return rng.chance(0.5) ? 1.0 : std::exp(base * rng.gaussian());
    case 1: // constant
        return base;
    case 2: { // near-constant: a few ulps around the base
        const auto ulps = static_cast<double>(rng.between(-3, 3));
        return base * (1.0 + 0x1p-52 * ulps);
    }
    case 3: { // any sign, any exponent, subnormals, zeros, the odd NaN
        if (rng.chance(0.002))
            return std::numeric_limits<double>::quiet_NaN();
        if (rng.chance(0.002))
            return std::numeric_limits<double>::infinity();
        if (rng.chance(0.01))
            return 0.0;
        const auto exp = static_cast<int>(rng.between(-1074, 1023));
        const double x = std::ldexp(1.0 + rng.uniform(), exp);
        return rng.chance(0.3) ? -x : x;
    }
    case 4: { // a band of 2^base binary exponents above 1
        const auto width = static_cast<std::int64_t>(base);
        const auto exp = static_cast<int>(rng.between(0, width));
        return std::ldexp(1.0 + rng.uniform(), exp);
    }
    default: // slowdowns with 1e6 spikes entering and leaving the window
        return rng.chance(0.02) ? 1e6 : 1.0 + rng.exponential(base);
    }
}

TEST(Monitor, CpiOutlierMatchesWelfordReference)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    Rng rng(20261019);
    std::uint64_t steps = 0;
    std::uint64_t outliers = 0;
    while (steps < 1200000) {
        const auto family = static_cast<int>(rng.below(kCpiFamilies));
        const auto history = static_cast<std::size_t>(rng.between(1, 100));
        // Short runs keep the fewer-than-8-samples start in play.
        const auto length = static_cast<std::size_t>(
            rng.chance(0.1) ? rng.between(1, 12) : rng.between(50, 3000));
        const double base = drawCpiBase(family, rng);
        MonitorConfig cfg;
        cfg.cpiHistory = history;
        Cpi2Monitor mon(cfg);
        ReferenceCpiHistory ref(history);
        for (std::size_t i = 0; i < length; ++i, ++steps) {
            double cpi = drawCpi(family, rng, base);
            // Land some samples on the threshold the reference will
            // compute, or one ulp either side of it.
            if (rng.chance(0.2)) {
                const double t = ref.nextThreshold();
                const std::uint64_t side = rng.below(3);
                cpi = side == 0 ? t
                                : std::nextafter(t, side == 1 ? inf : -inf);
            }
            mon.recordCpi(cpi);
            ref.recordCpi(cpi);
            ASSERT_EQ(mon.cpiOutlier(), ref.cpiOutlier())
                << "family " << family << ", history " << history
                << ", sample " << i << " (" << cpi << ")";
            outliers += ref.cpiOutlier();
        }
    }
    // The streams must exercise both verdicts.
    EXPECT_GT(outliers, steps / 100);
    EXPECT_LT(outliers, steps / 2);
}

TEST(Monitor, CpiOutlierFastPathsThrottle)
{
    // Without CPI signal, a single violating window only steps the mode.
    Cpi2Monitor slow(monitorConfig());
    MonitorDecision d = slow.evaluateTail(120.0);
    EXPECT_FALSE(d.throttleCoRunner);

    // With an antagonist named by the CPI outlier detector, the same
    // violating window throttles immediately — the corrective action
    // skips the remaining tolerance windows.
    Cpi2Monitor fast(monitorConfig());
    for (int i = 0; i < 32; ++i)
        fast.recordCpi(1.0 + 0.01 * (i % 5));
    fast.recordCpi(3.0);
    ASSERT_TRUE(fast.cpiOutlier());
    d = fast.evaluateTail(120.0);
    EXPECT_TRUE(d.throttleCoRunner);
    EXPECT_EQ(fast.throttleEngagements(), 1u);
}

TEST(Monitor, ThrottleEngagementsCountDistinctEngages)
{
    Cpi2Monitor mon(monitorConfig());
    for (int i = 0; i < 4; ++i)
        mon.evaluateTail(150.0); // violations -> throttle
    ASSERT_TRUE(mon.current().throttleCoRunner);
    EXPECT_EQ(mon.throttleEngagements(), 1u); // held, not re-engaged
    mon.evaluateTail(20.0); // recovery lifts the throttle
    EXPECT_FALSE(mon.current().throttleCoRunner);
    for (int i = 0; i < 4; ++i)
        mon.evaluateTail(150.0);
    EXPECT_EQ(mon.throttleEngagements(), 2u);
}

} // namespace
} // namespace stretch
