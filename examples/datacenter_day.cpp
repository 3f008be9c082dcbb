/**
 * @file
 * A day in a datacenter, end to end: a heterogeneous fleet (big 192-entry
 * and little 128-entry ROB cores, each a real colocation pair) serves a
 * 24-hour DiurnalTrace replayed as a time-compressed arrival process.
 * Each core's CPI²-style monitor watches per-request sojourn times and
 * walks the Stretch ladder — B-mode when slack is ample, Q-mode as the
 * tail closes in, and co-runner throttling when violations persist — and
 * the dispatcher acts on every decision, including suppressing the batch
 * thread. Prints an hour-by-hour timeline plus per-core mode and throttle
 * residency.
 *
 * Written against the scenario API: the whole experiment — topology,
 * peak load relative to measured capacity, day-sized stream, hourly
 * timeline, relative QoS target — is one builder chain; calibration
 * against a static probe happens inside `scenario::run`.
 *
 * Usage: datacenter_day [websearch|youtube]
 */

#include <cstdio>
#include <cstring>

#include "scenario/scenario.h"

using namespace stretch;
using namespace stretch::queueing;

int
main(int argc, char **argv)
{
    bool youtube = argc > 1 && std::strcmp(argv[1], "youtube") == 0;
    DiurnalTrace trace = youtube ? DiurnalTrace::youtubeCluster()
                                 : DiurnalTrace::webSearchCluster();
    std::string ls_workload = youtube ? "media_streaming" : "web_search";

    // A heterogeneous rack slice: two big cores colocating the service
    // with mcf, two little cores (smaller ROB/LSQ, proportionally scaled
    // mode skews) colocating it with zeusmp.
    sim::RunConfig base;
    base.workload0 = ls_workload;
    base.workload1 = "mcf";
    base.samples = 2;
    base.warmupOps = 3000;
    base.measureOps = 8000;

    std::vector<sim::CoreSlot> slots(4);
    slots[2].robEntries = slots[3].robEntries = 128;
    slots[2].lsqEntries = slots[3].lsqEntries = 48;
    slots[2].bmodeSkew = slots[3].bmodeSkew = SkewConfig{40, 88};
    slots[2].qmodeSkew = slots[3].qmodeSkew = SkewConfig{88, 40};

    // Replay a full 24-hour day, time-compressed, with the peak load at
    // the fleet's measured baseline capacity: the midday plateau
    // pressures the monitor into Q-mode and throttling, which together
    // buy the headroom that keeps the queue from running away.
    const double ms_per_hour = 60.0;
    scenario::Scenario day_scenario =
        scenario::ScenarioBuilder()
            .name("datacenter-day")
            .cores(base, slots)
            .coRunner(2, "zeusmp")
            .coRunner(3, "zeusmp")
            .placement(sim::PlacementPolicy::QosAware)
            .diurnal(trace, ms_per_hour)
            .peakLoad(1.0)   // peak rate = measured fleet capacity
            .dayLongStream() // size the stream to span the whole day
            .hourlyTimeline()
            .modePolicy(sim::ModePolicyKind::SlackDriven)
            .controlQuantum(0.5)
            .qosTargetFactor(4.0) // 4x the flat-load probe's p99
            .expect();

    std::printf("Measuring the heterogeneous fleet at its operating "
                "points (%s)...\n",
                ls_workload.c_str());

    sim::FleetConfig lowered = scenario::lower(day_scenario);
    sim::FleetResult day = sim::runFleet(lowered);
    const sim::DispatchOutcome &d = day.dispatch;

    std::printf("\n%s: %llu requests over a compressed 24 h day "
                "(%.0f ms/hour), peak %.1f req/ms, QoS target %.2f ms\n\n",
                trace.name().c_str(),
                static_cast<unsigned long long>(lowered.requests),
                ms_per_hour, lowered.arrivalRatePerMs,
                lowered.control.monitor.qosTarget);
    std::printf("%5s %6s %-22s %8s %9s %9s %10s\n", "hour", "load", "",
                "reqs", "p50", "p99", "throttled");
    for (std::size_t b = 0; b < d.timeline.size() && b < 24; ++b) {
        const sim::TimelineBucket &tb = d.timeline[b];
        int bars = static_cast<int>(tb.loadFraction * 20.0);
        char gauge[24];
        for (int i = 0; i < 20; ++i)
            gauge[i] = i < bars ? '#' : '.';
        gauge[20] = 0;
        std::printf("%5zu %5.0f%% %-22s %8llu %7.2fms %7.2fms %7.1fms\n", b,
                    tb.loadFraction * 100.0, gauge,
                    static_cast<unsigned long long>(tb.completions),
                    tb.p50Ms, tb.p99Ms, tb.throttledCoreMs);
    }

    std::printf("\nPer-core mode/throttle residency over the day:\n");
    for (std::size_t i = 0; i < d.modeStats.size(); ++i) {
        const sim::CoreModeStats &m = d.modeStats[i];
        double total = m.residencyMs[0] + m.residencyMs[1] + m.residencyMs[2];
        if (total <= 0.0)
            continue;
        std::printf("  core %zu (%s, %3u-entry ROB): %5.1f%% base, "
                    "%5.1f%% B, %5.1f%% Q | throttled %5.1f%% "
                    "(%llu engagements, %llu CPI outliers)\n",
                    i, day_scenario.cores[i].workload1.c_str(),
                    day_scenario.slots[i].robEntries
                        ? day_scenario.slots[i].robEntries
                        : base.robEntries,
                    100.0 * m.residencyMs[0] / total,
                    100.0 * m.residencyMs[1] / total,
                    100.0 * m.residencyMs[2] / total,
                    100.0 * m.throttleMs / total,
                    static_cast<unsigned long long>(m.throttleEngagements),
                    static_cast<unsigned long long>(m.cpiOutliers));
    }

    std::printf("\nQoS:   p99 %.2f ms (target %.2f ms), p99.9 %.2f ms\n",
                d.latencyMs.p99, lowered.control.monitor.qosTarget,
                d.latencyMs.p999);
    std::printf("Batch: %.3f UIPC at baseline, %.3f effective after mode "
                "residency + throttling (%+.1f%%)\n",
                day.totalBatchUipc, day.effectiveBatchUipc,
                day.totalBatchUipc > 0.0
                    ? 100.0 * (day.effectiveBatchUipc / day.totalBatchUipc -
                               1.0)
                    : 0.0);
    std::printf("\nThe monitor engages B-mode in the overnight trough, "
                "retreats as the daytime\nplateau builds, and throttles "
                "the co-runner where violations persist — the\nbatch "
                "column above is the measured price of keeping the tail "
                "inside target.\n");
    return 0;
}
