/**
 * @file
 * Golden results gate: every drill, rack drill and preset must
 * reproduce its simulated outcome bit for bit.
 *
 * `test_golden_oppoints.cc` pins the core model's operating points; this
 * test pins everything built on top of them — the event engine, fleet
 * dispatch and its control loops, scenario lowering and incidents, and
 * the rack layer's steering and merge. For each entry it records one
 * `obs::digestOf` line (an FNV-1a hash over the bit patterns of every
 * reported field, including each timeline bucket, per-core mode
 * residencies and CPI-outlier counts, and a rack's per-node results):
 *
 *   - `drill <name> <digest> <pass|fail>` for every catalog drill, run
 *     through `scenario::runDrill` (a rack drill digests its merged
 *     view here);
 *   - `rack <name> <digest>` for every rack drill, digesting the whole
 *     `cluster::ClusterResult` — merged view, every node and the
 *     ingress counts — lowered the way `runDrill` lowers it;
 *   - `preset <name> <digest>` for every registered preset, run as is.
 *
 * The lines are compared with the committed golden file. A pure speed
 * or simplicity change must not move any of them. On a mismatch the
 * fresh lines are written next to the test binary as
 * `golden_results.actual`; replace the golden file with it only when a
 * change is meant to alter simulated results, and say which behaviour
 * changed and why.
 */

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>

#include "cluster/cluster.h"
#include "obs/digest.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "sim/runner.h"

#ifndef STRETCH_TEST_DATA_DIR
#error "STRETCH_TEST_DATA_DIR must name the tests/data directory"
#endif

namespace stretch
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** A rack drill's full cluster result, lowered as `runDrill` does:
 *  resolve the horizon from a quiet lowering, scale the incident times
 *  by it, default to 24 timeline buckets, lower again and run. */
cluster::ClusterResult
runRackDrill(const scenario::Drill &d)
{
    scenario::Scenario s = scenario::preset(d.preset);
    const cluster::ClusterConfig quiet = scenario::lowerRack(s);
    const double horizonMs =
        static_cast<double>(quiet.requests) / quiet.arrivalRatePerMs;
    std::vector<scenario::Incident> incidents = d.incidents;
    scenario::scaleIncidentTimes(incidents, horizonMs);
    s.incidents = std::move(incidents);
    if ((s.hourlyTimeline ? s.msPerHour : s.timelineBucketMs) <= 0.0)
        s.timelineBucketMs = horizonMs / 24.0;
    return cluster::runCluster(scenario::lowerRack(s));
}

TEST(GoldenResults, DrillsRackDrillsAndPresetsMatchGoldenFile)
{
    sim::setQuickFactor(1.0);

    std::ostringstream os;
    for (const scenario::Drill &d : scenario::drillCatalog()) {
        scenario::DrillOutcome o = scenario::runDrill(d);
        os << "drill " << d.name << ' ' << obs::digestOf(o.result) << ' '
           << (o.pass ? "pass" : "fail") << '\n';
    }
    for (const scenario::Drill &d : scenario::drillCatalog()) {
        if (scenario::preset(d.preset).nodes > 1)
            os << "rack " << d.name << ' ' << obs::digestOf(runRackDrill(d))
               << '\n';
    }
    for (const std::string &name : scenario::presetNames()) {
        scenario::Scenario s = scenario::preset(name);
        const std::string digest = s.nodes > 1
                                       ? obs::digestOf(scenario::runRack(s))
                                       : obs::digestOf(scenario::run(s));
        os << "preset " << name << ' ' << digest << '\n';
    }

    const std::string actual = os.str();
    const std::string golden =
        slurp(std::string(STRETCH_TEST_DATA_DIR) + "/golden_results.txt");
    ASSERT_FALSE(golden.empty()) << "golden file missing or empty";
    const std::string actual_path = "golden_results.actual";
    if (actual == golden) {
        std::remove(actual_path.c_str());
        return;
    }
    std::ofstream(actual_path, std::ios::binary) << actual;
    ADD_FAILURE() << "results differ from tests/data/golden_results.txt; "
                     "the fresh lines are in "
                  << actual_path;
}

} // namespace
} // namespace stretch
