/**
 * @file
 * Golden operating-point gate: the core model must reproduce every
 * measured operating point bit for bit.
 *
 * The test measures, at full sampling scale and with an empty
 * operating-point cache, every point the drill catalog and the
 * rack-web-search preset need, plus a handful of small extra
 * configurations that reach the machine shapes no preset uses (every
 * `RobConfigKind`, every `FetchPolicy`, the isolated half- and
 * full-machine paths, private L1-I/L1-D/branch tables). The cache's
 * versioned `saveTo` text (doubles as raw bit patterns) is then compared
 * byte for byte with the committed golden file. Any change to the
 * simulated machine shows up here; a pure speed change must not.
 *
 * On a mismatch the fresh output is written next to the test binary as
 * `golden_oppoints.actual`. Replace the golden file with it only when a
 * change is meant to alter simulated results, and say so in the change
 * description.
 */

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "sim/op_point_cache.h"

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

/** Small colocation; the extras below each vary one axis of it. */
sim::RunConfig
extraBase(const std::string &ls, const std::string &batch)
{
    sim::RunConfig cfg;
    cfg.workload0 = ls;
    cfg.workload1 = batch;
    cfg.samples = 1;
    cfg.warmupOps = 2000;
    cfg.warmupCycles = 10000;
    cfg.measureOps = 5000;
    cfg.seed = 7;
    return cfg;
}

/** Machine shapes the presets never measure. */
std::vector<sim::RunConfig>
extraConfigs()
{
    std::vector<sim::RunConfig> v;

    sim::RunConfig c = extraBase("data_serving", "mcf");
    v.push_back(c); // EqualPartition, Icount, everything shared

    c = extraBase("data_serving", "mcf");
    c.rob = {sim::RobConfigKind::Asymmetric, 40, 152};
    v.push_back(c);

    c = extraBase("media_streaming", "libquantum");
    c.rob.kind = sim::RobConfigKind::DynamicShared;
    v.push_back(c);

    c = extraBase("web_serving", "lbm");
    c.rob.kind = sim::RobConfigKind::PrivateFull;
    v.push_back(c);

    c = extraBase("web_search", "milc");
    c.fetchPolicy = FetchPolicy::RoundRobin;
    v.push_back(c);

    c = extraBase("web_search", "milc");
    c.fetchPolicy = FetchPolicy::Throttle;
    c.throttleRatio = 2;
    c.throttledThread = 0;
    v.push_back(c);

    c = extraBase("data_serving", "mcf");
    c.shareL1i = false;
    c.shareL1d = false;
    c.shareBp = false;
    v.push_back(c);

    c = extraBase("data_serving", "mcf");
    c.shareL1d = false;
    c.rob.kind = sim::RobConfigKind::DynamicShared;
    c.fetchPolicy = FetchPolicy::RoundRobin;
    v.push_back(c);

    // Isolated: full machine, restricted ROB, and the SMT half-machine.
    c = extraBase("data_serving", "");
    v.push_back(c);

    c = extraBase("media_streaming", "");
    c.isolatedRobOverride = 64;
    v.push_back(c);

    c = extraBase("web_search", "");
    c.fullMachineWhenIsolated = false;
    v.push_back(c);

    return v;
}

TEST(GoldenOperatingPoints, CatalogRackAndExtrasMatchGoldenFile)
{
    sim::setQuickFactor(1.0);
    sim::OperatingPointCache &cache = sim::OperatingPointCache::instance();
    cache.clear();

    for (const scenario::Drill &d : scenario::drillCatalog())
        scenario::runDrill(d);
    scenario::runRack(scenario::preset("rack-web-search"));
    for (const sim::RunConfig &cfg : extraConfigs())
        cache.measure(cfg);

    const std::string actual_path = "golden_oppoints.actual";
    ASSERT_TRUE(cache.saveTo(actual_path));
    const std::string actual = slurp(actual_path);
    const std::string golden =
        slurp(std::string(STRETCH_TEST_DATA_DIR) + "/golden_oppoints.txt");
    ASSERT_FALSE(golden.empty()) << "golden file missing or empty";
    EXPECT_TRUE(actual == golden)
        << "operating points differ from tests/data/golden_oppoints.txt; "
           "the fresh measurement is in "
        << actual_path << " (" << cache.size() << " entries)";
    if (actual == golden)
        std::remove(actual_path.c_str());
}

} // namespace
} // namespace stretch
