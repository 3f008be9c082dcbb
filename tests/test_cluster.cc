/**
 * @file
 * Cluster-layer tests: serial/parallel bit-identity over many seeds,
 * ingress policy behaviour (steering counts, migration, failover,
 * degradation avoidance), tail-merge exactness, rack scenario builder
 * validation, and the rack drill teeth pairing (JSQ(2) passes the
 * node-failure QoS assertions that blind round-robin misses).
 */

#include <cstdint>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "sim/fleet.h"
#include "stats/streaming_tail.h"
#include "util/rng.h"

namespace stretch
{
namespace
{

/** Small-but-real two-core node so cluster tests stay fast; the
 *  operating-point cache keeps remeasurement out of the loop. */
sim::FleetConfig
smallNode()
{
    sim::RunConfig core;
    core.workload0 = "web_search";
    core.workload1 = "zeusmp";
    core.samples = 2;
    core.warmupOps = 2000;
    core.measureOps = 5000;
    sim::FleetConfig node = sim::homogeneousFleet(2, core);
    node.requests = 2000;
    return node;
}

/** Four-node rack over the small node with bursty arrivals. */
cluster::ClusterConfig
smallRack(unsigned nodes = 4)
{
    cluster::ClusterConfig cfg =
        cluster::homogeneousCluster(nodes, smallNode());
    cfg.requests = 2000;
    cfg.burstRatio = 2.0;
    return cfg;
}

void
expectSameDispatch(const sim::DispatchOutcome &a,
                   const sim::DispatchOutcome &b)
{
    EXPECT_EQ(a.latencyMs.count, b.latencyMs.count);
    EXPECT_EQ(a.latencyMs.mean, b.latencyMs.mean);
    EXPECT_EQ(a.latencyMs.p99, b.latencyMs.p99);
    EXPECT_EQ(a.latencyMs.p999, b.latencyMs.p999);
    EXPECT_EQ(a.latencyMs.max, b.latencyMs.max);
    EXPECT_EQ(a.placed, b.placed);
    EXPECT_EQ(a.totalShed, b.totalShed);
    EXPECT_EQ(a.throughputRps, b.throughputRps);
}

/** Every field of two latency summaries, bit for bit. */
void
expectSameSummary(const stats::ViolinSummary &a, const stats::ViolinSummary &b)
{
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.q1, b.q1);
    EXPECT_EQ(a.median, b.median);
    EXPECT_EQ(a.q3, b.q3);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.p95, b.p95);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.p999, b.p999);
}

TEST(ClusterDeterminism, SerialAndParallelBitIdenticalAcrossSeeds)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        cluster::ClusterConfig serial = smallRack();
        serial.seed = seed;
        serial.threads = 1;
        cluster::ClusterConfig parallel = serial;
        parallel.threads = 4;

        cluster::ClusterResult a = cluster::runCluster(serial);
        cluster::ClusterResult b = cluster::runCluster(parallel);

        SCOPED_TRACE("seed " + std::to_string(seed));
        expectSameDispatch(a.merged.dispatch, b.merged.dispatch);
        ASSERT_EQ(a.nodes.size(), b.nodes.size());
        for (std::size_t j = 0; j < a.nodes.size(); ++j)
            expectSameDispatch(a.nodes[j].dispatch, b.nodes[j].dispatch);
        EXPECT_EQ(a.ingress.decisions, b.ingress.decisions);
        EXPECT_EQ(a.ingress.steered, b.ingress.steered);
        ASSERT_EQ(a.injected.size(), b.injected.size());
        for (std::size_t j = 0; j < a.injected.size(); ++j)
            EXPECT_EQ(a.injected[j].size(), b.injected[j].size());
    }
}

TEST(ClusterDeterminism, ExactTailsBitIdenticalAcrossNodeMerge)
{
    // Satellite check: with exact sort-based quantiles the merged
    // cluster tail pools per-node samples, so the merge must be
    // bit-identical however the nodes are scheduled.
    cluster::ClusterConfig serial = smallRack();
    serial.exactTailQuantiles = true;
    serial.threads = 1;
    cluster::ClusterConfig parallel = serial;
    parallel.threads = 4;

    cluster::ClusterResult a = cluster::runCluster(serial);
    cluster::ClusterResult b = cluster::runCluster(parallel);
    EXPECT_EQ(a.merged.dispatch.latencyMs.p99,
              b.merged.dispatch.latencyMs.p99);
    EXPECT_EQ(a.merged.dispatch.latencyMs.p999,
              b.merged.dispatch.latencyMs.p999);
    EXPECT_EQ(a.merged.dispatch.latencyMs.median,
              b.merged.dispatch.latencyMs.median);
}

TEST(ClusterMerge, StreamingTailNodeMergeMatchesSingleStream)
{
    // The merged cluster histogram is a bin-wise add of the per-node
    // histograms, so splitting one stream across "nodes" and merging
    // reproduces the single-stream quantiles exactly, not just within
    // a bin.
    Rng rng(7);
    stats::StreamingTail single;
    std::vector<stats::StreamingTail> perNode(4);
    for (int i = 0; i < 40000; ++i) {
        const double v = rng.lognormal(0.0, 1.2);
        single.record(v);
        perNode[static_cast<std::size_t>(i) % perNode.size()].record(v);
    }
    stats::StreamingTail merged;
    for (const stats::StreamingTail &t : perNode)
        merged.merge(t);

    EXPECT_EQ(merged.count(), single.count());
    // Partial sums accumulate in a different order, so the mean agrees
    // to rounding, not bit-for-bit.
    EXPECT_NEAR(merged.mean(), single.mean(), 1e-9 * single.mean());
    EXPECT_DOUBLE_EQ(merged.min(), single.min());
    EXPECT_DOUBLE_EQ(merged.max(), single.max());
    for (double pct : {50.0, 90.0, 99.0, 99.9})
        EXPECT_DOUBLE_EQ(merged.percentile(pct), single.percentile(pct));
}

TEST(ClusterMerge, MergedCountsCoverTheWholeStream)
{
    cluster::ClusterResult r = cluster::runCluster(smallRack());
    EXPECT_EQ(r.ingress.decisions, 2000u);
    std::uint64_t steered = 0, injected = 0;
    for (std::uint64_t s : r.ingress.steered)
        steered += s;
    for (const auto &list : r.injected)
        injected += list.size();
    EXPECT_EQ(steered, 2000u);
    EXPECT_EQ(injected, 2000u);
    EXPECT_EQ(r.merged.dispatch.latencyMs.count + r.merged.dispatch.totalShed,
              2000u);
    std::uint64_t nodeCompletions = 0;
    for (const sim::FleetResult &n : r.nodes)
        nodeCompletions += n.dispatch.latencyMs.count;
    EXPECT_EQ(r.merged.dispatch.latencyMs.count, nodeCompletions);
}

TEST(ClusterMerge, OneNodeRackMergedViewEqualsItsNode)
{
    // The merged view is summarized by the same code as a node, so a
    // rack of one node must report exactly what its node reports: the
    // fleet tail, every class outcome and every timeline bucket.
    for (bool exact : {false, true}) {
        SCOPED_TRACE(exact ? "exact" : "streaming");
        sim::FleetConfig node = smallNode();
        node.classes =
            workloads::ServiceClassRegistry::searchAnalyticsPair(6.0, 75.0);
        node.policy = sim::PlacementPolicy::ClassAware;
        node.classRouting.shedFactor = 0.5; // shed analytics requests
        node.control.kind = sim::ModePolicyKind::SlackDriven;
        node.timelineBucketMs = 50.0;
        node.exactTailQuantiles = exact;
        cluster::ClusterConfig cfg = cluster::homogeneousCluster(1, node);
        cfg.burstRatio = 2.0;

        const cluster::ClusterResult r = cluster::runCluster(cfg);
        ASSERT_EQ(r.nodes.size(), 1u);
        const sim::DispatchOutcome &m = r.merged.dispatch;
        const sim::DispatchOutcome &n = r.nodes[0].dispatch;

        EXPECT_GT(n.totalShed, 0u);
        expectSameDispatch(m, n);
        expectSameSummary(m.latencyMs, n.latencyMs);

        ASSERT_EQ(m.perClass.size(), 2u);
        ASSERT_EQ(n.perClass.size(), 2u);
        for (std::size_t k = 0; k < 2; ++k) {
            SCOPED_TRACE("class " + std::to_string(k));
            const sim::ClassOutcome &a = m.perClass[k];
            const sim::ClassOutcome &b = n.perClass[k];
            EXPECT_GT(a.completed, 0u);
            EXPECT_EQ(a.name, b.name);
            EXPECT_EQ(a.completed, b.completed);
            EXPECT_EQ(a.shed, b.shed);
            expectSameSummary(a.latencyMs, b.latencyMs);
            EXPECT_EQ(a.sloTargetMs, b.sloTargetMs);
            EXPECT_EQ(a.tailPercentile, b.tailPercentile);
            EXPECT_EQ(a.tailMs, b.tailMs);
            EXPECT_EQ(a.sloAttainment, b.sloAttainment);
            EXPECT_EQ(a.sloGood, b.sloGood);
        }

        ASSERT_GT(n.timeline.size(), 1u);
        ASSERT_EQ(m.timeline.size(), n.timeline.size());
        for (std::size_t b = 0; b < n.timeline.size(); ++b) {
            SCOPED_TRACE("bucket " + std::to_string(b));
            EXPECT_EQ(m.timeline[b].completions, n.timeline[b].completions);
            EXPECT_EQ(m.timeline[b].p50Ms, n.timeline[b].p50Ms);
            EXPECT_EQ(m.timeline[b].p99Ms, n.timeline[b].p99Ms);
            EXPECT_EQ(m.timeline[b].throttledCoreMs,
                      n.timeline[b].throttledCoreMs);
        }
    }
}

TEST(ClusterIngress, EveryPolicySteersTheFullStream)
{
    for (cluster::IngressPolicy policy :
         {cluster::IngressPolicy::RoundRobin, cluster::IngressPolicy::Jsq,
          cluster::IngressPolicy::FlowAffinity,
          cluster::IngressPolicy::ClassAware}) {
        cluster::ClusterConfig cfg = smallRack();
        cfg.classes = workloads::ServiceClassRegistry::searchAnalyticsPair(
            8.0, 80.0);
        cfg.ingress.policy = policy;

        cluster::ClusterResult r = cluster::runCluster(cfg);
        SCOPED_TRACE(cluster::toString(policy));
        EXPECT_EQ(r.ingress.decisions, cfg.requests);
        ASSERT_EQ(r.ingress.capacityPerMs.size(), cfg.nodes.size());
        for (double c : r.ingress.capacityPerMs)
            EXPECT_GT(c, 0.0);
        // FlowAffinity pins each class to a home node (two classes can
        // legitimately leave nodes idle); the load-blind and load-aware
        // policies spread over every node.
        std::uint64_t total = 0, nodesServing = 0;
        for (std::uint64_t s : r.ingress.steered) {
            total += s;
            nodesServing += s > 0 ? 1 : 0;
            if (policy != cluster::IngressPolicy::FlowAffinity) {
                EXPECT_GT(s, cfg.requests / 20);
            }
        }
        EXPECT_EQ(total, cfg.requests);
        EXPECT_GE(nodesServing, 2u); // >= one home node per class
        EXPECT_GT(r.merged.dispatch.latencyMs.count, 0u);
    }
}

TEST(ClusterIngress, RoundRobinIgnoresLoadExactly)
{
    cluster::ClusterConfig cfg = smallRack();
    cfg.ingress.policy = cluster::IngressPolicy::RoundRobin;
    cluster::ClusterResult r = cluster::runCluster(cfg);
    for (std::uint64_t s : r.ingress.steered)
        EXPECT_EQ(s, cfg.requests / cfg.nodes.size());
}

TEST(ClusterIngress, NodeFailureReSteersAndStopsRouting)
{
    cluster::ClusterConfig cfg = smallRack();
    const double failAt = 100.0;
    cfg.actions.push_back({cluster::NodeAction::Kind::NodeFail, failAt, 3, 0});

    cluster::ClusterResult r = cluster::runCluster(cfg);
    // Nothing lands on the dead node after the failure instant.
    for (const sim::InjectedArrival &a : r.injected[3])
        EXPECT_LE(a.atMs, failAt);
    // The dead node serves far less than the survivors.
    for (std::size_t j = 0; j < 3; ++j)
        EXPECT_GT(r.ingress.steered[j], 2 * r.ingress.steered[3]);
    // The whole stream still completes (or is accounted as shed).
    EXPECT_EQ(r.merged.dispatch.latencyMs.count + r.merged.dispatch.totalShed,
              cfg.requests);
}

TEST(ClusterIngress, JsqAvoidsADegradedNode)
{
    cluster::ClusterConfig cfg = smallRack();
    cfg.actions.push_back(
        {cluster::NodeAction::Kind::NodeDegrade, 0.0, 1, 0.25});

    cluster::ClusterResult r = cluster::runCluster(cfg);
    // Load-aware steering starves the slow node relative to every
    // healthy peer; blind round-robin would keep feeding it.
    for (std::size_t j : {std::size_t(0), std::size_t(2), std::size_t(3)})
        EXPECT_GT(r.ingress.steered[j], r.ingress.steered[1]);

    cluster::ClusterConfig rr = cfg;
    rr.ingress.policy = cluster::IngressPolicy::RoundRobin;
    cluster::ClusterResult blind = cluster::runCluster(rr);
    EXPECT_EQ(blind.ingress.steered[1], cfg.requests / cfg.nodes.size());
    EXPECT_GT(blind.merged.dispatch.latencyMs.p99,
              r.merged.dispatch.latencyMs.p99);
}

TEST(ClusterIngress, MigrationDrainsStragglersOffAHotNode)
{
    // Round-robin + a crippled node builds a queue the migrator must
    // drain; with migration off the same setup reports none.
    cluster::ClusterConfig cfg = smallRack();
    cfg.ingress.policy = cluster::IngressPolicy::RoundRobin;
    cfg.ingress.migrateSojournMs = 5.0;
    cfg.actions.push_back(
        {cluster::NodeAction::Kind::NodeDegrade, 0.0, 0, 0.2});

    cluster::ClusterResult withMigration = cluster::runCluster(cfg);
    EXPECT_GT(withMigration.ingress.migrations, 0u);

    cfg.ingress.migrateSojournMs = 0.0;
    cluster::ClusterResult without = cluster::runCluster(cfg);
    EXPECT_EQ(without.ingress.migrations, 0u);
}

TEST(ClusterConfigTest, HomogeneousClusterDecorrelatesNodeSeeds)
{
    sim::FleetConfig node = smallNode();
    cluster::ClusterConfig cfg = cluster::homogeneousCluster(4, node);
    ASSERT_EQ(cfg.nodes.size(), 4u);
    for (std::size_t j = 0; j < cfg.nodes.size(); ++j) {
        // Dispatch seeds decorrelate; the microarchitectural core
        // configs stay identical so the op-point cache stays hot.
        for (std::size_t k = j + 1; k < cfg.nodes.size(); ++k)
            EXPECT_NE(cfg.nodes[j].seed, cfg.nodes[k].seed);
        ASSERT_EQ(cfg.nodes[j].cores.size(), node.cores.size());
        for (std::size_t c = 0; c < node.cores.size(); ++c) {
            EXPECT_EQ(cfg.nodes[j].cores[c].workload0,
                      node.cores[c].workload0);
            EXPECT_EQ(cfg.nodes[j].cores[c].seed, node.cores[c].seed);
        }
    }
}

TEST(ClusterConfigTest, DiurnalTraceIsRejectedOnTheRackAndEveryNode)
{
    // The ingress never replays a trace. A node keeping one would run
    // hour-aware routing and report trace load for a curve it was never
    // offered, so runCluster refuses a trace anywhere in the config.
    cluster::ClusterConfig rack = smallRack(2);
    rack.trace = queueing::DiurnalTrace::webSearchCluster();
    EXPECT_DEATH(cluster::runCluster(rack),
                 "racks do not support diurnal replay");

    cluster::ClusterConfig node = smallRack(2);
    node.nodes[1].trace = queueing::DiurnalTrace::webSearchCluster();
    EXPECT_DEATH(cluster::runCluster(node),
                 "cluster node 1 carries a diurnal trace");
}

// ---------------------------------------------------------- scenario layer

scenario::ScenarioBuilder
rackBuilder()
{
    sim::RunConfig core;
    core.workload0 = "web_search";
    core.workload1 = "zeusmp";
    core.samples = 2;
    core.warmupOps = 2000;
    core.measureOps = 5000;
    return scenario::ScenarioBuilder()
        .name("rack-test")
        .cores(2, core)
        .nodes(4)
        .requests(2000)
        .meanLoad(0.5);
}

bool
anyErrorMentions(const scenario::BuildResult &r, const std::string &needle)
{
    for (const std::string &e : r.errors)
        if (e.find(needle) != std::string::npos)
            return true;
    return false;
}

TEST(RackValidation, ZeroNodesIsRejected)
{
    scenario::BuildResult r = rackBuilder().nodes(0).tryBuild();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorMentions(r, "nodes(0)")) << r.errorText();
}

TEST(RackValidation, DiurnalReplayIsRejectedOnRacks)
{
    scenario::BuildResult r =
        rackBuilder()
            .diurnal(queueing::DiurnalTrace::webSearchCluster(), 50.0)
            .tryBuild();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorMentions(r, "diurnal")) << r.errorText();
}

TEST(RackValidation, SingleNodeIncidentsAreRejectedOnRacks)
{
    scenario::BuildResult r =
        rackBuilder()
            .incident(scenario::CoreFailure{0, 0.5})
            .tryBuild();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorMentions(r, "not supported in rack scenarios"))
        << r.errorText();
}

TEST(RackValidation, NodeIncidentsNeedARack)
{
    scenario::BuildResult r =
        rackBuilder()
            .nodes(1)
            .incident(scenario::NodeFailure{0, 0.5})
            .tryBuild();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorMentions(r, "needs a rack scenario"))
        << r.errorText();
}

TEST(RackValidation, NodeIncidentsMustTargetARealNode)
{
    scenario::BuildResult r =
        rackBuilder().incident(scenario::NodeFailure{4, 0.5}).tryBuild();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorMentions(r, "targets node 4")) << r.errorText();
}

TEST(RackValidation, FailingEveryNodeIsRejected)
{
    scenario::ScenarioBuilder b = rackBuilder();
    for (std::size_t j = 0; j < 4; ++j)
        b.incident(scenario::NodeFailure{j, 0.5});
    scenario::BuildResult r = b.tryBuild();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(anyErrorMentions(r, "at least one node must survive"))
        << r.errorText();
}

TEST(RackScenario, RunRoutesRacksThroughTheClusterLayer)
{
    scenario::Scenario s = rackBuilder().expect();
    sim::FleetResult merged = scenario::run(s);
    EXPECT_EQ(merged.dispatch.latencyMs.count + merged.dispatch.totalShed,
              2000u);
    // Rack lowering scales the stream across nodes: 4 nodes of the
    // 2-core config, concatenated in the merged core view.
    EXPECT_EQ(merged.cores.size(), 8u);
}

// ------------------------------------------------------------ drill teeth

TEST(RackTeeth, JsqPassesNodeFailureDrillRoundRobinFails)
{
    // The ISSUE acceptance pairing: after a mid-run node failure the
    // preset's JSQ(2) ingress passes the drill's p99 + attainment
    // assertions, while the same drill steered blind round-robin
    // fails — specifically on the windowed p99 bound (liveness is
    // known to both policies; load-awareness is the difference).
    const scenario::Drill &d = scenario::drill("rack/node-failure");
    scenario::DrillOutcome jsq = scenario::runDrill(d);
    EXPECT_TRUE(jsq.pass);
    for (const scenario::AssertionResult &a : jsq.assertions)
        EXPECT_TRUE(a.pass) << a.detail;

    scenario::DrillOutcome blind =
        scenario::runDrill(d, [](scenario::Scenario &s) {
            s.ingress.policy = cluster::IngressPolicy::RoundRobin;
        });
    EXPECT_FALSE(blind.pass);
    ASSERT_EQ(blind.assertions.size(), 2u);
    EXPECT_FALSE(blind.assertions[0].pass) << blind.assertions[0].detail;
}

TEST(RackTeeth, DegradationDrillNeedsLoadAwareSteering)
{
    // Same pairing on the degradation drill: round-robin keeps feeding
    // the slow node, blowing both the windowed bound and the recovery
    // allowance.
    const scenario::Drill &d = scenario::drill("rack/node-degradation");
    scenario::DrillOutcome blind =
        scenario::runDrill(d, [](scenario::Scenario &s) {
            s.ingress.policy = cluster::IngressPolicy::RoundRobin;
        });
    EXPECT_FALSE(blind.pass);
}

} // namespace
} // namespace stretch
