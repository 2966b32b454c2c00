#include <gtest/gtest.h>

#include <cstring>

#include "cluster/cluster.h"
#include "cluster/metrics.h"
#include "cluster/router.h"
#include "core/cluster_experiment.h"
#include "core/spec.h"

namespace alc {
namespace {

// ---------------------------------------------------------------- policies --

std::vector<cluster::NodeView> Views(std::vector<int> active,
                                     std::vector<int> queued) {
  std::vector<cluster::NodeView> views(active.size());
  for (size_t i = 0; i < active.size(); ++i) {
    views[i].active = active[i];
    views[i].gate_queue = queued[i];
    views[i].limit = 50.0;
  }
  return views;
}

/// Routes one arrival over an all-live membership (no placement context).
int RouteAllLive(cluster::RoutingPolicy& policy,
                 const std::vector<cluster::NodeView>& views) {
  cluster::AllLiveMembership membership(views);
  return policy.Route(membership.view(), cluster::RouteContext{});
}

TEST(RoutingPolicyTest, RoundRobinCycles) {
  cluster::RoundRobinPolicy policy;
  const auto views = Views({0, 0, 0}, {0, 0, 0});
  EXPECT_EQ(RouteAllLive(policy, views), 0);
  EXPECT_EQ(RouteAllLive(policy, views), 1);
  EXPECT_EQ(RouteAllLive(policy, views), 2);
  EXPECT_EQ(RouteAllLive(policy, views), 0);
}

TEST(RoutingPolicyTest, RandomStaysInRangeAndIsSeedDeterministic) {
  cluster::RandomPolicy a(7);
  cluster::RandomPolicy b(7);
  const auto views = Views({0, 0, 0, 0}, {0, 0, 0, 0});
  for (int i = 0; i < 200; ++i) {
    const int choice = RouteAllLive(a, views);
    EXPECT_GE(choice, 0);
    EXPECT_LT(choice, 4);
    EXPECT_EQ(choice, RouteAllLive(b, views));
  }
}

TEST(RoutingPolicyTest, RandomCoversAllNodes) {
  cluster::RandomPolicy policy(3);
  const auto views = Views({0, 0, 0}, {0, 0, 0});
  std::vector<int> hits(3, 0);
  for (int i = 0; i < 300; ++i) ++hits[RouteAllLive(policy, views)];
  for (int count : hits) EXPECT_GT(count, 0);
}

TEST(RoutingPolicyTest, JsqPicksLeastOccupied) {
  cluster::JoinShortestQueuePolicy policy;
  // Occupancy = active + gate_queue: node 2 has 3+0, others more.
  EXPECT_EQ(RouteAllLive(policy, Views({10, 5, 3}, {2, 4, 0})), 2);
  // Node 0 empties out.
  EXPECT_EQ(RouteAllLive(policy, Views({0, 5, 3}, {0, 4, 0})), 0);
}

TEST(RoutingPolicyTest, JsqRetractionPrefersGateHeadroom) {
  // Retracted work restarts from the gate queue, so the displacement-aware
  // variant routes it to admission headroom (limit - occupancy), not to the
  // shortest queue. Node 0: occupancy 5 against limit 10 (headroom 5).
  // Node 1: occupancy 8 against limit 50 (headroom 42).
  auto views = Views({5, 8}, {0, 0});
  views[0].limit = 10.0;
  cluster::AllLiveMembership membership(views);

  cluster::RouteContext retraction;
  retraction.is_retraction = true;
  cluster::JoinShortestQueuePolicy fresh;
  EXPECT_EQ(fresh.Route(membership.view(), cluster::RouteContext{}), 0);
  cluster::JoinShortestQueuePolicy retracting;
  EXPECT_EQ(retracting.Route(membership.view(), retraction), 1);

  // With equal limits the headroom argmax IS the occupancy argmin: the flag
  // cannot change routing on a homogeneous fleet (golden-run compatibility).
  const auto equal = Views({5, 8, 2}, {1, 0, 3});
  cluster::AllLiveMembership equal_membership(equal);
  for (int i = 0; i < 6; ++i) {
    cluster::JoinShortestQueuePolicy a;
    cluster::JoinShortestQueuePolicy b;
    for (int spin = 0; spin < i; ++spin) {
      a.Route(equal_membership.view(), cluster::RouteContext{});
      b.Route(equal_membership.view(), retraction);
    }
    EXPECT_EQ(a.Route(equal_membership.view(), cluster::RouteContext{}),
              b.Route(equal_membership.view(), retraction));
  }
}

TEST(RoutingPolicyTest, JsqBreaksTiesByRotation) {
  cluster::JoinShortestQueuePolicy policy;
  const auto tied = Views({1, 1, 1}, {0, 0, 0});
  std::vector<int> hits(3, 0);
  for (int i = 0; i < 9; ++i) ++hits[RouteAllLive(policy, tied)];
  // The rotating preference spreads tied choices across all nodes.
  for (int count : hits) EXPECT_EQ(count, 3);
}

TEST(RoutingPolicyTest, ThresholdPrefersNodesUnderThreshold) {
  cluster::ThresholdPolicy::Config config;
  config.initial_threshold = 4.0;
  cluster::ThresholdPolicy policy(config);
  // Node 1 is the only one under the threshold.
  EXPECT_EQ(RouteAllLive(policy, Views({6, 2, 9}, {0, 0, 0})), 1);
}

TEST(RoutingPolicyTest, ThresholdLearnsUpUnderPressure) {
  cluster::ThresholdPolicy::Config config;
  config.initial_threshold = 2.0;
  cluster::ThresholdPolicy policy(config);
  // All nodes at/above the threshold: routes to the least occupied and
  // raises the threshold.
  const double before = policy.threshold();
  EXPECT_EQ(RouteAllLive(policy, Views({5, 3, 7}, {0, 0, 0})), 1);
  EXPECT_GT(policy.threshold(), before);
}

TEST(RoutingPolicyTest, ThresholdDecaysWhenLoadLeaves) {
  cluster::ThresholdPolicy::Config config;
  config.initial_threshold = 10.0;
  config.min_threshold = 2.0;
  cluster::ThresholdPolicy policy(config);
  const auto idle = Views({0, 0, 0}, {0, 0, 0});
  for (int i = 0; i < 50; ++i) RouteAllLive(policy, idle);
  EXPECT_DOUBLE_EQ(policy.threshold(), config.min_threshold);
}

// -------------------------------------------------------------- experiment --

/// Downscaled node so cluster tests stay fast (mirrors the experiment-test
/// SmallSpec).
core::NodeSpec SmallNode(uint64_t seed) {
  core::NodeSpec node;
  node.system.physical.num_cpus = 4;
  node.system.physical.cpu_init_mean = 0.001;
  node.system.physical.cpu_access_mean = 0.001;
  node.system.physical.cpu_commit_mean = 0.001;
  node.system.physical.cpu_write_commit_mean = 0.004;
  node.system.physical.io_time = 0.008;
  node.system.physical.restart_delay_mean = 0.02;
  node.system.logical.db_size = 600;
  node.system.dynamics.k = db::Schedule::Constant(8);
  node.system.dynamics.query_fraction = db::Schedule::Constant(0.3);
  node.system.dynamics.write_fraction = db::Schedule::Constant(0.4);
  node.system.seed = seed;
  node.control.controller = "parabola-approximation";
  node.control.measurement_interval = 0.5;
  node.control.initial_limit = 20.0;
  node.control.params.SetDouble("pa.initial_bound", 20.0);
  node.control.params.SetDouble("pa.min_bound", 2.0);
  node.control.params.SetDouble("pa.max_bound", 150.0);
  node.control.params.SetDouble("pa.dither", 5.0);
  return node;
}

core::ExperimentSpec SmallCluster(int num_nodes, uint64_t seed = 17) {
  core::ExperimentSpec spec;
  spec.cluster = true;
  for (int i = 0; i < num_nodes; ++i) {
    spec.nodes.push_back(SmallNode(core::DecorrelatedNodeSeed(seed, i)));
  }
  spec.seed = seed;
  spec.arrival_rate = db::Schedule::Constant(80.0 * num_nodes);
  spec.duration = 40.0;
  spec.warmup = 10.0;
  return spec;
}

TEST(ClusterExperimentTest, RunsAndCommitsOnEveryNode) {
  core::ExperimentSpec spec = SmallCluster(4);
  spec.routing = "join-shortest-queue";
  const core::ClusterResult result = core::ClusterExperiment(spec).Run();
  ASSERT_EQ(result.nodes.size(), 4u);
  EXPECT_GT(result.routed, 0u);
  uint64_t routed_sum = 0;
  for (const core::ClusterNodeResult& node : result.nodes) {
    EXPECT_GT(node.commits, 0u);
    EXPECT_GT(node.routed, 0u);
    EXPECT_FALSE(node.trajectory.empty());
    routed_sum += node.routed;
  }
  EXPECT_EQ(routed_sum, result.routed);
  EXPECT_GT(result.total_throughput, 0.0);
  EXPECT_GT(result.mean_response, 0.0);
  EXPECT_FALSE(result.aggregate.empty());
}

TEST(ClusterExperimentTest, EveryRoutingPolicyRuns) {
  // The placement-aware policies (power-of-d, locality, locality-threshold)
  // must also run on a placement-free cluster, where they degrade to
  // sampling or least-occupied routing over the full fleet.
  for (const char* routing :
       {"round-robin", "random", "join-shortest-queue", "threshold",
        "power-of-d", "locality", "locality-threshold"}) {
    core::ExperimentSpec spec = SmallCluster(3);
    spec.duration = 20.0;
    spec.warmup = 5.0;
    spec.routing = routing;
    const core::ClusterResult result = core::ClusterExperiment(spec).Run();
    EXPECT_GT(result.commits, 0u) << routing;
  }
}

TEST(ClusterExperimentTest, EveryControllerComposesWithRouting) {
  for (const char* controller :
       {"none", "fixed", "incremental-steps", "parabola-approximation",
        "golden-section"}) {
    core::ExperimentSpec spec = SmallCluster(2);
    spec.duration = 20.0;
    spec.warmup = 5.0;
    spec.routing = "threshold";
    for (core::NodeSpec& node : spec.nodes) {
      node.control.controller = controller;
      node.control.params.SetDouble("fixed.limit", 20.0);
    }
    const core::ClusterResult result = core::ClusterExperiment(spec).Run();
    EXPECT_GT(result.commits, 0u) << controller;
  }
}

void ExpectPointsBitIdentical(const core::TrajectoryPoint& a,
                              const core::TrajectoryPoint& b) {
  // Determinism contract: same config => bit-identical, not merely close.
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(core::TrajectoryPoint)), 0);
}

TEST(ClusterExperimentTest, FourNodeRunIsBitDeterministic) {
  core::ExperimentSpec spec = SmallCluster(4, 23);
  spec.routing = "join-shortest-queue";
  const core::ClusterResult a = core::ClusterExperiment(spec).Run();
  const core::ClusterResult b = core::ClusterExperiment(spec).Run();
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.routed, b.routed);
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].commits, b.nodes[i].commits);
    EXPECT_EQ(a.nodes[i].routed, b.nodes[i].routed);
    ASSERT_EQ(a.nodes[i].trajectory.size(), b.nodes[i].trajectory.size());
    for (size_t t = 0; t < a.nodes[i].trajectory.size(); ++t) {
      ExpectPointsBitIdentical(a.nodes[i].trajectory[t],
                               b.nodes[i].trajectory[t]);
    }
  }
  ASSERT_EQ(a.aggregate.size(), b.aggregate.size());
  for (size_t t = 0; t < a.aggregate.size(); ++t) {
    ExpectPointsBitIdentical(a.aggregate[t], b.aggregate[t]);
  }
}

TEST(ClusterExperimentTest, SeedChangesOutcome) {
  core::ExperimentSpec a = SmallCluster(2, 1);
  core::ExperimentSpec b = SmallCluster(2, 2);
  a.duration = b.duration = 20.0;
  a.warmup = b.warmup = 5.0;
  EXPECT_NE(core::ClusterExperiment(a).Run().commits,
            core::ClusterExperiment(b).Run().commits);
}

TEST(ClusterExperimentTest, JsqShiftsLoadAwayFromDegradedNode) {
  core::ExperimentSpec spec = SmallCluster(2, 31);
  spec.routing = "join-shortest-queue";
  // Node 0 loses 70% of its CPU speed for the whole run.
  spec.nodes[0].system.cpu_speed = core::NodeSlowdownSchedule(0.3, 0.0, 1e9);
  const core::ClusterResult result = core::ClusterExperiment(spec).Run();
  // The router observes the backlog on the slow node and sends the bulk of
  // the work to the healthy one.
  EXPECT_GT(result.nodes[1].routed, result.nodes[0].routed);
}

TEST(ClusterExperimentTest, HeterogeneousNodesAllowed) {
  core::ExperimentSpec spec = SmallCluster(3, 41);
  spec.duration = 20.0;
  spec.warmup = 5.0;
  spec.routing = "join-shortest-queue";
  spec.nodes[0].system.physical.num_cpus = 8;   // big node
  spec.nodes[1].system.logical.db_size = 300;   // contended node
  spec.nodes[2].system.cc = db::CcScheme::kTwoPhaseLocking;
  const core::ClusterResult result = core::ClusterExperiment(spec).Run();
  for (const core::ClusterNodeResult& node : result.nodes) {
    EXPECT_GT(node.commits, 0u);
  }
}

TEST(ClusterMetricsTest, AggregateSumsExtensiveQuantities) {
  cluster::ClusterMetrics metrics(2);
  core::TrajectoryPoint a;
  a.time = 1.0;
  a.throughput = 10.0;
  a.response = 0.2;
  a.load = 5.0;
  a.bound = 20.0;
  a.gate_queue = 2.0;
  a.cpu_utilization = 0.5;
  core::TrajectoryPoint b = a;
  b.throughput = 30.0;
  b.response = 0.4;
  b.load = 15.0;
  metrics.AddPoint(0, a);
  metrics.AddPoint(1, b);
  const auto aggregate = metrics.Aggregate();
  ASSERT_EQ(aggregate.size(), 1u);
  EXPECT_DOUBLE_EQ(aggregate[0].throughput, 40.0);
  EXPECT_DOUBLE_EQ(aggregate[0].load, 20.0);
  EXPECT_DOUBLE_EQ(aggregate[0].bound, 40.0);
  EXPECT_DOUBLE_EQ(aggregate[0].gate_queue, 4.0);
  // Commit-weighted response: (10*0.2 + 30*0.4) / 40.
  EXPECT_DOUBLE_EQ(aggregate[0].response, 0.35);
  EXPECT_DOUBLE_EQ(aggregate[0].cpu_utilization, 0.5);
}

TEST(ClusterMetricsTest, AggregateTruncatesToShortestSeries) {
  cluster::ClusterMetrics metrics(2);
  core::TrajectoryPoint point;
  metrics.AddPoint(0, point);
  metrics.AddPoint(0, point);
  metrics.AddPoint(1, point);
  EXPECT_EQ(metrics.Aggregate().size(), 1u);
}

TEST(ClusterSeedTest, SeedOverrideDecorrelatesNodeSeeds) {
  core::ExperimentSpec spec;
  spec.cluster = true;
  spec.nodes.resize(4);
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "seed", "99", nullptr));
  ASSERT_EQ(spec.nodes.size(), 4u);
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    for (size_t j = i + 1; j < spec.nodes.size(); ++j) {
      EXPECT_NE(spec.nodes[i].system.seed, spec.nodes[j].system.seed);
    }
  }
  // Node seeds must not form an arithmetic progression: the system derives
  // its internal streams by adding fixed offsets to its seed, so a constant
  // stride would alias one node's stream onto a neighbor's.
  EXPECT_NE(spec.nodes[1].system.seed - spec.nodes[0].system.seed,
            spec.nodes[2].system.seed - spec.nodes[1].system.seed);
  EXPECT_EQ(spec.seed, 99u);
}

}  // namespace
}  // namespace alc
