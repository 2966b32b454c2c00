// SweepRunner: grid expansion, bit-identical parallel-vs-sequential
// results, and the acceptance check that the checked-in flash-crowd spec
// file reproduces bench/cluster_routing's headline JSQ result with
// bit-identical CSV output.

#include "core/sweep.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster_experiment.h"
#include "core/export.h"
#include "core/spec.h"

namespace alc {
namespace {

std::string ClusterCsv(const core::ClusterResult& result) {
  std::vector<std::vector<core::TrajectoryPoint>> trajectories;
  std::vector<core::ClusterNodePlacementInfo> info;
  for (const core::ClusterNodeResult& node : result.nodes) {
    trajectories.push_back(node.trajectory);
    info.push_back({node.remote_frac, node.partitions_owned});
  }
  std::ostringstream out;
  core::WriteClusterTrajectoryCsv(out, trajectories, info);
  return out.str();
}

/// A small 2-node cluster spec cheap enough to sweep many times.
core::ExperimentSpec SmallClusterSpec() {
  core::ExperimentSpec spec;
  spec.name = "sweep-test";
  spec.cluster = true;
  spec.seed = 21;
  spec.duration = 10.0;
  spec.warmup = 2.0;
  spec.arrival_rate = db::Schedule::Constant(120.0);
  spec.nodes.resize(2);
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    core::NodeSpec& node = spec.nodes[i];
    node.system.seed = core::DecorrelatedNodeSeed(21, static_cast<int>(i));
    node.system.physical.num_cpus = 4;
    node.system.logical.db_size = 600;
    node.system.logical.accesses_per_txn = 8;
    node.dynamics.k = db::Schedule::Constant(8);
    node.control.measurement_interval = 0.5;
    node.control.initial_limit = 20.0;
    node.control.params.SetDouble("pa.initial_bound", 20.0);
    node.control.params.SetDouble("pa.max_bound", 200.0);
  }
  return spec;
}

TEST(SweepRunnerTest, ExpandsGridRowMajor) {
  core::SweepRunner runner(
      SmallClusterSpec(),
      {{"routing", {"round-robin", "join-shortest-queue"}},
       {"node.control.controller", {"none", "fixed", "parabola-approximation"}}});
  EXPECT_EQ(runner.num_points(), 6);

  std::vector<std::pair<std::string, std::string>> assignment;
  core::ExperimentSpec point = runner.SpecAt(0, &assignment);
  EXPECT_EQ(assignment[0].second, "round-robin");
  EXPECT_EQ(assignment[1].second, "none");
  EXPECT_EQ(point.routing, "round-robin");
  EXPECT_EQ(point.nodes[0].control.controller, "none");
  EXPECT_EQ(point.nodes[1].control.controller, "none");

  // Last axis fastest: index 4 = (join-shortest-queue, fixed).
  point = runner.SpecAt(4, &assignment);
  EXPECT_EQ(point.routing, "join-shortest-queue");
  EXPECT_EQ(point.nodes[0].control.controller, "fixed");
}

TEST(SweepRunnerTest, ParallelMatchesSequentialBitExactly) {
  core::SweepRunner runner(
      SmallClusterSpec(),
      {{"routing", {"round-robin", "join-shortest-queue"}},
       {"node.control.controller", {"none", "parabola-approximation"}}});

  const std::vector<core::SweepPointResult> sequential = runner.Run(1);
  const std::vector<core::SweepPointResult> parallel = runner.Run(4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].assignment, parallel[i].assignment);
    EXPECT_EQ(sequential[i].result.commits(), parallel[i].result.commits())
        << "point " << i;
    EXPECT_EQ(ClusterCsv(sequential[i].result.cluster_result),
              ClusterCsv(parallel[i].result.cluster_result))
        << "point " << i;
  }
}

// --------------------------------------------- bench reproduction (spec) --

/// bench/cluster_routing's node and fleet, built in code as the reference
/// for the spec file.
core::NodeSpec BenchNode(uint64_t seed) {
  core::NodeSpec node;
  node.system.physical.num_cpus = 4;
  node.system.physical.cpu_init_mean = 0.001;
  node.system.physical.cpu_access_mean = 0.001;
  node.system.physical.cpu_commit_mean = 0.001;
  node.system.physical.cpu_write_commit_mean = 0.004;
  node.system.physical.io_time = 0.008;
  node.system.physical.restart_delay_mean = 0.02;
  node.system.logical.db_size = 600;
  node.system.logical.accesses_per_txn = 8;
  node.system.logical.query_fraction = 0.3;
  node.system.logical.write_fraction = 0.4;
  node.system.seed = seed;
  node.dynamics = db::WorkloadDynamics::FromConfig(node.system.logical);
  node.control.controller = "parabola-approximation";
  node.control.measurement_interval = 0.5;
  node.control.initial_limit = 20.0;
  node.control.params.SetDouble("is.initial_bound", 20.0);
  node.control.params.SetDouble("is.min_bound", 2.0);
  node.control.params.SetDouble("is.max_bound", 200.0);
  node.control.params.SetDouble("pa.initial_bound", 20.0);
  node.control.params.SetDouble("pa.min_bound", 2.0);
  node.control.params.SetDouble("pa.max_bound", 200.0);
  node.control.params.SetDouble("pa.dither", 5.0);
  node.control.params.SetDouble("fixed.limit", 25.0);
  return node;
}

TEST(SpecFileTest, FlashSpecReproducesClusterRoutingBenchBitExactly) {
  // Reference: the configuration bench/cluster_routing builds for its
  // headline flash-crowd JSQ + Parabola cell, built field by field.
  core::ExperimentSpec reference;
  reference.cluster = true;
  for (int i = 0; i < 4; ++i) {
    reference.nodes.push_back(
        BenchNode(core::DecorrelatedNodeSeed(42, i)));
  }
  reference.seed = 42;
  reference.duration = 160.0;
  reference.warmup = 20.0;
  reference.arrival_rate = core::FlashCrowdSchedule(320.0, 900.0, 40.0, 80.0);
  reference.routing = "join-shortest-queue";
  const core::ClusterResult expected =
      core::ClusterExperiment(reference).Run();

  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::LoadSpecFile(
      std::string(ALC_SOURCE_DIR) + "/specs/cluster_routing_flash.spec",
      &spec, &error))
      << error;
  const core::SpecRunResult actual = core::RunSpec(spec);
  ASSERT_TRUE(actual.cluster);

  EXPECT_EQ(ClusterCsv(expected), ClusterCsv(actual.cluster_result));
  EXPECT_EQ(expected.commits, actual.cluster_result.commits);
  EXPECT_EQ(expected.total_throughput,
            actual.cluster_result.total_throughput);
  EXPECT_EQ(expected.routed, actual.cluster_result.routed);
}

TEST(SpecFileTest, SmokeSpecParsesAndDescribesAPlacementCluster) {
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::LoadSpecFile(
      std::string(ALC_SOURCE_DIR) + "/specs/smoke.spec", &spec, &error))
      << error;
  EXPECT_TRUE(spec.cluster);
  EXPECT_EQ(spec.nodes.size(), 4u);
  EXPECT_TRUE(spec.placement_enabled);
  EXPECT_EQ(spec.placement.placement.kind,
            placement::PlacementKind::kReplicated);
  EXPECT_EQ(spec.routing, "locality-threshold");
}

}  // namespace
}  // namespace alc
