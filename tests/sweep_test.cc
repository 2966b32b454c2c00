// SweepRunner: grid expansion and bit-identical parallel-vs-sequential
// results.

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
    node.system.dynamics.k = db::Schedule::Constant(8);
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
