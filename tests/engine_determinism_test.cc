// Pins the CSV artifacts of specs/node_failover.spec to the bytes produced
// before the event-engine rewrite (typed POD event cells + generation-
// stamped cancellation + 4-ary heap, PR 5). The engine swap must change no
// simulation results: same RNG draws, same event order (equal-time FIFO),
// same CSV bytes. The pinned hashes were captured from the pre-refactor
// engine (sha256 of the alc_run exports was verified identical); if this
// test fails, the event engine reordered or perturbed the simulation.
// The single-node pins further down cover the paper's own closed model.

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/export.h"
#include "core/spec.h"
#include "telemetry/audit.h"
#include "util/hash.h"

namespace alc {
namespace {

std::string ClusterCsv(const core::ClusterResult& cluster) {
  // Mirrors tools/alc_run.cc ExportResult so the pinned bytes are exactly
  // what `alc_run specs/node_failover.spec --out ...` writes.
  std::vector<std::vector<core::TrajectoryPoint>> trajectories;
  std::vector<core::ClusterNodePlacementInfo> placement_info;
  for (const core::ClusterNodeResult& node : cluster.nodes) {
    trajectories.push_back(node.trajectory);
    placement_info.push_back({node.remote_frac, node.partitions_owned});
  }
  std::ostringstream csv;
  core::WriteClusterTrajectoryCsv(csv, trajectories, placement_info,
                                  cluster.membership);
  return csv.str();
}

TEST(EngineDeterminismTest, NodeFailoverCsvMatchesPreRefactorBaseline) {
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::LoadSpecFile(
      std::string(ALC_SOURCE_DIR) + "/specs/node_failover.spec", &spec,
      &error))
      << error;
  const core::SpecRunResult result = core::RunSpec(spec);
  ASSERT_TRUE(result.cluster);

  const std::string cluster_csv = ClusterCsv(result.cluster_result);
  std::ostringstream aggregate;
  core::WriteTrajectoryCsv(aggregate, result.cluster_result.aggregate, {});
  const std::string aggregate_csv = aggregate.str();

  // Sizes first: a length diff gives a much better failure message than a
  // hash mismatch.
  //
  // Re-pinned when the telemetry layer appended the response_p50..p999
  // columns: stripping the four new columns from these CSVs reproduces the
  // pre-telemetry bytes exactly (sizes 112237/26555, hashes
  // 17203859782119457895/5637044466475686148), so the simulation itself is
  // unchanged — only the appended columns differ.
  EXPECT_EQ(cluster_csv.size(), 172723u);
  EXPECT_EQ(aggregate_csv.size(), 42585u);
  EXPECT_EQ(util::Fnv1a(cluster_csv), 4532971164558580086ULL);
  EXPECT_EQ(util::Fnv1a(aggregate_csv), 11098696363277174748ULL);
}

// The single-node closed model the paper is about: the monitor's
// per-interval samples (response_p50..p999 included) land in the trajectory
// CSV and the controller's reaction to them in the decision audit. Pinned
// before the monitor's interval percentiles moved from snapshot-subtract
// histograms to a windowed histogram, which must not change a byte.
struct SingleNodeArtifacts {
  std::string trajectory;
  std::string decisions;
};

SingleNodeArtifacts RunSingleNode(core::ExperimentSpec spec,
                                  const std::string& tag) {
  spec.decisions_path = testing::TempDir() + "/single_" + tag + ".csv";
  const core::SpecRunResult result = core::RunSpec(spec);
  EXPECT_FALSE(result.cluster);
  SingleNodeArtifacts artifacts;
  std::ostringstream trajectory;
  core::WriteTrajectoryCsv(trajectory, result.single.trajectory, {});
  artifacts.trajectory = trajectory.str();
  std::ostringstream decisions;
  telemetry::WriteDecisionsCsv(decisions, result.decisions);
  artifacts.decisions = decisions.str();
  std::remove(spec.decisions_path.c_str());
  return artifacts;
}

// perfbench/workloads/single.spec (850 terminals, OCC, Parabola
// Approximation, 1 s interval) cut to a 60 s horizon.
TEST(EngineDeterminismTest, SingleNodePaperModelIsPinned) {
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::LoadSpecFile(
      std::string(ALC_SOURCE_DIR) + "/perfbench/workloads/single.spec", &spec,
      &error))
      << error;
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "duration", "60", &error))
      << error;
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "warmup", "10", &error))
      << error;
  const SingleNodeArtifacts run = RunSingleNode(spec, "paper");

  EXPECT_EQ(run.trajectory.size(), 5833u);
  EXPECT_EQ(run.decisions.size(), 12579u);
  EXPECT_EQ(util::Fnv1a(run.trajectory), 12357016703374745707ULL);
  EXPECT_EQ(util::Fnv1a(run.decisions), 5445668943523966393ULL);
}

// A 2PL point shaped like the matrix grid's (tests/matrix_test.cc): lock
// waits, deadlock restarts and Incremental Steps under a closed
// population, sampled every 0.5 s.
TEST(EngineDeterminismTest, TwoPhaseLockingMatrixPointIsPinned) {
  const std::string text =
      "[experiment]\n"
      "cluster = false\n"
      "duration = 30\n"
      "warmup = 8\n"
      "active_terminals = constant(80)\n"
      "[node]\n"
      "seed = 1234\n"
      "cc = 2pl\n"
      "physical.num_terminals = 80\n"
      "physical.think_time_mean = 0.25\n"
      "physical.num_cpus = 4\n"
      "physical.cpu_init_mean = 0.001\n"
      "physical.cpu_access_mean = 0.001\n"
      "physical.cpu_commit_mean = 0.001\n"
      "physical.cpu_write_commit_mean = 0.003\n"
      "physical.io_time = 0.006\n"
      "physical.restart_delay_mean = 0.015\n"
      "logical.db_size = 400\n"
      "logical.accesses_per_txn = 6\n"
      "logical.query_fraction = 0.3\n"
      "logical.write_fraction = 0.4\n"
      "dynamics.query_fraction = constant(0.3)\n"
      "dynamics.write_fraction = constant(0.4)\n"
      "control.controller = incremental-steps\n"
      "control.measurement_interval = 0.5\n"
      "control.initial_limit = 15\n"
      "control.is.initial_bound = 15\n"
      "control.is.min_bound = 2\n"
      "control.is.max_bound = 90\n";
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(text, &spec, &error)) << error;
  const SingleNodeArtifacts run = RunSingleNode(spec, "2pl");

  EXPECT_EQ(run.trajectory.size(), 5703u);
  EXPECT_EQ(run.decisions.size(), 7352u);
  EXPECT_EQ(util::Fnv1a(run.trajectory), 7096997119426906532ULL);
  EXPECT_EQ(util::Fnv1a(run.decisions), 17103433606639336377ULL);
}

}  // namespace
}  // namespace alc
