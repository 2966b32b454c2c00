// Pins the CSV artifacts of specs/node_failover.spec to the bytes produced
// before the event-engine rewrite (typed POD event cells + generation-
// stamped cancellation + 4-ary heap, PR 5). The engine swap must change no
// simulation results: same RNG draws, same event order (equal-time FIFO),
// same CSV bytes. The pinned hashes were captured from the pre-refactor
// engine (sha256 of the alc_run exports was verified identical); if this
// test fails, the event engine reordered or perturbed the simulation.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/export.h"
#include "core/spec.h"
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

}  // namespace
}  // namespace alc
