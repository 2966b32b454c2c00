// Decision audit trail: ring semantics, CSV contract, summary math, the
// observation-only pin (audit-on vs audit-off runs of the failover spec are
// byte-identical), and the end-to-end guarantee that a parabola run's
// decisions.csv reproduces the controller's actual limit trajectory with
// finite fitted coefficients and known reason codes.

#include "telemetry/audit.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/export.h"
#include "core/spec.h"
#include "db/schedule.h"

namespace alc {
namespace {

telemetry::DecisionRecord MakeRecord(double time, int node,
                                     const char* controller, double old_limit,
                                     double new_limit) {
  telemetry::DecisionRecord record;
  record.time = time;
  record.node = node;
  record.controller = controller;
  record.reason = "test";
  record.old_limit = old_limit;
  record.new_limit = new_limit;
  return record;
}

// ------------------------------------------------------------------ ring --

TEST(DecisionAuditTest, BelowCapacityKeepsEverythingInOrder) {
  telemetry::DecisionAudit audit(8);
  for (int i = 0; i < 5; ++i) {
    audit.Record(MakeRecord(i, 0, "c", i, i + 1));
  }
  EXPECT_EQ(audit.size(), 5u);
  EXPECT_EQ(audit.dropped(), 0u);
  const std::vector<telemetry::DecisionRecord> records = audit.InOrder();
  ASSERT_EQ(records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(records[static_cast<size_t>(i)].time, i);
  }
}

TEST(DecisionAuditTest, AtCapacityOverwritesOldestAndCountsDrops) {
  telemetry::DecisionAudit audit(4);
  for (int i = 0; i < 10; ++i) {
    audit.Record(MakeRecord(i, 0, "c", i, i + 1));
  }
  EXPECT_EQ(audit.size(), 4u);
  EXPECT_EQ(audit.capacity(), 4u);
  EXPECT_EQ(audit.dropped(), 6u);
  // The retained window is the most recent 4, chronological.
  const std::vector<telemetry::DecisionRecord> records = audit.InOrder();
  ASSERT_EQ(records.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(records[static_cast<size_t>(i)].time, 6 + i);
  }
}

TEST(DecisionAuditTest, ClearResetsRingAndDropCount) {
  telemetry::DecisionAudit audit(2);
  for (int i = 0; i < 5; ++i) audit.Record(MakeRecord(i, 0, "c", 0, 0));
  audit.Clear();
  EXPECT_EQ(audit.size(), 0u);
  EXPECT_EQ(audit.dropped(), 0u);
  EXPECT_TRUE(audit.InOrder().empty());
  audit.Record(MakeRecord(9, 0, "c", 0, 0));
  EXPECT_EQ(audit.InOrder().size(), 1u);
}

// ------------------------------------------------------------------- csv --

TEST(DecisionCsvTest, HeaderIsTheDocumentedContract) {
  std::ostringstream out;
  telemetry::WriteDecisionsCsv(out, {});
  EXPECT_EQ(out.str(),
            "time,node,controller,reason,old_limit,new_limit,throughput,"
            "conflict_rate,gate_queue,mean_active,s0_key,s0,s1_key,s1,"
            "s2_key,s2,s3_key,s3\n");
}

TEST(DecisionCsvTest, RowCarriesStateSlotsAndEmptySlotsAreBlank) {
  telemetry::DecisionRecord record = MakeRecord(1.5, 2, "parabola", 20, 22.5);
  record.reason = "vertex";
  record.throughput = 100.25;
  record.num_state = 2;
  record.state_names[0] = "a0";
  record.state_values[0] = -3.5;
  record.state_names[1] = "a1";
  record.state_values[1] = 0.125;
  std::ostringstream out;
  telemetry::WriteDecisionsCsv(out, {record});
  const std::string text = out.str();
  EXPECT_NE(text.find("\n1.5,2,parabola,vertex,20,22.5,100.25,"),
            std::string::npos);
  EXPECT_NE(text.find("a0,-3.5,a1,0.125,,0,,0\n"), std::string::npos);
}

// --------------------------------------------------------------- summary --

TEST(DecisionSummaryTest, CountsStepsAndDirectionChangesPerController) {
  std::vector<telemetry::DecisionRecord> records;
  // Controller "a", node 0: up 2, up 1, down 3, down 1, up 2 -> two flips.
  const double limits_a[] = {10, 12, 13, 10, 9, 11};
  for (int i = 0; i + 1 < 6; ++i) {
    records.push_back(MakeRecord(i, 0, "a", limits_a[i], limits_a[i + 1]));
  }
  // Controller "b": one zero-step then one move: no direction change.
  records.push_back(MakeRecord(0, 0, "b", 5, 5));
  records.push_back(MakeRecord(1, 0, "b", 5, 7));

  const std::vector<telemetry::DecisionSummary> summaries =
      telemetry::SummarizeDecisions(records);
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].controller, "a");
  EXPECT_EQ(summaries[0].decisions, 5u);
  EXPECT_EQ(summaries[0].direction_changes, 2u);
  EXPECT_DOUBLE_EQ(summaries[0].mean_abs_step, (2 + 1 + 3 + 1 + 2) / 5.0);
  EXPECT_EQ(summaries[1].controller, "b");
  EXPECT_EQ(summaries[1].decisions, 2u);
  EXPECT_EQ(summaries[1].direction_changes, 0u);
  EXPECT_DOUBLE_EQ(summaries[1].mean_abs_step, 1.0);
}

TEST(DecisionSummaryTest, DirectionChangesAreTrackedPerNodeStream) {
  // Interleaved per-node streams that each move monotonically must report
  // zero flips even though the merged sequence alternates sign.
  std::vector<telemetry::DecisionRecord> records;
  records.push_back(MakeRecord(0, 0, "c", 10, 12));
  records.push_back(MakeRecord(0, 1, "c", 30, 28));
  records.push_back(MakeRecord(1, 0, "c", 12, 14));
  records.push_back(MakeRecord(1, 1, "c", 28, 26));
  const std::vector<telemetry::DecisionSummary> summaries =
      telemetry::SummarizeDecisions(records);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].direction_changes, 0u);
}

// ----------------------------------------------- observation-only pin --

struct CsvArtifacts {
  std::string cluster;
  std::string aggregate;
};

CsvArtifacts RunAndExport(const core::ExperimentSpec& spec) {
  const core::SpecRunResult result = core::RunSpec(spec);
  EXPECT_TRUE(result.cluster);
  const core::ClusterResult& cluster = result.cluster_result;
  std::vector<std::vector<core::TrajectoryPoint>> trajectories;
  std::vector<core::ClusterNodePlacementInfo> placement_info;
  for (const core::ClusterNodeResult& node : cluster.nodes) {
    trajectories.push_back(node.trajectory);
    placement_info.push_back({node.remote_frac, node.partitions_owned});
  }
  CsvArtifacts artifacts;
  std::ostringstream cluster_csv;
  core::WriteClusterTrajectoryCsv(cluster_csv, trajectories, placement_info,
                                  cluster.membership);
  artifacts.cluster = cluster_csv.str();
  std::ostringstream aggregate_csv;
  core::WriteTrajectoryCsv(aggregate_csv, cluster.aggregate, {});
  artifacts.aggregate = aggregate_csv.str();
  return artifacts;
}

TEST(DecisionAuditPerturbationTest, AuditedFailoverRunIsByteIdentical) {
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::LoadSpecFile(
      std::string(ALC_SOURCE_DIR) + "/specs/node_failover.spec", &spec,
      &error))
      << error;

  core::ExperimentSpec off = spec;
  off.decisions_path.clear();

  core::ExperimentSpec on = spec;
  on.decisions_path = testing::TempDir() + "/audit_perturbation_decisions.csv";

  const CsvArtifacts off_csv = RunAndExport(off);
  const CsvArtifacts on_csv = RunAndExport(on);
  EXPECT_EQ(off_csv.cluster, on_csv.cluster);
  EXPECT_EQ(off_csv.aggregate, on_csv.aggregate);

  // The audited run actually produced a non-trivial trail.
  std::ifstream decisions(on.decisions_path);
  ASSERT_TRUE(decisions.good());
  std::string header;
  ASSERT_TRUE(std::getline(decisions, header));
  EXPECT_EQ(header.substr(0, 20), "time,node,controller");
  int rows = 0;
  std::string line;
  while (std::getline(decisions, line)) ++rows;
  EXPECT_GT(rows, 0);
  std::remove(on.decisions_path.c_str());
}

// --------------------------------------------- end-to-end parabola run --

core::ExperimentSpec SingleNodeParabolaSpec() {
  core::ExperimentSpec spec;
  spec.name = "audit-parabola";
  spec.cluster = false;
  spec.seed = 11;
  spec.duration = 60.0;
  spec.warmup = 5.0;
  spec.nodes.resize(1);
  core::NodeSpec& node = spec.nodes[0];
  node.system.seed = 11;
  node.system.physical.num_cpus = 4;
  node.system.logical.db_size = 600;
  node.system.dynamics.k = db::Schedule::Constant(60);
  node.control.controller = "parabola-approximation";
  node.control.measurement_interval = 0.5;
  node.control.initial_limit = 20.0;
  node.control.params.SetDouble("pa.initial_bound", 20.0);
  node.control.params.SetDouble("pa.max_bound", 200.0);
  return spec;
}

TEST(DecisionAuditEndToEndTest, ParabolaDecisionsMatchTrajectory) {
  core::ExperimentSpec spec = SingleNodeParabolaSpec();
  spec.decisions_path = testing::TempDir() + "/audit_parabola_decisions.csv";
  const core::SpecRunResult result = core::RunSpec(spec);
  ASSERT_FALSE(result.cluster);
  EXPECT_EQ(result.decisions_dropped, 0u);

  // One decision per monitor tick, and the recorded limit moves are exactly
  // the bound trajectory the run exported.
  ASSERT_EQ(result.decisions.size(), result.single.trajectory.size());
  for (size_t i = 0; i < result.decisions.size(); ++i) {
    const telemetry::DecisionRecord& d = result.decisions[i];
    const core::TrajectoryPoint& p = result.single.trajectory[i];
    EXPECT_DOUBLE_EQ(d.time, p.time);
    EXPECT_DOUBLE_EQ(d.new_limit, p.bound);
    EXPECT_EQ(d.node, 0);
    EXPECT_STREQ(d.controller, "parabola-approximation");
    if (i > 0) {
      EXPECT_DOUBLE_EQ(d.old_limit, result.decisions[i - 1].new_limit);
    }
  }

  // Reasons come from the parabola controller's documented set, and once
  // warmed up the fitted coefficients are finite and self-describing.
  const std::set<std::string> known = {"warmup",          "vertex",
                                      "recovery-hold",   "recovery-gradient",
                                      "recovery-contract", "recovery-reset"};
  bool saw_fit = false;
  for (const telemetry::DecisionRecord& d : result.decisions) {
    EXPECT_TRUE(known.count(d.reason)) << d.reason;
    if (std::string(d.reason) != "warmup") {
      ASSERT_EQ(d.num_state, 4);
      EXPECT_STREQ(d.state_names[0], "a0");
      EXPECT_STREQ(d.state_names[1], "a1");
      EXPECT_STREQ(d.state_names[2], "a2");
      EXPECT_STREQ(d.state_names[3], "excitation");
      for (int s = 0; s < d.num_state; ++s) {
        EXPECT_TRUE(std::isfinite(d.state_values[s]));
      }
      saw_fit = true;
    }
  }
  EXPECT_TRUE(saw_fit);

  // The exported CSV round-trips the same trail: one row per decision.
  std::ifstream csv(spec.decisions_path);
  ASSERT_TRUE(csv.good());
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));  // header
  size_t rows = 0;
  while (std::getline(csv, line)) ++rows;
  EXPECT_EQ(rows, result.decisions.size());
  std::remove(spec.decisions_path.c_str());
}

}  // namespace
}  // namespace alc
