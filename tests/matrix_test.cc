// Cross-configuration matrix: every controller must make progress and obey
// its invariants under every combination of CC scheme, arrival mode, and
// CPU service distribution. These are deliberately broad smoke+invariant
// sweeps — the deep behavioural checks live in the per-module tests.

#include <cmath>
#include <string>
#include <string_view>
#include <tuple>

#include <gtest/gtest.h>

#include "core/experiment.h"

namespace alc {
namespace {

using MatrixParam = std::tuple<db::CcScheme, db::ArrivalMode, const char*,
                               db::ServiceDistribution>;

std::string ParamName(const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto& [cc, arrivals, controller, dist] = info.param;
  std::string name;
  name += cc == db::CcScheme::kOptimisticCertification ? "Occ" : "TwoPl";
  name += arrivals == db::ArrivalMode::kClosed ? "Closed" : "Open";
  const std::string_view controller_name(controller);
  if (controller_name == "none") name += "None";
  else if (controller_name == "fixed") name += "Fixed";
  else if (controller_name == "tay-rule") name += "Tay";
  else if (controller_name == "iyer-rule") name += "Iyer";
  else if (controller_name == "incremental-steps") name += "Is";
  else if (controller_name == "parabola-approximation") name += "Pa";
  else if (controller_name == "golden-section") name += "Gs";
  switch (dist) {
    case db::ServiceDistribution::kExponential: name += "Exp"; break;
    case db::ServiceDistribution::kDeterministic: name += "Det"; break;
    case db::ServiceDistribution::kErlang2: name += "Erl"; break;
  }
  return name;
}

class MatrixTest : public ::testing::TestWithParam<MatrixParam> {
 protected:
  core::ExperimentSpec MakeSpec() const {
    const auto& [cc, arrivals, controller, dist] = GetParam();
    core::ExperimentSpec spec;
    core::NodeSpec& node = spec.nodes.emplace_back();
    node.system.physical.num_terminals = 80;
    node.system.physical.think_time_mean = 0.25;
    node.system.physical.num_cpus = 4;
    node.system.physical.cpu_init_mean = 0.001;
    node.system.physical.cpu_access_mean = 0.001;
    node.system.physical.cpu_commit_mean = 0.001;
    node.system.physical.cpu_write_commit_mean = 0.003;
    node.system.physical.io_time = 0.006;
    node.system.physical.restart_delay_mean = 0.015;
    node.system.physical.cpu_distribution = dist;
    node.system.logical.db_size = 400;
    node.system.dynamics.k = db::Schedule::Constant(6);
    node.system.dynamics.query_fraction = db::Schedule::Constant(0.3);
    node.system.dynamics.write_fraction = db::Schedule::Constant(0.4);
    node.system.cc = cc;
    node.system.arrivals = arrivals;
    node.system.open_arrival_rate = 120.0;
    node.system.seed = 1234;
    spec.active_terminals = db::Schedule::Constant(80);
    spec.duration = 30.0;
    spec.warmup = 8.0;
    node.control.controller = controller;
    node.control.measurement_interval = 0.5;
    node.control.initial_limit = 15.0;
    node.control.params.SetDouble("fixed.limit", 20.0);
    node.control.params.SetDouble("is.initial_bound", 15.0);
    node.control.params.SetDouble("is.min_bound", 2.0);
    node.control.params.SetDouble("is.max_bound", 90.0);
    node.control.params.SetDouble("is.beta", 0.3);
    node.control.params.SetDouble("is.gamma", 3.0);
    node.control.params.SetDouble("is.delta", 8.0);
    node.control.params.SetDouble("pa.initial_bound", 15.0);
    node.control.params.SetDouble("pa.min_bound", 2.0);
    node.control.params.SetDouble("pa.max_bound", 90.0);
    node.control.params.SetDouble("pa.dither", 4.0);
    node.control.params.SetDouble("gs.min_bound", 2.0);
    node.control.params.SetDouble("gs.max_bound", 90.0);
    node.control.params.SetDouble("gs.min_bracket", 10.0);
    node.control.params.SetDouble("iyer.initial_bound", 15.0);
    node.control.params.SetDouble("iyer.min_bound", 2.0);
    node.control.params.SetDouble("iyer.max_bound", 90.0);
    return spec;
  }
};

TEST_P(MatrixTest, RunsAndCommits) {
  const core::ExperimentResult result =
      core::Experiment(MakeSpec()).Run();
  EXPECT_GT(result.commits, 100u) << "no progress";
  EXPECT_GT(result.mean_throughput, 5.0);
  EXPECT_GE(result.mean_response, 0.0);
}

TEST_P(MatrixTest, TrajectoryIsWellFormed) {
  const core::ExperimentSpec spec = MakeSpec();
  const core::ExperimentResult result = core::Experiment(spec).Run();
  ASSERT_EQ(result.trajectory.size(),
            static_cast<size_t>(spec.duration /
                                spec.nodes[0].control.measurement_interval));
  double prev_time = 0.0;
  for (const core::TrajectoryPoint& point : result.trajectory) {
    EXPECT_GT(point.time, prev_time);
    prev_time = point.time;
    EXPECT_GE(point.load, 0.0);
    EXPECT_GE(point.throughput, 0.0);
    EXPECT_GE(point.conflict_rate, 0.0);
    EXPECT_GE(point.cpu_utilization, -1e-9);
    EXPECT_LE(point.cpu_utilization, 1.0 + 1e-9);
    EXPECT_TRUE(std::isfinite(point.bound));
  }
}

TEST_P(MatrixTest, DeterministicRerun) {
  const core::ExperimentResult a = core::Experiment(MakeSpec()).Run();
  const core::ExperimentResult b = core::Experiment(MakeSpec()).Run();
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_DOUBLE_EQ(a.mean_throughput, b.mean_throughput);
}

TEST_P(MatrixTest, AbortReasonsMatchCcScheme) {
  const auto& [cc, arrivals, controller, dist] = GetParam();
  const core::ExperimentResult result =
      core::Experiment(MakeSpec()).Run();
  if (cc == db::CcScheme::kOptimisticCertification) {
    EXPECT_EQ(result.final_counters.aborts_deadlock, 0u);
    EXPECT_EQ(result.final_counters.lock_waits, 0u);
  } else {
    EXPECT_EQ(result.final_counters.aborts_certification, 0u);
    EXPECT_GT(result.final_counters.lock_requests, 0u);
  }
  if (!MakeSpec().nodes[0].control.displacement) {
    EXPECT_EQ(result.displacements, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, MatrixTest,
    ::testing::Combine(
        ::testing::Values(db::CcScheme::kOptimisticCertification,
                          db::CcScheme::kTwoPhaseLocking),
        ::testing::Values(db::ArrivalMode::kClosed, db::ArrivalMode::kOpen),
        ::testing::Values("fixed", "incremental-steps",
                          "parabola-approximation", "golden-section",
                          "iyer-rule"),
        ::testing::Values(db::ServiceDistribution::kExponential,
                          db::ServiceDistribution::kDeterministic,
                          db::ServiceDistribution::kErlang2)),
    ParamName);

class ServiceDistributionTest
    : public ::testing::TestWithParam<db::ServiceDistribution> {};

TEST_P(ServiceDistributionTest, MeanThroughputInsensitiveToDistribution) {
  // First-order: throughput depends on the mean demand, not its shape
  // (the knee shifts slightly; deterministic service queues the least).
  core::ExperimentSpec spec;
  core::NodeSpec& node = spec.nodes.emplace_back();
  node.system.physical.num_terminals = 60;
  node.system.physical.think_time_mean = 0.3;
  node.system.physical.num_cpus = 4;
  node.system.physical.cpu_access_mean = 0.002;
  node.system.physical.io_time = 0.004;
  node.system.logical.db_size = 5000;  // negligible contention
  node.system.dynamics.k = db::Schedule::Constant(5);
  node.system.physical.cpu_distribution = GetParam();
  node.system.seed = 77;
  spec.active_terminals = db::Schedule::Constant(60);
  spec.duration = 40.0;
  spec.warmup = 10.0;
  node.control.controller = "fixed";
  node.control.params.SetDouble("fixed.limit", 30.0);
  node.control.initial_limit = 30.0;
  const core::ExperimentResult result = core::Experiment(spec).Run();
  // All three distributions land in the same band (measured: 160-162/s).
  EXPECT_GT(result.mean_throughput, 120.0);
  EXPECT_LT(result.mean_throughput, 190.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ServiceDistributionTest,
    ::testing::Values(db::ServiceDistribution::kExponential,
                      db::ServiceDistribution::kDeterministic,
                      db::ServiceDistribution::kErlang2));

TEST(ConfidenceIntervalTest, StationaryRunHasTightCi) {
  core::ExperimentSpec spec;
  core::NodeSpec& node = spec.nodes.emplace_back();
  node.system.physical.num_terminals = 80;
  node.system.physical.think_time_mean = 0.25;
  node.system.physical.num_cpus = 4;
  node.system.physical.cpu_access_mean = 0.001;
  node.system.physical.io_time = 0.005;
  node.system.logical.db_size = 2000;
  node.system.dynamics.k = db::Schedule::Constant(6);
  node.system.seed = 3;
  spec.active_terminals = db::Schedule::Constant(80);
  spec.duration = 120.0;
  spec.warmup = 20.0;
  node.control.controller = "fixed";
  node.control.params.SetDouble("fixed.limit", 25.0);
  node.control.initial_limit = 25.0;
  node.control.measurement_interval = 0.5;
  const core::ExperimentResult result = core::Experiment(spec).Run();
  EXPECT_GT(result.throughput_ci_half_width, 0.0);
  // The CI must bracket the reported mean sensibly (within 15%).
  EXPECT_LT(result.throughput_ci_half_width,
            0.15 * result.mean_throughput);
}

TEST(ConfidenceIntervalTest, ShortRunReportsZero) {
  core::ExperimentSpec spec;
  core::NodeSpec& node = spec.nodes.emplace_back();
  node.system.physical.num_terminals = 10;
  node.system.physical.think_time_mean = 0.2;
  node.system.logical.db_size = 100;
  node.system.dynamics.k = db::Schedule::Constant(3);
  spec.active_terminals = db::Schedule::Constant(10);
  spec.duration = 5.0;
  spec.warmup = 1.0;  // only 4 intervals -> less than 2 batches
  node.control.controller = "fixed";
  node.control.params.SetDouble("fixed.limit", 5.0);
  const core::ExperimentResult result = core::Experiment(spec).Run();
  EXPECT_EQ(result.throughput_ci_half_width, 0.0);
}

}  // namespace
}  // namespace alc
