#include <gtest/gtest.h>

#include <cstring>

#include "core/experiment.h"
#include "core/optimum.h"
#include "core/report.h"

namespace alc::core {
namespace {

/// Downscaled system so core-layer tests stay fast.
ExperimentSpec SmallSpec(uint64_t seed = 5) {
  ExperimentSpec spec;
  NodeSpec& node = spec.nodes.emplace_back();
  node.system.physical.num_terminals = 120;
  node.system.physical.think_time_mean = 0.3;
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
  spec.active_terminals = db::Schedule::Constant(120);
  spec.duration = 60.0;
  spec.warmup = 10.0;
  node.control.measurement_interval = 0.5;
  node.control.initial_limit = 20.0;
  return spec;
}

TEST(ExperimentTest, ProducesTrajectoryAndSummary) {
  ExperimentSpec spec = SmallSpec();
  spec.nodes[0].control.controller = "fixed";
  spec.nodes[0].control.params.SetDouble("fixed.limit", 30.0);
  Experiment experiment(spec);
  const ExperimentResult result = experiment.Run();
  EXPECT_EQ(result.trajectory.size(), 120u);  // 60s / 0.5s
  EXPECT_GT(result.mean_throughput, 10.0);
  EXPECT_GT(result.commits, 0u);
  EXPECT_GT(result.mean_response, 0.0);
  for (const TrajectoryPoint& point : result.trajectory) {
    EXPECT_DOUBLE_EQ(point.bound, 30.0);
    EXPECT_GE(point.load, 0.0);
  }
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  ExperimentSpec spec = SmallSpec(11);
  spec.nodes[0].control.controller = "parabola-approximation";
  const ExperimentResult a = Experiment(spec).Run();
  const ExperimentResult b = Experiment(spec).Run();
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_DOUBLE_EQ(a.mean_throughput, b.mean_throughput);
  for (size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.trajectory[i].bound, b.trajectory[i].bound);
  }
}

TEST(ExperimentTest, TrajectoriesBitIdenticalAcrossRuns) {
  // Stronger than DeterministicAcrossRuns: every field of every trajectory
  // point must be bit-identical, the contract the cluster determinism test
  // (tests/cluster_test.cc) also enforces.
  ExperimentSpec spec = SmallSpec(13);
  spec.nodes[0].control.controller = "incremental-steps";
  const ExperimentResult a = Experiment(spec).Run();
  const ExperimentResult b = Experiment(spec).Run();
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(
        std::memcmp(&a.trajectory[i], &b.trajectory[i], sizeof(TrajectoryPoint)),
        0)
        << "trajectory diverges at tick " << i;
  }
}

TEST(ExperimentTest, SeedChangesOutcome) {
  ExperimentSpec a = SmallSpec(1);
  ExperimentSpec b = SmallSpec(2);
  a.nodes[0].control.controller = b.nodes[0].control.controller = "fixed";
  EXPECT_NE(Experiment(a).Run().commits, Experiment(b).Run().commits);
}

TEST(ExperimentTest, EveryBuiltInControllerRuns) {
  for (const char* controller :
       {"none", "fixed", "tay-rule", "iyer-rule", "incremental-steps",
        "parabola-approximation"}) {
    ExperimentSpec spec = SmallSpec();
    spec.duration = 20.0;
    spec.warmup = 5.0;
    spec.nodes[0].control.controller = controller;
    const ExperimentResult result = Experiment(spec).Run();
    EXPECT_GT(result.commits, 0u) << controller;
  }
}

TEST(ExperimentTest, DisplacementRunsAndDisplaces) {
  ExperimentSpec spec = SmallSpec();
  spec.nodes[0].control.controller = "incremental-steps";
  spec.nodes[0].control.displacement = true;
  spec.nodes[0].control.params.SetDouble("is.initial_bound", 40.0);
  spec.nodes[0].control.params.SetDouble("is.beta", 3.0);
  spec.nodes[0].control.params.SetDouble("is.gamma", 8.0);
  const ExperimentResult result = Experiment(spec).Run();
  EXPECT_GT(result.commits, 0u);
  // A hill-climbing controller moving the bound down displaces sometimes.
  EXPECT_GT(result.final_counters.aborts_displacement, 0u);
}

TEST(ExperimentTest, OuterTunerAdjustsInterval) {
  ExperimentSpec spec = SmallSpec();
  spec.nodes[0].control.controller = "fixed";
  spec.nodes[0].control.params.SetDouble("fixed.limit", 30.0);
  spec.nodes[0].control.outer_tuner = true;
  spec.nodes[0].control.measurement_interval = 0.25;
  const ExperimentResult result = Experiment(spec).Run();
  // With tuning enabled the tick spacing changes over the run, so the
  // trajectory is not uniformly sampled at 0.25s any more.
  ASSERT_GE(result.trajectory.size(), 3u);
  bool nonuniform = false;
  const double first_gap =
      result.trajectory[1].time - result.trajectory[0].time;
  for (size_t i = 2; i < result.trajectory.size(); ++i) {
    const double gap =
        result.trajectory[i].time - result.trajectory[i - 1].time;
    if (std::abs(gap - first_gap) > 1e-6) nonuniform = true;
  }
  EXPECT_TRUE(nonuniform);
}

TEST(ExperimentTest, FrozenAtSnapshotsSchedules) {
  ExperimentSpec spec = SmallSpec();
  spec.nodes[0].system.dynamics.k = db::Schedule::Steps(8.0, {{20.0, 4.0}});
  spec.nodes[0].system.dynamics.query_fraction =
      db::Schedule::Sinusoid(0.5, 0.4, 100.0);
  const ExperimentSpec early = FrozenAt(spec, 0.0);
  const ExperimentSpec late = FrozenAt(spec, 25.0);  // sinusoid crest
  EXPECT_TRUE(early.nodes[0].system.dynamics.k.is_constant());
  EXPECT_DOUBLE_EQ(early.nodes[0].system.dynamics.k.Value(999.0), 8.0);
  EXPECT_DOUBLE_EQ(late.nodes[0].system.dynamics.k.Value(0.0), 4.0);
  EXPECT_NE(early.nodes[0].system.dynamics.query_fraction.Value(0.0),
            late.nodes[0].system.dynamics.query_fraction.Value(0.0));
}

TEST(ExperimentTest, StationaryThroughputIsUnimodalish) {
  // Low limits and very high limits must both underperform the middle.
  ExperimentSpec spec = SmallSpec();
  spec.nodes[0].system.logical.db_size = 150;  // strong contention
  const double low = StationaryThroughput(spec, 2.0, 0.0, 40.0, 10.0, 9);
  const double mid = StationaryThroughput(spec, 25.0, 0.0, 40.0, 10.0, 9);
  const double high =
      StationaryThroughput(spec, 120.0, 0.0, 40.0, 10.0, 9);
  EXPECT_GT(mid, low);
  EXPECT_GT(mid, high);
}

TEST(OptimumFinderTest, FindsKnownOptimumRegion) {
  ExperimentSpec spec = SmallSpec();
  spec.nodes[0].system.logical.db_size = 150;
  OptimumSearchConfig search;
  search.n_lo = 2.0;
  search.n_hi = 120.0;
  search.coarse_points = 7;
  search.refine_rounds = 1;
  search.refine_points = 5;
  search.sim_duration = 30.0;
  search.sim_warmup = 8.0;
  OptimumResult result = OptimumFinder(spec, search).FindAt(0.0);
  EXPECT_GT(result.n_opt, 5.0);
  EXPECT_LT(result.n_opt, 90.0);
  EXPECT_GT(result.peak_throughput, 0.0);
  EXPECT_GE(result.curve.size(), 7u);
  // Curve is sorted by n.
  for (size_t i = 1; i < result.curve.size(); ++i) {
    EXPECT_LT(result.curve[i - 1].first, result.curve[i].first);
  }
}

TEST(OptimumFinderTest, TimelineSplitsAtChangePoints) {
  ExperimentSpec spec = SmallSpec();
  spec.nodes[0].system.logical.db_size = 150;
  spec.nodes[0].system.dynamics.k = db::Schedule::Steps(8.0, {{30.0, 4.0}});
  OptimumSearchConfig search;
  search.n_lo = 2.0;
  search.n_hi = 120.0;
  search.coarse_points = 5;
  search.refine_rounds = 0;
  search.sim_duration = 20.0;
  search.sim_warmup = 5.0;
  const auto timeline = OptimumFinder(spec, search).Timeline(60.0);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(timeline[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(timeline[1].start_time, 30.0);
  // k=4 sustains a higher optimal concurrency than k=8.
  EXPECT_GE(timeline[1].n_opt, timeline[0].n_opt);
}

TEST(OptimumFinderTest, ChangePointsBeyondHorizonIgnored) {
  ExperimentSpec spec = SmallSpec();
  spec.nodes[0].system.dynamics.k = db::Schedule::Steps(8.0, {{500.0, 4.0}});
  OptimumSearchConfig search;
  search.coarse_points = 3;
  search.refine_rounds = 0;
  search.sim_duration = 10.0;
  search.sim_warmup = 2.0;
  search.n_lo = 5.0;
  search.n_hi = 50.0;
  const auto timeline = OptimumFinder(spec, search).Timeline(100.0);
  EXPECT_EQ(timeline.size(), 1u);
}

}  // namespace
}  // namespace alc::core
