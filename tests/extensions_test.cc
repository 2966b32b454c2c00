// Tests for the extensions beyond the paper's core: open (Poisson)
// arrivals, the golden-section controller, and CSV export.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "control/gate.h"
#include "control/golden_section.h"
#include "core/experiment.h"
#include "core/export.h"
#include "db/system.h"
#include "sim/simulator.h"

namespace alc {
namespace {

db::SystemConfig OpenConfig(double rate, uint64_t seed = 1) {
  db::SystemConfig config;
  config.arrivals = db::ArrivalMode::kOpen;
  config.open_arrival_rate = rate;
  config.physical.num_cpus = 4;
  config.physical.cpu_init_mean = 0.001;
  config.physical.cpu_access_mean = 0.001;
  config.physical.cpu_commit_mean = 0.001;
  config.physical.cpu_write_commit_mean = 0.002;
  config.physical.io_time = 0.005;
  config.physical.restart_delay_mean = 0.01;
  config.logical.db_size = 500;
  config.dynamics.k = db::Schedule::Constant(6);
  config.seed = seed;
  return config;
}

TEST(OpenArrivalsTest, UnderloadedThroughputMatchesArrivalRate) {
  sim::Simulator sim;
  db::TransactionSystem system(&sim, OpenConfig(50.0));
  system.Start();
  sim.RunUntil(60.0);
  const double throughput = system.metrics().counters.commits / 60.0;
  EXPECT_NEAR(throughput, 50.0, 5.0);
  // Population stays bounded (Little's law: ~ rate * response).
  EXPECT_LT(system.active(), 40);
}

TEST(OpenArrivalsTest, PoolReusesTransactionSlots) {
  sim::Simulator sim;
  db::TransactionSystem system(&sim, OpenConfig(100.0));
  system.Start();
  sim.RunUntil(30.0);
  // ~3000 commits, yet the pool only needs ~ concurrent-peak slots.
  EXPECT_GT(system.metrics().counters.commits, 2000u);
  std::vector<db::Transaction*> active;
  system.CollectActive(&active);
  EXPECT_LT(static_cast<int>(active.size()), 100);
}

TEST(OpenArrivalsTest, ArrivalRateScheduleFollowed) {
  sim::Simulator sim;
  db::SystemConfig config = OpenConfig(20.0);
  db::TransactionSystem system(&sim, config);
  system.SetArrivalRateSchedule(db::Schedule::Steps(20.0, {{30.0, 80.0}}));
  system.Start();
  sim.RunUntil(30.0);
  const uint64_t first = system.metrics().counters.submitted;
  sim.RunUntil(60.0);
  const uint64_t second = system.metrics().counters.submitted - first;
  EXPECT_NEAR(static_cast<double>(first) / 30.0, 20.0, 4.0);
  EXPECT_NEAR(static_cast<double>(second) / 30.0, 80.0, 8.0);
}

TEST(OpenArrivalsTest, OverloadGrowsGateQueueNotLoad) {
  // With a gate, sustained overload shows up as queue growth while the
  // admitted load stays at the limit.
  sim::Simulator sim;
  db::SystemConfig config = OpenConfig(300.0);  // far above capacity
  db::TransactionSystem system(&sim, config);
  control::AdmissionGate gate(&system, 10.0);
  system.Start();
  sim.RunUntil(20.0);
  EXPECT_LE(system.active(), 10);
  EXPECT_GT(gate.queue_length(), 1000);
}

TEST(OpenArrivalsTest, DeterministicAcrossRuns) {
  auto run = [] {
    sim::Simulator sim;
    db::TransactionSystem system(&sim, OpenConfig(70.0, 9));
    system.Start();
    sim.RunUntil(20.0);
    return system.metrics().counters.commits;
  };
  EXPECT_EQ(run(), run());
}

control::Sample GsSample(double load, double perf) {
  control::Sample sample;
  sample.mean_active = load;
  sample.throughput = perf;
  sample.interval = 1.0;
  return sample;
}

TEST(GoldenSectionTest, ConvergesOnUnimodalFunction) {
  control::GsConfig config;
  config.min_bound = 0.0;
  config.max_bound = 100.0;
  config.samples_per_probe = 1;
  config.min_bracket = 5.0;
  control::GoldenSectionController gs(config);
  double bound = gs.bound();
  for (int i = 0; i < 60; ++i) {
    const double perf = 100.0 - (bound - 70.0) * (bound - 70.0) * 0.05;
    bound = gs.Update(GsSample(bound, perf));
  }
  // After convergence it restarts a bracket around the optimum; the bound
  // must stay in its neighbourhood.
  EXPECT_NEAR(bound, 70.0, 16.0);
  EXPECT_GT(gs.restarts(), 0);
}

TEST(GoldenSectionTest, BracketShrinksMonotonically) {
  control::GsConfig config;
  config.min_bound = 0.0;
  config.max_bound = 160.0;
  config.samples_per_probe = 1;
  config.min_bracket = 2.0;
  control::GoldenSectionController gs(config);
  double bound = gs.bound();
  double prev_width = gs.bracket_hi() - gs.bracket_lo();
  for (int i = 0; i < 20; ++i) {
    const double perf = -(bound - 40.0) * (bound - 40.0);
    bound = gs.Update(GsSample(bound, perf));
    if (gs.restarts() > 0) break;  // converged: bracket re-opens
    const double width = gs.bracket_hi() - gs.bracket_lo();
    EXPECT_LE(width, prev_width + 1e-9);
    prev_width = width;
  }
}

TEST(GoldenSectionTest, AveragesSamplesPerProbe) {
  control::GsConfig config;
  config.samples_per_probe = 4;
  control::GoldenSectionController gs(config);
  const double first = gs.bound();
  // The bound must hold still for samples_per_probe updates.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(gs.Update(GsSample(first, 10.0)), first);
  }
  EXPECT_NE(gs.Update(GsSample(first, 10.0)), first);
}

TEST(GoldenSectionTest, RestartRecoversFromRegimeChange) {
  control::GsConfig config;
  config.min_bound = 0.0;
  config.max_bound = 200.0;
  config.samples_per_probe = 1;
  config.min_bracket = 8.0;
  config.restart_width_factor = 8.0;
  control::GoldenSectionController gs(config);
  double bound = gs.bound();
  auto run_regime = [&](double optimum, int steps) {
    for (int i = 0; i < steps; ++i) {
      const double perf = -(bound - optimum) * (bound - optimum);
      bound = gs.Update(GsSample(bound, perf));
    }
  };
  run_regime(50.0, 80);
  EXPECT_NEAR(bound, 50.0, 35.0);
  run_regime(150.0, 200);
  EXPECT_NEAR(bound, 150.0, 35.0);
}

TEST(GoldenSectionTest, WorksInsideExperiment) {
  core::ExperimentSpec spec;
  core::NodeSpec& node = spec.nodes.emplace_back();
  node.system.physical.num_terminals = 80;
  node.system.physical.think_time_mean = 0.2;
  node.system.physical.num_cpus = 4;
  node.system.physical.cpu_access_mean = 0.001;
  node.system.physical.io_time = 0.006;
  node.system.logical.db_size = 300;
  node.system.dynamics.k = db::Schedule::Constant(6);
  node.system.seed = 5;
  spec.active_terminals = db::Schedule::Constant(80);
  spec.duration = 40.0;
  spec.warmup = 10.0;
  node.control.controller = "golden-section";
  node.control.params.SetDouble("gs.min_bound", 2.0);
  node.control.params.SetDouble("gs.max_bound", 80.0);
  const core::ExperimentResult result = core::Experiment(spec).Run();
  EXPECT_GT(result.commits, 500u);
  for (const core::TrajectoryPoint& point : result.trajectory) {
    EXPECT_GE(point.bound, 2.0);
    EXPECT_LE(point.bound, 80.0);
  }
}

TEST(ExportTest, TrajectoryCsvRoundTrip) {
  std::vector<core::TrajectoryPoint> trajectory(2);
  trajectory[0].time = 1.0;
  trajectory[0].bound = 50.0;
  trajectory[0].load = 48.5;
  trajectory[0].throughput = 100.25;
  trajectory[1].time = 2.0;
  trajectory[1].bound = 55.0;

  std::ostringstream out;
  core::WriteTrajectoryCsv(out, trajectory, {});
  const std::string csv = out.str();
  EXPECT_NE(csv.find("time,bound,load,throughput"), std::string::npos);
  EXPECT_NE(csv.find("1,50,48.5,100.25"), std::string::npos);
  // No n_opt column without a timeline.
  EXPECT_EQ(csv.find("n_opt"), std::string::npos);
}

TEST(ExportTest, TrajectoryCsvWithOptimumOverlay) {
  std::vector<core::TrajectoryPoint> trajectory(2);
  trajectory[0].time = 1.0;
  trajectory[1].time = 60.0;
  const std::vector<core::OptimumRegime> timeline = {{0.0, 100.0, 10.0},
                                                     {50.0, 200.0, 20.0}};
  std::ostringstream out;
  core::WriteTrajectoryCsv(out, trajectory, timeline);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("n_opt"), std::string::npos);
  // First row in regime 1 (100), second in regime 2 (200).
  EXPECT_NE(csv.find(",100\n"), std::string::npos);
  EXPECT_NE(csv.find(",200\n"), std::string::npos);
}

TEST(ExportTest, ClusterTrajectoryCsvHasNodeColumn) {
  std::vector<std::vector<core::TrajectoryPoint>> nodes(2);
  nodes[0].resize(1);
  nodes[0][0].time = 1.0;
  nodes[0][0].bound = 20.0;
  nodes[0][0].throughput = 100.0;
  nodes[1].resize(2);
  nodes[1][0].time = 1.0;
  nodes[1][0].bound = 30.0;
  nodes[1][1].time = 2.0;
  nodes[1][1].bound = 35.0;

  std::ostringstream out;
  core::WriteClusterTrajectoryCsv(out, nodes);
  const std::string csv = out.str();
  EXPECT_EQ(csv.substr(0, 15), "node,time,bound");
  EXPECT_NE(csv.find("0,1,20,"), std::string::npos);
  EXPECT_NE(csv.find("1,1,30,"), std::string::npos);
  EXPECT_NE(csv.find("1,2,35,"), std::string::npos);
  // One header plus three data rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(ExportTest, CurveAndTimelineCsv) {
  std::ostringstream curve_out;
  core::WriteCurveCsv(curve_out, {{10.0, 16.4}, {195.0, 191.4}});
  EXPECT_EQ(curve_out.str(), "n,throughput\n10,16.4\n195,191.4\n");

  std::ostringstream timeline_out;
  core::WriteTimelineCsv(timeline_out, {{0.0, 195.0, 192.4}});
  EXPECT_EQ(timeline_out.str(),
            "start_time,n_opt,peak_throughput\n0,195,192.4\n");
}

TEST(ExportTest, ExportToFile) {
  std::vector<core::TrajectoryPoint> trajectory(1);
  trajectory[0].time = 1.0;
  const std::string path = ::testing::TempDir() + "/alc_export_test.csv";
  ASSERT_TRUE(core::ExportTrajectory(path, trajectory, {}));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.substr(0, 10), "time,bound");
  EXPECT_FALSE(core::ExportTrajectory("/nonexistent-dir/x.csv", trajectory, {}));
}

}  // namespace
}  // namespace alc
