// End-to-end reproductions of the paper's qualitative claims, downscaled so
// the whole suite stays fast. The full-scale versions live in bench/.

#include <cmath>

#include <gtest/gtest.h>

#include "control/gate.h"
#include "core/experiment.h"
#include "core/optimum.h"
#include "core/report.h"
#include "db/system.h"
#include "sim/simulator.h"

namespace alc::core {
namespace {

/// A scaled-down contention-bound system with a clear interior optimum.
ExperimentSpec MidSpec(uint64_t seed = 21) {
  ExperimentSpec spec;
  NodeSpec& node = spec.nodes.emplace_back();
  node.system.physical.num_terminals = 200;
  node.system.physical.think_time_mean = 0.4;
  node.system.physical.num_cpus = 6;
  node.system.physical.cpu_init_mean = 0.0008;
  node.system.physical.cpu_access_mean = 0.0008;
  node.system.physical.cpu_commit_mean = 0.001;
  node.system.physical.cpu_write_commit_mean = 0.006;
  node.system.physical.io_time = 0.012;
  node.system.physical.restart_delay_mean = 0.02;
  node.system.logical.db_size = 2000;
  node.system.dynamics.k = db::Schedule::Constant(10);
  node.system.dynamics.query_fraction = db::Schedule::Constant(0.3);
  node.system.dynamics.write_fraction = db::Schedule::Constant(0.4);
  node.system.seed = seed;
  spec.active_terminals = db::Schedule::Constant(200);
  spec.duration = 120.0;
  spec.warmup = 30.0;
  node.control.measurement_interval = 1.0;
  node.control.initial_limit = 20.0;
  node.control.params.SetDouble("is.min_bound", 4.0);
  node.control.params.SetDouble("is.max_bound", 200.0);
  node.control.params.SetDouble("is.initial_bound", 20.0);
  node.control.params.SetDouble("is.beta", 0.5);
  node.control.params.SetDouble("is.gamma", 4.0);
  node.control.params.SetDouble("is.delta", 12.0);
  node.control.params.SetDouble("pa.min_bound", 4.0);
  node.control.params.SetDouble("pa.max_bound", 200.0);
  node.control.params.SetDouble("pa.initial_bound", 20.0);
  node.control.params.SetDouble("pa.dither", 5.0);
  return spec;
}

double RunWith(const char* controller, ExperimentSpec spec) {
  spec.nodes[0].control.controller = controller;
  return Experiment(spec).Run().mean_throughput;
}

TEST(IntegrationTest, ThrashingExistsWithoutControl) {
  // Figure 1 / figure 12 premise: a moderate fixed bound beats letting the
  // full population in.
  ExperimentSpec spec = MidSpec();
  spec.nodes[0].control.params.SetDouble("fixed.limit", 40.0);
  const double bounded = RunWith("fixed", spec);
  const double unbounded = RunWith("none", spec);
  EXPECT_GT(bounded, unbounded * 1.3)
      << "bounded=" << bounded << " unbounded=" << unbounded;
}

TEST(IntegrationTest, AdaptiveControllersPreventThrashing) {
  const ExperimentSpec spec = MidSpec();
  const double none = RunWith("none", spec);
  const double pa = RunWith("parabola-approximation", spec);
  const double is = RunWith("incremental-steps", spec);
  EXPECT_GT(pa, none * 1.2) << "pa=" << pa << " none=" << none;
  EXPECT_GT(is, none * 1.2) << "is=" << is << " none=" << none;
}

TEST(IntegrationTest, AdaptiveNearStationaryOptimum) {
  // Figure 12's claim: with control the system operates near the optimum.
  ExperimentSpec spec = MidSpec();
  OptimumSearchConfig search;
  search.n_lo = 5.0;
  search.n_hi = 150.0;
  search.coarse_points = 7;
  search.refine_rounds = 1;
  search.sim_duration = 40.0;
  search.sim_warmup = 10.0;
  const OptimumResult optimum = OptimumFinder(spec, search).FindAt(0.0);
  ASSERT_GT(optimum.peak_throughput, 0.0);
  const double pa = RunWith("parabola-approximation", spec);
  EXPECT_GT(pa, 0.80 * optimum.peak_throughput)
      << "pa=" << pa << " peak=" << optimum.peak_throughput;
}

TEST(IntegrationTest, ControllersFollowJumpOfOptimum) {
  // Figures 13/14: the optimum's position jumps; both controllers must
  // leave the old operating point and re-settle near the new one.
  ExperimentSpec spec = MidSpec();
  spec.duration = 300.0;
  spec.warmup = 30.0;
  // Keep both regimes contention-bound (interior optimum) so a gradient
  // signal exists on both sides of the jump.
  spec.nodes[0].system.logical.db_size = 800;
  spec.nodes[0].control.params.SetDouble("is.max_bound", 150.0);
  spec.nodes[0].control.params.SetDouble("pa.max_bound", 150.0);
  // Write-fraction jump moves the resource bottleneck and with it n_opt.
  spec.nodes[0].system.dynamics.write_fraction =
      db::Schedule::Steps(0.5, {{120.0, 0.15}});

  OptimumSearchConfig search;
  search.n_lo = 5.0;
  search.n_hi = 150.0;
  search.coarse_points = 7;
  search.refine_rounds = 1;
  search.sim_duration = 40.0;
  search.sim_warmup = 10.0;
  const auto timeline = OptimumFinder(spec, search).Timeline(300.0);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_GT(timeline[1].n_opt, timeline[0].n_opt * 1.3)
      << "the jump must move the optimum substantially";

  // The paper (figs. 13/14) reports PA tracking the moved optimum more
  // accurately than IS, which "has serious problems to adjust correctly":
  // we require the sluggish-but-safe behaviour from IS and accurate
  // re-tracking from PA.
  struct Expectation {
    const char* controller;
    double min_ratio;
  };
  for (const Expectation& expect :
       {Expectation{"incremental-steps", 1.10},
        Expectation{"parabola-approximation", 1.25}}) {
    ExperimentSpec run = spec;
    run.nodes[0].control.controller = expect.controller;
    const ExperimentResult result = Experiment(run).Run();

    double before = 0.0, after = 0.0;
    int n_before = 0, n_after = 0;
    for (const TrajectoryPoint& point : result.trajectory) {
      if (point.time >= 90.0 && point.time < 120.0) {
        before += point.bound;
        ++n_before;
      } else if (point.time >= 255.0) {
        after += point.bound;
        ++n_after;
      }
    }
    ASSERT_GT(n_before, 0);
    ASSERT_GT(n_after, 0);
    before /= n_before;
    after /= n_after;
    EXPECT_GT(after, before * expect.min_ratio)
        << expect.controller
        << ": bound did not follow the jump (" << before << " -> " << after
        << ", optimum " << timeline[0].n_opt << " -> " << timeline[1].n_opt
        << ")";
  }
}

TEST(IntegrationTest, SinusoidalVariationIsTracked) {
  // Section 9: both algorithms follow gradual (sinusoidal) changes.
  ExperimentSpec spec = MidSpec();
  spec.duration = 360.0;
  spec.warmup = 60.0;
  spec.nodes[0].system.dynamics.write_fraction =
      db::Schedule::Sinusoid(0.25, 0.2, 150.0);  // 0.05..0.45

  ExperimentSpec run = spec;
  run.nodes[0].control.controller = "parabola-approximation";
  const ExperimentResult result = Experiment(run).Run();

  // The bound should be higher when the write fraction is low. Compare the
  // mean bound in low-write windows vs high-write windows (steady state).
  double low_sum = 0.0, high_sum = 0.0;
  int low_n = 0, high_n = 0;
  for (const TrajectoryPoint& point : result.trajectory) {
    if (point.time < 100.0) continue;
    const double w =
        spec.nodes[0].system.dynamics.write_fraction.Value(point.time);
    if (w < 0.15) {
      low_sum += point.bound;
      ++low_n;
    } else if (w > 0.35) {
      high_sum += point.bound;
      ++high_n;
    }
  }
  ASSERT_GT(low_n, 10);
  ASSERT_GT(high_n, 10);
  EXPECT_GT(low_sum / low_n, 1.15 * (high_sum / high_n));
}

TEST(IntegrationTest, BlockedTransactionsGrowSuperlinearly2PL) {
  // Section 1 (Tay): for blocking CC the mean number of blocked
  // transactions is a quadratic function of the concurrency level.
  auto blocked_at = [](double limit) {
    ExperimentSpec spec = MidSpec();
    spec.nodes[0].system.cc = db::CcScheme::kTwoPhaseLocking;
    spec.nodes[0].system.logical.db_size = 600;
    spec.nodes[0].system.dynamics.write_fraction = db::Schedule::Constant(0.5);
    spec.nodes[0].control.controller = "fixed";
    spec.nodes[0].control.params.SetDouble("fixed.limit", limit);
    spec.nodes[0].control.initial_limit = limit;
    spec.duration = 60.0;
    spec.warmup = 15.0;
    sim::Simulator simulator;
    db::TransactionSystem system(&simulator, spec.nodes[0].system);
    control::AdmissionGate gate(&system, limit);
    system.Start();
    simulator.RunUntil(60.0);
    return system.metrics().blocked_track.AverageUntil(simulator.Now());
  };
  const double b20 = blocked_at(20.0);
  const double b60 = blocked_at(60.0);
  ASSERT_GT(b20, 0.01);
  // 3x the load must yield clearly more than 3x the blocked count.
  EXPECT_GT(b60 / b20, 4.5) << "b20=" << b20 << " b60=" << b60;
}

TEST(IntegrationTest, DisplacementSpeedsUpDownwardAdjustment) {
  // Section 4.3: displacement enforces a lowered bound instantly, at the
  // cost of aborted work. After a downward jump of the optimum, the
  // displacing variant reaches low load sooner.
  ExperimentSpec spec = MidSpec();
  spec.duration = 160.0;
  spec.warmup = 20.0;
  spec.nodes[0].system.dynamics.write_fraction =
      db::Schedule::Steps(0.05, {{80.0, 0.6}});
  spec.nodes[0].control.controller = "parabola-approximation";

  auto load_after_jump = [&](bool displacement) {
    ExperimentSpec run = spec;
    run.nodes[0].control.displacement = displacement;
    const ExperimentResult result = Experiment(run).Run();
    double sum = 0.0;
    int count = 0;
    for (const TrajectoryPoint& point : result.trajectory) {
      if (point.time >= 80.0 && point.time <= 100.0) {
        sum += point.load;
        ++count;
      }
    }
    return sum / count;
  };
  const double with_displacement = load_after_jump(true);
  const double without_displacement = load_after_jump(false);
  EXPECT_LE(with_displacement, without_displacement * 1.05);
}

}  // namespace
}  // namespace alc::core
