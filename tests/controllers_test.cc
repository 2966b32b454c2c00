#include <cmath>

#include <gtest/gtest.h>

#include "control/fixed.h"
#include "control/incremental_steps.h"
#include "control/interval_advisor.h"
#include "control/parabola.h"
#include "control/rules.h"
#include "control/sample.h"

namespace alc::control {
namespace {

Sample MakeSample(double load, double throughput, double time = 0.0) {
  Sample sample;
  sample.time = time;
  sample.interval = 1.0;
  sample.throughput = throughput;
  sample.mean_active = load;
  sample.mean_response = throughput > 0.0 ? load / throughput : 0.0;
  sample.commits = static_cast<long long>(throughput);
  return sample;
}

TEST(PerformanceValueTest, SelectsConfiguredIndex) {
  Sample sample;
  sample.throughput = 100.0;
  sample.mean_response = 0.25;
  sample.cpu_utilization = 0.8;
  sample.useful_cpu_fraction = 0.5;
  EXPECT_DOUBLE_EQ(PerformanceValue(sample, PerformanceIndex::kThroughput),
                   100.0);
  EXPECT_DOUBLE_EQ(
      PerformanceValue(sample, PerformanceIndex::kInverseResponseTime), 4.0);
  EXPECT_DOUBLE_EQ(
      PerformanceValue(sample, PerformanceIndex::kEffectiveCpuUtilization),
      0.4);
}

TEST(FixedControllersTest, Basics) {
  NoControlController none;
  EXPECT_GT(none.Update(MakeSample(10, 10)), 1e8);
  EXPECT_EQ(none.name(), "none");

  FixedLimitController fixed(42.0);
  EXPECT_DOUBLE_EQ(fixed.Update(MakeSample(100, 5)), 42.0);
  fixed.Reset(10.0);
  EXPECT_DOUBLE_EQ(fixed.bound(), 10.0);
}

class IsTest : public ::testing::Test {
 protected:
  IsConfig DefaultConfig() {
    IsConfig config;
    config.beta = 1.0;
    config.gamma = 5.0;
    config.delta = 10.0;
    config.initial_bound = 100.0;
    config.min_bound = 10.0;
    config.max_bound = 500.0;
    return config;
  }
};

TEST_F(IsTest, FirstUpdateProbesUpward) {
  IncrementalStepsController is(DefaultConfig());
  const double next = is.Update(MakeSample(100.0, 50.0));
  EXPECT_DOUBLE_EQ(next, 105.0);  // +gamma exploratory step
}

TEST_F(IsTest, ContinuesDirectionWhilePerformanceRises) {
  IncrementalStepsController is(DefaultConfig());
  is.Update(MakeSample(100.0, 50.0));  // bound 105, direction +
  // P rose by 10 with load tracking the bound: next = 105 + 1*10*sign(+5).
  const double next = is.Update(MakeSample(105.0, 60.0));
  EXPECT_DOUBLE_EQ(next, 115.0);
}

TEST_F(IsTest, ReversesWhenPerformanceDrops) {
  IncrementalStepsController is(DefaultConfig());
  is.Update(MakeSample(100.0, 50.0));   // bound 105, moved up
  is.Update(MakeSample(105.0, 60.0));   // bound 115, moved up
  // Performance fell by 20: delta-P negative, direction was +, so the bound
  // moves down by beta*|dP|.
  const double next = is.Update(MakeSample(115.0, 40.0));
  EXPECT_DOUBLE_EQ(next, 95.0);
}

TEST_F(IsTest, ZigZagClimbsToOptimum) {
  // Deterministic unimodal response: P(n) = 200 - (n - 60)^2 / 10. The gain
  // beta must suit the curvature (beta * d2P/dn2 < 1); an overdriven IS
  // oscillates and slams into its static bounds — the instability section
  // 5.1 warns about.
  IsConfig config = DefaultConfig();
  config.initial_bound = 20.0;
  config.beta = 0.05;
  IncrementalStepsController is(config);
  double bound = config.initial_bound;
  for (int i = 0; i < 300; ++i) {
    const double load = bound;  // closed system tracks the bound
    const double perf = 200.0 - (load - 60.0) * (load - 60.0) / 10.0;
    bound = is.Update(MakeSample(load, perf));
  }
  EXPECT_NEAR(bound, 60.0, 15.0);
}

TEST_F(IsTest, EscapesExactlyFlatPlateau) {
  // With a deterministic flat response IS would compute zero steps forever;
  // the implementation probes upward instead.
  IncrementalStepsController is(DefaultConfig());
  double bound = 100.0;
  for (int i = 0; i < 10; ++i) {
    bound = is.Update(MakeSample(bound, 50.0));
  }
  EXPECT_GT(bound, 105.0);
}

TEST_F(IsTest, DriftPullRaisesBoundTowardLoad) {
  IncrementalStepsController is(DefaultConfig());
  is.Update(MakeSample(100.0, 50.0));  // bound 105
  // Load far above bound (|n*-n| > delta, n* < n): +gamma branch.
  const double next = is.Update(MakeSample(200.0, 50.0));
  EXPECT_DOUBLE_EQ(next, 110.0);
}

TEST_F(IsTest, DriftPullLowersBoundTowardLoad) {
  IncrementalStepsController is(DefaultConfig());
  is.Update(MakeSample(100.0, 50.0));  // bound 105
  // Load far below bound (n* > n): -gamma branch.
  const double next = is.Update(MakeSample(50.0, 50.0));
  EXPECT_DOUBLE_EQ(next, 100.0);
}

TEST_F(IsTest, RespectsStaticBounds) {
  IsConfig config = DefaultConfig();
  config.initial_bound = 495.0;
  IncrementalStepsController is(config);
  is.Update(MakeSample(495.0, 10.0));
  // Keep "improving" upward: bound must clamp at max_bound.
  double bound = 0.0;
  for (int i = 1; i < 50; ++i) {
    bound = is.Update(MakeSample(495.0, 10.0 + i * 5.0));
  }
  EXPECT_LE(bound, config.max_bound);
  // And symmetric at the bottom.
  IsConfig low = DefaultConfig();
  low.initial_bound = 12.0;
  IncrementalStepsController is2(low);
  is2.Update(MakeSample(12.0, 100.0));
  double bound2 = 0.0;
  for (int i = 1; i < 50; ++i) {
    bound2 = is2.Update(MakeSample(12.0, 100.0 - i * 3.0));
  }
  EXPECT_GE(bound2, low.min_bound);
}

TEST_F(IsTest, SignumConventionMinusOneAtZero) {
  // After a drift-pull the bound did not move by the signum path, so
  // n*(t_i) == n*(t_{i-1}) can occur; the paper defines signum(0) = -1.
  IsConfig config = DefaultConfig();
  config.gamma = 5.0;
  IncrementalStepsController is(config);
  is.Update(MakeSample(100.0, 50.0));   // bound 105
  is.Update(MakeSample(200.0, 50.0));   // drift: bound 110
  is.Update(MakeSample(200.0, 50.0));   // drift: bound 115
  // Now bring load into band with rising P: direction = signum(115-110)=+1.
  const double next = is.Update(MakeSample(110.0, 60.0));
  EXPECT_DOUBLE_EQ(next, 115.0 + 1.0 * 10.0);
}

TEST_F(IsTest, ResetRestoresInitialState) {
  IncrementalStepsController is(DefaultConfig());
  is.Update(MakeSample(100.0, 50.0));
  is.Update(MakeSample(105.0, 60.0));
  is.Reset(33.0);
  EXPECT_DOUBLE_EQ(is.bound(), 33.0);
  // First update after reset is the exploratory step again.
  EXPECT_DOUBLE_EQ(is.Update(MakeSample(33.0, 10.0)), 38.0);
}

class PaTest : public ::testing::Test {
 protected:
  PaConfig DefaultConfig() {
    PaConfig config;
    config.forgetting = 0.95;
    config.initial_bound = 50.0;
    config.min_bound = 5.0;
    config.max_bound = 200.0;
    config.dither = 4.0;
    config.warmup_updates = 4;
    config.recovery_step = 10.0;
    return config;
  }

  /// Feeds the controller a deterministic concave response centred at n_opt.
  double Converge(ParabolaApproximationController* pa, double n_opt,
                  int iterations, double noise_seed = 0.0) {
    double bound = pa->bound();
    for (int i = 0; i < iterations; ++i) {
      const double load = bound;
      const double perf = 100.0 - 0.05 * (load - n_opt) * (load - n_opt) +
                          noise_seed * std::sin(i * 1.7);
      bound = pa->Update(MakeSample(load, perf, i * 1.0));
    }
    return bound;
  }
};

TEST_F(PaTest, WarmupDithersAroundInitialBound) {
  ParabolaApproximationController pa(DefaultConfig());
  const double b1 = pa.Update(MakeSample(50.0, 10.0));
  const double b2 = pa.Update(MakeSample(b1, 10.0));
  EXPECT_NEAR(std::fabs(b1 - 50.0), 4.0, 1e-9);
  EXPECT_NE(b1, b2);  // alternating dither sign
}

TEST_F(PaTest, FindsVertexOfCleanParabola) {
  ParabolaApproximationController pa(DefaultConfig());
  const double bound = Converge(&pa, 120.0, 60);
  EXPECT_NEAR(bound, 120.0, 8.0);  // within dither of the optimum
  double a0, a1, a2;
  pa.FittedCoefficients(&a0, &a1, &a2);
  EXPECT_LT(a2, 0.0);
  EXPECT_NEAR(-a1 / (2.0 * a2), 120.0, 5.0);
}

TEST_F(PaTest, TracksMovedOptimum) {
  ParabolaApproximationController pa(DefaultConfig());
  Converge(&pa, 120.0, 60);
  const double bound = Converge(&pa, 60.0, 80);
  EXPECT_NEAR(bound, 60.0, 10.0);
}

TEST_F(PaTest, DitherKeepsExcitation) {
  ParabolaApproximationController pa(DefaultConfig());
  Converge(&pa, 100.0, 50);
  const double b1 = Converge(&pa, 100.0, 1);
  const double b2 = Converge(&pa, 100.0, 1);
  // The commanded bound oscillates by ~2*dither even at convergence (the
  // paper: oscillations in fig. 14 are enforced by the algorithm).
  EXPECT_GT(std::fabs(b1 - b2), 4.0);
}

TEST_F(PaTest, UpwardParabolaTriggersRecovery) {
  PaConfig config = DefaultConfig();
  config.recovery = PaRecoveryPolicy::kHold;
  ParabolaApproximationController pa(config);
  // Convex response (no interior max): a2 estimates positive.
  double bound = pa.bound();
  int in_recovery = 0;
  for (int i = 0; i < 40; ++i) {
    const double load = bound;
    const double perf = 10.0 + 0.02 * load * load;
    bound = pa.Update(MakeSample(load, perf, i));
    if (pa.in_recovery()) ++in_recovery;
  }
  EXPECT_GT(in_recovery, 5);
}

TEST_F(PaTest, GradientRecoveryFollowsSlope) {
  PaConfig config = DefaultConfig();
  config.recovery = PaRecoveryPolicy::kGradient;
  config.reset_after_failures = 1000;  // isolate the gradient behaviour
  ParabolaApproximationController pa(config);
  // Rising convex curve: slope positive everywhere, so recovery pushes up.
  double bound = pa.bound();
  double prev_center = 0.0;
  double last_center = 0.0;
  for (int i = 0; i < 30; ++i) {
    const double load = bound;
    const double perf = 10.0 + 0.02 * load * load;
    bound = pa.Update(MakeSample(load, perf, i));
    prev_center = last_center;
    last_center = bound;
  }
  EXPECT_GT(bound, 50.0);  // drifted upward, toward better performance
  (void)prev_center;
}

TEST_F(PaTest, ContractRecoveryStepsDown) {
  PaConfig config = DefaultConfig();
  config.recovery = PaRecoveryPolicy::kContract;
  config.reset_after_failures = 1000;
  ParabolaApproximationController pa(config);
  double bound = pa.bound();
  for (int i = 0; i < 30; ++i) {
    const double load = bound;
    const double perf = 10.0 + 0.02 * load * load;  // convex: always recovery
    bound = pa.Update(MakeSample(load, perf, i));
  }
  EXPECT_LT(bound, 50.0);  // contracted downward from the initial bound
}

TEST_F(PaTest, RepeatedFailuresResetCovariance) {
  PaConfig config = DefaultConfig();
  config.recovery = PaRecoveryPolicy::kHold;
  config.reset_after_failures = 3;
  ParabolaApproximationController pa(config);
  double bound = pa.bound();
  for (int i = 0; i < 20; ++i) {
    const double load = bound;
    bound = pa.Update(MakeSample(load, 10.0 + 0.02 * load * load, i));
  }
  // consecutive counter must have been folded back below the threshold.
  EXPECT_LT(pa.consecutive_upward_fits(), 3);
}

TEST_F(PaTest, RecoversAfterAbruptShapeChange) {
  // Fig. 8 scenario: converge, then the surface shifts so the old fit is
  // deep in the thrashing region; PA must re-find the new optimum.
  PaConfig config = DefaultConfig();
  config.forgetting = 0.90;
  ParabolaApproximationController pa(config);
  Converge(&pa, 150.0, 80);
  const double bound = Converge(&pa, 40.0, 120);
  EXPECT_NEAR(bound, 40.0, 12.0);
}

TEST_F(PaTest, BoundsAreRespected) {
  ParabolaApproximationController pa(DefaultConfig());
  // Optimum far outside the admissible range: clamp at max_bound.
  const double bound = Converge(&pa, 1000.0, 60);
  EXPECT_LE(bound, 200.0);
  EXPECT_GE(bound, 5.0);
}

TEST_F(PaTest, ResetClearsEstimator) {
  ParabolaApproximationController pa(DefaultConfig());
  Converge(&pa, 120.0, 50);
  pa.Reset(30.0);
  EXPECT_DOUBLE_EQ(pa.bound(), 30.0);
  EXPECT_FALSE(pa.in_recovery());
  // Next updates are warmup dithers around the new bound.
  const double b = pa.Update(MakeSample(30.0, 5.0));
  EXPECT_NEAR(std::fabs(b - 30.0), 4.0, 1e-9);
}

// The default controller on the noise-free plant of bench/perf_suite's
// controller_update_pa: the dither probes only two loads, so the
// estimator's covariance winds up along the unexcited direction until its
// gain denominator degenerates (some 700 updates in). The estimator must
// restart its covariance there instead of aborting, and keep steering.
TEST(PaNoiseFreeTest, SurvivesLongNoiseFreeRun) {
  ParabolaApproximationController pa(PaConfig{});
  const PaConfig config;
  Sample sample;
  double bound = 100.0;
  for (int i = 0; i < 100000; ++i) {
    sample.mean_active = bound;
    sample.throughput = 300.0 - 0.01 * (bound - 150.0) * (bound - 150.0);
    bound = pa.Update(sample);
    ASSERT_TRUE(std::isfinite(bound)) << "update " << i;
    ASSERT_GE(bound, config.min_bound) << "update " << i;
    ASSERT_LE(bound, config.max_bound) << "update " << i;
  }
  EXPECT_NEAR(bound, 150.0, 2.0 * config.dither + 1.0);
}

TEST(TayRuleTest, ComputesBoundFromFormula) {
  TayRuleController tay(10000.0, [](double) { return 10.0; }, 1.5);
  // n* = 1.5 * D / k^2 = 1.5 * 10000 / 100 = 150.
  EXPECT_DOUBLE_EQ(tay.Update(MakeSample(50, 10)), 150.0);
}

TEST(TayRuleTest, FollowsDeclaredKSchedule) {
  double current_k = 10.0;
  TayRuleController tay(10000.0, [&current_k](double) { return current_k; });
  EXPECT_DOUBLE_EQ(tay.Update(MakeSample(1, 1, 0.0)), 150.0);
  current_k = 20.0;
  EXPECT_DOUBLE_EQ(tay.Update(MakeSample(1, 1, 1.0)), 37.5);
}

TEST(TayRuleTest, NeverBelowOne) {
  TayRuleController tay(100.0, [](double) { return 50.0; });
  EXPECT_DOUBLE_EQ(tay.Update(MakeSample(1, 1)), 1.0);
}

TEST(IyerRuleTest, IntegralActionMovesTowardTarget) {
  IyerRuleController::Config config;
  config.target_conflicts = 0.75;
  config.gain = 10.0;
  config.initial_bound = 100.0;
  IyerRuleController iyer(config);

  Sample calm = MakeSample(100, 50);
  calm.conflict_rate = 0.1;  // far below target: raise the bound
  EXPECT_DOUBLE_EQ(iyer.Update(calm), 106.5);

  Sample hot = MakeSample(100, 50);
  hot.conflict_rate = 1.75;  // above target: lower it
  EXPECT_DOUBLE_EQ(iyer.Update(hot), 96.5);
}

TEST(IyerRuleTest, ConvergesOnSyntheticConflictCurve) {
  // conflict_rate(n) = n / 100: target 0.75 should steer n* toward 75.
  IyerRuleController::Config config;
  config.gain = 20.0;
  config.initial_bound = 10.0;
  IyerRuleController iyer(config);
  double bound = config.initial_bound;
  for (int i = 0; i < 200; ++i) {
    Sample sample = MakeSample(bound, 50);
    sample.conflict_rate = bound / 100.0;
    bound = iyer.Update(sample);
  }
  EXPECT_NEAR(bound, 75.0, 2.0);
}

TEST(IyerRuleTest, RespectsBounds) {
  IyerRuleController::Config config;
  config.gain = 1000.0;
  config.min_bound = 5.0;
  config.max_bound = 300.0;
  IyerRuleController iyer(config);
  Sample calm = MakeSample(10, 10);
  calm.conflict_rate = 0.0;
  EXPECT_LE(iyer.Update(calm), 300.0);
  Sample hot = MakeSample(10, 10);
  hot.conflict_rate = 10.0;
  EXPECT_GE(iyer.Update(hot), 5.0);
}

TEST(IntervalAdvisorTest, RequiredDeparturesMatchesFormula) {
  // z(95%) ~ 1.96, cv=1, eps=0.1 -> (1.96/0.1)^2 ~ 384 departures:
  // "rather hundreds of departures than some tens".
  IntervalAdvisor advisor(1.0, 0.1, 0.95);
  EXPECT_NEAR(advisor.RequiredDepartures(), 384.1, 1.0);
}

TEST(IntervalAdvisorTest, IntervalScalesInverselyWithThroughput) {
  IntervalAdvisor advisor(1.0, 0.1, 0.95);
  const double at_100 = advisor.RecommendedInterval(100.0);
  const double at_200 = advisor.RecommendedInterval(200.0);
  EXPECT_NEAR(at_100 / at_200, 2.0, 1e-9);
  EXPECT_NEAR(at_100, 3.84, 0.05);
}

TEST(IntervalAdvisorTest, MoreVariableProcessNeedsLongerIntervals) {
  IntervalAdvisor smooth(0.5, 0.1, 0.95);
  IntervalAdvisor bursty(2.0, 0.1, 0.95);
  EXPECT_GT(bursty.RequiredDepartures(), smooth.RequiredDepartures() * 10.0);
}

TEST(IntervalAdvisorTest, TighterAccuracyNeedsMoreData) {
  IntervalAdvisor loose(1.0, 0.2, 0.95);
  IntervalAdvisor tight(1.0, 0.05, 0.95);
  EXPECT_NEAR(tight.RequiredDepartures() / loose.RequiredDepartures(), 16.0,
              0.1);
}

}  // namespace
}  // namespace alc::control
