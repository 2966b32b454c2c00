#include <cmath>

#include <gtest/gtest.h>

#include "db/schedule.h"
#include "db/workload.h"

namespace alc::db {
namespace {

TEST(ScheduleTest, ConstantValue) {
  Schedule s = Schedule::Constant(5.5);
  EXPECT_DOUBLE_EQ(s.Value(0.0), 5.5);
  EXPECT_DOUBLE_EQ(s.Value(1e9), 5.5);
  EXPECT_TRUE(s.is_constant());
  EXPECT_TRUE(s.ChangePoints().empty());
}

TEST(ScheduleTest, StepsJumpAtChangeTimes) {
  Schedule s = Schedule::Steps(10.0, {{100.0, 20.0}, {200.0, 5.0}});
  EXPECT_DOUBLE_EQ(s.Value(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.Value(99.999), 10.0);
  EXPECT_DOUBLE_EQ(s.Value(100.0), 20.0);
  EXPECT_DOUBLE_EQ(s.Value(150.0), 20.0);
  EXPECT_DOUBLE_EQ(s.Value(200.0), 5.0);
  EXPECT_DOUBLE_EQ(s.Value(1e6), 5.0);
  EXPECT_FALSE(s.is_constant());
}

TEST(ScheduleTest, StepsChangePoints) {
  Schedule s = Schedule::Steps(1.0, {{10.0, 2.0}, {20.0, 3.0}});
  const auto points = s.ChangePoints();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0], 10.0);
  EXPECT_DOUBLE_EQ(points[1], 20.0);
}

TEST(ScheduleTest, SinusoidShape) {
  Schedule s = Schedule::Sinusoid(10.0, 4.0, 100.0);
  EXPECT_NEAR(s.Value(0.0), 10.0, 1e-12);
  EXPECT_NEAR(s.Value(25.0), 14.0, 1e-9);   // quarter period: +amplitude
  EXPECT_NEAR(s.Value(50.0), 10.0, 1e-9);
  EXPECT_NEAR(s.Value(75.0), 6.0, 1e-9);
  EXPECT_NEAR(s.Value(100.0), 10.0, 1e-9);  // full period
}

TEST(ScheduleTest, SinusoidPhaseShift) {
  Schedule s = Schedule::Sinusoid(0.0, 1.0, 1.0, M_PI / 2.0);
  EXPECT_NEAR(s.Value(0.0), 1.0, 1e-12);
}

TEST(ScheduleTest, PiecewiseLinearInterpolatesAndExtrapolatesFlat) {
  Schedule s = Schedule::PiecewiseLinear({{10.0, 0.0}, {20.0, 100.0}});
  EXPECT_DOUBLE_EQ(s.Value(0.0), 0.0);     // before first point
  EXPECT_DOUBLE_EQ(s.Value(15.0), 50.0);   // midpoint
  EXPECT_DOUBLE_EQ(s.Value(20.0), 100.0);
  EXPECT_DOUBLE_EQ(s.Value(99.0), 100.0);  // after last point
}

TEST(ScheduleTest, RangeConstant) {
  const auto [lo, hi] = Schedule::Constant(3.0).Range(100.0);
  EXPECT_DOUBLE_EQ(lo, 3.0);
  EXPECT_DOUBLE_EQ(hi, 3.0);
}

TEST(ScheduleTest, RangeStepsWithinHorizon) {
  Schedule s = Schedule::Steps(10.0, {{50.0, 30.0}, {500.0, 1.0}});
  const auto [lo, hi] = s.Range(100.0);  // the 500s step is out of horizon
  EXPECT_DOUBLE_EQ(lo, 10.0);
  EXPECT_DOUBLE_EQ(hi, 30.0);
}

TEST(ScheduleTest, RangeSinusoidFullPeriod) {
  Schedule s = Schedule::Sinusoid(10.0, 4.0, 50.0);
  const auto [lo, hi] = s.Range(200.0);
  EXPECT_DOUBLE_EQ(lo, 6.0);
  EXPECT_DOUBLE_EQ(hi, 14.0);
}

TEST(WorkloadDynamicsTest, DefaultsAreThePaperMixAndConstant) {
  const WorkloadDynamics dynamics;
  EXPECT_EQ(dynamics.KAt(0.0, 1000), 16);
  EXPECT_EQ(dynamics.KAt(1e6, 1000), 16);
  EXPECT_DOUBLE_EQ(dynamics.QueryFractionAt(5.0), 0.3);
  EXPECT_DOUBLE_EQ(dynamics.WriteFractionAt(5.0), 0.25);
  EXPECT_TRUE(dynamics.ChangePoints().empty());
}

TEST(WorkloadDynamicsTest, KIsRoundedAndClamped) {
  WorkloadDynamics dynamics;
  dynamics.k = Schedule::Constant(7.6);
  EXPECT_EQ(dynamics.KAt(0.0, 1000), 8);
  dynamics.k = Schedule::Constant(0.2);
  EXPECT_EQ(dynamics.KAt(0.0, 1000), 1);  // clamped to >= 1
  dynamics.k = Schedule::Constant(5000.0);
  EXPECT_EQ(dynamics.KAt(0.0, 1000), 1000);  // clamped to db size
}

TEST(WorkloadDynamicsTest, FractionsClampedToUnitInterval) {
  WorkloadDynamics dynamics;
  dynamics.query_fraction = Schedule::Constant(1.7);
  dynamics.write_fraction = Schedule::Constant(-0.3);
  EXPECT_DOUBLE_EQ(dynamics.QueryFractionAt(0.0), 1.0);
  EXPECT_DOUBLE_EQ(dynamics.WriteFractionAt(0.0), 0.0);
}

TEST(WorkloadDynamicsTest, ChangePointsMergedAndSorted) {
  WorkloadDynamics dynamics;
  dynamics.k = Schedule::Steps(16.0, {{300.0, 8.0}});
  dynamics.query_fraction = Schedule::Steps(0.3, {{100.0, 0.8}});
  dynamics.write_fraction = Schedule::Steps(0.25, {{300.0, 0.05}});
  const auto points = dynamics.ChangePoints();
  ASSERT_EQ(points.size(), 2u);  // 300 deduplicated
  EXPECT_DOUBLE_EQ(points[0], 100.0);
  EXPECT_DOUBLE_EQ(points[1], 300.0);
}

}  // namespace
}  // namespace alc::db
