// The paper's claims as checked rows: every `[expect]` row of
// specs/paper/*.spec and of the cluster claim specs must pass, evaluated
// through the library as alc_run evaluates them. Also the evaluator's
// contract: NaN and zero denominators fail, a missing leaf is an error
// (spec_test round-trips the rows), and a variant cut to a time window
// measures that window of the full run.

#include "core/expect.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/spec.h"

namespace alc {
namespace {

/// Variant runs of one spec in flight at once.
constexpr int kThreads = 4;

std::vector<std::string> ClaimSpecs() {
  std::vector<std::string> paths = {
      "node_failover.spec",     "cluster_routing_flash.spec",
      "fault_storm.spec",       "elasticity_flash.spec",
      "placement_routing.spec", "session_surge.spec"};
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(ALC_SOURCE_DIR) + "/specs/paper")) {
    if (entry.path().extension() == ".spec") {
      paths.push_back("paper/" + entry.path().filename().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// The committed spec `specs/<file>`.
core::ExperimentSpec LoadClaimSpec(const std::string& file) {
  core::ExperimentSpec spec;
  std::string error;
  EXPECT_TRUE(core::LoadSpecFile(
      std::string(ALC_SOURCE_DIR) + "/specs/" + file, &spec, &error))
      << error;
  return spec;
}

class PaperClaimsTest : public testing::TestWithParam<std::string> {};

TEST_P(PaperClaimsTest, EveryRowPasses) {
  const core::ExperimentSpec spec = LoadClaimSpec(GetParam());
  std::string error;
  ASSERT_FALSE(spec.expect.empty());
  const core::SpecRunResult base = core::RunSpec(spec);
  std::vector<core::ExpectVerdict> verdicts;
  ASSERT_TRUE(core::EvaluateExpect(spec, base, kThreads, &verdicts, &error))
      << error;
  ASSERT_EQ(verdicts.size(), spec.expect.size());
  for (const core::ExpectVerdict& verdict : verdicts) {
    EXPECT_TRUE(verdict.pass) << core::FormatVerdict(verdict);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ClaimSpecs, PaperClaimsTest, testing::ValuesIn(ClaimSpecs()),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param.substr(0, info.param.rfind('.'));
      std::replace_if(
          name.begin(), name.end(),
          [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); },
          '_');
      return name;
    });

// ------------------------------------------------------ the evaluator --

/// A short single-node spec carrying `rows` as its [expect] section.
core::ExperimentSpec SpecWithRows(const std::string& rows) {
  core::ExperimentSpec spec;
  std::string error;
  EXPECT_TRUE(core::ParseSpec(
      "[experiment]\ncluster = false\nduration = 4\nwarmup = 1\n"
      "[node]\ncontrol.controller = fixed\ncontrol.fixed.limit = 50\n"
      "[expect]\n" + rows,
      &spec, &error))
      << error;
  return spec;
}

/// A hand-built result: throughput 5, counters `ten` and `zero`, a NaN
/// gauge and a histogram whose p99 is 3.
core::SpecRunResult FakeResult() {
  core::SpecRunResult result;
  result.single.mean_throughput = 5.0;
  auto add = [&](const char* name, telemetry::MetricKind kind) {
    telemetry::MetricSample& sample = result.single.metrics.emplace_back();
    sample.name = name;
    sample.kind = kind;
    return &sample;
  };
  add("ten", telemetry::MetricKind::kCounter)->count = 10;
  add("zero", telemetry::MetricKind::kCounter)->count = 0;
  add("nan", telemetry::MetricKind::kGauge)->value =
      std::numeric_limits<double>::quiet_NaN();
  add("hist", telemetry::MetricKind::kHistogram)->p99 = 3.0;
  return result;
}

TEST(ExpectTest, NanAndZeroDenominatorsFailAndNeverPass) {
  const core::ExperimentSpec spec = SpecWithRows(
      "ratio = metrics.ten / summary.throughput in [2, 2]\n"
      "histogram = metrics.hist.p99 >= 3\n"
      "nan_below = metrics.nan < 1\n"
      "nan_above = metrics.nan > -1\n"
      "nan_inside = metrics.nan in [-1e300, 1e300]\n"
      "nan_ratio = metrics.ten / metrics.nan > 0\n"
      "zero_above = metrics.ten / metrics.zero > 0\n"
      "zero_below = metrics.ten / metrics.zero <= 1e300\n"
      "zero_over_zero = metrics.zero / metrics.zero in [0, 1]\n");
  std::vector<core::ExpectVerdict> verdicts;
  std::string error;
  ASSERT_TRUE(core::EvaluateExpect(spec, FakeResult(), 1, &verdicts, &error))
      << error;
  ASSERT_EQ(verdicts.size(), 9u);
  EXPECT_TRUE(verdicts[0].pass) << core::FormatVerdict(verdicts[0]);
  EXPECT_TRUE(verdicts[1].pass) << core::FormatVerdict(verdicts[1]);
  for (size_t i = 2; i < verdicts.size(); ++i) {
    EXPECT_FALSE(verdicts[i].pass) << core::FormatVerdict(verdicts[i]);
    EXPECT_NE(core::FormatVerdict(verdicts[i]).find("FAIL"),
              std::string::npos);
  }
  // The reads record each leaf under the row's own spelling.
  EXPECT_EQ(verdicts[6].reads, (std::vector<std::pair<std::string, double>>{
                                   {"metrics.ten", 10.0}, {"metrics.zero", 0.0}}));
}

TEST(ExpectTest, MissingLeafIsAnError) {
  std::vector<core::ExpectVerdict> verdicts;
  std::string error;
  for (const char* leaf : {"metrics.no_such_metric", "metrics.hist",
                           "metrics.hist.p42", "metrics.ten.count"}) {
    const core::ExperimentSpec spec =
        SpecWithRows("present = metrics.ten > 0\nmissing = " +
                     std::string(leaf) + " > 0\n");
    EXPECT_FALSE(
        core::EvaluateExpect(spec, FakeResult(), 1, &verdicts, &error))
        << leaf;
    EXPECT_NE(error.find("line 10: expect row 'missing'"), std::string::npos)
        << error;
    EXPECT_NE(error.find(leaf), std::string::npos) << error;
  }
}

// A surge-window row compares variants cut to the window: warmup at its
// start, duration at its end. The cut run commits exactly what the full
// run's aggregate trajectory commits over the ticks in (start, end].
TEST(ExpectTest, AVariantCutToAWindowIsThatWindowOfTheFullRun) {
  core::ExperimentSpec spec = LoadClaimSpec("fault_storm.spec");
  spec.expect = {{"window", "summary.commits[warmup=40, duration=100] > 0"}};
  const core::SpecRunResult full = core::RunSpec(spec);
  double window_commits = 0.0;
  const std::vector<core::TrajectoryPoint>& ticks =
      full.cluster_result.aggregate;
  for (size_t i = 1; i < ticks.size(); ++i) {
    if (ticks[i].time > 40.0 && ticks[i].time <= 100.0) {
      window_commits +=
          ticks[i].throughput * (ticks[i].time - ticks[i - 1].time);
    }
  }
  std::vector<core::ExpectVerdict> verdicts;
  std::string error;
  ASSERT_TRUE(core::EvaluateExpect(spec, full, 1, &verdicts, &error)) << error;
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_GT(verdicts[0].value, 0.0);
  EXPECT_NEAR(verdicts[0].value, window_commits, 1e-6);
}

}  // namespace
}  // namespace alc
