// The fault-injection subsystem and the hardened detection/response stack:
// fault-spec text round trips and parse errors, the kind registry, the
// [fault]/retry/degrade spec keys, validation rejections, the phi-accrual
// vs consecutive-miss false-declaration comparison on a canned probe
// trace, the occupancy fallback of the response-time probe model, and
// bit-exact pins of the fault_storm headline run (decisions-CSV FNV hash,
// run-to-run and telemetry-on/off identity).

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/export.h"
#include "core/spec.h"
#include "elasticity/heartbeat.h"
#include "fault/config.h"
#include "fault/fault.h"
#include "telemetry/audit.h"
#include "util/hash.h"

namespace alc {
namespace {

// ---------------------------------------------------------------------------
// FaultSpec text form.

TEST(FaultSpecTextTest, ParsesAllFields) {
  fault::FaultSpec spec;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultSpec(
      "probe-delay(30:70; nodes=1+3; magnitude=0.25)", &spec, &error))
      << error;
  EXPECT_EQ(spec.kind, "probe-delay");
  EXPECT_DOUBLE_EQ(spec.start, 30.0);
  EXPECT_DOUBLE_EQ(spec.end, 70.0);
  EXPECT_EQ(spec.nodes, (std::vector<int>{1, 3}));
  EXPECT_DOUBLE_EQ(spec.magnitude, 0.25);
}

TEST(FaultSpecTextTest, NodesAllMeansEveryNode) {
  fault::FaultSpec spec;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultSpec("probe-loss(0:10; nodes=all; magnitude=1)",
                                    &spec, &error))
      << error;
  EXPECT_TRUE(spec.nodes.empty());
}

TEST(FaultSpecTextTest, RoundTripsThroughToString) {
  const char* texts[] = {
      "probe-delay(30:70; nodes=all; magnitude=0.2)",
      "probe-loss(40:80; nodes=1+2; magnitude=0.45)",
      "partition(70:80; nodes=2; magnitude=0)",
      "disk-stall(50:90; nodes=2; magnitude=4)",
      "cpu-degrade(50:90; nodes=3; magnitude=0.5)",
      "crash-burst(60:110; nodes=0; magnitude=0)",
  };
  for (const char* text : texts) {
    fault::FaultSpec spec;
    std::string error;
    ASSERT_TRUE(fault::ParseFaultSpec(text, &spec, &error)) << error;
    EXPECT_EQ(spec.ToString(), text);
    fault::FaultSpec again;
    ASSERT_TRUE(fault::ParseFaultSpec(spec.ToString(), &again, &error))
        << error;
    EXPECT_TRUE(again == spec) << text;
  }
}

TEST(FaultSpecTextTest, RejectsMalformedSpecs) {
  fault::FaultSpec spec;
  std::string error;
  EXPECT_FALSE(fault::ParseFaultSpec("probe-delay", &spec, &error));
  EXPECT_FALSE(fault::ParseFaultSpec("(30:70)", &spec, &error));
  EXPECT_FALSE(fault::ParseFaultSpec("probe-delay(30)", &spec, &error));
  EXPECT_FALSE(
      fault::ParseFaultSpec("probe-delay(30:70; nodes=-1)", &spec, &error));
  EXPECT_FALSE(
      fault::ParseFaultSpec("probe-delay(30:70; nodes=x)", &spec, &error));
  EXPECT_FALSE(
      fault::ParseFaultSpec("probe-delay(30:70; volume=11)", &spec, &error));
  EXPECT_FALSE(fault::ParseFaultSpec("probe-delay(30:70; magnitude=much)",
                                     &spec, &error));
}

// ---------------------------------------------------------------------------
// Registry.

TEST(FaultRegistryTest, BuiltInKindsAreRegistered) {
  fault::FaultRegistry& registry = fault::FaultRegistry::Global();
  for (const char* kind : {"probe-delay", "probe-loss", "partition",
                           "disk-stall", "cpu-degrade", "crash-burst"}) {
    EXPECT_TRUE(registry.Contains(kind)) << kind;
    std::string error;
    EXPECT_NE(registry.Make(kind, fault::FaultSpec{}, &error), nullptr)
        << error;
  }
}

TEST(FaultRegistryTest, UnknownKindListsRegisteredNames) {
  std::string error;
  EXPECT_EQ(fault::FaultRegistry::Global().Make("meteor-strike",
                                                fault::FaultSpec{}, &error),
            nullptr);
  EXPECT_NE(error.find("meteor-strike"), std::string::npos);
  EXPECT_NE(error.find("crash-burst"), std::string::npos);
}

/// A kind whose every window doubles the probe delay it is folded into.
class DoublingDelayFault : public fault::FaultKind {
 public:
  void Contribute(const fault::FaultSpec&,
                  fault::NodePerturbation* out) const override {
    out->probe_delay *= 2.0;
  }
};

TEST(FaultRegistryTest, DuplicateRegistrationIsRejected) {
  fault::FaultRegistry& registry = fault::FaultRegistry::Global();
  EXPECT_FALSE(registry.Register("probe-delay", [](const fault::FaultSpec&) {
    return std::make_unique<DoublingDelayFault>();
  }));
  // The original factory survives: "probe-delay" still adds its magnitude.
  fault::FaultSpec spec;
  spec.magnitude = 0.25;
  std::unique_ptr<fault::FaultKind> kind =
      registry.Make("probe-delay", spec);
  ASSERT_NE(kind, nullptr);
  fault::NodePerturbation perturbation;
  kind->Contribute(spec, &perturbation);
  EXPECT_EQ(perturbation.probe_delay, 0.25);
}

// ---------------------------------------------------------------------------
// Spec layer: [fault] + retry.* + degrade.* keys.

core::ExperimentSpec ClusterSpecBase() {
  core::ExperimentSpec spec;
  spec.cluster = true;
  spec.duration = 20.0;
  spec.warmup = 2.0;
  spec.nodes.resize(2);
  spec.nodes[0].system.seed = 100;
  spec.nodes[1].system.seed = 200;
  return spec;
}

TEST(FaultSpecSectionTest, RobustnessKeysRoundTripExactly) {
  core::ExperimentSpec spec = ClusterSpecBase();
  spec.retry.enabled = true;
  spec.retry.budget = 5;
  spec.retry.backoff_base = 0.02;
  spec.retry.backoff_factor = 3.0;
  spec.retry.backoff_max = 0.8;
  spec.retry.jitter = 0.15;
  spec.degrade.enabled = true;
  spec.degrade.interval = 2.0;
  spec.degrade.shed_query = 1.5;
  spec.degrade.shed_update = 3.5;
  spec.degrade.restore_hysteresis = 0.7;
  spec.fault.enabled = true;
  fault::FaultSpec window;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultSpec("disk-stall(5:15; nodes=1; magnitude=4)",
                                    &window, &error))
      << error;
  spec.fault.faults.push_back(window);
  ASSERT_TRUE(fault::ParseFaultSpec(
      "probe-loss(2:18; nodes=all; magnitude=0.3)", &window, &error))
      << error;
  spec.fault.faults.push_back(window);

  core::ExperimentSpec parsed;
  ASSERT_TRUE(core::ParseSpec(core::PrintSpec(spec), &parsed, &error))
      << error;
  EXPECT_TRUE(parsed == spec);
  // And a second print is byte-stable.
  EXPECT_EQ(core::PrintSpec(parsed), core::PrintSpec(spec));
}

TEST(FaultSpecSectionTest, OverridesAddressRobustnessKeys) {
  core::ExperimentSpec spec = ClusterSpecBase();
  std::string error;
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "retry.enabled", "true", &error))
      << error;
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "retry.budget", "7", &error))
      << error;
  ASSERT_TRUE(
      core::ApplySpecOverride(&spec, "degrade.enabled", "true", &error))
      << error;
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "fault.enabled", "true", &error))
      << error;
  ASSERT_TRUE(core::ApplySpecOverride(
      &spec, "fault.inject", "cpu-degrade(1:9; nodes=0; magnitude=0.5)",
      &error))
      << error;
  EXPECT_TRUE(spec.retry.enabled);
  EXPECT_EQ(spec.retry.budget, 7);
  EXPECT_TRUE(spec.degrade.enabled);
  ASSERT_EQ(spec.fault.faults.size(), 1u);
  EXPECT_EQ(spec.fault.faults[0].kind, "cpu-degrade");
}

/// Whether PrintSpec(spec) survives the parser's validation pass.
bool SpecParses(const core::ExperimentSpec& spec) {
  core::ExperimentSpec parsed;
  std::string error;
  return core::ParseSpec(core::PrintSpec(spec), &parsed, &error);
}

TEST(FaultSpecSectionTest, ValidationRejectsBadConfigs) {
  std::string error;
  // Robustness features require cluster mode.
  core::ExperimentSpec single;
  single.nodes.resize(1);
  single.retry.enabled = true;
  EXPECT_FALSE(SpecParses(single));
  single.retry.enabled = false;
  single.fault.enabled = true;
  EXPECT_FALSE(SpecParses(single));

  // Fault windows must be well-formed and target existing nodes.
  core::ExperimentSpec bad = ClusterSpecBase();
  bad.fault.enabled = true;
  fault::FaultSpec window;
  ASSERT_TRUE(fault::ParseFaultSpec("disk-stall(9:3; nodes=0; magnitude=4)",
                                    &window, &error));
  bad.fault.faults.push_back(window);
  EXPECT_FALSE(SpecParses(bad));

  bad.fault.faults.clear();
  ASSERT_TRUE(fault::ParseFaultSpec("disk-stall(3:9; nodes=5; magnitude=4)",
                                    &window, &error));
  bad.fault.faults.push_back(window);
  EXPECT_FALSE(SpecParses(bad));

  // Unknown kinds are rejected at assignment time.
  core::ExperimentSpec spec = ClusterSpecBase();
  EXPECT_FALSE(core::ApplySpecOverride(
      &spec, "fault.inject", "meteor-strike(1:2; nodes=0)", &error));

  // Retry/degrade shape checks.
  core::ExperimentSpec retry = ClusterSpecBase();
  retry.retry.enabled = true;
  retry.retry.backoff_base = 1.0;
  retry.retry.backoff_max = 0.1;
  EXPECT_FALSE(SpecParses(retry));
  core::ExperimentSpec ladder = ClusterSpecBase();
  ladder.degrade.enabled = true;
  ladder.degrade.shed_query = 4.0;
  ladder.degrade.shed_update = 2.0;
  EXPECT_FALSE(SpecParses(ladder));
}

// ---------------------------------------------------------------------------
// Detector comparison on a canned probe trace: the reason the hardened
// stack runs phi-accrual. On a flaky-but-alive link (intermittent random
// losses), consecutive-miss counting trips its down threshold whenever a
// loss run reaches down_after, while phi adapts its inter-beat history to
// the lossy regime; on a truly silent node both must still declare.

/// Deterministic xorshift64 miss sequence, p(miss) = num/den.
class CannedTrace {
 public:
  explicit CannedTrace(uint64_t seed) : state_(seed) {}
  bool NextMiss(uint32_t num, uint32_t den) {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_ % den < num;
  }

 private:
  uint64_t state_;
};

int CountFalseDeclarations(const std::string& kind) {
  elasticity::HeartbeatConfig config;
  config.kind = kind;
  config.interval = 0.5;
  config.suspect_after = 1;
  config.down_after = 4;
  config.clear_after = 2;
  config.phi_suspect = 1.0;
  config.phi_down = 2.0;
  config.phi_window = 8;
  elasticity::HeartbeatDetector detector(config, /*num_nodes=*/1);
  CannedTrace trace(0x9e3779b97f4a7c15ULL);
  int declarations = 0;
  // 500 probes (~4 minutes) of a 40%-lossy but alive link.
  for (int beat = 0; beat < 500; ++beat) {
    const double now = 0.5 * beat;
    const bool missed = trace.NextMiss(2, 5);
    if (detector.Observe(0, 0, missed, now) ==
        elasticity::HealthEvent::kDeclaredDown) {
      ++declarations;
    }
  }
  return declarations;
}

TEST(DetectorComparisonTest, PhiFalseDeclaresLessThanConsecutiveOnFlakyLink) {
  const int consecutive = CountFalseDeclarations("consecutive");
  const int phi = CountFalseDeclarations("phi");
  EXPECT_GT(consecutive, 0);  // the canned trace does trip the baseline
  EXPECT_LT(phi, consecutive);
}

TEST(DetectorComparisonTest, BothDeclareATrulySilentNode) {
  for (const char* kind : {"consecutive", "phi"}) {
    elasticity::HeartbeatConfig config;
    config.kind = kind;
    config.interval = 0.5;
    config.suspect_after = 1;
    config.down_after = 4;
    config.clear_after = 2;
    elasticity::HeartbeatDetector detector(config, /*num_nodes=*/1);
    // A healthy prefix, then silence.
    int declarations = 0;
    for (int beat = 0; beat < 40; ++beat) {
      if (detector.Observe(0, 0, /*missed=*/beat >= 20, 0.5 * beat) ==
          elasticity::HealthEvent::kDeclaredDown) {
        ++declarations;
      }
    }
    EXPECT_EQ(declarations, 1) << kind;
    EXPECT_EQ(detector.state(0), elasticity::HealthState::kDown) << kind;
  }
}

TEST(DetectorComparisonTest, QuorumOutvotesOneFaultyObserver) {
  elasticity::HeartbeatConfig config;
  config.suspect_after = 1;
  config.down_after = 4;
  config.clear_after = 2;
  config.observers = 3;
  config.quorum = 2;
  elasticity::HeartbeatDetector detector(config, /*num_nodes=*/1);
  // Observer 2 misses every beat (its own link is dead); observers 0 and 1
  // see a healthy node. The aggregate may be suspect but never down.
  for (int beat = 0; beat < 50; ++beat) {
    const double now = 0.5 * beat;
    EXPECT_NE(detector.Observe(0, 0, false, now),
              elasticity::HealthEvent::kDeclaredDown);
    EXPECT_NE(detector.Observe(0, 1, false, now),
              elasticity::HealthEvent::kDeclaredDown);
    EXPECT_NE(detector.Observe(0, 2, true, now),
              elasticity::HealthEvent::kDeclaredDown);
  }
  EXPECT_NE(detector.state(0), elasticity::HealthState::kDown);
}

// ---------------------------------------------------------------------------
// Full-run pins of the fault_storm headline scenario.

// Captured from the run this PR landed with; re-pin only with a reason
// (see ElasticityDeterminismTest for the precedent).
constexpr size_t kPinnedStormDecisionsSize = 276934;
constexpr uint64_t kPinnedStormDecisionsHash = 13987446913339486123ULL;

core::ExperimentSpec LoadStormSpec() {
  core::ExperimentSpec spec;
  std::string error;
  EXPECT_TRUE(core::LoadSpecFile(
      std::string(ALC_SOURCE_DIR) + "/specs/fault_storm.spec", &spec, &error))
      << error;
  return spec;
}

struct StormArtifacts {
  std::string decisions;
  std::string cluster;
  uint64_t commits = 0;
  core::ClusterResult result;
};

StormArtifacts RunStorm(bool telemetry_on, const std::string& tag) {
  core::ExperimentSpec spec = LoadStormSpec();
  if (telemetry_on) {
    spec.decisions_path = testing::TempDir() + "/storm_" + tag + ".csv";
    spec.trace_path = testing::TempDir() + "/storm_" + tag + ".trace.json";
  }
  const core::SpecRunResult run = core::RunSpec(spec);
  EXPECT_TRUE(run.cluster);

  StormArtifacts artifacts;
  artifacts.result = run.cluster_result;
  artifacts.commits = run.cluster_result.commits;
  std::ostringstream decisions;
  telemetry::WriteDecisionsCsv(decisions, run.decisions);
  artifacts.decisions = decisions.str();
  std::vector<std::vector<core::TrajectoryPoint>> trajectories;
  std::vector<core::ClusterNodePlacementInfo> placement_info;
  for (const core::ClusterNodeResult& node : run.cluster_result.nodes) {
    trajectories.push_back(node.trajectory);
    placement_info.push_back({node.remote_frac, node.partitions_owned});
  }
  std::ostringstream cluster_csv;
  core::WriteClusterTrajectoryCsv(cluster_csv, trajectories, placement_info,
                                  run.cluster_result.membership);
  artifacts.cluster = cluster_csv.str();
  if (telemetry_on) {
    std::remove(spec.decisions_path.c_str());
    std::remove(spec.trace_path.c_str());
  }
  return artifacts;
}

TEST(FaultDeterminismTest, StormRunIsBitExactAndDecisionsArePinned) {
  const StormArtifacts first = RunStorm(/*telemetry_on=*/true, "a");
  const StormArtifacts second = RunStorm(/*telemetry_on=*/true, "b");

  // Run-to-run: byte-identical artifacts with the injector active.
  EXPECT_EQ(first.decisions, second.decisions);
  EXPECT_EQ(first.cluster, second.cluster);

  // Every fault window opened and closed, and the storm actually touched
  // the measured path.
  EXPECT_EQ(first.result.faults_started, 6u);
  EXPECT_EQ(first.result.faults_ended, 6u);
  EXPECT_GT(first.result.probes_lost, 0u);
  EXPECT_GT(first.result.probes_delayed, 0u);
  // The response stack ran: bounded retries, some exhausted, classes shed.
  EXPECT_GT(first.result.retries, 0u);
  EXPECT_GT(first.result.dead_letters, 0u);
  EXPECT_GT(first.result.shed_query, 0u);

  // Cross-build pin of the decision audit (fault edges + detector verdicts
  // + ladder moves for the whole storm). If this fails, fault timing or
  // the detection/response arithmetic changed — re-pin only with a reason.
  EXPECT_EQ(first.decisions.size(), kPinnedStormDecisionsSize);
  EXPECT_EQ(util::Fnv1a(first.decisions), kPinnedStormDecisionsHash);
}

TEST(FaultDeterminismTest, TelemetryTogglesAreInertOnStormRun) {
  // The full storm (injector edges, false declarations, retries, ladder
  // moves) with the decision audit + trace attached must commit the same
  // transactions at the same ticks as the bare run.
  const StormArtifacts on = RunStorm(/*telemetry_on=*/true, "on");
  const StormArtifacts off = RunStorm(/*telemetry_on=*/false, "off");
  EXPECT_EQ(on.commits, off.commits);
  EXPECT_EQ(on.cluster, off.cluster);
  EXPECT_FALSE(on.decisions.empty());
  EXPECT_GT(on.decisions.size(), off.decisions.size());
}

TEST(FaultDeterminismTest, OccupancyFallbackRunsWhenPerPhaseTelemetryOff) {
  // hb.delay_source = response reads per-phase response histograms; with
  // per-phase telemetry off the probe model falls back to the occupancy
  // proxy and the run still executes end to end.
  core::ExperimentSpec spec = LoadStormSpec();
  std::string error;
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "node.telemetry.per_phase",
                                      "false", &error))
      << error;
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "duration", "60", &error))
      << error;
  const core::SpecRunResult run = core::RunSpec(spec);
  EXPECT_TRUE(run.cluster);
  EXPECT_GT(run.cluster_result.commits, 0u);
  // The probe-loss window (t >= 30) was active, so the detector saw the
  // storm through the fallback model too.
  EXPECT_GT(run.cluster_result.probes_lost, 0u);
}

}  // namespace
}  // namespace alc
