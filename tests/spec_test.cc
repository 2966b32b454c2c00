// ExperimentSpec layer: schedule literals, Parse(Print(spec)) == spec
// round trips on representative specs, parser conveniences (node cloning,
// named schedules) and error reporting, overrides, and run-equivalence of
// RunSpec against a directly built Experiment.

#include "core/spec.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/export.h"
#include "db/schedule.h"

namespace alc {
namespace {

// ------------------------------------------------------ schedule literals --

TEST(ScheduleTextTest, RoundTripsEveryKind) {
  const db::Schedule cases[] = {
      db::Schedule::Constant(850),
      db::Schedule::Constant(0.1),
      db::Schedule::Steps(0.3, {{333.0, 0.85}, {666.0, 0.3}}),
      db::Schedule::Steps(320.0, {}),
      db::Schedule::Sinusoid(100.0, 50.0, 86400.0, 0.25),
      db::Schedule::PiecewiseLinear({{0.0, 1.0}, {40.0, 0.3}, {100.0, 1.0}}),
  };
  for (const db::Schedule& schedule : cases) {
    db::Schedule parsed;
    ASSERT_TRUE(db::Schedule::Parse(schedule.ToString(), &parsed))
        << schedule.ToString();
    EXPECT_TRUE(parsed == schedule) << schedule.ToString();
  }
}

TEST(ScheduleTextTest, ParsesHandWrittenForms) {
  db::Schedule schedule;
  ASSERT_TRUE(db::Schedule::Parse("  steps( 320 ; 40:900 , 80:320 )  ",
                                  &schedule));
  EXPECT_EQ(schedule.Value(0.0), 320.0);
  EXPECT_EQ(schedule.Value(50.0), 900.0);
  EXPECT_EQ(schedule.Value(90.0), 320.0);

  ASSERT_TRUE(db::Schedule::Parse("sinusoid(10, 2, 60)", &schedule));
  EXPECT_DOUBLE_EQ(schedule.Value(0.0), 10.0);
}

TEST(ScheduleTextTest, RejectsMalformedLiterals) {
  db::Schedule schedule;
  EXPECT_FALSE(db::Schedule::Parse("constant()", &schedule));
  EXPECT_FALSE(db::Schedule::Parse("constant(1", &schedule));
  EXPECT_FALSE(db::Schedule::Parse("steps(1)", &schedule));
  EXPECT_FALSE(db::Schedule::Parse("steps(1; 10:2, 5:3)", &schedule));
  EXPECT_FALSE(db::Schedule::Parse("sinusoid(1, 2, 0)", &schedule));
  EXPECT_FALSE(db::Schedule::Parse("pwl()", &schedule));
  EXPECT_FALSE(db::Schedule::Parse("ramp(1, 2)", &schedule));
}

TEST(ScheduleTextTest, EqualityIsStructural) {
  EXPECT_TRUE(db::Schedule::Constant(5) == db::Schedule::Constant(5));
  EXPECT_FALSE(db::Schedule::Constant(5) == db::Schedule::Constant(6));
  // Pointwise-equal but structurally different.
  EXPECT_FALSE(db::Schedule::Constant(5) ==
               db::Schedule::Sinusoid(5, 0, 1, 0));
}

// ------------------------------------------------------------ round trips --

core::ExperimentSpec RoundTrip(const core::ExperimentSpec& spec) {
  core::ExperimentSpec parsed;
  std::string error;
  EXPECT_TRUE(core::ParseSpec(core::PrintSpec(spec), &parsed, &error))
      << error;
  return parsed;
}

TEST(SpecRoundTripTest, SingleNodeWithDynamicWorkload) {
  core::ExperimentSpec spec;
  spec.seed = 123;
  spec.active_terminals = db::Schedule::Sinusoid(600, 200, 500);
  spec.duration = 700.0;
  spec.warmup = 50.0;
  core::NodeSpec& node = spec.nodes.emplace_back();
  node.system.seed = 123;
  node.system.cc = db::CcScheme::kTwoPhaseLocking;
  node.system.physical.cpu_distribution = db::ServiceDistribution::kErlang2;
  node.system.dynamics.query_fraction =
      db::Schedule::Steps(0.30, {{333.0, 0.85}, {666.0, 0.30}});
  node.control.controller = "incremental-steps";
  node.control.params.SetDouble("is.beta", 1.25);
  node.control.measurement_interval = 0.5;
  // [expect] rows of every expression form (core/expect.h).
  spec.expect = {
      {"leaf", "summary.commits > 0"},
      {"ratio", "response.p99 / response.p99[node.cc=occ, duration=600] <= 2"},
      {"peak", "argmax(summary.throughput, node.control.fixed.limit = 10 | "
               "50) in [10, 50]"},
      {"best", "max(metrics.node0.response.p99[node.cc=occ], "
               "node.control.fixed.limit = 10 | 50) < 1e9"}};

  EXPECT_TRUE(RoundTrip(spec) == spec);
  core::ExperimentSpec fewer_rows = spec;
  fewer_rows.expect.pop_back();
  EXPECT_FALSE(RoundTrip(fewer_rows) == spec);
}

// A node's logical mix line is an input spelling of its dynamics schedule:
// it sets constant(v), a later dynamics line wins, and the printed spec
// reparses to the same node whichever line set the schedule.
TEST(SpecRoundTripTest, LogicalMixLinesSetTheirDynamicsSchedules) {
  std::string error;
  core::ExperimentSpec spec;
  ASSERT_TRUE(core::ParseSpec("[node]\n"
                              "logical.accesses_per_txn = 4\n"
                              "logical.query_fraction = 0.6\n"
                              "logical.write_fraction = 0.9\n"
                              "dynamics.write_fraction = steps(0.1; 5:0.5)\n",
                              &spec, &error))
      << error;
  const db::WorkloadDynamics& dynamics = spec.nodes[0].system.dynamics;
  EXPECT_TRUE(dynamics.k == db::Schedule::Constant(4));
  EXPECT_TRUE(dynamics.query_fraction == db::Schedule::Constant(0.6));
  EXPECT_TRUE(dynamics.write_fraction ==
              db::Schedule::Steps(0.1, {{5.0, 0.5}}));
  EXPECT_TRUE(RoundTrip(spec) == spec);

  core::ExperimentSpec overridden = spec;
  ASSERT_TRUE(core::ApplySpecOverride(&overridden, "node.logical.write_fraction",
                                      "0.7", &error))
      << error;
  EXPECT_TRUE(overridden.nodes[0].system.dynamics.write_fraction ==
              db::Schedule::Constant(0.7));
  EXPECT_TRUE(RoundTrip(overridden) == overridden);
}

// An alias line ahead of a schedule keeps the schedule through print and
// reparse; an alias line after one replaces it with constant(v), in
// [node] and in [placement] alike.
TEST(SpecRoundTripTest, MixAliasesAreOrderedAssignments) {
  std::string error;
  core::ExperimentSpec kept;
  ASSERT_TRUE(core::ParseSpec("[node]\n"
                              "logical.accesses_per_txn = 8\n"
                              "dynamics.k = steps(8; 10:12)\n",
                              &kept, &error))
      << error;
  const db::Schedule steps = db::Schedule::Steps(8.0, {{10.0, 12.0}});
  EXPECT_TRUE(kept.nodes[0].system.dynamics.k == steps);
  const core::ExperimentSpec reparsed = RoundTrip(kept);
  EXPECT_TRUE(reparsed == kept);
  EXPECT_TRUE(reparsed.nodes[0].system.dynamics.k == steps);

  core::ExperimentSpec replaced;
  ASSERT_TRUE(core::ParseSpec("[placement]\n"
                              "dynamics.query_fraction = steps(0.5; 60:0.9)\n"
                              "workload.query_fraction = 0.2\n"
                              "[node]\n"
                              "dynamics.k = steps(8; 10:12)\n"
                              "logical.accesses_per_txn = 6\n",
                              &replaced, &error))
      << error;
  EXPECT_TRUE(replaced.nodes[0].system.dynamics.k ==
              db::Schedule::Constant(6));
  EXPECT_TRUE(replaced.placement.dynamics.query_fraction ==
              db::Schedule::Constant(0.2));
}

TEST(SpecRoundTripTest, HeterogeneousCluster) {
  core::ExperimentSpec spec;
  spec.name = "hetero";
  spec.cluster = true;
  spec.seed = 9;
  spec.duration = 90.0;
  spec.warmup = 10.0;
  spec.routing = "threshold";
  spec.routing_params.SetDouble("threshold.initial_threshold", 6.0);
  spec.arrival_rate = db::Schedule::Steps(300.0, {{40.0, 900.0}});

  core::NodeSpec big;
  big.system.physical.num_cpus = 16;
  big.system.seed = 100;
  big.control.controller = "parabola-approximation";
  big.control.params.SetDouble("pa.dither", 7.0);
  core::NodeSpec small;
  small.system.physical.num_cpus = 2;
  small.system.seed = 200;
  small.system.cc = db::CcScheme::kTwoPhaseLocking;
  small.control.controller = "incremental-steps";
  small.control.params.SetDouble("is.gamma", 12.0);
  small.system.cpu_speed =
      db::Schedule::Steps(1.0, {{40.0, 0.3}, {100.0, 1.0}});
  spec.nodes = {big, small};

  EXPECT_TRUE(RoundTrip(spec) == spec);
}

TEST(SpecRoundTripTest, TelemetryKeysRoundTrip) {
  core::ExperimentSpec spec;
  spec.cluster = false;
  spec.trace_path = "/tmp/run_trace.json";
  spec.decisions_path = "/tmp/run_decisions.csv";
  core::NodeSpec node;
  node.system.telemetry.per_phase = false;
  spec.nodes = {node};
  const core::ExperimentSpec round = RoundTrip(spec);
  EXPECT_EQ(round.trace_path, "/tmp/run_trace.json");
  EXPECT_EQ(round.decisions_path, "/tmp/run_decisions.csv");
  EXPECT_FALSE(round.nodes[0].system.telemetry.per_phase);
  EXPECT_TRUE(round == spec);

  // Overrides address the same keys.
  core::ExperimentSpec overridden = spec;
  std::string error;
  ASSERT_TRUE(core::ApplySpecOverride(&overridden, "trace", "", &error))
      << error;
  EXPECT_TRUE(overridden.trace_path.empty());
  ASSERT_TRUE(core::ApplySpecOverride(&overridden, "decisions", "", &error))
      << error;
  EXPECT_TRUE(overridden.decisions_path.empty());
  ASSERT_TRUE(core::ApplySpecOverride(&overridden, "node.telemetry.per_phase",
                                      "true", &error))
      << error;
  EXPECT_TRUE(overridden.nodes[0].system.telemetry.per_phase);
}

TEST(SpecRoundTripTest, PlacementClusterWithDynamics) {
  core::ExperimentSpec spec;
  spec.cluster = true;
  spec.routing = "locality-threshold";
  spec.placement_enabled = true;
  spec.placement.placement.kind = placement::PlacementKind::kReplicated;
  spec.placement.placement.num_partitions = 16;
  spec.placement.placement.replication_factor = 3;
  spec.placement.placement.rebalance_interval = 10.0;
  spec.placement.workload.db_size = 9600;
  spec.placement.workload.hotspot_access_prob = 0.8;
  spec.placement.workload.hotspot_size_fraction = 0.0625;
  db::WorkloadDynamics dynamics;
  dynamics.k = db::Schedule::Constant(8);
  dynamics.query_fraction = db::Schedule::Steps(0.5, {{60.0, 0.9}});
  dynamics.write_fraction = db::Schedule::Constant(0.1);
  spec.placement.dynamics = dynamics;
  spec.remote_access.cpu_penalty = 0.003;
  spec.remote_access.latency = 0.016;
  spec.remote_access.serve_cpu = 0.004;
  spec.nodes.resize(4);
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    spec.nodes[i].system.seed = 1000 + i;
    spec.nodes[i].system.logical.db_size = 9600;
  }

  EXPECT_TRUE(RoundTrip(spec) == spec);
}

// ------------------------------------------------- parser conveniences --

TEST(SpecParseTest, NodeCountClonesWithDecorrelatedSeeds) {
  const std::string text =
      "[experiment]\n"
      "cluster = true\n"
      "seed = 42\n"
      "[node]\n"
      "count = 4\n"
      "physical.num_cpus = 4\n";
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(text, &spec, &error)) << error;
  ASSERT_EQ(spec.nodes.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spec.nodes[i].system.seed, core::DecorrelatedNodeSeed(42, i));
    EXPECT_EQ(spec.nodes[i].system.physical.num_cpus, 4);
  }
}

TEST(SpecParseTest, SeedInheritanceDecorrelatesAcrossBareNodes) {
  // A single undeclared node runs the experiment seed directly...
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::ParseSpec("[experiment]\nseed = 77\n[node]\n", &spec,
                              &error))
      << error;
  ASSERT_EQ(spec.nodes.size(), 1u);
  EXPECT_EQ(spec.nodes[0].system.seed, 77u);

  // ...but two bare [node] sections must not share a random stream: the
  // undeclared one decorrelates over its fleet index, the declared one
  // keeps its seed.
  ASSERT_TRUE(core::ParseSpec(
      "[experiment]\ncluster = true\nseed = 77\n[node]\n[node]\nseed = 5\n",
      &spec, &error))
      << error;
  ASSERT_EQ(spec.nodes.size(), 2u);
  EXPECT_EQ(spec.nodes[0].system.seed, core::DecorrelatedNodeSeed(77, 0));
  EXPECT_EQ(spec.nodes[1].system.seed, 5u);
}

TEST(SpecParseTest, RejectsImpossibleFleetShapes) {
  core::ExperimentSpec spec;
  std::string error;
  EXPECT_FALSE(core::ParseSpec("[experiment]\nduration = 10\n", &spec,
                               &error));
  EXPECT_NE(error.find("no [node]"), std::string::npos) << error;

  EXPECT_FALSE(core::ParseSpec("[node]\ncount = 2\n", &spec, &error));
  EXPECT_NE(error.find("exactly one node"), std::string::npos) << error;
}

TEST(SpecParseTest, HashInValueSurvivesWhenNotACommentStart) {
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(
      "[experiment]\nname = run#7  # trailing comment\n[node]\n", &spec,
      &error))
      << error;
  EXPECT_EQ(spec.name, "run#7");
  // Round trip: the printed form re-parses to the same name.
  core::ExperimentSpec reparsed;
  ASSERT_TRUE(core::ParseSpec(core::PrintSpec(spec), &reparsed, &error))
      << error;
  EXPECT_EQ(reparsed.name, "run#7");
}

TEST(SpecParseTest, RejectsOutOfRangeIntegers) {
  core::ExperimentSpec spec;
  std::string error;
  EXPECT_FALSE(core::ParseSpec(
      "[node]\nphysical.num_cpus = 4294967300\n", &spec, &error));
  EXPECT_NE(error.find("out-of-range"), std::string::npos) << error;
}

TEST(SpecParseTest, NamedSchedulesResolve) {
  const std::string text =
      "[schedules]\n"
      "flash = steps(320; 40:900, 80:320)\n"
      "[experiment]\n"
      "cluster = true\n"
      "arrival_rate = $flash\n"
      "[node]\n";
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(text, &spec, &error)) << error;
  EXPECT_TRUE(spec.arrival_rate ==
              db::Schedule::Steps(320.0, {{40.0, 900.0}, {80.0, 320.0}}));
}

TEST(SpecParseTest, ReportsErrorsWithLineNumbers) {
  core::ExperimentSpec spec;
  std::string error;

  EXPECT_FALSE(core::ParseSpec("[experiment]\nbogus_key = 1\n", &spec,
                               &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("bogus_key"), std::string::npos) << error;

  EXPECT_FALSE(core::ParseSpec("[warp]\n", &spec, &error));
  EXPECT_NE(error.find("unknown section"), std::string::npos) << error;

  EXPECT_FALSE(core::ParseSpec(
      "[experiment]\narrival_rate = steps(1)\n", &spec, &error));
  EXPECT_NE(error.find("schedule"), std::string::npos) << error;

  EXPECT_FALSE(core::ParseSpec(
      "[experiment]\narrival_rate = $undefined\n", &spec, &error));
  EXPECT_NE(error.find("$undefined"), std::string::npos) << error;

  EXPECT_FALSE(core::ParseSpec("[node]\nduration = 5\n", &spec, &error));
  EXPECT_NE(error.find("unknown node key"), std::string::npos) << error;
}

TEST(SpecParseTest, RejectsWarmupNotBeforeDurationWithLineNumber) {
  core::ExperimentSpec spec;
  std::string error;
  // Reported at whichever of the two keys came last.
  EXPECT_FALSE(core::ParseSpec(
      "[experiment]\nduration = 300\nwarmup = 300\n[node]\n", &spec,
      &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("warmup (300) must be < duration (300)"),
            std::string::npos)
      << error;
  EXPECT_FALSE(core::ParseSpec(
      "[experiment]\nwarmup = 50\n\nduration = 40\n[node]\n", &spec,
      &error));
  EXPECT_NE(error.find("line 4"), std::string::npos) << error;
  // Against the defaults (duration 300) too.
  EXPECT_FALSE(
      core::ParseSpec("[experiment]\nwarmup = 400\n[node]\n", &spec, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  // Each key's own range is checked as it is assigned.
  EXPECT_FALSE(
      core::ParseSpec("[experiment]\nduration = 0\n[node]\n", &spec, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_FALSE(
      core::ParseSpec("[experiment]\nwarmup = -1\n[node]\n", &spec, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(SpecOverrideTest, RunWindowIsValidatedOnceOverridesAreIn) {
  core::ExperimentSpec spec;
  spec.nodes.emplace_back();
  spec.duration = 300.0;
  spec.warmup = 30.0;
  std::string error;
  ASSERT_TRUE(core::ValidateSpec(spec, &error)) << error;
  // An override may pass through an invalid window on the way to a valid
  // one, so single overrides are not window-checked...
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "warmup", "300", &error));
  EXPECT_FALSE(core::ValidateSpec(spec, &error));
  EXPECT_NE(error.find("must be < duration"), std::string::npos) << error;
  // ...and the window is fine again once the matching override lands.
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "duration", "400", &error));
  EXPECT_TRUE(core::ValidateSpec(spec, &error)) << error;
  EXPECT_FALSE(core::ApplySpecOverride(&spec, "duration", "-5", &error));
}

TEST(SpecOverrideTest, AddressesExperimentPlacementAndNodes) {
  core::ExperimentSpec spec;
  spec.cluster = true;
  spec.nodes.resize(3);
  std::string error;

  ASSERT_TRUE(core::ApplySpecOverride(&spec, "duration", "120", &error));
  EXPECT_EQ(spec.duration, 120.0);
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "routing", "power-of-d", &error));
  ASSERT_TRUE(
      core::ApplySpecOverride(&spec, "routing.power-of-d.d", "3", &error));
  EXPECT_EQ(spec.routing_params.GetInt("power-of-d.d", 0), 3);
  ASSERT_TRUE(
      core::ApplySpecOverride(&spec, "placement.enabled", "true", &error));
  EXPECT_TRUE(spec.placement_enabled);

  ASSERT_TRUE(core::ApplySpecOverride(&spec, "node.control.controller",
                                      "golden-section", &error));
  for (const core::NodeSpec& node : spec.nodes) {
    EXPECT_EQ(node.control.controller, "golden-section");
  }
  ASSERT_TRUE(
      core::ApplySpecOverride(&spec, "node1.physical.num_cpus", "2", &error));
  EXPECT_EQ(spec.nodes[0].system.physical.num_cpus, 16);
  EXPECT_EQ(spec.nodes[1].system.physical.num_cpus, 2);

  EXPECT_FALSE(core::ApplySpecOverride(&spec, "node.count", "4", &error));
  EXPECT_FALSE(core::ApplySpecOverride(&spec, "node9.seed", "1", &error));
  EXPECT_FALSE(core::ApplySpecOverride(&spec, "no_such_key", "1", &error));
}

TEST(SpecOverrideTest, SeedOverrideRederivesNodeSeeds) {
  // Multi-node: every node seed follows the new experiment seed (a seed
  // sweep is a replication sweep, not a router-only reseed).
  core::ExperimentSpec spec;
  spec.cluster = true;
  spec.nodes.resize(3);
  std::string error;
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "seed", "1234", &error));
  EXPECT_EQ(spec.seed, 1234u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(spec.nodes[i].system.seed, core::DecorrelatedNodeSeed(1234, i));
  }

  // The broadcast "node.seed" form also decorrelates per index (a literal
  // broadcast would run every node on the same stream); node<i>.seed pins.
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "node.seed", "88", &error));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(spec.nodes[i].system.seed, core::DecorrelatedNodeSeed(88, i));
  }
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "node2.seed", "9", &error));
  EXPECT_EQ(spec.nodes[2].system.seed, 9u);

  // Single-node: the node runs the new seed directly, so two overrides
  // produce genuinely different runs.
  core::ExperimentSpec single;
  single.nodes.emplace_back();
  single.duration = 10.0;
  single.warmup = 2.0;
  ASSERT_TRUE(core::ApplySpecOverride(&single, "seed", "5", &error));
  EXPECT_EQ(single.nodes[0].system.seed, 5u);
  const uint64_t commits_a = core::RunSpec(single).single.commits;
  ASSERT_TRUE(core::ApplySpecOverride(&single, "seed", "6", &error));
  const uint64_t commits_b = core::RunSpec(single).single.commits;
  EXPECT_NE(commits_a, commits_b);
}

TEST(SpecOverrideTest, UnknownPolicyNamesFailAtAssignTime) {
  core::ExperimentSpec spec;
  spec.cluster = true;
  spec.nodes.resize(1);
  std::string error;

  EXPECT_FALSE(
      core::ApplySpecOverride(&spec, "routing", "teleport", &error));
  EXPECT_NE(error.find("teleport"), std::string::npos) << error;
  EXPECT_NE(error.find("join-shortest-queue"), std::string::npos) << error;

  EXPECT_FALSE(core::ApplySpecOverride(&spec, "node.control.controller",
                                       "warp-drive", &error));
  EXPECT_NE(error.find("warp-drive"), std::string::npos) << error;
  EXPECT_NE(error.find("parabola-approximation"), std::string::npos) << error;

  // Same validation on the file-parse path, with a line number.
  core::ExperimentSpec parsed;
  EXPECT_FALSE(core::ParseSpec(
      "[node]\ncontrol.controller = warp-drive\n", &parsed, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

// ------------------------------------------------------ per-key oracle --

struct KeyCase {
  const char* section;  // "experiment", ..., or "node"
  const char* key;
  const char* value;  // valid, and different from the default
  bool printed_by_default = true;  // false: printed only once set
  /// An input spelling: the key it sets, which prints in its place.
  const char* prints_as = nullptr;
};

// Every spec key, written out by hand rather than read from the parser's
// tables, so the tests below check those tables instead of restating them.
const KeyCase kEveryKey[] = {
    {"experiment", "name", "oracle"},
    {"experiment", "cluster", "false"},
    {"experiment", "seed", "7"},
    {"experiment", "duration", "120"},
    {"experiment", "warmup", "12"},
    {"experiment", "active_terminals", "steps(400; 50:600)"},
    {"experiment", "arrival_rate", "constant(250)"},
    {"experiment", "routing", "random"},
    {"experiment", "routing.threshold.initial_threshold", "6.5", false},
    {"experiment", "trace", "oracle_trace.json"},
    {"experiment", "decisions", "oracle_decisions.csv"},
    {"experiment", "retraction", "true"},
    {"experiment", "retraction_queue_factor", "2.5"},
    {"experiment", "retraction_interval", "0.5"},
    {"experiment", "retry.enabled", "true"},
    {"experiment", "retry.budget", "5"},
    {"experiment", "retry.backoff_base", "0.1"},
    {"experiment", "retry.backoff_factor", "3"},
    {"experiment", "retry.backoff_max", "2"},
    {"experiment", "retry.jitter", "0.5"},
    {"experiment", "degrade.enabled", "true"},
    {"experiment", "degrade.interval", "2"},
    {"experiment", "degrade.shed_query", "3"},
    {"experiment", "degrade.shed_update", "6"},
    {"experiment", "degrade.restore_hysteresis", "0.5"},
    {"workload", "source", "hybrid"},
    {"workload", "population", "5000"},
    {"workload", "session_rate", "constant(20)"},
    {"workload", "sessions", "50"},
    {"workload", "txns_per_session", "constant(3)"},
    {"workload", "think_time", "exp(0.5)"},
    {"workload", "affinity", "0.5"},
    {"workload", "affinity_keys", "16"},
    {"workload", "custom.knob", "on", false},
    {"placement", "enabled", "true"},
    {"placement", "kind", "hash"},
    {"placement", "num_partitions", "8"},
    {"placement", "replication_factor", "3"},
    {"placement", "rebalance_interval", "5"},
    {"placement", "rebalance_moves", "2"},
    {"placement", "workload.db_size", "8000"},
    {"placement", "workload.accesses_per_txn", "8", false, "dynamics.k"},
    {"placement", "workload.query_fraction", "0.5", false,
     "dynamics.query_fraction"},
    {"placement", "workload.write_fraction", "0.5", false,
     "dynamics.write_fraction"},
    {"placement", "workload.resample_on_restart", "false"},
    {"placement", "workload.hotspot_access_prob", "0.5"},
    {"placement", "workload.hotspot_size_fraction", "0.1"},
    {"placement", "dynamics.k", "constant(8)"},
    {"placement", "dynamics.query_fraction", "constant(0.5)"},
    {"placement", "dynamics.write_fraction", "constant(0.5)"},
    {"placement", "remote.cpu_penalty", "0.003"},
    {"placement", "remote.latency", "0.01"},
    {"placement", "remote.serve_cpu", "0.004"},
    {"elasticity", "enabled", "true"},
    {"elasticity", "detector", "false"},
    {"elasticity", "hb.interval", "0.25"},
    {"elasticity", "hb.timeout", "0.1"},
    {"elasticity", "hb.suspect_after", "2"},
    {"elasticity", "hb.down_after", "4"},
    {"elasticity", "hb.clear_after", "3"},
    {"elasticity", "hb.delay_base", "0.01"},
    {"elasticity", "hb.delay_load", "1"},
    {"elasticity", "hb.kind", "phi"},
    {"elasticity", "hb.phi_suspect", "1.5"},
    {"elasticity", "hb.phi_down", "3"},
    {"elasticity", "hb.phi_window", "16"},
    {"elasticity", "hb.observers", "3"},
    {"elasticity", "hb.quorum", "2"},
    {"elasticity", "hb.observer_jitter", "0.1"},
    {"elasticity", "hb.delay_source", "response"},
    {"elasticity", "hb.delay_response", "0.5"},
    {"elasticity", "scaler", "hysteresis"},
    {"elasticity", "scaler_interval", "2"},
    {"elasticity", "standby", "1"},
    {"elasticity", "min_live", "2"},
    {"elasticity", "slow_start_initial", "2"},
    {"elasticity", "slow_start_duration", "5"},
    {"elasticity", "drain_delay", "1"},
    {"elasticity", "scaler.pi.kp", "0.5", false},
    {"fault", "enabled", "true"},
    {"fault", "inject", "probe-loss(10:20; nodes=0; magnitude=0.5)", false},
    {"node", "seed", "99"},
    {"node", "cc", "2pl"},
    {"node", "arrivals", "open"},
    {"node", "open_arrival_rate", "50"},
    {"node", "record_history", "true"},
    {"node", "telemetry.per_phase", "false"},
    {"node", "physical.num_terminals", "100"},
    {"node", "physical.think_time_mean", "2"},
    {"node", "physical.num_cpus", "4"},
    {"node", "physical.cpu_init_mean", "0.001"},
    {"node", "physical.cpu_access_mean", "0.001"},
    {"node", "physical.cpu_commit_mean", "0.001"},
    {"node", "physical.cpu_write_commit_mean", "0.005"},
    {"node", "physical.io_time", "0.01"},
    {"node", "physical.restart_delay_mean", "0.1"},
    {"node", "physical.cpu_distribution", "erlang2"},
    {"node", "logical.db_size", "8000"},
    {"node", "logical.accesses_per_txn", "8", false, "dynamics.k"},
    {"node", "logical.query_fraction", "0.5", false, "dynamics.query_fraction"},
    {"node", "logical.write_fraction", "0.5", false, "dynamics.write_fraction"},
    {"node", "logical.resample_on_restart", "false"},
    {"node", "logical.hotspot_access_prob", "0.5"},
    {"node", "logical.hotspot_size_fraction", "0.1"},
    {"node", "remote.cpu_penalty", "0.003"},
    {"node", "remote.latency", "0.01"},
    {"node", "remote.serve_cpu", "0.004"},
    {"node", "dynamics.k", "constant(8)"},
    {"node", "dynamics.query_fraction", "constant(0.5)"},
    {"node", "dynamics.write_fraction", "constant(0.5)"},
    {"node", "cpu_speed", "constant(0.5)"},
    {"node", "availability", "avail(up; 10:down, 20:up)"},
    {"node", "rejoin", "retained"},
    {"node", "control.controller", "fixed"},
    {"node", "control.measurement_interval", "0.5"},
    {"node", "control.initial_limit", "20"},
    {"node", "control.displacement", "true"},
    {"node", "control.outer_tuner", "true"},
    {"node", "control.pa.dither", "7", false},
};

constexpr char kOracleBase[] = "[experiment]\ncluster = true\n";

/// The base spec (one cluster node) with `key = value` set in its section.
std::string SpecWithKey(const KeyCase& c) {
  const std::string line = std::string(c.key) + " = " + c.value + "\n";
  const bool node = std::string(c.section) == "node";
  if (std::string(c.section) == "experiment") {
    return kOracleBase + line + "[node]\n";
  }
  return kOracleBase +
         (node ? "" : "[" + std::string(c.section) + "]\n" + line) +
         "[node]\n" + (node ? line : "");
}

std::string OverrideKey(const KeyCase& c) {
  const std::string section = c.section;
  return section == "experiment" ? c.key : section + "." + c.key;
}

/// Each printed `key = value` line as "section/key".
std::vector<std::string> PrintedKeys(const std::string& printed) {
  std::vector<std::string> keys;
  std::istringstream lines(printed);
  std::string line, section;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line[0] == '[') {
      section = line.substr(1, line.size() - 2);
      continue;
    }
    keys.push_back(section + "/" + line.substr(0, line.find(" = ")));
  }
  return keys;
}

TEST(SpecKeyOracleTest, EveryKeyParsesOverridesAndRoundTrips) {
  core::ExperimentSpec base;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(std::string(kOracleBase) + "[node]\n", &base,
                              &error))
      << error;
  for (const KeyCase& c : kEveryKey) {
    SCOPED_TRACE(std::string(c.section) + ": " + c.key + " = " + c.value);
    core::ExperimentSpec from_file;
    ASSERT_TRUE(core::ParseSpec(SpecWithKey(c), &from_file, &error)) << error;
    // A non-default value must show in equality, or the key's field is
    // left out of the comparison.
    EXPECT_FALSE(from_file == base);

    core::ExperimentSpec overridden = base;
    ASSERT_TRUE(
        core::ApplySpecOverride(&overridden, OverrideKey(c), c.value, &error))
        << error;
    EXPECT_TRUE(from_file == overridden);

    const std::string printed = core::PrintSpec(from_file);
    core::ExperimentSpec reparsed;
    ASSERT_TRUE(core::ParseSpec(printed, &reparsed, &error)) << error;
    EXPECT_TRUE(reparsed == from_file);
    const std::vector<std::string> keys = PrintedKeys(printed);
    const auto printed_count = [&](const char* key) {
      return std::count(keys.begin(), keys.end(),
                        std::string(c.section) + "/" + key);
    };
    EXPECT_EQ(printed_count(c.key), c.prints_as == nullptr ? 1 : 0);
    if (c.prints_as != nullptr) {
      EXPECT_EQ(printed_count(c.prints_as), 1);
    }
  }
}

TEST(SpecKeyOracleTest, DefaultSpecPrintsExactlyTheListedKeys) {
  core::ExperimentSpec base;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(std::string(kOracleBase) + "[node]\n", &base,
                              &error))
      << error;
  std::vector<std::string> listed;
  for (const KeyCase& c : kEveryKey) {
    if (c.printed_by_default) {
      listed.push_back(std::string(c.section) + "/" + c.key);
    }
  }
  std::vector<std::string> printed = PrintedKeys(core::PrintSpec(base));
  std::sort(listed.begin(), listed.end());
  std::sort(printed.begin(), printed.end());
  EXPECT_EQ(printed, listed);
}

TEST(SpecKeyOracleTest, SingleNodeOverridesRefuseExactlyTheClusterOnlyKeys) {
  // A single-node run never reads these, so overriding one would sweep
  // bit-identical points; every other key stays overridable.
  const std::string cluster_only[] = {
      "experiment/retraction",
      "experiment/retraction_queue_factor",
      "node/availability",
      "node/rejoin",
  };
  const std::string cluster_only_prefixes[] = {
      "experiment/retry.", "experiment/degrade.", "workload/", "elasticity/",
      "fault/",
  };
  core::ExperimentSpec single;
  std::string error;
  ASSERT_TRUE(core::ParseSpec("[node]\n", &single, &error)) << error;
  for (const KeyCase& c : kEveryKey) {
    const std::string id = std::string(c.section) + "/" + c.key;
    bool refused = std::count(std::begin(cluster_only), std::end(cluster_only),
                              id) > 0;
    for (const std::string& prefix : cluster_only_prefixes) {
      refused = refused || id.rfind(prefix, 0) == 0;
    }
    core::ExperimentSpec spec = single;
    const bool applied =
        core::ApplySpecOverride(&spec, OverrideKey(c), c.value, &error);
    EXPECT_EQ(applied, !refused) << id << ": " << error;
    if (refused && !applied) {
      EXPECT_NE(error.find("cluster mode (cluster = true)"), std::string::npos)
          << error;
      EXPECT_TRUE(spec == single) << id;
    }
  }
}

// --------------------------------------------------- run equivalence --

TEST(SpecRunTest, RunSpecMatchesDirectExperimentBitExactly) {
  core::ExperimentSpec spec;
  spec.duration = 20.0;
  spec.warmup = 4.0;
  core::NodeSpec& node = spec.nodes.emplace_back();
  node.system.seed = 99;
  node.control.controller = "parabola-approximation";
  node.control.params.SetDouble("pa.dither", 10.0);

  const core::ExperimentResult direct = core::Experiment(spec).Run();
  const core::SpecRunResult via_spec = core::RunSpec(spec);

  ASSERT_FALSE(via_spec.cluster);
  std::ostringstream direct_csv, spec_csv;
  core::WriteTrajectoryCsv(direct_csv, direct.trajectory, {});
  core::WriteTrajectoryCsv(spec_csv, via_spec.single.trajectory, {});
  EXPECT_EQ(direct_csv.str(), spec_csv.str());
  EXPECT_EQ(direct.commits, via_spec.single.commits);
  EXPECT_EQ(direct.mean_throughput, via_spec.single.mean_throughput);
}

// The paper's closed model commits 11066 at its default mix; each mix key
// set on the logical line commits exactly what its dynamics schedule does.
TEST(SpecRunTest, LogicalMixOverridesReachTheWorkload) {
  const auto commits = [](const std::string& key, const std::string& value) {
    core::ExperimentSpec spec;
    std::string error;
    EXPECT_TRUE(core::LoadSpecFile(
        std::string(ALC_SOURCE_DIR) + "/specs/paper_closed.spec", &spec,
        &error))
        << error;
    if (!key.empty()) {
      EXPECT_TRUE(core::ApplySpecOverride(&spec, key, value, &error)) << error;
    }
    return core::RunSpec(spec).commits();
  };
  EXPECT_EQ(commits("", ""), 11066u);
  EXPECT_EQ(commits("node.logical.write_fraction", "0.9"), 2755u);
  EXPECT_EQ(commits("node.dynamics.write_fraction", "constant(0.9)"), 2755u);
  EXPECT_EQ(commits("node.logical.query_fraction", "0.9"),
            commits("node.dynamics.query_fraction", "constant(0.9)"));
  EXPECT_EQ(commits("node.logical.accesses_per_txn", "4"),
            commits("node.dynamics.k", "constant(4)"));
}

using Overrides = std::vector<std::pair<std::string, std::string>>;

/// specs/<file> with `overrides` applied, run once.
core::SpecRunResult RunSpecFile(const std::string& file,
                                const Overrides& overrides) {
  core::ExperimentSpec spec;
  std::string error;
  EXPECT_TRUE(core::LoadSpecFile(
      std::string(ALC_SOURCE_DIR) + "/specs/" + file, &spec, &error))
      << error;
  for (const auto& [key, value] : overrides) {
    EXPECT_TRUE(core::ApplySpecOverride(&spec, key, value, &error)) << error;
  }
  return core::RunSpec(spec);
}

// A [placement] dynamics line sets only the key it names, leaving the rest
// of the front end's mix as the spec set it: smoke's own k, spelled as a
// schedule, commits exactly what the plain spec does.
TEST(SpecRunTest, PlacementDynamicsLineKeepsTheRestOfTheMix) {
  EXPECT_EQ(RunSpecFile("smoke.spec", {}).commits(), 16563u);
  EXPECT_EQ(
      RunSpecFile("smoke.spec", {{"placement.dynamics.k", "constant(8)"}})
          .commits(),
      16563u);
}

// A single node's cpu_speed reaches its processors as a cluster node's
// does: halving it costs commits, and a unit speed changes nothing.
TEST(SpecRunTest, SingleNodeCpuSpeedReachesTheProcessors) {
  const auto result = [](const std::string& speed) {
    Overrides overrides = {{"duration", "60"}, {"warmup", "10"}};
    if (!speed.empty()) overrides.push_back({"node.cpu_speed", speed});
    const core::SpecRunResult run = RunSpecFile("paper_closed.spec", overrides);
    std::ostringstream text;
    core::WriteTrajectoryCsv(text, run.single.trajectory, {});
    text << run.commits() << " " << run.single.mean_throughput << " "
         << run.single.mean_response;
    return std::make_pair(run.commits(), text.str());
  };
  const auto plain = result("");
  EXPECT_EQ(plain.first, 7224u);
  EXPECT_LT(result("constant(0.5)").first, 7224u);
  EXPECT_EQ(result("constant(1)").second, plain.second);
}

TEST(SpecRunTest, PrintedSpecRunsIdenticallyToOriginal) {
  core::ExperimentSpec spec;
  spec.duration = 15.0;
  spec.warmup = 3.0;
  spec.nodes.emplace_back().system.seed = 7;

  core::ExperimentSpec reparsed;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(core::PrintSpec(spec), &reparsed, &error))
      << error;
  const core::SpecRunResult a = core::RunSpec(spec);
  const core::SpecRunResult b = core::RunSpec(reparsed);
  EXPECT_EQ(a.single.commits, b.single.commits);
  EXPECT_EQ(a.single.mean_throughput, b.single.mean_throughput);
}

}  // namespace
}  // namespace alc
