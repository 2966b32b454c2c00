// Edge cases and failure injection across the stack: degenerate system
// sizes, extreme workloads, controller corner conditions, the PA
// excitation guard, and bad spec input — malformed policy param values,
// out-of-range values, bad sweep grid points — rejected with a message at
// parse/override time, never an abort in a factory or constructor.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "control/gate.h"
#include "control/monitor.h"
#include "control/parabola.h"
#include "cluster/registry.h"
#include "control/registry.h"
#include "core/experiment.h"
#include "core/spec.h"
#include "core/sweep.h"
#include "db/system.h"
#include "elasticity/autoscaler.h"
#include "sim/simulator.h"

namespace alc {
namespace {

db::SystemConfig TinyConfig(uint64_t seed = 1) {
  db::SystemConfig config;
  config.physical.num_terminals = 4;
  config.physical.think_time_mean = 0.05;
  config.physical.num_cpus = 1;
  config.physical.cpu_init_mean = 0.0005;
  config.physical.cpu_access_mean = 0.0005;
  config.physical.cpu_commit_mean = 0.0005;
  config.physical.cpu_write_commit_mean = 0.001;
  config.physical.io_time = 0.002;
  config.physical.restart_delay_mean = 0.005;
  config.logical.db_size = 10;
  config.dynamics.k = db::Schedule::Constant(1);
  config.seed = seed;
  return config;
}

TEST(RobustnessTest, SingleTerminalSingleAccessRuns) {
  sim::Simulator sim;
  db::SystemConfig config = TinyConfig();
  config.physical.num_terminals = 1;
  db::TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(10.0);
  EXPECT_GT(system.metrics().counters.commits, 100u);
  // A single transaction can never conflict with itself.
  EXPECT_EQ(system.metrics().counters.aborts_certification, 0u);
}

TEST(RobustnessTest, AccessSetAsLargeAsDatabase) {
  sim::Simulator sim;
  db::SystemConfig config = TinyConfig();
  config.dynamics.k = db::Schedule::Constant(10);  // == db_size: full scans
  config.dynamics.write_fraction = db::Schedule::Constant(0.5);
  config.dynamics.query_fraction = db::Schedule::Constant(0.0);
  db::TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(10.0);
  EXPECT_GT(system.metrics().counters.commits, 50u);
}

TEST(RobustnessTest, KScheduleClampedToDatabaseSize) {
  sim::Simulator sim;
  db::SystemConfig config = TinyConfig();
  config.dynamics.k =
      db::Schedule::Steps(1.0, {{2.0, 500.0}});  // >> db_size 10
  db::TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(6.0);  // would CHECK-fail inside PlanAccesses if unclamped
  EXPECT_GT(system.metrics().counters.commits, 10u);
}

TEST(RobustnessTest, TwoPhaseLockingQueryOnlyNeverDeadlocks) {
  sim::Simulator sim;
  db::SystemConfig config = TinyConfig();
  config.cc = db::CcScheme::kTwoPhaseLocking;
  config.physical.num_terminals = 20;
  config.logical.db_size = 15;
  config.dynamics.k = db::Schedule::Constant(5);
  // Shared locks only.
  config.dynamics.query_fraction = db::Schedule::Constant(1.0);
  db::TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(15.0);
  EXPECT_GT(system.metrics().counters.commits, 500u);
  EXPECT_EQ(system.metrics().counters.aborts_deadlock, 0u);
  EXPECT_EQ(system.metrics().counters.lock_waits, 0u);
}

TEST(RobustnessTest, HotspotWorkloadEndToEnd) {
  sim::Simulator sim;
  db::SystemConfig config = TinyConfig();
  config.physical.num_terminals = 30;
  config.logical.db_size = 1000;
  config.dynamics.k = db::Schedule::Constant(6);
  config.dynamics.write_fraction = db::Schedule::Constant(0.5);
  config.dynamics.query_fraction = db::Schedule::Constant(0.0);
  config.logical.hotspot_access_prob = 0.8;
  config.logical.hotspot_size_fraction = 0.02;  // 20 hot granules
  db::TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(15.0);
  const db::Counters& with_hotspot = system.metrics().counters;
  EXPECT_GT(with_hotspot.commits, 100u);

  // The same system without the hotspot conflicts far less.
  sim::Simulator sim2;
  db::SystemConfig no_hot = config;
  no_hot.logical.hotspot_access_prob = 0.0;
  no_hot.logical.hotspot_size_fraction = 0.0;
  db::TransactionSystem system2(&sim2, no_hot);
  system2.Start();
  sim2.RunUntil(15.0);
  EXPECT_GT(with_hotspot.aborts_certification * 1.0,
            2.0 * system2.metrics().counters.aborts_certification + 10.0);
}

TEST(RobustnessTest, GateWithLimitOneSerializesEverything) {
  sim::Simulator sim;
  db::SystemConfig config = TinyConfig();
  config.physical.num_terminals = 10;
  db::TransactionSystem system(&sim, config);
  control::AdmissionGate gate(&system, 1.0);
  system.Start();
  int max_active = 0;
  for (double t = 0.1; t < 8.0; t += 0.1) {
    sim.ScheduleAt(t, [&] { max_active = std::max(max_active, system.active()); });
  }
  sim.RunUntil(8.0);
  EXPECT_EQ(max_active, 1);
  EXPECT_GT(system.metrics().counters.commits, 50u);
  // Serial execution: certification can never fail.
  EXPECT_EQ(system.metrics().counters.aborts_certification, 0u);
}

TEST(RobustnessTest, MonitorHandlesEmptyIntervals) {
  sim::Simulator sim;
  db::SystemConfig config = TinyConfig();
  config.physical.think_time_mean = 50.0;  // nearly no work
  db::TransactionSystem system(&sim, config);
  control::Monitor monitor(&sim, &system, 0.5);
  int zero_commit_samples = 0;
  monitor.SetCallback([&](const control::Sample& sample) {
    if (sample.commits == 0) {
      ++zero_commit_samples;
      EXPECT_EQ(sample.throughput, 0.0);
      EXPECT_EQ(sample.mean_response, 0.0);
      EXPECT_GE(sample.conflict_rate, 0.0);
    }
  });
  system.Start();
  monitor.Start();
  sim.RunUntil(5.0);
  EXPECT_GT(zero_commit_samples, 0);
}

TEST(RobustnessTest, GateFcfsAdmissionOrder) {
  sim::Simulator sim;
  db::SystemConfig config = TinyConfig();
  config.physical.num_terminals = 12;
  db::TransactionSystem system(&sim, config);
  control::AdmissionGate gate(&system, 2.0);
  system.Start();
  sim.RunUntil(5.0);
  // Sample admissions over a window: admit order must follow submit order
  // (FCFS) — verify via monotone first_submit_time of admissions seen in
  // admit_time order for currently active txns.
  std::vector<db::Transaction*> active;
  system.CollectActive(&active);
  std::sort(active.begin(), active.end(),
            [](const db::Transaction* a, const db::Transaction* b) {
              return a->admit_time < b->admit_time;
            });
  for (size_t i = 1; i < active.size(); ++i) {
    EXPECT_LE(active[i - 1]->first_submit_time,
              active[i]->first_submit_time);
  }
}

TEST(RobustnessTest, DisplacementDuringHeavyRestartChurn) {
  // Displacing transactions that are mostly in restart-wait or doomed must
  // keep all invariants (this is the nastiest interleaving in the system).
  sim::Simulator sim;
  db::SystemConfig config = TinyConfig(99);
  config.physical.num_terminals = 30;
  config.logical.db_size = 12;
  config.dynamics.k = db::Schedule::Constant(4);
  config.dynamics.write_fraction = db::Schedule::Constant(0.9);
  config.dynamics.query_fraction = db::Schedule::Constant(0.0);
  config.physical.restart_delay_mean = 0.05;
  db::TransactionSystem system(&sim, config);
  control::AdmissionGate gate(&system, 25.0);
  gate.EnableDisplacement(true);
  system.Start();
  for (double t = 1.0; t < 12.0; t += 1.0) {
    sim.ScheduleAt(t, [&gate, t] {
      gate.SetLimit(static_cast<int>(t) % 2 == 1 ? 3.0 : 25.0);
    });
  }
  int violations = 0;
  for (double t = 0.5; t < 12.0; t += 0.25) {
    sim.ScheduleAt(t, [&] {
      const int total =
          system.CountThinking() + system.active() + gate.queue_length();
      if (total != config.physical.num_terminals) ++violations;
    });
  }
  sim.RunUntil(12.0);
  EXPECT_EQ(violations, 0);
  EXPECT_GT(gate.total_displaced(), 0u);
  EXPECT_GT(system.metrics().counters.commits, 50u);
}

TEST(RobustnessTest, PaExcitationBoostEngagesWhenLoadFrozen) {
  control::PaConfig config;
  config.initial_bound = 50.0;
  config.min_bound = 5.0;
  config.max_bound = 500.0;
  config.dither = 10.0;
  config.warmup_updates = 2;
  control::ParabolaApproximationController pa(config);
  control::Sample sample;
  sample.interval = 1.0;
  // The measured load never follows the commanded bound: frozen at 8.
  for (int i = 0; i < 20; ++i) {
    sample.time = i;
    sample.mean_active = 8.0 + 0.1 * (i % 2);
    sample.throughput = 20.0;
    pa.Update(sample);
  }
  EXPECT_GT(pa.excitation_boost(), 2.0);
}

TEST(RobustnessTest, PaExcitationBoostStaysQuietWhenLoadFollows) {
  control::PaConfig config;
  config.initial_bound = 100.0;
  config.min_bound = 5.0;
  config.max_bound = 500.0;
  config.dither = 10.0;
  config.warmup_updates = 2;
  control::ParabolaApproximationController pa(config);
  control::Sample sample;
  sample.interval = 1.0;
  double bound = config.initial_bound;
  for (int i = 0; i < 30; ++i) {
    sample.time = i;
    sample.mean_active = bound;  // load follows the bound exactly
    sample.throughput = 200.0 - 0.01 * (bound - 150.0) * (bound - 150.0);
    bound = pa.Update(sample);
  }
  EXPECT_LE(pa.excitation_boost(), 1.5);
}

TEST(RobustnessTest, PaBoostedDitherRespectsBounds) {
  control::PaConfig config;
  config.initial_bound = 10.0;
  config.min_bound = 5.0;
  config.max_bound = 60.0;
  config.dither = 20.0;
  config.max_excitation_boost = 8.0;
  config.warmup_updates = 1;
  control::ParabolaApproximationController pa(config);
  control::Sample sample;
  sample.interval = 1.0;
  for (int i = 0; i < 40; ++i) {
    sample.time = i;
    sample.mean_active = 7.0;  // frozen: boost maxes out
    sample.throughput = 10.0;
    const double bound = pa.Update(sample);
    EXPECT_GE(bound, config.min_bound);
    EXPECT_LE(bound, config.max_bound);
  }
}

TEST(RobustnessTest, PaBoostStretchesDitherPeriod) {
  control::PaConfig config;
  config.initial_bound = 50.0;
  config.min_bound = 5.0;
  config.max_bound = 500.0;
  config.dither = 10.0;
  config.warmup_updates = 2;
  control::ParabolaApproximationController pa(config);
  control::Sample sample;
  sample.interval = 1.0;
  // Freeze the load so the boost engages, then count sign-hold lengths.
  std::vector<double> bounds;
  for (int i = 0; i < 40; ++i) {
    sample.time = i;
    sample.mean_active = 8.0;
    sample.throughput = 20.0;
    bounds.push_back(pa.Update(sample));
  }
  // In the boosted regime the bound must repeat the same value for more
  // than one consecutive tick somewhere (held dither phase).
  bool held = false;
  for (size_t i = 20; i + 1 < bounds.size(); ++i) {
    if (bounds[i] == bounds[i + 1]) held = true;
  }
  EXPECT_TRUE(held);
}

TEST(RobustnessTest, ExperimentWithTayRuleTracksDeclaredK) {
  core::ExperimentSpec spec;
  core::NodeSpec& node = spec.nodes.emplace_back();
  node.system = TinyConfig(7);
  node.system.physical.num_terminals = 40;
  node.system.logical.db_size = 400;
  node.system.dynamics.k = db::Schedule::Steps(8.0, {{10.0, 4.0}});
  spec.active_terminals = db::Schedule::Constant(40);
  spec.duration = 20.0;
  spec.warmup = 2.0;
  node.control.controller = "tay-rule";
  const core::ExperimentResult result = core::Experiment(spec).Run();
  // Bound before the k change: 1.5*400/64 = 9.375; after: 1.5*400/16 = 37.5.
  bool saw_low = false, saw_high = false;
  for (const core::TrajectoryPoint& point : result.trajectory) {
    if (point.time < 10.0 && std::fabs(point.bound - 9.375) < 1e-9) {
      saw_low = true;
    }
    if (point.time > 10.5 && std::fabs(point.bound - 37.5) < 1e-9) {
      saw_high = true;
    }
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
}

TEST(RobustnessTest, ZeroWarmupExperiment) {
  core::ExperimentSpec spec;
  core::NodeSpec& node = spec.nodes.emplace_back();
  node.system = TinyConfig(3);
  spec.active_terminals = db::Schedule::Constant(4);
  spec.duration = 5.0;
  spec.warmup = 0.0;
  node.control.controller = "fixed";
  node.control.params.SetDouble("fixed.limit", 5.0);
  const core::ExperimentResult result = core::Experiment(spec).Run();
  EXPECT_GT(result.commits, 0u);
}

TEST(RobustnessTest, MalformedControllerParamInSpecFileIsALineNumberedError) {
  core::ExperimentSpec spec;
  std::string error;
  EXPECT_FALSE(core::ParseSpec(
      "[node]\ncontrol.controller = parabola-approximation\n"
      "control.pa.index = bogus\n",
      &spec, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("pa.index"), std::string::npos) << error;
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;

  EXPECT_FALSE(core::ParseSpec(
      "[node]\ncontrol.pa.warmup_updates = 2.5\n", &spec, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_FALSE(core::ParseSpec(
      "[node]\ncontrol.pa.recovery = sometimes\n", &spec, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  // Well-formed values pass, and keys no built-in controller reads flow
  // through for externally registered controllers.
  ASSERT_TRUE(core::ParseSpec(
      "[node]\ncontrol.controller = parabola-approximation\n"
      "control.pa.index = inverse-response-time\n"
      "control.pa.dither = 12.5\ncontrol.pa.recovery = reset\n"
      "control.custom.mode = anything\n",
      &spec, &error))
      << error;
  EXPECT_EQ(spec.nodes[0].control.params.GetString("custom.mode", ""),
            "anything");
}

TEST(RobustnessTest, MalformedControllerParamOverrideIsAnError) {
  core::ExperimentSpec spec;
  spec.nodes.emplace_back();
  std::string error;
  EXPECT_FALSE(
      core::ApplySpecOverride(&spec, "node.control.pa.dither", "abc", &error));
  EXPECT_NE(error.find("pa.dither"), std::string::npos) << error;
  EXPECT_NE(error.find("abc"), std::string::npos) << error;
  const util::ParamMap before = spec.nodes[0].control.params;
  EXPECT_FALSE(
      core::ApplySpecOverride(&spec, "node0.control.gs.index", "x", &error));
  // The rejected overrides left the params untouched.
  EXPECT_EQ(spec.nodes[0].control.params, before);
  EXPECT_TRUE(
      core::ApplySpecOverride(&spec, "node.control.pa.dither", "7", &error))
      << error;
  EXPECT_EQ(spec.nodes[0].control.params.GetDouble("pa.dither", 0.0), 7.0);
}

// The mix aliases read an integer k and numeric fractions; a rejected
// value leaves the schedule it would set untouched.
TEST(RobustnessTest, MalformedMixAliasOverrideIsAnError) {
  core::ExperimentSpec spec;
  spec.nodes.emplace_back();
  const core::ExperimentSpec before = spec;
  std::string error;
  const std::pair<std::string, std::string> bad[] = {
      {"node.logical.accesses_per_txn", "abc"},
      {"node.logical.accesses_per_txn", "2.5"},
      {"node.logical.write_fraction", "x"},
      {"placement.workload.query_fraction", "x"},
      {"placement.workload.accesses_per_txn", "99999999999"},
  };
  for (const auto& [key, value] : bad) {
    EXPECT_FALSE(core::ApplySpecOverride(&spec, key, value, &error)) << key;
    EXPECT_NE(error.find(key.substr(key.find('.') + 1)), std::string::npos)
        << error;
    EXPECT_NE(error.find(value), std::string::npos) << error;
  }
  EXPECT_TRUE(spec == before);
}

TEST(RobustnessTest, EveryBuiltinControllerParamIsValidated) {
  // Every key the built-in factories read must be type-checked, or a
  // malformed value for it would still abort inside the factory. The
  // Append* writers emit exactly the keys their factories read.
  util::ParamMap params;
  control::AppendIsParams(control::IsConfig{}, &params);
  control::AppendPaParams(control::PaConfig{}, &params);
  control::AppendGsParams(control::GsConfig{}, &params);
  control::AppendIyerParams(control::IyerRuleController::Config{}, &params);
  params.SetDouble("fixed.limit", 50.0);
  params.SetDouble("tay.threshold", 1.5);
  for (const auto& [key, value] : params.entries()) {
    std::string error;
    EXPECT_TRUE(control::ValidateControllerParam(key, value, &error))
        << key << ": " << error;
    EXPECT_FALSE(control::ValidateControllerParam(key, "not-a-value", &error))
        << key;
  }
  // A key whose controller constructor checks its sign rejects a value
  // that check would abort on, and accepts the boundary it allows.
  const std::pair<const char*, const char*> aborting[] = {
      {"is.beta", "0"},          {"is.gamma", "-1"},
      {"is.delta", "-0.5"},      {"is.min_bound", "0"},
      {"iyer.gain", "-1"},       {"iyer.min_bound", "0"},
      {"gs.samples_per_probe", "0"}, {"gs.min_bracket", "0"},
      {"tay.threshold", "0"},    {"pa.min_bound", "0"},
      {"pa.max_bound", "-1"},    {"pa.dither", "-5"},
      {"pa.warmup_updates", "-1"},
  };
  for (const auto& [key, value] : aborting) {
    std::string error;
    EXPECT_FALSE(control::ValidateControllerParam(key, value, &error))
        << key << "=" << value;
    EXPECT_NE(error.find(key), std::string::npos) << error;
  }
  const std::pair<const char*, const char*> boundary[] = {
      {"is.delta", "0"}, {"gs.samples_per_probe", "1"}, {"pa.dither", "0"},
      {"pa.warmup_updates", "0"}};
  for (const auto& [key, value] : boundary) {
    std::string error;
    EXPECT_TRUE(control::ValidateControllerParam(key, value, &error))
        << key << "=" << value << ": " << error;
  }
}

core::ExperimentSpec LoadCommittedSpec(const std::string& relative_path) {
  core::ExperimentSpec spec;
  std::string error;
  EXPECT_TRUE(core::LoadSpecFile(std::string(ALC_SOURCE_DIR) + "/" +
                                     relative_path,
                                 &spec, &error))
      << error;
  return spec;
}

/// Applies `overrides` in order, then ValidateSpec, as alc_run does: the
/// error of the first step that rejects, or empty if all accept.
std::string OverrideError(
    core::ExperimentSpec spec,
    const std::vector<std::pair<std::string, std::string>>& overrides) {
  std::string error;
  for (const auto& [key, value] : overrides) {
    if (!core::ApplySpecOverride(&spec, key, value, &error)) return error;
  }
  if (!core::ValidateSpec(spec, &error)) return error;
  return std::string();
}

TEST(RobustnessTest, OutOfRangeValuesAreErrorsNotRunAborts) {
  // Each value would abort the constructor that consumes it (db_size
  // would be truncated to 1), so the spec layer must reject it.
  const core::ExperimentSpec fleet =
      LoadCommittedSpec("perfbench/workloads/fleet.spec");
  std::string error;
  const std::pair<std::string, std::string> bad[] = {
      {"node.physical.num_cpus", "0"},
      {"node.physical.num_terminals", "-5"},
      {"placement.num_partitions", "0"},
      {"placement.replication_factor", "0"},
      {"placement.rebalance_interval", "-1"},
      {"node.control.measurement_interval", "0"},
      {"node.control.initial_limit", "-1"},
      {"node.logical.db_size", "4294967297"},
  };
  for (const auto& [key, value] : bad) {
    const std::string error = OverrideError(
        fleet, {{"duration", "2"}, {"warmup", "1"}, {key, value}});
    EXPECT_NE(error.find(key.substr(key.find('.') + 1)), std::string::npos)
        << key << "=" << value << ": " << error;
  }
  EXPECT_EQ(OverrideError(fleet, {{"node.logical.db_size", "4294967295"}}),
            "");

  // Cross-field rules of the same checks.
  EXPECT_NE(OverrideError(fleet, {{"placement.num_partitions", "20000"}})
                .find("num_partitions"),
            std::string::npos);
  EXPECT_NE(OverrideError(fleet, {{"placement.rebalance_moves", "0"}})
                .find("rebalance_moves"),
            std::string::npos);
  EXPECT_EQ(OverrideError(fleet, {{"placement.rebalance_moves", "0"},
                                  {"placement.rebalance_interval", "0"}}),
            "");
  EXPECT_NE(OverrideError(fleet, {{"node3.control.measurement_interval",
                                   "0.5"}})
                .find("measurement_interval"),
            std::string::npos);
  // An outer tuner retunes its own node's interval, which would move that
  // monitor off the shared grid ClusterMetrics completes ticks on; a
  // one-node cluster has no grid to leave.
  EXPECT_NE(OverrideError(fleet, {{"node3.control.outer_tuner", "true"}})
                .find("outer_tuner"),
            std::string::npos);
  core::ExperimentSpec one_node;
  ASSERT_TRUE(core::ParseSpec(
      "[experiment]\ncluster = true\n[node]\ncontrol.outer_tuner = true\n",
      &one_node, &error))
      << error;

  // In a spec file the same values fail with the line that sets them.
  core::ExperimentSpec spec;
  EXPECT_FALSE(core::ParseSpec("[node]\nphysical.num_cpus = 0\n", &spec,
                               &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(RobustnessTest, ValuesTheConsumersCheckAreErrorsNotRunAborts) {
  // Each value used to pass the spec layer and then abort the run in the
  // code that consumes it: an exponential draw with a non-positive mean, an
  // empty database, a PA controller with inverted bounds or a negative
  // dither.
  const core::ExperimentSpec failover =
      LoadCommittedSpec("specs/node_failover.spec");
  const std::pair<std::string, std::string> bad[] = {
      {"node.physical.think_time_mean", "0"},
      {"node.physical.cpu_init_mean", "0"},
      {"node.physical.cpu_access_mean", "-0.001"},
      {"node.physical.cpu_commit_mean", "-1"},
      {"node.physical.cpu_write_commit_mean", "0"},
      {"node.physical.restart_delay_mean", "-1"},
      {"node.logical.db_size", "0"},
      {"node.control.pa.min_bound", "300"},
      {"node.control.pa.min_bound", "0"},
      {"node.control.pa.max_bound", "1"},
      {"node.control.pa.dither", "-5"},
      {"node.control.pa.warmup_updates", "-1"},
  };
  for (const auto& [key, value] : bad) {
    // The error names the key's last two segments ("physical.io_time",
    // "pa.dither").
    const std::string error = OverrideError(failover, {{key, value}});
    const std::string named =
        key.substr(key.rfind('.', key.rfind('.') - 1) + 1);
    EXPECT_NE(error.find(named), std::string::npos)
        << key << "=" << value << ": " << error;
  }
  // The boundary values the consumers accept still pass.
  EXPECT_EQ(OverrideError(failover, {{"node.control.pa.dither", "0"},
                                     {"node.control.pa.min_bound", "199"},
                                     {"node.logical.db_size", "1"},
                                     {"node.physical.cpu_access_mean",
                                      "1e-9"}}),
            "");
  // Only the PA controller orders its bounds.
  EXPECT_EQ(OverrideError(failover, {{"node.control.controller", "fixed"},
                                     {"node.control.pa.min_bound", "300"}}),
            "");

  // The other bounded controllers: a sign their constructor checks (a
  // per-key error, at the line that sets it), their own bound ordering, and
  // the Tay rule's k(t), which its Update divides by (cross-field errors,
  // once the node is complete). Each case names a controller and a bad
  // node key and value; the error names the key.
  struct ControllerCase {
    const char* controller;
    const char* key;
    const char* value;
    bool per_key;
  };
  const ControllerCase controller_cases[] = {
      {"incremental-steps", "control.is.beta", "0", true},
      {"incremental-steps", "control.is.min_bound", "5000", false},
      {"golden-section", "control.gs.samples_per_probe", "0", true},
      {"golden-section", "control.gs.min_bound", "5000", false},
      {"iyer-rule", "control.iyer.gain", "-1", true},
      {"iyer-rule", "control.iyer.min_bound", "5000", false},
      {"tay-rule", "control.tay.threshold", "0", true},
      {"tay-rule", "dynamics.k", "steps(8;2:0)", false},
  };
  for (const ControllerCase& c : controller_cases) {
    const std::string key = c.key;
    const std::string named =
        key.rfind("control.", 0) == 0 ? key.substr(8) : key;
    // As overrides, in the order alc_run --set applies them.
    const std::string override_error =
        OverrideError(failover, {{"node.control.controller", c.controller},
                                 {"node." + key, c.value}});
    EXPECT_NE(override_error.find(named), std::string::npos)
        << c.controller << " " << key << "=" << c.value << ": "
        << override_error;
    // As spec file lines.
    core::ExperimentSpec parsed;
    std::string file_error;
    EXPECT_FALSE(core::ParseSpec("[node]\ncontrol.controller = " +
                                     std::string(c.controller) + "\n" + key +
                                     " = " + c.value + "\n",
                                 &parsed, &file_error))
        << c.controller << " " << key;
    EXPECT_NE(file_error.find(named), std::string::npos) << file_error;
    EXPECT_EQ(file_error.find("line 3") != std::string::npos, c.per_key)
        << file_error;
  }
  // The boundaries the consumers allow still pass: a bound ordering or k(t)
  // only matters to the controller that reads it, and the Tay rule only
  // reads k(t) up to the end of the run.
  EXPECT_EQ(OverrideError(failover, {{"node.control.controller", "fixed"},
                                     {"node.control.is.min_bound", "5000"},
                                     {"node.dynamics.k", "steps(8;2:0)"}}),
            "");
  EXPECT_EQ(OverrideError(failover,
                          {{"node.control.controller", "tay-rule"},
                           {"node.dynamics.k", "steps(8;2:1, 500:0)"}}),
            "");
  EXPECT_EQ(OverrideError(failover,
                          {{"node.control.controller", "incremental-steps"},
                           {"node.control.is.delta", "0"},
                           {"node.control.is.min_bound", "999"}}),
            "");

  // In a spec file a per-key range fails with the line that sets it.
  core::ExperimentSpec spec;
  std::string error;
  EXPECT_FALSE(core::ParseSpec(
      "[node]\nphysical.restart_delay_mean = -1\n", &spec, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_FALSE(core::ParseSpec("[node]\nlogical.db_size = 0\n", &spec,
                               &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_FALSE(core::ParseSpec(
      "[node]\ncontrol.controller = parabola-approximation\n"
      "control.pa.dither = -5\n",
      &spec, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_FALSE(core::ParseSpec(
      "[node]\ncontrol.pa.min_bound = 20\ncontrol.pa.max_bound = 10\n",
      &spec, &error));
  EXPECT_NE(error.find("control.pa.min_bound (20) must be < "
                       "control.pa.max_bound (10)"),
            std::string::npos)
      << error;
}

TEST(RobustnessTest, MalformedRoutingAndScalerParamsAreErrors) {
  const core::ExperimentSpec flash =
      LoadCommittedSpec("specs/cluster_routing_flash.spec");
  EXPECT_NE(OverrideError(flash, {{"routing", "threshold"},
                                  {"routing.threshold.initial_threshold",
                                   "bogus"}})
                .find("threshold.initial_threshold"),
            std::string::npos);
  EXPECT_NE(OverrideError(flash, {{"routing", "power-of-d"},
                                  {"routing.power-of-d.d", "x"}})
                .find("power-of-d.d"),
            std::string::npos);
  const core::ExperimentSpec elastic =
      LoadCommittedSpec("specs/elasticity_flash.spec");
  EXPECT_NE(OverrideError(elastic, {{"elasticity.scaler", "pi"},
                                    {"elasticity.scaler.pi.kp", "abc"}})
                .find("pi.kp"),
            std::string::npos);

  core::ExperimentSpec spec;
  std::string error;
  EXPECT_FALSE(core::ParseSpec(
      "[experiment]\ncluster = true\nrouting.power-of-d.d = 2.5\n[node]\n",
      &spec, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  // Keys no built-in policy reads flow through for external policies.
  ASSERT_TRUE(core::ParseSpec(
      "[experiment]\ncluster = true\nrouting.custom.mode = x\n"
      "[elasticity]\nscaler.custom.gain = y\n[node]\n",
      &spec, &error))
      << error;
}

TEST(RobustnessTest, PolicyParamsTheirConstructorsCheckAreErrors) {
  // Each value used to pass the spec layer and then abort the run in the
  // constructor of the policy reading it: the PA controller's RLS estimator,
  // the threshold and power-of-d routers, and the two autoscalers. A single
  // value's bound is its param row's (a per-key error); an ordering between
  // two params is ValidateSpec's. Each case names a committed spec, the
  // policy-selecting override, and the bad key and value; the error names
  // the key's last two segments.
  struct PolicyCase {
    const char* spec;
    std::pair<std::string, std::string> policy;
    std::string key;
    const char* value;
  };
  const PolicyCase cases[] = {
      {"specs/smoke.spec", {}, "node.control.pa.forgetting", "1.5"},
      {"specs/smoke.spec", {}, "node.control.pa.initial_covariance", "0"},
      {"specs/smoke.spec", {"routing", "power-of-d"}, "routing.power-of-d.d",
       "0"},
      {"specs/smoke.spec", {"routing", "threshold"},
       "routing.threshold.min_threshold", "0.5"},
      {"specs/smoke.spec", {"routing", "threshold"},
       "routing.threshold.min_threshold", "6"},
      {"specs/smoke.spec", {"routing", "threshold"},
       "routing.threshold.max_threshold", "3"},
      {"specs/elasticity_flash.spec", {},
       "elasticity.scaler.hysteresis.hold_ticks", "0"},
      {"specs/elasticity_flash.spec", {},
       "elasticity.scaler.hysteresis.up_queue_factor", "0.1"},
      {"specs/elasticity_flash.spec", {"elasticity.scaler", "pi"},
       "elasticity.scaler.pi.integral_clamp", "0"},
      {"specs/elasticity_flash.spec", {"elasticity.scaler", "pi"},
       "elasticity.scaler.pi.cooldown", "-1"},
  };
  for (const PolicyCase& c : cases) {
    std::vector<std::pair<std::string, std::string>> overrides = {
        {"duration", "2"}, {"warmup", "0"}};
    if (!c.policy.first.empty()) overrides.push_back(c.policy);
    overrides.emplace_back(c.key, c.value);
    const std::string error =
        OverrideError(LoadCommittedSpec(c.spec), overrides);
    const std::string named =
        c.key.substr(c.key.rfind('.', c.key.rfind('.') - 1) + 1);
    EXPECT_NE(error.find(named), std::string::npos)
        << c.spec << " " << c.key << "=" << c.value << ": " << error;
  }
  // The boundaries the constructors allow still pass, and an ordering only
  // matters to the policy that reads it.
  EXPECT_EQ(OverrideError(LoadCommittedSpec("specs/smoke.spec"),
                          {{"node.control.pa.forgetting", "1"},
                           {"routing", "threshold"},
                           {"routing.threshold.min_threshold", "4"},
                           {"routing.threshold.max_threshold", "4"}}),
            "");
  EXPECT_EQ(OverrideError(LoadCommittedSpec("specs/smoke.spec"),
                          {{"routing.threshold.min_threshold", "6"}}),
            "");
  EXPECT_EQ(OverrideError(LoadCommittedSpec("specs/elasticity_flash.spec"),
                          {{"elasticity.scaler", "pi"},
                           {"elasticity.scaler.pi.cooldown", "0"},
                           {"elasticity.scaler.hysteresis.up_queue_factor",
                            "0.1"}}),
            "");
}

TEST(RobustnessTest, EveryBuiltinRoutingAndScalerParamIsValidated) {
  // As for the controllers: the Append* writers emit exactly the keys
  // their factories read, so each must be type-checked.
  util::ParamMap routing;
  cluster::AppendThresholdParams(cluster::ThresholdPolicy::Config{}, &routing);
  cluster::AppendPowerOfDParams(cluster::PowerOfDPolicy::Config{}, &routing);
  for (const auto& [key, value] : routing.entries()) {
    std::string error;
    EXPECT_TRUE(cluster::ValidateRoutingParam(key, value, &error))
        << key << ": " << error;
    EXPECT_FALSE(cluster::ValidateRoutingParam(key, "not-a-value", &error))
        << key;
  }
  util::ParamMap scaler;
  elasticity::AppendHysteresisParams(
      elasticity::HysteresisAutoscaler::Config{}, &scaler);
  elasticity::AppendPiParams(elasticity::PiAutoscaler::Config{}, &scaler);
  for (const auto& [key, value] : scaler.entries()) {
    std::string error;
    EXPECT_TRUE(elasticity::ValidateAutoscalerParam(key, value, &error))
        << key << ": " << error;
    EXPECT_FALSE(
        elasticity::ValidateAutoscalerParam(key, "not-a-value", &error))
        << key;
  }
}

TEST(RobustnessTest, SweepGridPointsAreValidatedTogether) {
  // warmup=5 and duration=3 are each valid against the base spec, but the
  // grid point pairing them is not.
  core::ExperimentSpec smoke = LoadCommittedSpec("specs/smoke.spec");
  std::string error;
  ASSERT_TRUE(core::ApplySpecOverride(&smoke, "warmup", "1", &error));
  ASSERT_TRUE(core::ApplySpecOverride(&smoke, "duration", "6", &error));
  const core::SweepRunner bad(smoke, {{"warmup", {"1", "5"}},
                                      {"duration", {"3", "10"}}});
  EXPECT_FALSE(bad.Validate(&error));
  EXPECT_NE(error.find("warmup=5 duration=3"), std::string::npos) << error;
  EXPECT_NE(error.find("must be < duration"), std::string::npos) << error;

  const core::SweepRunner unknown(smoke, {{"no_such_key", {"1"}}});
  EXPECT_FALSE(unknown.Validate(&error));
  EXPECT_NE(error.find("no_such_key"), std::string::npos) << error;

  const core::SweepRunner good(smoke, {{"warmup", {"1", "2"}},
                                       {"duration", {"3", "10"}}});
  EXPECT_TRUE(good.Validate(&error)) << error;
}

TEST(RobustnessTest, BadExpectRowsAreLineNumberedErrors) {
  const std::string head =
      "[experiment]\ncluster = false\n[node]\n[expect]\nfine = "
      "summary.throughput > 0\n";
  const std::pair<const char*, const char*> cases[] = {
      {"bad = summary.bogus > 0", "unknown leaf 'summary.bogus'"},
      {"bad = metrics.node0.commits[no_such_key=1] > 0", "no_such_key"},
      {"bad = summary.commits[retraction=false] > 0", "cluster mode"},
      {"bad = summary.commits[warmup=400] > 0", "must be < duration"},
      {"bad = summary.throughput in [2, 1]", "lower bound exceeds"},
      {"bad = summary.throughput > many", "bound 'many' is not a number"},
      {"bad = summary.throughput in [0, nan]", "bound 'nan' is not a number"},
      {"bad = summary.throughput", "expected '<expr> <op> <number>'"},
      {"bad = argmax(summary.commits, seed = 1 | x) > 0", "not a number"},
      {"bad = max(summary.commits) > 0", "expected 'max(leaf, key"},
      {"bad = summary.commits / summary.commits / summary.commits > 0",
       "at most one '/'"},
      {"fine = summary.commits > 0", "duplicate expect row 'fine'"},
  };
  for (const auto& [row, message] : cases) {
    core::ExperimentSpec spec;
    std::string error;
    EXPECT_FALSE(core::ParseSpec(head + row + "\n", &spec, &error)) << row;
    EXPECT_NE(error.find("line 6: "), std::string::npos) << error;
    EXPECT_NE(error.find(message), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace alc
