// Parameterized invariant checks: every property must hold for any seed and
// (where applicable) any controller or CC scheme.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "control/gate.h"
#include "control/monitor.h"
#include "core/experiment.h"
#include "db/system.h"

namespace alc {
namespace {

db::SystemConfig PropertyConfig(uint64_t seed, db::CcScheme cc) {
  db::SystemConfig config;
  config.physical.num_terminals = 60;
  config.physical.think_time_mean = 0.2;
  config.physical.num_cpus = 4;
  config.physical.cpu_init_mean = 0.001;
  config.physical.cpu_access_mean = 0.001;
  config.physical.cpu_commit_mean = 0.001;
  config.physical.cpu_write_commit_mean = 0.003;
  config.physical.io_time = 0.006;
  config.physical.restart_delay_mean = 0.02;
  config.logical.db_size = 120;  // strong contention to stress CC paths
  config.dynamics.k = db::Schedule::Constant(6);
  config.dynamics.query_fraction = db::Schedule::Constant(0.25);
  config.dynamics.write_fraction = db::Schedule::Constant(0.6);
  config.cc = cc;
  config.seed = seed;
  return config;
}

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededProperty, GateLimitNeverExceededWithFixedLimit) {
  const double limit = 7.0;
  sim::Simulator sim;
  db::TransactionSystem system(
      &sim, PropertyConfig(GetParam(), db::CcScheme::kOptimisticCertification));
  control::AdmissionGate gate(&system, limit);
  system.Start();
  int violations = 0;
  for (double t = 0.2; t < 12.0; t += 0.2) {
    sim.ScheduleAt(t, [&] {
      if (system.active() > static_cast<int>(std::ceil(limit))) ++violations;
    });
  }
  sim.RunUntil(12.0);
  EXPECT_EQ(violations, 0);
}

TEST_P(SeededProperty, PopulationConservedWithGate) {
  sim::Simulator sim;
  db::SystemConfig config =
      PropertyConfig(GetParam(), db::CcScheme::kOptimisticCertification);
  db::TransactionSystem system(&sim, config);
  control::AdmissionGate gate(&system, 9.0);
  system.Start();
  int violations = 0;
  for (double t = 0.5; t < 12.0; t += 0.5) {
    sim.ScheduleAt(t, [&] {
      const int total =
          system.CountThinking() + system.active() + gate.queue_length();
      if (total != config.physical.num_terminals) ++violations;
    });
  }
  sim.RunUntil(12.0);
  EXPECT_EQ(violations, 0);
}

TEST_P(SeededProperty, PopulationConservedWithDisplacement) {
  sim::Simulator sim;
  db::SystemConfig config =
      PropertyConfig(GetParam(), db::CcScheme::kOptimisticCertification);
  db::TransactionSystem system(&sim, config);
  control::AdmissionGate gate(&system, 20.0);
  gate.EnableDisplacement(true);
  system.Start();
  // Yank the limit around while probing conservation.
  for (double t = 1.0; t < 15.0; t += 2.0) {
    sim.ScheduleAt(t, [&gate, t] {
      gate.SetLimit(t < 8.0 ? 3.0 : 25.0);
    });
  }
  int violations = 0;
  for (double t = 0.5; t < 15.0; t += 0.25) {
    sim.ScheduleAt(t, [&] {
      const int total =
          system.CountThinking() + system.active() + gate.queue_length();
      if (total != config.physical.num_terminals) ++violations;
    });
  }
  sim.RunUntil(15.0);
  EXPECT_EQ(violations, 0);
}

TEST_P(SeededProperty, OccCertificationInvariantHolds) {
  sim::Simulator sim;
  db::SystemConfig config =
      PropertyConfig(GetParam(), db::CcScheme::kOptimisticCertification);
  config.record_history = true;
  db::TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(8.0);
  const auto& history = system.metrics().history;
  ASSERT_GT(history.size(), 50u);
  int violations = 0;
  for (const db::CommitRecord& reader : history) {
    for (const db::CommitRecord& writer : history) {
      if (writer.commit_seq <= reader.start_seq ||
          writer.commit_seq >= reader.commit_seq) {
        continue;
      }
      for (db::ItemId item : writer.write_set) {
        if (std::find(reader.read_set.begin(), reader.read_set.end(), item) !=
            reader.read_set.end()) {
          ++violations;
        }
      }
    }
  }
  EXPECT_EQ(violations, 0);
}

TEST_P(SeededProperty, TwoPhaseLockingNeverLeaksLocks) {
  sim::Simulator sim;
  db::SystemConfig config =
      PropertyConfig(GetParam(), db::CcScheme::kTwoPhaseLocking);
  db::TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(10.0);
  // Quiesce: stop all submissions by displacing nothing and just draining —
  // run until every transaction is back at its terminal thinking or active
  // work finishes naturally. We simply check steady state: every held lock
  // belongs to a currently active transaction.
  ASSERT_NE(system.lock_manager(), nullptr);
  std::vector<db::Transaction*> active;
  system.CollectActive(&active);
  int held_by_active = 0;
  for (db::Transaction* txn : active) {
    held_by_active += static_cast<int>(txn->held_locks.size());
  }
  int total_held = 0;
  for (uint32_t item = 0; item < config.logical.db_size; ++item) {
    total_held += system.lock_manager()->NumHolders(item);
  }
  EXPECT_EQ(total_held, held_by_active);
}

TEST_P(SeededProperty, BlockedCountMatchesLockManager) {
  sim::Simulator sim;
  db::SystemConfig config =
      PropertyConfig(GetParam(), db::CcScheme::kTwoPhaseLocking);
  db::TransactionSystem system(&sim, config);
  system.Start();
  int mismatches = 0;
  for (double t = 1.0; t < 10.0; t += 1.0) {
    sim.ScheduleAt(t, [&] {
      std::vector<db::Transaction*> active;
      system.CollectActive(&active);
      int blocked = 0;
      for (db::Transaction* txn : active) {
        if (txn->state == db::TxnState::kBlocked) ++blocked;
      }
      if (blocked != system.lock_manager()->num_blocked()) ++mismatches;
    });
  }
  sim.RunUntil(10.0);
  EXPECT_EQ(mismatches, 0);
}

TEST_P(SeededProperty, ThroughputIdenticalAcrossReruns) {
  auto run = [&] {
    sim::Simulator sim;
    db::TransactionSystem system(
        &sim,
        PropertyConfig(GetParam(), db::CcScheme::kTwoPhaseLocking));
    control::AdmissionGate gate(&system, 12.0);
    system.Start();
    sim.RunUntil(8.0);
    return system.metrics().counters;
  };
  const db::Counters a = run();
  const db::Counters b = run();
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.aborts_deadlock, b.aborts_deadlock);
  EXPECT_EQ(a.lock_waits, b.lock_waits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                           13ull));

class ControllerProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(ControllerProperty, BoundStaysWithinStaticLimits) {
  core::ExperimentSpec spec;
  core::NodeSpec& node = spec.nodes.emplace_back();
  node.system = PropertyConfig(42, db::CcScheme::kOptimisticCertification);
  spec.active_terminals = db::Schedule::Constant(60);
  spec.duration = 40.0;
  spec.warmup = 5.0;
  node.control.controller = GetParam();
  node.control.measurement_interval = 0.5;
  node.control.initial_limit = 10.0;
  node.control.params.SetDouble("is.min_bound", 2.0);
  node.control.params.SetDouble("is.max_bound", 50.0);
  node.control.params.SetDouble("is.initial_bound", 10.0);
  node.control.params.SetDouble("pa.min_bound", 2.0);
  node.control.params.SetDouble("pa.max_bound", 50.0);
  node.control.params.SetDouble("pa.initial_bound", 10.0);
  node.control.params.SetDouble("iyer.min_bound", 2.0);
  node.control.params.SetDouble("iyer.max_bound", 50.0);
  node.control.params.SetDouble("iyer.initial_bound", 10.0);
  const core::ExperimentResult result = core::Experiment(spec).Run();
  for (const core::TrajectoryPoint& point : result.trajectory) {
    EXPECT_GE(point.bound, 2.0);
    EXPECT_LE(point.bound, 50.0);
  }
}

TEST_P(ControllerProperty, MakesProgressUnderControl) {
  core::ExperimentSpec spec;
  core::NodeSpec& node = spec.nodes.emplace_back();
  node.system = PropertyConfig(7, db::CcScheme::kOptimisticCertification);
  spec.active_terminals = db::Schedule::Constant(60);
  spec.duration = 30.0;
  spec.warmup = 5.0;
  node.control.controller = GetParam();
  const core::ExperimentResult result = core::Experiment(spec).Run();
  EXPECT_GT(result.commits, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Controllers, ControllerProperty,
    ::testing::Values("incremental-steps", "parabola-approximation",
                      "iyer-rule"));

}  // namespace
}  // namespace alc
