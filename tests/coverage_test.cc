// Remaining coverage: logging, simulator cancellation corner cases, lock
// manager cascade interactions, and monitor accounting details not covered
// by the module-focused suites.

#include <gtest/gtest.h>

#include "control/monitor.h"
#include "db/database.h"
#include "db/metrics.h"
#include "db/system.h"
#include "db/two_phase_locking.h"
#include "sim/simulator.h"
#include "util/logging.h"

namespace alc {
namespace {

TEST(LoggingTest, LevelFiltering) {
  const util::LogLevel original = util::Logger::level();
  util::Logger::SetLevel(util::LogLevel::kError);
  EXPECT_EQ(util::Logger::level(), util::LogLevel::kError);
  // Below-threshold logs are ignored (no crash, no output assertions
  // possible on stderr without capturing; this exercises the path).
  ALC_LOG(kDebug, "should be filtered");
  ALC_LOG(kError, "visible error message");
  util::Logger::SetLevel(util::LogLevel::kOff);
  ALC_LOG(kError, "filtered even at error level");
  util::Logger::SetLevel(original);
}

TEST(SimulatorTest, CancelDuringEventExecution) {
  // An event callback cancels a later event: the later event must not run.
  sim::Simulator sim;
  bool late_ran = false;
  sim::EventHandle late = sim.Schedule(2.0, [&] { late_ran = true; });
  sim.Schedule(1.0, [&] { EXPECT_TRUE(sim.Cancel(late)); });
  sim.RunAll();
  EXPECT_FALSE(late_ran);
}

TEST(SimulatorTest, SelfReschedulingEventChain) {
  sim::Simulator sim;
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 5) sim.Schedule(1.0, tick);
  };
  sim.Schedule(1.0, tick);
  sim.RunAll();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
}

class LockCascadeTest : public ::testing::Test {
 protected:
  LockCascadeTest() : db_(20), lm_(&db_, &metrics_, &sim_) {
    metrics_.blocked_track.Start(0.0, 0.0);
    lm_.SetAbortHook([this](db::Transaction* txn, db::AbortReason) {
      aborted_.push_back(txn);
      lm_.OnAbort(txn);
    });
  }

  db::Transaction Make(db::TxnId id, double start) {
    db::Transaction txn;
    txn.id = id;
    txn.attempt_start_time = start;
    txn.state = db::TxnState::kRunning;
    return txn;
  }

  sim::Simulator sim_;
  db::Database db_;
  db::Metrics metrics_;
  db::LockManager lm_;
  std::vector<db::Transaction*> aborted_;
};

TEST_F(LockCascadeTest, VictimReleaseUnblocksMultipleQueues) {
  // The victim holds two items with waiters on both; aborting it must
  // grant both queues.
  db::Transaction victim = Make(1, 9.0);  // youngest
  db::Transaction blocker = Make(2, 1.0);
  db::Transaction w1 = Make(3, 2.0), w2 = Make(4, 3.0);
  victim.access_items = {5, 6, 7};
  victim.access_modes = {db::AccessMode::kWrite, db::AccessMode::kWrite,
                         db::AccessMode::kWrite};
  blocker.access_items = {8, 5};
  blocker.access_modes = {db::AccessMode::kWrite, db::AccessMode::kWrite};
  w1.access_items = {6};
  w1.access_modes = {db::AccessMode::kWrite};
  w2.access_items = {7};
  w2.access_modes = {db::AccessMode::kWrite};

  bool v0 = false, v1 = false, v2 = false, b0 = false;
  bool g1 = false, g2 = false;
  lm_.RequestAccess(&victim, 0, [&] { v0 = true; });   // holds 5
  lm_.RequestAccess(&victim, 1, [&] { v1 = true; });   // holds 6
  lm_.RequestAccess(&victim, 2, [&] { v2 = true; });   // holds 7
  lm_.RequestAccess(&blocker, 0, [&] { b0 = true; });  // holds 8
  lm_.RequestAccess(&w1, 0, [&] { g1 = true; });       // waits on 6
  lm_.RequestAccess(&w2, 0, [&] { g2 = true; });       // waits on 7
  ASSERT_TRUE(v0 && v1 && v2 && b0);
  EXPECT_EQ(lm_.num_blocked(), 2);

  // victim -> blocker (wants 8); blocker -> victim (wants 5): deadlock on
  // the second edge; victim is younger and gets aborted.
  victim.access_items.push_back(8);
  victim.access_modes.push_back(db::AccessMode::kWrite);
  bool v3 = false;
  lm_.RequestAccess(&victim, 3, [&] { v3 = true; });
  EXPECT_FALSE(v3);
  bool b2 = false;
  lm_.RequestAccess(&blocker, 1, [&] { b2 = true; });  // closes the cycle
  ASSERT_EQ(aborted_.size(), 1u);
  EXPECT_EQ(aborted_[0], &victim);

  sim_.RunAll();
  EXPECT_TRUE(g1);  // waiter on 6 granted
  EXPECT_TRUE(g2);  // waiter on 7 granted
  EXPECT_TRUE(b2);  // blocker got 5
  EXPECT_EQ(lm_.num_blocked(), 0);
}

TEST(MonitorAccountingTest, CpuUtilizationMatchesBusyTime) {
  sim::Simulator sim;
  db::SystemConfig config;
  config.physical.num_terminals = 20;
  config.physical.think_time_mean = 0.1;
  config.physical.num_cpus = 2;
  config.physical.cpu_access_mean = 0.002;
  config.physical.io_time = 0.003;
  config.logical.db_size = 500;
  config.dynamics.k = db::Schedule::Constant(5);
  config.seed = 11;
  db::TransactionSystem system(&sim, config);
  control::Monitor monitor(&sim, &system, 1.0);
  double util_sum = 0.0;
  int samples = 0;
  monitor.SetCallback([&](const control::Sample& sample) {
    util_sum += sample.cpu_utilization;
    ++samples;
  });
  system.Start();
  monitor.Start();
  sim.RunUntil(20.0);
  ASSERT_EQ(samples, 20);
  // Mean of interval utilizations == overall utilization (equal intervals).
  EXPECT_NEAR(util_sum / samples, system.cpu().Utilization(), 0.01);
}

TEST(MonitorAccountingTest, ResponseTimeDeltasConsistent) {
  sim::Simulator sim;
  db::SystemConfig config;
  config.physical.num_terminals = 15;
  config.physical.think_time_mean = 0.1;
  config.logical.db_size = 300;
  config.dynamics.k = db::Schedule::Constant(4);
  config.seed = 13;
  db::TransactionSystem system(&sim, config);
  control::Monitor monitor(&sim, &system, 1.0);
  double weighted_response = 0.0;
  long long total_commits = 0;
  monitor.SetCallback([&](const control::Sample& sample) {
    weighted_response += sample.mean_response * sample.commits;
    total_commits += sample.commits;
  });
  system.Start();
  monitor.Start();
  sim.RunUntil(30.0);
  // Commit-weighted interval responses must reassemble the cumulative sum.
  EXPECT_NEAR(weighted_response,
              system.metrics().counters.response_time_sum,
              system.metrics().counters.response_time_sum * 0.05 + 1.0);
  EXPECT_LE(static_cast<uint64_t>(total_commits),
            system.metrics().counters.commits);
}

TEST(DatabaseSeqTest, WriteSeqIndependentPerItem) {
  db::Database database(5);
  database.set_last_write_seq(0, 10);
  database.set_last_write_seq(4, 20);
  EXPECT_EQ(database.last_write_seq(0), 10u);
  EXPECT_EQ(database.last_write_seq(1), 0u);
  EXPECT_EQ(database.last_write_seq(4), 20u);
}

}  // namespace
}  // namespace alc
