#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "db/system.h"
#include "sim/simulator.h"

namespace alc::db {
namespace {

SystemConfig SmallConfig(CcScheme cc = CcScheme::kOptimisticCertification,
                         uint64_t seed = 1) {
  SystemConfig config;
  config.physical.num_terminals = 40;
  config.physical.think_time_mean = 0.2;
  config.physical.num_cpus = 4;
  config.physical.cpu_init_mean = 0.001;
  config.physical.cpu_access_mean = 0.001;
  config.physical.cpu_commit_mean = 0.001;
  config.physical.cpu_write_commit_mean = 0.002;
  config.physical.io_time = 0.005;
  config.physical.restart_delay_mean = 0.01;
  config.logical.db_size = 200;
  config.dynamics.k = Schedule::Constant(6);
  config.dynamics.query_fraction = Schedule::Constant(0.3);
  config.dynamics.write_fraction = Schedule::Constant(0.4);
  config.cc = cc;
  config.seed = seed;
  return config;
}

TEST(SystemTest, CommitsHappen) {
  sim::Simulator sim;
  TransactionSystem system(&sim, SmallConfig());
  system.Start();
  sim.RunUntil(20.0);
  EXPECT_GT(system.metrics().counters.commits, 500u);
  EXPECT_GT(system.metrics().counters.submitted, 0u);
}

TEST(SystemTest, PopulationConservation) {
  sim::Simulator sim;
  SystemConfig config = SmallConfig();
  TransactionSystem system(&sim, config);
  system.Start();
  // Default hooks admit immediately, so thinking + active == N whenever we
  // probe (restart-waiters and blocked transactions are active).
  for (double t = 1.0; t <= 10.0; t += 1.0) {
    sim.ScheduleAt(t, [&] {
      EXPECT_EQ(system.CountThinking() + system.active(),
                config.physical.num_terminals)
          << "at t=" << sim.Now();
    });
  }
  sim.RunUntil(11.0);
}

TEST(SystemTest, ContentionCausesCertificationAborts) {
  sim::Simulator sim;
  SystemConfig config = SmallConfig();
  config.logical.db_size = 30;  // tiny database: heavy conflicts
  config.dynamics.write_fraction = Schedule::Constant(0.8);
  TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(20.0);
  EXPECT_GT(system.metrics().counters.aborts_certification, 50u);
  EXPECT_EQ(system.metrics().counters.aborts_deadlock, 0u);
}

TEST(SystemTest, TwoPhaseLockingBlocksAndDeadlocks) {
  sim::Simulator sim;
  SystemConfig config = SmallConfig(CcScheme::kTwoPhaseLocking);
  config.logical.db_size = 30;
  config.dynamics.write_fraction = Schedule::Constant(0.8);
  TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(30.0);
  EXPECT_GT(system.metrics().counters.lock_waits, 100u);
  EXPECT_GT(system.metrics().counters.aborts_deadlock, 0u);
  EXPECT_EQ(system.metrics().counters.aborts_certification, 0u);
  EXPECT_GT(system.metrics().counters.commits, 100u);
  ASSERT_NE(system.lock_manager(), nullptr);
  EXPECT_GT(system.lock_manager()->deadlocks_detected(), 0u);
}

TEST(SystemTest, OccHistorySatisfiesCertificationInvariant) {
  sim::Simulator sim;
  SystemConfig config = SmallConfig();
  config.logical.db_size = 40;
  config.dynamics.write_fraction = Schedule::Constant(0.6);
  config.record_history = true;
  TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(15.0);

  const auto& history = system.metrics().history;
  ASSERT_GT(history.size(), 200u);
  // Backward-validation invariant: no committed transaction may have read an
  // item written by another transaction that committed within its window
  // (start_seq, commit_seq).
  for (const CommitRecord& reader : history) {
    for (const CommitRecord& writer : history) {
      if (writer.commit_seq <= reader.start_seq ||
          writer.commit_seq >= reader.commit_seq) {
        continue;
      }
      for (ItemId written : writer.write_set) {
        const bool read = std::find(reader.read_set.begin(),
                                    reader.read_set.end(),
                                    written) != reader.read_set.end();
        EXPECT_FALSE(read) << "txn " << reader.txn_id << " read item "
                           << written << " written concurrently by "
                           << writer.txn_id;
      }
    }
  }
}

TEST(SystemTest, CommitSequencesAreUniqueAndDense) {
  sim::Simulator sim;
  SystemConfig config = SmallConfig();
  config.record_history = true;
  TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(10.0);
  std::vector<uint64_t> seqs;
  for (const CommitRecord& record : system.metrics().history) {
    seqs.push_back(record.commit_seq);
  }
  ASSERT_FALSE(seqs.empty());
  std::sort(seqs.begin(), seqs.end());
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], i + 1);  // 1..N without gaps
  }
}

TEST(SystemTest, DeterministicForSameSeed) {
  auto run = [](uint64_t seed) {
    sim::Simulator sim;
    TransactionSystem system(&sim, SmallConfig(
        CcScheme::kOptimisticCertification, seed));
    system.Start();
    sim.RunUntil(10.0);
    return system.metrics().counters;
  };
  const Counters a = run(77);
  const Counters b = run(77);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.aborts_certification, b.aborts_certification);
  EXPECT_EQ(a.response_time_sum, b.response_time_sum);

  const Counters c = run(78);
  EXPECT_NE(a.commits, c.commits);
}

TEST(SystemTest, QueryFractionZeroMeansAllUpdaters) {
  sim::Simulator sim;
  SystemConfig config = SmallConfig();
  config.dynamics.query_fraction = Schedule::Constant(0.0);
  config.dynamics.write_fraction = Schedule::Constant(1.0);
  config.record_history = true;
  TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(5.0);
  for (const CommitRecord& record : system.metrics().history) {
    EXPECT_EQ(record.write_set.size(), record.read_set.size());
  }
}

TEST(SystemTest, QueryFractionOneMeansNoWrites) {
  sim::Simulator sim;
  SystemConfig config = SmallConfig();
  config.dynamics.query_fraction = Schedule::Constant(1.0);
  config.record_history = true;
  TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(5.0);
  ASSERT_GT(system.metrics().history.size(), 0u);
  for (const CommitRecord& record : system.metrics().history) {
    EXPECT_TRUE(record.write_set.empty());
  }
  EXPECT_EQ(system.metrics().counters.aborts_certification, 0u);
}

TEST(SystemTest, WorkloadScheduleChangesAccessSetSize) {
  sim::Simulator sim;
  SystemConfig config = SmallConfig();
  config.record_history = true;
  config.dynamics.k = Schedule::Steps(4.0, {{5.0, 12.0}});
  TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(12.0);

  bool saw_small = false, saw_large = false;
  for (const CommitRecord& record : system.metrics().history) {
    if (record.read_set.size() == 4) saw_small = true;
    if (record.read_set.size() == 12) saw_large = true;
  }
  EXPECT_TRUE(saw_small);
  EXPECT_TRUE(saw_large);
}

TEST(SystemTest, ActiveTerminalsScheduleThrottlesLoad) {
  auto commits_with_quota = [](double quota) {
    sim::Simulator sim;
    SystemConfig config = SmallConfig();
    TransactionSystem system(&sim, config);
    system.SetActiveTerminalsSchedule(Schedule::Constant(quota));
    system.Start();
    sim.RunUntil(15.0);
    return system.metrics().counters.commits;
  };
  const uint64_t full = commits_with_quota(40.0);
  const uint64_t quarter = commits_with_quota(10.0);
  EXPECT_LT(quarter, full / 2);
  EXPECT_GT(quarter, 0u);
}

TEST(SystemTest, ResponseTimeIncludesAllAttempts) {
  sim::Simulator sim;
  SystemConfig config = SmallConfig();
  config.logical.db_size = 30;
  config.dynamics.write_fraction = Schedule::Constant(0.9);  // force restarts
  TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(15.0);
  const Metrics& metrics = system.metrics();
  ASSERT_GT(metrics.counters.commits, 0u);
  EXPECT_GT(metrics.attempts_per_commit.mean(), 1.05);
  // Mean response must exceed the no-contention minimum (k+2 phases).
  const double min_response =
      (config.dynamics.k.Value(0.0) + 2) * config.physical.io_time;
  EXPECT_GT(metrics.counters.response_time_sum /
                metrics.counters.commits,
            min_response);
}

TEST(SystemTest, UsefulAndWastedCpuSplit) {
  sim::Simulator sim;
  SystemConfig config = SmallConfig();
  config.logical.db_size = 30;
  config.dynamics.write_fraction = Schedule::Constant(0.8);
  TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(15.0);
  const Counters& counters = system.metrics().counters;
  EXPECT_GT(counters.useful_cpu, 0.0);
  EXPECT_GT(counters.wasted_cpu, 0.0);  // aborts happened
  // Total charged CPU cannot exceed delivered processor-seconds... it can be
  // slightly less (work in flight); allow headroom for in-flight attempts.
  EXPECT_LE(counters.useful_cpu + counters.wasted_cpu,
            system.cpu().busy_time() + 1.0);
}

TEST(SystemTest, DisplacementOfRunningTransaction) {
  sim::Simulator sim;
  SystemConfig config = SmallConfig();
  TransactionSystem system(&sim, config);
  std::vector<Transaction*> resubmitted;
  int admitted = 0;
  system.SetSubmissionHook([&](Transaction* txn) {
    if (txn->displaced) {
      resubmitted.push_back(txn);
      return;  // hold displaced transactions at the "gate"
    }
    ++admitted;
    system.Admit(txn);
  });
  system.Start();
  sim.ScheduleAt(2.0, [&] {
    std::vector<Transaction*> active;
    system.CollectActive(&active);
    ASSERT_FALSE(active.empty());
    system.Displace(active.front());
  });
  sim.RunUntil(4.0);
  EXPECT_EQ(resubmitted.size(), 1u);
  EXPECT_EQ(system.metrics().counters.aborts_displacement, 1u);
  EXPECT_EQ(resubmitted[0]->state, TxnState::kQueued);
}

TEST(SystemTest, DisplacementOfRestartWaitingTransaction) {
  sim::Simulator sim;
  SystemConfig config = SmallConfig();
  config.logical.db_size = 20;
  config.dynamics.write_fraction = Schedule::Constant(0.9);
  config.physical.restart_delay_mean = 0.5;  // long: easy to catch waiting
  TransactionSystem system(&sim, config);
  int displaced_returned = 0;
  system.SetSubmissionHook([&](Transaction* txn) {
    if (txn->displaced) {
      ++displaced_returned;
      return;
    }
    system.Admit(txn);
  });
  system.Start();
  bool did_displace = false;
  for (double t = 1.0; t < 10.0 && !did_displace; t += 0.25) {
    sim.ScheduleAt(t, [&] {
      if (did_displace) return;
      std::vector<Transaction*> active;
      system.CollectActive(&active);
      for (Transaction* txn : active) {
        if (txn->state == TxnState::kRestartWait) {
          system.Displace(txn);
          did_displace = true;
          break;
        }
      }
    });
  }
  sim.RunUntil(12.0);
  EXPECT_TRUE(did_displace);
  EXPECT_EQ(displaced_returned, 1);
}

TEST(SystemTest, NonResampledRestartKeepsAccessPlan) {
  sim::Simulator sim;
  SystemConfig config = SmallConfig();
  config.logical.db_size = 25;
  config.dynamics.write_fraction = Schedule::Constant(0.9);
  config.logical.resample_on_restart = false;
  TransactionSystem system(&sim, config);
  system.Start();
  sim.RunUntil(15.0);
  // Smoke: the system still makes progress without resampling (no livelock
  // at this contention level) and restarts occurred.
  EXPECT_GT(system.metrics().counters.commits, 100u);
  EXPECT_GT(system.metrics().counters.aborts_certification, 10u);
}

}  // namespace
}  // namespace alc::db
