#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "control/gate.h"
#include "control/monitor.h"
#include "db/system.h"
#include "sim/simulator.h"
#include "telemetry/histogram.h"

namespace alc::control {
namespace {

db::SystemConfig SmallConfig(uint64_t seed = 3) {
  db::SystemConfig config;
  config.physical.num_terminals = 50;
  config.physical.think_time_mean = 0.05;  // load-heavy: active n can reach 30+
  config.physical.num_cpus = 4;
  config.physical.cpu_init_mean = 0.001;
  config.physical.cpu_access_mean = 0.001;
  config.physical.cpu_commit_mean = 0.001;
  config.physical.cpu_write_commit_mean = 0.002;
  config.physical.io_time = 0.005;
  config.physical.restart_delay_mean = 0.01;
  config.logical.db_size = 300;
  config.dynamics.k = db::Schedule::Constant(6);
  config.seed = seed;
  return config;
}

TEST(GateTest, NeverExceedsCeilOfLimit) {
  sim::Simulator sim;
  db::TransactionSystem system(&sim, SmallConfig());
  AdmissionGate gate(&system, 8.0);
  system.Start();
  int max_seen = 0;
  for (double t = 0.5; t < 15.0; t += 0.1) {
    sim.ScheduleAt(t, [&] { max_seen = std::max(max_seen, system.active()); });
  }
  sim.RunUntil(15.0);
  EXPECT_LE(max_seen, 8);
  EXPECT_GT(max_seen, 4);  // the limit is actually reached
  EXPECT_GT(gate.queue_length(), 0);  // overload queues at the gate
}

TEST(GateTest, FractionalLimitFixedPointIsCeil) {
  sim::Simulator sim;
  db::TransactionSystem system(&sim, SmallConfig());
  AdmissionGate gate(&system, 5.4);
  system.Start();
  int max_seen = 0;
  for (double t = 0.5; t < 10.0; t += 0.1) {
    sim.ScheduleAt(t, [&] { max_seen = std::max(max_seen, system.active()); });
  }
  sim.RunUntil(10.0);
  EXPECT_LE(max_seen, 6);  // ceil(5.4)
}

TEST(GateTest, RaisingLimitAdmitsQueued) {
  sim::Simulator sim;
  db::TransactionSystem system(&sim, SmallConfig());
  AdmissionGate gate(&system, 2.0);
  system.Start();
  sim.RunUntil(5.0);
  ASSERT_GT(gate.queue_length(), 10);
  sim.ScheduleAt(5.0, [&] { gate.SetLimit(40.0); });
  sim.RunUntil(5.5);
  EXPECT_LE(gate.queue_length(), 12);  // most of the queue drained
  EXPECT_GT(system.active(), 20);
}

TEST(GateTest, LoweringWithoutDisplacementDrainsByDepartures) {
  sim::Simulator sim;
  db::TransactionSystem system(&sim, SmallConfig());
  AdmissionGate gate(&system, 30.0);
  system.Start();
  sim.RunUntil(5.0);
  const int before = system.active();
  ASSERT_GT(before, 20);
  sim.ScheduleAt(5.0, [&] { gate.SetLimit(5.0); });
  sim.RunUntil(5.01);
  // No displacement: still above the new limit right after the change...
  EXPECT_GT(system.active(), 5);
  EXPECT_EQ(gate.total_displaced(), 0u);
  sim.RunUntil(15.0);
  // ...but normal departures eventually drain to the bound.
  EXPECT_LE(system.active(), 6);
}

TEST(GateTest, LoweringWithDisplacementEnforcesImmediately) {
  sim::Simulator sim;
  db::TransactionSystem system(&sim, SmallConfig());
  AdmissionGate gate(&system, 30.0);
  gate.EnableDisplacement(true);
  system.Start();
  sim.RunUntil(5.0);
  ASSERT_GT(system.active(), 20);
  sim.ScheduleAt(5.0, [&] { gate.SetLimit(5.0); });
  // Displacement of blocked/restart-waiting txns is synchronous; running
  // ones abort at their next phase boundary (sub-0.1s at these service
  // times).
  sim.RunUntil(5.5);
  EXPECT_LE(system.active(), 6);
  EXPECT_GT(gate.total_displaced(), 0u);
  EXPECT_GT(system.metrics().counters.aborts_displacement, 0u);
}

TEST(GateTest, DisplacedTransactionsReadmittedWhenLimitRises) {
  sim::Simulator sim;
  db::TransactionSystem system(&sim, SmallConfig());
  AdmissionGate gate(&system, 20.0);
  gate.EnableDisplacement(true);
  system.Start();
  sim.RunUntil(3.0);
  sim.ScheduleAt(3.0, [&] { gate.SetLimit(3.0); });
  sim.RunUntil(6.0);
  const uint64_t commits_before = system.metrics().counters.commits;
  sim.ScheduleAt(6.0, [&] { gate.SetLimit(20.0); });
  sim.RunUntil(12.0);
  // System recovered: commits continue after re-admission.
  EXPECT_GT(system.metrics().counters.commits, commits_before + 50);
}

TEST(GateTest, FcfsOrderPreserved) {
  sim::Simulator sim;
  db::TransactionSystem system(&sim, SmallConfig());
  AdmissionGate gate(&system, 1.0);  // serialize admissions
  std::vector<db::TxnId> admitted_order;
  // Wrap the system's departure hook is taken by the gate; observe via
  // admit_time ordering instead: with limit 1 the admit times are strictly
  // increasing in queue order.
  system.Start();
  sim.RunUntil(10.0);
  EXPECT_GT(system.metrics().counters.commits, 10u);
  EXPECT_LE(system.active(), 1);
}

TEST(MonitorTest, SamplesAtConfiguredInterval) {
  sim::Simulator sim;
  db::TransactionSystem system(&sim, SmallConfig());
  Monitor monitor(&sim, &system, 0.5);
  int ticks = 0;
  monitor.SetCallback([&](const Sample& sample) {
    ++ticks;
    EXPECT_NEAR(sample.interval, 0.5, 1e-9);
  });
  system.Start();
  monitor.Start();
  sim.RunUntil(10.0);
  EXPECT_EQ(ticks, 20);
}

TEST(MonitorTest, IntervalCommitsSumToTotal) {
  sim::Simulator sim;
  db::TransactionSystem system(&sim, SmallConfig());
  Monitor monitor(&sim, &system, 1.0);
  long long sum = 0;
  monitor.SetCallback([&](const Sample& sample) { sum += sample.commits; });
  system.Start();
  monitor.Start();
  sim.RunUntil(10.0);
  // All commits before the last tick are accounted exactly once.
  EXPECT_LE(static_cast<uint64_t>(sum), system.metrics().counters.commits);
  sim.RunUntil(10.5);
  const uint64_t at_last_tick = sum;
  EXPECT_GT(at_last_tick, 0u);
}

// The monitor reads interval percentiles from its response window. Rebuild
// the snapshot-subtract computation that window replaced — the cumulative
// histogram minus its snapshot at the previous tick — and check every
// sample against it bit for bit, across a short interval (a few commits
// per tick, some ticks empty) and a retuned longer one.
TEST(MonitorTest, PercentilesMatchSnapshotSubtractBitForBit) {
  sim::Simulator sim;
  db::TransactionSystem system(&sim, SmallConfig(11));
  Monitor monitor(&sim, &system, 0.002);
  telemetry::LogHistogram last;
  int ticks = 0;
  int nonempty = 0;
  const auto bits = [](double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  monitor.SetCallback([&](const Sample& sample) {
    telemetry::LogHistogram interval = system.metrics().response_hist;
    interval.Subtract(last);
    last = system.metrics().response_hist;
    ++ticks;
    if (interval.count() > 0) ++nonempty;
    EXPECT_EQ(monitor.interval_response_window().count(), interval.count());
    EXPECT_EQ(static_cast<uint64_t>(sample.commits), interval.count());
    EXPECT_EQ(bits(sample.response_p50), bits(interval.Quantile(0.50)));
    EXPECT_EQ(bits(sample.response_p95), bits(interval.Quantile(0.95)));
    EXPECT_EQ(bits(sample.response_p99), bits(interval.Quantile(0.99)));
    EXPECT_EQ(bits(sample.response_p999), bits(interval.Quantile(0.999)));
  });
  system.Start();
  sim.RunUntil(0.5);  // commits before Start() belong to no interval
  last = system.metrics().response_hist;
  monitor.Start();
  sim.RunUntil(5.0);
  monitor.SetInterval(0.7);
  sim.RunUntil(20.0);
  EXPECT_GT(ticks, 200);
  EXPECT_GT(nonempty, 100);
  EXPECT_LT(nonempty, ticks);  // some 2 ms ticks see no commit
}

TEST(MonitorTest, ThroughputMatchesCommitDeltas) {
  sim::Simulator sim;
  db::TransactionSystem system(&sim, SmallConfig());
  Monitor monitor(&sim, &system, 2.0);
  std::vector<Sample> samples;
  monitor.SetCallback([&](const Sample& s) { samples.push_back(s); });
  system.Start();
  monitor.Start();
  sim.RunUntil(20.0);
  ASSERT_GE(samples.size(), 5u);
  for (const Sample& s : samples) {
    EXPECT_NEAR(s.throughput, s.commits / s.interval, 1e-9);
    EXPECT_GE(s.mean_active, 0.0);
    EXPECT_GE(s.cpu_utilization, 0.0);
    EXPECT_LE(s.cpu_utilization, 1.0 + 1e-9);
  }
}

TEST(MonitorTest, MeanActiveReflectsAdmittedLoad) {
  sim::Simulator sim;
  db::TransactionSystem system(&sim, SmallConfig());
  AdmissionGate gate(&system, 5.0);
  Monitor monitor(&sim, &system, 1.0);
  std::vector<Sample> samples;
  monitor.SetCallback([&](const Sample& s) { samples.push_back(s); });
  system.Start();
  monitor.Start();
  sim.RunUntil(10.0);
  // After warmup the time-averaged load must hover at the limit.
  ASSERT_GE(samples.size(), 10u);
  for (size_t i = 4; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].mean_active, 3.0);
    EXPECT_LE(samples[i].mean_active, 5.0 + 1e-9);
  }
}

TEST(MonitorTest, SetIntervalTakesEffect) {
  sim::Simulator sim;
  db::TransactionSystem system(&sim, SmallConfig());
  Monitor monitor(&sim, &system, 1.0);
  std::vector<double> tick_times;
  monitor.SetCallback([&](const Sample& s) {
    tick_times.push_back(s.time);
    if (tick_times.size() == 3) monitor.SetInterval(2.0);
  });
  system.Start();
  monitor.Start();
  sim.RunUntil(11.0);
  // Ticks at 1,2,3 then 5,7,9,11.
  ASSERT_GE(tick_times.size(), 6u);
  EXPECT_DOUBLE_EQ(tick_times[0], 1.0);
  EXPECT_DOUBLE_EQ(tick_times[2], 3.0);
  EXPECT_DOUBLE_EQ(tick_times[3], 5.0);
  EXPECT_DOUBLE_EQ(tick_times[4], 7.0);
}

TEST(MonitorTest, ConflictRateCountsAbortsPerCommit) {
  sim::Simulator sim;
  db::SystemConfig config = SmallConfig();
  config.logical.db_size = 25;
  config.dynamics.write_fraction = db::Schedule::Constant(0.9);
  db::TransactionSystem system(&sim, config);
  Monitor monitor(&sim, &system, 2.0);
  double total_conflict_rate = 0.0;
  int ticks = 0;
  monitor.SetCallback([&](const Sample& s) {
    total_conflict_rate += s.conflict_rate;
    ++ticks;
  });
  system.Start();
  monitor.Start();
  sim.RunUntil(20.0);
  ASSERT_GT(ticks, 0);
  EXPECT_GT(total_conflict_rate / ticks, 0.05);  // real contention measured
}

TEST(MonitorTest, UsefulCpuFractionDropsUnderContention) {
  auto run = [](uint32_t db_size) {
    sim::Simulator sim;
    db::SystemConfig config = SmallConfig();
    config.logical.db_size = db_size;
    config.dynamics.write_fraction = db::Schedule::Constant(0.8);
    db::TransactionSystem system(&sim, config);
    Monitor monitor(&sim, &system, 2.0);
    double sum = 0.0;
    int n = 0;
    monitor.SetCallback([&](const Sample& s) {
      sum += s.useful_cpu_fraction;
      ++n;
    });
    system.Start();
    monitor.Start();
    sim.RunUntil(20.0);
    return sum / n;
  };
  EXPECT_LT(run(20), run(5000));  // tiny database wastes more CPU on reruns
}

}  // namespace
}  // namespace alc::control
