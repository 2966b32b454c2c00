// Workload subsystem: distribution literals (round trip, domain
// validation, statistical pins against the analytic mean), the [workload]
// spec section (round trip, line-numbered errors, cluster-mode
// requirement), SessionWorkload mechanics against a scripted host, and the
// acceptance properties of the session sources — bit-determinism across
// repeats and byte-identical results with telemetry on vs off.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/export.h"
#include "core/spec.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "telemetry/registry.h"
#include "workload/distribution.h"
#include "workload/registry.h"
#include "workload/session.h"
#include "workload/source.h"

namespace alc {
namespace {

// ------------------------------------------------- distribution literals --

TEST(DistributionTest, RoundTripsEveryKind) {
  const workload::Distribution kinds[] = {
      workload::Distribution::Constant(4.0),
      workload::Distribution::Exponential(1.5),
      workload::Distribution::LogNormal(0.25, 1.2),
      workload::Distribution::BoundedPareto(1.5, 1.0, 1000.0),
      // Awkward doubles must survive exactly (FormatDouble round trip).
      workload::Distribution::LogNormal(0.1, 1.0 / 3.0),
      workload::Distribution::BoundedPareto(1.0000001, 0.5, 12345.678),
  };
  for (const workload::Distribution& d : kinds) {
    workload::Distribution parsed;
    ASSERT_TRUE(workload::Distribution::Parse(d.ToString(), &parsed))
        << d.ToString();
    EXPECT_EQ(parsed, d) << d.ToString();
    EXPECT_EQ(parsed.ToString(), d.ToString());
  }
}

TEST(DistributionTest, ParsesHandWrittenForms) {
  workload::Distribution d;
  ASSERT_TRUE(workload::Distribution::Parse("  pareto( 1.5 , 1, 1000 ) ", &d));
  EXPECT_EQ(d, workload::Distribution::BoundedPareto(1.5, 1.0, 1000.0));
  ASSERT_TRUE(workload::Distribution::Parse("exp(2)", &d));
  EXPECT_EQ(d, workload::Distribution::Exponential(2.0));
}

TEST(DistributionTest, RejectsMalformedAndOutOfDomain) {
  const char* bad[] = {
      "",
      "pareto",
      "pareto(1.5, 1)",            // missing hi
      "pareto(1.5, 1, 1000",       // unbalanced
      "pareto(0, 1, 1000)",        // alpha <= 0
      "pareto(1.5, 0, 1000)",      // lo <= 0
      "pareto(1.5, 1000, 1)",      // lo >= hi
      "exp(0)",                    // mean <= 0
      "exp(-1)",
      "lognormal(0)",              // missing sigma
      "lognormal(0, -0.5)",        // sigma < 0
      "gaussian(0, 1)",            // unknown kind
      "constant(x)",               // not a number
  };
  for (const char* text : bad) {
    workload::Distribution d = workload::Distribution::Constant(7.0);
    EXPECT_FALSE(workload::Distribution::Parse(text, &d)) << text;
    // A failed parse leaves the output untouched.
    EXPECT_EQ(d, workload::Distribution::Constant(7.0)) << text;
  }
}

// Statistical pin: with a fixed seed, the sample mean of each kind must
// land within a small tolerance of the analytic mean. Guards both the
// sampler (inverse CDF) and Mean() against silent formula drift.
double SampleMean(const workload::Distribution& d, int n, uint64_t seed) {
  sim::RandomStream rng(seed);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += d.Sample(&rng);
  return sum / n;
}

TEST(DistributionTest, SampleMeanMatchesAnalyticMean) {
  constexpr int kSamples = 200000;
  struct Case {
    workload::Distribution dist;
    double tolerance;  // relative
  };
  const Case cases[] = {
      {workload::Distribution::Constant(3.5), 1e-12},
      {workload::Distribution::Exponential(2.0), 0.02},
      {workload::Distribution::LogNormal(0.5, 0.75), 0.02},
      {workload::Distribution::BoundedPareto(1.5, 1.0, 1000.0), 0.02},
      // alpha == 1 takes the logarithmic mean formula branch.
      {workload::Distribution::BoundedPareto(1.0, 1.0, 1000.0), 0.02},
      // alpha < 1: only bounded Pareto keeps this mean finite.
      {workload::Distribution::BoundedPareto(0.8, 1.0, 100.0), 0.02},
  };
  for (const Case& c : cases) {
    const double mean = c.dist.Mean();
    const double sample = SampleMean(c.dist, kSamples, 12345);
    EXPECT_NEAR(sample / mean, 1.0, c.tolerance) << c.dist.ToString()
        << " analytic=" << mean << " sample=" << sample;
  }
}

TEST(DistributionTest, SamplingIsDeterministicPerSeed) {
  const workload::Distribution d =
      workload::Distribution::BoundedPareto(1.5, 1.0, 1000.0);
  sim::RandomStream a(99), b(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(d.Sample(&a), d.Sample(&b));
  }
}

TEST(DistributionTest, BoundedParetoStaysInBounds) {
  const workload::Distribution d =
      workload::Distribution::BoundedPareto(0.9, 2.0, 50.0);
  sim::RandomStream rng(7);
  for (int i = 0; i < 20000; ++i) {
    const double x = d.Sample(&rng);
    ASSERT_GE(x, 2.0);
    ASSERT_LE(x, 50.0);
  }
}

// ------------------------------------------------- [workload] spec layer --

core::ExperimentSpec SessionClusterSpec(const std::string& source) {
  core::ExperimentSpec spec;
  spec.name = "workload-test";
  spec.cluster = true;
  spec.seed = 17;
  spec.duration = 12.0;
  spec.warmup = 2.0;
  spec.arrival_rate = db::Schedule::Constant(120.0);
  spec.workload.source = source;
  spec.workload.population = 50000;
  spec.workload.session_rate = db::Schedule::Constant(15.0);
  spec.workload.sessions = 40;
  spec.workload.txns_per_session =
      workload::Distribution::BoundedPareto(1.5, 1.0, 200.0);
  spec.workload.think_time = workload::Distribution::Exponential(0.4);
  spec.workload.affinity = 0.8;
  spec.workload.affinity_keys = 32;
  spec.nodes.resize(2);
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    core::NodeSpec& node = spec.nodes[i];
    node.system.seed = core::DecorrelatedNodeSeed(17, static_cast<int>(i));
    node.system.physical.num_cpus = 4;
    node.system.logical.db_size = 600;
    node.system.dynamics.k = db::Schedule::Constant(8);
    node.control.measurement_interval = 0.5;
    node.control.initial_limit = 20.0;
    node.control.params.SetDouble("pa.initial_bound", 20.0);
    node.control.params.SetDouble("pa.max_bound", 200.0);
  }
  return spec;
}

TEST(WorkloadSpecTest, SectionRoundTrips) {
  const core::ExperimentSpec spec = SessionClusterSpec("hybrid");
  const std::string text = core::PrintSpec(spec);
  EXPECT_NE(text.find("[workload]"), std::string::npos);
  EXPECT_NE(text.find("txns_per_session = pareto(1.5, 1, 200)"),
            std::string::npos)
      << text;
  core::ExperimentSpec parsed;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed, spec);
}

TEST(WorkloadSpecTest, DefaultsReproduceTheOpenSource) {
  // A spec that never mentions [workload] must parse to the default open
  // source, so every pre-existing spec file keeps its exact meaning.
  core::ExperimentSpec parsed;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(
      "[experiment]\ncluster = true\n[node]\n", &parsed, &error))
      << error;
  EXPECT_EQ(parsed.workload, workload::WorkloadSpec{});
  EXPECT_EQ(parsed.workload.source, "open");
}

TEST(WorkloadSpecTest, ReportsBadKeysWithLineNumbers) {
  core::ExperimentSpec parsed;
  std::string error;
  EXPECT_FALSE(core::ParseSpec(
      "[workload]\nbogus_key = 3\n", &parsed, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("bogus_key"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(core::ParseSpec(
      "[workload]\n\ntxns_per_session = pareto(1.5, 1)\n", &parsed, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(core::ParseSpec(
      "[workload]\nsource = firehose\n", &parsed, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  // Unknown source names list what is registered.
  EXPECT_NE(error.find("hybrid"), std::string::npos) << error;
}

TEST(WorkloadSpecTest, SessionSourcesRequireClusterMode) {
  core::ExperimentSpec parsed;
  std::string error;
  EXPECT_FALSE(core::ParseSpec(
      "[experiment]\ncluster = false\n[workload]\nsource = hybrid\n[node]\n",
      &parsed, &error));
  EXPECT_NE(error.find("cluster"), std::string::npos) << error;

  // The override path enforces the same rule.
  core::ExperimentSpec single;
  ASSERT_TRUE(core::ParseSpec("[experiment]\n[node]\n", &single, &error))
      << error;
  EXPECT_FALSE(
      core::ApplySpecOverride(&single, "workload.source", "hybrid", &error));
}

TEST(WorkloadSpecTest, OverridesAddressWorkloadKeys) {
  core::ExperimentSpec spec = SessionClusterSpec("hybrid");
  std::string error;
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "workload.population", "123456",
                                      &error))
      << error;
  EXPECT_EQ(spec.workload.population, 123456u);
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "workload.think_time",
                                      "lognormal(0.1, 0.9)", &error))
      << error;
  EXPECT_EQ(spec.workload.think_time,
            workload::Distribution::LogNormal(0.1, 0.9));
  EXPECT_FALSE(
      core::ApplySpecOverride(&spec, "workload.affinity", "1.5", &error));
}

// ------------------------------------------ SessionWorkload unit behavior --

// Scripted host: completes every arrival after a fixed service delay and
// records what it saw. Exercises session mechanics without a cluster.
class ScriptedHost : public workload::WorkloadHost {
 public:
  ScriptedHost(sim::Simulator* sim, workload::WorkloadSource* source,
               double service_time, uint32_t keyspace)
      : sim_(sim), source_(source), service_time_(service_time),
        keyspace_(keyspace) {}

  void SubmitArrival(const workload::Arrival& arrival) override {
    ++arrivals_;
    if (arrival.affinity_size > 0) {
      ++affine_arrivals_;
      EXPECT_LE(arrival.affinity_start + arrival.affinity_size, keyspace_);
    }
    const int32_t session = arrival.session;
    if (session >= 0) {
      sim_->Schedule(service_time_, [this, session] {
        source_->OnComplete(session, service_time_, true);
      });
    }
  }
  uint32_t keyspace() const override { return keyspace_; }

  uint64_t arrivals() const { return arrivals_; }
  uint64_t affine_arrivals() const { return affine_arrivals_; }

 private:
  sim::Simulator* sim_;
  workload::WorkloadSource* source_;
  double service_time_;
  uint32_t keyspace_;
  uint64_t arrivals_ = 0;
  uint64_t affine_arrivals_ = 0;
};

workload::WorkloadSpec SmallSessionSpec() {
  workload::WorkloadSpec spec;
  spec.population = 10000;
  spec.session_rate = db::Schedule::Constant(8.0);
  spec.sessions = 12;
  spec.txns_per_session = workload::Distribution::BoundedPareto(1.5, 1.0, 50.0);
  spec.think_time = workload::Distribution::Exponential(0.3);
  spec.affinity = 1.0;
  spec.affinity_keys = 16;
  return spec;
}

TEST(SessionWorkloadTest, ClosedModeKeepsPopulationConstant) {
  sim::Simulator sim;
  workload::SessionWorkload source(workload::SessionWorkload::Mode::kClosed,
                                   SmallSessionSpec(), 5);
  ScriptedHost host(&sim, &source, 0.05, 1024);
  source.Start(&sim, &host);
  sim.RunUntil(60.0);

  EXPECT_EQ(source.sessions_started(), 12u);
  EXPECT_EQ(source.sessions_completed(), 0u);  // closed sessions never leave
  EXPECT_DOUBLE_EQ(source.active_sessions(), 12.0);
  EXPECT_GT(source.requests_ok(), 12u * 10u);  // all slots kept cycling
  EXPECT_EQ(source.requests_failed(), 0u);
  // Every arrival either completed or is still in flight at the horizon
  // (at most one outstanding request per closed session).
  EXPECT_GE(host.arrivals(), source.requests_ok());
  EXPECT_LE(host.arrivals() - source.requests_ok(), 12u);
  // affinity = 1: every arrival carries a key range.
  EXPECT_EQ(host.affine_arrivals(), host.arrivals());
}

TEST(SessionWorkloadTest, HybridSessionsArriveWorkAndLeave) {
  sim::Simulator sim;
  workload::SessionWorkload source(workload::SessionWorkload::Mode::kHybrid,
                                   SmallSessionSpec(), 5);
  ScriptedHost host(&sim, &source, 0.05, 1024);
  source.Start(&sim, &host);
  sim.RunUntil(120.0);

  EXPECT_GT(source.sessions_started(), 100u);
  EXPECT_GT(source.sessions_completed(), 100u);
  EXPECT_GE(source.sessions_started(), source.sessions_completed());
  // Accounting invariant: active = started - completed.
  EXPECT_DOUBLE_EQ(
      source.active_sessions(),
      static_cast<double>(source.sessions_started() -
                          source.sessions_completed()));
  // Arrivals not yet completed at the horizon stay in flight.
  EXPECT_GE(host.arrivals(), source.requests_ok() + source.requests_failed());
  EXPECT_EQ(source.response_histogram().count(), source.requests_ok());
}

TEST(SessionWorkloadTest, FailedCompletionsEndSessionsToo) {
  // A host that fails every 3rd submission; sessions must still terminate
  // and the started/completed/active books must still balance.
  class FlakyHost : public workload::WorkloadHost {
   public:
    FlakyHost(sim::Simulator* sim, workload::WorkloadSource** source)
        : sim_(sim), source_(source) {}
    void SubmitArrival(const workload::Arrival& arrival) override {
      const int32_t session = arrival.session;
      const bool ok = (++count_ % 3) != 0;
      sim_->Schedule(0.02, [this, session, ok] {
        (*source_)->OnComplete(session, 0.02, ok);
      });
    }
    uint32_t keyspace() const override { return 0; }

   private:
    sim::Simulator* sim_;
    workload::WorkloadSource** source_;
    uint64_t count_ = 0;
  };

  sim::Simulator sim;
  workload::SessionWorkload source(workload::SessionWorkload::Mode::kHybrid,
                                   SmallSessionSpec(), 5);
  workload::WorkloadSource* source_ptr = &source;
  FlakyHost host(&sim, &source_ptr);
  source.Start(&sim, &host);
  sim.RunUntil(60.0);

  EXPECT_GT(source.requests_failed(), 0u);
  EXPECT_DOUBLE_EQ(
      source.active_sessions(),
      static_cast<double>(source.sessions_started() -
                          source.sessions_completed()));
}

TEST(SessionWorkloadTest, ReplaysBitIdenticallyAcrossInstances) {
  auto run = [](uint64_t seed) {
    sim::Simulator sim;
    workload::SessionWorkload source(workload::SessionWorkload::Mode::kHybrid,
                                     SmallSessionSpec(), seed);
    ScriptedHost host(&sim, &source, 0.05, 1024);
    source.Start(&sim, &host);
    sim.RunUntil(90.0);
    std::ostringstream fingerprint;
    fingerprint << source.sessions_started() << '/'
                << source.sessions_completed() << '/' << source.requests_ok()
                << '/' << host.arrivals();
    return fingerprint.str();
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));  // the seed actually reaches the streams
}

TEST(WorkloadRegistryTest, BuildsEveryRegisteredSource) {
  for (const std::string name : {"open", "closed", "hybrid"}) {
    EXPECT_TRUE(workload::WorkloadRegistry::Global().Contains(name)) << name;
    workload::WorkloadSpec spec = SmallSessionSpec();
    spec.source = name;
    workload::WorkloadSourceContext context;
    context.spec = &spec;
    context.arrival_rate = db::Schedule::Constant(10.0);
    context.seed = 3;
    std::string error;
    auto source =
        workload::WorkloadRegistry::Global().Make(name, context, &error);
    EXPECT_NE(source, nullptr) << error;
  }
  std::string error;
  auto source = workload::WorkloadRegistry::Global().Make(
      "no-such-source", workload::WorkloadSourceContext{}, &error);
  EXPECT_EQ(source, nullptr);
  EXPECT_NE(error.find("hybrid"), std::string::npos) << error;
}

// ------------------------------------------------- acceptance properties --

struct CsvArtifacts {
  std::string cluster;
  std::string aggregate;
  uint64_t commits = 0;
};

CsvArtifacts RunAndExport(const core::ExperimentSpec& spec) {
  const core::SpecRunResult result = core::RunSpec(spec);
  EXPECT_TRUE(result.cluster);
  const core::ClusterResult& cluster = result.cluster_result;
  std::vector<std::vector<core::TrajectoryPoint>> trajectories;
  std::vector<core::ClusterNodePlacementInfo> placement_info;
  for (const core::ClusterNodeResult& node : cluster.nodes) {
    trajectories.push_back(node.trajectory);
    placement_info.push_back({node.remote_frac, node.partitions_owned});
  }
  CsvArtifacts artifacts;
  std::ostringstream cluster_csv;
  core::WriteClusterTrajectoryCsv(cluster_csv, trajectories, placement_info,
                                  cluster.membership);
  artifacts.cluster = cluster_csv.str();
  std::ostringstream aggregate_csv;
  core::WriteTrajectoryCsv(aggregate_csv, cluster.aggregate, {});
  artifacts.aggregate = aggregate_csv.str();
  artifacts.commits = cluster.commits;
  return artifacts;
}

TEST(SessionAcceptanceTest, HybridRunsAreBitDeterministic) {
  const core::ExperimentSpec spec = SessionClusterSpec("hybrid");
  const CsvArtifacts first = RunAndExport(spec);
  const CsvArtifacts second = RunAndExport(spec);
  EXPECT_EQ(first.cluster, second.cluster);
  EXPECT_EQ(first.aggregate, second.aggregate);
  EXPECT_EQ(first.commits, second.commits);
  EXPECT_GT(first.commits, 0u);
}

TEST(SessionAcceptanceTest, ClosedRunsAreBitDeterministic) {
  const core::ExperimentSpec spec = SessionClusterSpec("closed");
  const CsvArtifacts first = RunAndExport(spec);
  const CsvArtifacts second = RunAndExport(spec);
  EXPECT_EQ(first.cluster, second.cluster);
  EXPECT_EQ(first.commits, second.commits);
  EXPECT_GT(first.commits, 0u);
}

TEST(SessionAcceptanceTest, PrintedSpecRunsIdentically) {
  const core::ExperimentSpec spec = SessionClusterSpec("hybrid");
  core::ExperimentSpec reparsed;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(core::PrintSpec(spec), &reparsed, &error))
      << error;
  const CsvArtifacts original = RunAndExport(spec);
  const CsvArtifacts round_tripped = RunAndExport(reparsed);
  EXPECT_EQ(original.cluster, round_tripped.cluster);
  EXPECT_EQ(original.commits, round_tripped.commits);
}

TEST(SessionAcceptanceTest, TelemetryTogglesDoNotChangeResults) {
  core::ExperimentSpec off = SessionClusterSpec("hybrid");
  off.trace_path.clear();
  off.decisions_path.clear();

  core::ExperimentSpec on = off;
  const std::string trace_path =
      ::testing::TempDir() + "/workload_telemetry_trace.json";
  const std::string decisions_path =
      ::testing::TempDir() + "/workload_telemetry_decisions.csv";
  on.trace_path = trace_path;
  on.decisions_path = decisions_path;

  const CsvArtifacts off_csv = RunAndExport(off);
  const CsvArtifacts on_csv = RunAndExport(on);
  EXPECT_EQ(off_csv.cluster, on_csv.cluster);
  EXPECT_EQ(off_csv.aggregate, on_csv.aggregate);
  EXPECT_EQ(off_csv.commits, on_csv.commits);

  // The trace actually recorded session lifecycle events.
  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.is_open());
  std::stringstream contents;
  contents << trace.rdbuf();
  EXPECT_NE(contents.str().find("workload.active_sessions"),
            std::string::npos);
  std::remove(trace_path.c_str());
  std::remove(decisions_path.c_str());
}

}  // namespace
}  // namespace alc
