// Pins the CSV artifacts of specs/node_failover.spec to the bytes produced
// before the event-engine rewrite (typed POD event cells + generation-
// stamped cancellation + 4-ary heap, PR 5). The engine swap must change no
// simulation results: same RNG draws, same event order (equal-time FIFO),
// same CSV bytes. The pinned hashes were captured from the pre-refactor
// engine (sha256 of the alc_run exports was verified identical); if this
// test fails, the event engine reordered or perturbed the simulation.
// The single-node pins further down cover the paper's own closed model.

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/export.h"
#include "core/spec.h"
#include "telemetry/audit.h"
#include "telemetry/registry.h"
#include "util/hash.h"
#include "util/params.h"

namespace alc {
namespace {

std::string ClusterCsv(const core::ClusterResult& cluster) {
  // Mirrors tools/alc_run.cc ExportResult so the pinned bytes are exactly
  // what `alc_run specs/node_failover.spec --out ...` writes.
  std::vector<std::vector<core::TrajectoryPoint>> trajectories;
  std::vector<core::ClusterNodePlacementInfo> placement_info;
  for (const core::ClusterNodeResult& node : cluster.nodes) {
    trajectories.push_back(node.trajectory);
    placement_info.push_back({node.remote_frac, node.partitions_owned});
  }
  std::ostringstream csv;
  core::WriteClusterTrajectoryCsv(csv, trajectories, placement_info,
                                  cluster.membership);
  return csv.str();
}

TEST(EngineDeterminismTest, NodeFailoverCsvMatchesPreRefactorBaseline) {
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::LoadSpecFile(
      std::string(ALC_SOURCE_DIR) + "/specs/node_failover.spec", &spec,
      &error))
      << error;
  const core::SpecRunResult result = core::RunSpec(spec);
  ASSERT_TRUE(result.cluster);

  const std::string cluster_csv = ClusterCsv(result.cluster_result);
  std::ostringstream aggregate;
  core::WriteTrajectoryCsv(aggregate, result.cluster_result.aggregate, {});
  const std::string aggregate_csv = aggregate.str();

  // Sizes first: a length diff gives a much better failure message than a
  // hash mismatch.
  //
  // Re-pinned when the telemetry layer appended the response_p50..p999
  // columns: stripping the four new columns from these CSVs reproduces the
  // pre-telemetry bytes exactly (sizes 112237/26555, hashes
  // 17203859782119457895/5637044466475686148), so the simulation itself is
  // unchanged — only the appended columns differ.
  EXPECT_EQ(cluster_csv.size(), 172723u);
  EXPECT_EQ(aggregate_csv.size(), 42585u);
  EXPECT_EQ(util::Fnv1a(cluster_csv), 4532971164558580086ULL);
  EXPECT_EQ(util::Fnv1a(aggregate_csv), 11098696363277174748ULL);
}

// The single-node closed model the paper is about: the monitor's
// per-interval samples (response_p50..p999 included) land in the trajectory
// CSV and the controller's reaction to them in the decision audit. Pinned
// before the monitor's interval percentiles moved from snapshot-subtract
// histograms to a windowed histogram, which must not change a byte. The
// summary string pins the post-warmup arithmetic too: every scalar of the
// result, the cumulative counters, the response and phase histograms and
// the end-of-run metric snapshot (recorded before Experiment and
// ClusterExperiment shared one summary).
struct SingleNodeArtifacts {
  std::string trajectory;
  std::string decisions;
  std::string summary;
};

std::string SummaryString(const core::ExperimentResult& result) {
  std::ostringstream out;
  for (const double value :
       {result.mean_throughput, result.mean_response, result.mean_active,
        result.abort_ratio, result.wasted_cpu_fraction,
        result.throughput_ci_half_width, result.duration, result.warmup}) {
    out << util::FormatDouble(value) << ' ';
  }
  out << result.commits << ' ' << result.aborts << ' ' << result.displacements
      << '\n';
  const db::Counters& c = result.final_counters;
  for (const uint64_t value :
       {c.submitted, c.commits, c.aborts_certification, c.aborts_deadlock,
        c.aborts_displacement, c.lock_waits, c.lock_requests, c.local_accesses,
        c.remote_accesses, c.crash_kills, c.retracted}) {
    out << value << ' ';
  }
  out << util::FormatDouble(c.response_time_sum) << ' '
      << util::FormatDouble(c.useful_cpu) << ' '
      << util::FormatDouble(c.wasted_cpu) << '\n';
  out << result.response_hist.count();
  for (const double q : {0.50, 0.95, 0.99, 0.999}) {
    out << ' ' << util::FormatDouble(result.response_hist.Quantile(q));
  }
  out << '\n';
  for (const telemetry::LogHistogram& hist : result.phase_hists) {
    out << hist.count() << ' ';
  }
  out << '\n';
  telemetry::MetricRegistry::WriteSnapshotJson(out, result.metrics);
  return out.str();
}

SingleNodeArtifacts RunSingleNode(core::ExperimentSpec spec,
                                  const std::string& tag) {
  spec.decisions_path = testing::TempDir() + "/single_" + tag + ".csv";
  const core::SpecRunResult result = core::RunSpec(spec);
  EXPECT_FALSE(result.cluster);
  SingleNodeArtifacts artifacts;
  std::ostringstream trajectory;
  core::WriteTrajectoryCsv(trajectory, result.single.trajectory, {});
  artifacts.trajectory = trajectory.str();
  std::ostringstream decisions;
  telemetry::WriteDecisionsCsv(decisions, result.decisions);
  artifacts.decisions = decisions.str();
  artifacts.summary = SummaryString(result.single);
  std::remove(spec.decisions_path.c_str());
  return artifacts;
}

// perfbench/workloads/single.spec (850 terminals, OCC, Parabola
// Approximation, 1 s interval) cut to a 60 s horizon, under each CPU
// service distribution: exponential (the paper's), deterministic (equal
// bursts complete in FIFO order) and Erlang-2.
TEST(EngineDeterminismTest, SingleNodePaperModelIsPinned) {
  struct DistributionPin {
    const char* distribution;
    size_t trajectory_size;
    size_t decisions_size;
    size_t summary_size;
    uint64_t trajectory_fnv;
    uint64_t decisions_fnv;
    uint64_t summary_fnv;
  };
  const DistributionPin pins[] = {
      {"exponential", 5833u, 12579u, 1632u, 12357016703374745707ULL,
       5445668943523966393ULL, 10587775611454664904ULL},
      {"deterministic", 6303u, 12560u, 1644u, 762845823515524926ULL,
       560609178962191182ULL, 9626114893456739725ULL},
      {"erlang2", 5822u, 12685u, 1641u, 12461154078630986188ULL,
       16897727738654475901ULL, 13283350033684092375ULL},
  };
  for (const DistributionPin& pin : pins) {
    core::ExperimentSpec spec;
    std::string error;
    ASSERT_TRUE(core::LoadSpecFile(
        std::string(ALC_SOURCE_DIR) + "/perfbench/workloads/single.spec",
        &spec, &error))
        << error;
    for (const auto& [key, value] :
         {std::pair{"duration", "60"}, std::pair{"warmup", "10"},
          std::pair{"node.physical.cpu_distribution", pin.distribution}}) {
      ASSERT_TRUE(core::ApplySpecOverride(&spec, key, value, &error)) << error;
    }
    const SingleNodeArtifacts run = RunSingleNode(spec, pin.distribution);
    EXPECT_EQ(run.trajectory.size(), pin.trajectory_size) << pin.distribution;
    EXPECT_EQ(run.decisions.size(), pin.decisions_size) << pin.distribution;
    EXPECT_EQ(run.summary.size(), pin.summary_size) << pin.distribution;
    EXPECT_EQ(util::Fnv1a(run.trajectory), pin.trajectory_fnv)
        << pin.distribution;
    EXPECT_EQ(util::Fnv1a(run.decisions), pin.decisions_fnv)
        << pin.distribution;
    EXPECT_EQ(util::Fnv1a(run.summary), pin.summary_fnv) << pin.distribution;
  }
}

// A 2PL point shaped like the matrix grid's (tests/matrix_test.cc): lock
// waits, deadlock restarts and the named controller under a closed
// population with exponential service, sampled every 0.5 s. `control`
// appends the controller's own `control.*` lines. It runs k = 16 accesses
// per transaction; the grid's nodes run k = 6, which the `k6` pin sets.
core::ExperimentSpec MatrixPointSpec(const std::string& controller,
                                     const std::string& control) {
  const std::string text =
      "[experiment]\n"
      "cluster = false\n"
      "duration = 30\n"
      "warmup = 8\n"
      "active_terminals = constant(80)\n"
      "[node]\n"
      "seed = 1234\n"
      "cc = 2pl\n"
      "physical.num_terminals = 80\n"
      "physical.think_time_mean = 0.25\n"
      "physical.num_cpus = 4\n"
      "physical.cpu_init_mean = 0.001\n"
      "physical.cpu_access_mean = 0.001\n"
      "physical.cpu_commit_mean = 0.001\n"
      "physical.cpu_write_commit_mean = 0.003\n"
      "physical.io_time = 0.006\n"
      "physical.restart_delay_mean = 0.015\n"
      "logical.db_size = 400\n"
      "dynamics.k = constant(16)\n"
      "dynamics.query_fraction = constant(0.3)\n"
      "dynamics.write_fraction = constant(0.4)\n"
      "control.controller = " +
      controller +
      "\n"
      "control.measurement_interval = 0.5\n"
      "control.initial_limit = 15\n" +
      control;
  core::ExperimentSpec spec;
  std::string error;
  EXPECT_TRUE(core::ParseSpec(text, &spec, &error)) << error;
  return spec;
}

TEST(EngineDeterminismTest, TwoPhaseLockingMatrixPointIsPinned) {
  const SingleNodeArtifacts run = RunSingleNode(
      MatrixPointSpec("incremental-steps",
                      "control.is.initial_bound = 15\n"
                      "control.is.min_bound = 2\n"
                      "control.is.max_bound = 90\n"),
      "2pl");

  EXPECT_EQ(run.trajectory.size(), 5703u);
  EXPECT_EQ(run.decisions.size(), 7352u);
  EXPECT_EQ(run.summary.size(), 1651u);
  EXPECT_EQ(util::Fnv1a(run.trajectory), 7096997119426906532ULL);
  EXPECT_EQ(util::Fnv1a(run.decisions), 17103433606639336377ULL);
  EXPECT_EQ(util::Fnv1a(run.summary), 441995924098007467ULL);
}

// The same point under every other built-in controller, with the matrix
// grid's params, so a factory that stops reading one of its keys (or reads
// it into the wrong member) changes bytes. The last five rows cover the
// matrix points no other pin reaches: OCC under incremental steps, 2PL
// under open arrivals, the outer tuner (the only run that retunes the
// monitor interval), and two OCC points for the certifier's write-sequence
// table: a 65-item database (one full 64-item leaf plus a one-item leaf)
// at a high certification-abort rate, and a write-heavy mix.
struct ControllerPin {
  const char* label;
  const char* controller;
  const char* control;
  std::vector<std::pair<std::string, std::string>> overrides;
  size_t trajectory_size;
  size_t decisions_size;
  size_t summary_size;
  uint64_t trajectory_fnv;
  uint64_t decisions_fnv;
  uint64_t summary_fnv;
};

TEST(EngineDeterminismTest, EveryBuiltinControllerMatrixPointIsPinned) {
  const char* const is_bounds =
      "control.is.initial_bound = 15\n"
      "control.is.min_bound = 2\n"
      "control.is.max_bound = 90\n";
  const ControllerPin pins[] = {
      {"none", "none", "", {}, 5486u, 5245u, 1640u, 4897731437803407095ULL,
       8148431433808035224ULL, 1318541583358326993ULL},
      {"fixed", "fixed", "control.fixed.limit = 20\n", {}, 5570u, 4632u, 1640u,
       12044019594535437303ULL, 17890835852754853332ULL,
       6966727782816627045ULL},
      {"tay-rule", "tay-rule", "control.tay.threshold = 1.2\n", {}, 5371u,
       5095u, 1675u, 9235359394868756751ULL, 12148148160781119171ULL,
       15697657252866010955ULL},
      {"iyer-rule", "iyer-rule",
       "control.iyer.initial_bound = 15\n"
       "control.iyer.min_bound = 2\n"
       "control.iyer.max_bound = 90\n",
       {}, 6081u, 8557u, 1663u, 1530494219137107962ULL, 9138576639138114376ULL,
       18040123560496664899ULL},
      {"golden-section", "golden-section",
       "control.gs.min_bound = 2\n"
       "control.gs.max_bound = 90\n"
       "control.gs.min_bracket = 10\n",
       {}, 5984u, 11792u, 1658u, 12730268363739663651ULL, 413458578072848823ULL,
       476857401834775567ULL},
      {"occ", "incremental-steps", is_bounds, {{"node.cc", "occ"}}, 5228u,
       7330u, 1590u, 14748917651044137913ULL, 11000727571976466224ULL,
       16153921994520240942ULL},
      {"open", "incremental-steps", is_bounds,
       {{"node.arrivals", "open"}, {"node.open_arrival_rate", "150"}}, 5775u,
       7422u, 1675u, 16266628045826120797ULL, 4217092690949874890ULL,
       2219240115786747791ULL},
      {"tuner", "incremental-steps", is_bounds,
       {{"node.control.outer_tuner", "true"}}, 2448u, 3210u, 1640u,
       10888849906484777224ULL, 6316982762400601115ULL,
       6255351545697690647ULL},
      {"occ_db65", "incremental-steps", is_bounds,
       {{"node.cc", "occ"}, {"node.logical.db_size", "65"}}, 5355u, 7137u,
       1552u, 10765270862243787102ULL, 10112377050704714786ULL,
       3241516528167402127ULL},
      {"occ_write_heavy", "incremental-steps", is_bounds,
       {{"node.cc", "occ"},
        {"node.dynamics.write_fraction", "constant(0.9)"}},
       5284u, 7094u, 1581u, 917515582585811348ULL, 7464584236213675894ULL,
       13380561921851605634ULL},
      // The matrix grid's own k.
      {"k6", "incremental-steps", is_bounds,
       {{"node.dynamics.k", "constant(6)"}}, 5750u, 7073u, 1750u,
       16563541926337403479ULL, 7671877839606899425ULL,
       18086775667525398089ULL},
  };
  for (const ControllerPin& pin : pins) {
    core::ExperimentSpec spec = MatrixPointSpec(pin.controller, pin.control);
    std::string error;
    for (const auto& [key, value] : pin.overrides) {
      ASSERT_TRUE(core::ApplySpecOverride(&spec, key, value, &error)) << error;
    }
    ASSERT_TRUE(core::ValidateSpec(spec, &error)) << error;
    const SingleNodeArtifacts run = RunSingleNode(spec, pin.label);
    EXPECT_EQ(run.trajectory.size(), pin.trajectory_size) << pin.label;
    EXPECT_EQ(run.decisions.size(), pin.decisions_size) << pin.label;
    EXPECT_EQ(run.summary.size(), pin.summary_size) << pin.label;
    EXPECT_EQ(util::Fnv1a(run.trajectory), pin.trajectory_fnv) << pin.label;
    EXPECT_EQ(util::Fnv1a(run.decisions), pin.decisions_fnv) << pin.label;
    EXPECT_EQ(util::Fnv1a(run.summary), pin.summary_fnv) << pin.label;
  }
}

// Cluster specs cut short under the param-reading routing policies and
// autoscaler no other pin or golden selects. Each override list sets
// non-default params, so the factories' reads are pinned too.
struct ClusterPin {
  const char* spec;
  std::vector<std::pair<std::string, std::string>> overrides;
  size_t cluster_size;
  size_t decisions_size;
  uint64_t cluster_fnv;
  uint64_t decisions_fnv;
};

TEST(EngineDeterminismTest, ParamReadingClusterPoliciesArePinned) {
  const ClusterPin pins[] = {
      {"specs/cluster_routing_flash.spec",
       {{"routing", "threshold"},
        {"routing.threshold.initial_threshold", "6"},
        {"routing.threshold.min_threshold", "2"},
        {"routing.threshold.max_threshold", "40"}},
       60198u, 104394u, 18195109175676466754ULL, 14882910925442078412ULL},
      {"specs/cluster_routing_flash.spec",
       {{"routing", "power-of-d"}, {"routing.power-of-d.d", "3"}},
       60554u, 104702u, 11240280899149023134ULL, 11997886075992170381ULL},
      {"specs/elasticity_flash.spec",
       {{"elasticity.scaler", "pi"},
        {"elasticity.scaler.pi.target_queue_factor", "0.8"},
        {"elasticity.scaler.pi.kp", "1.5"},
        {"elasticity.scaler.pi.ki", "0.3"},
        {"elasticity.scaler.pi.integral_clamp", "4"},
        {"elasticity.scaler.pi.cooldown", "4"}},
       77024u, 128537u, 10466753290016564686ULL, 10573579173730174440ULL},
  };
  for (const ClusterPin& pin : pins) {
    const std::string label = pin.spec + (" " + pin.overrides[0].second);
    core::ExperimentSpec spec;
    std::string error;
    ASSERT_TRUE(core::LoadSpecFile(
        std::string(ALC_SOURCE_DIR) + "/" + pin.spec, &spec, &error))
        << error;
    ASSERT_TRUE(core::ApplySpecOverride(&spec, "duration", "70", &error))
        << error;
    ASSERT_TRUE(core::ApplySpecOverride(&spec, "warmup", "10", &error))
        << error;
    for (const auto& [key, value] : pin.overrides) {
      ASSERT_TRUE(core::ApplySpecOverride(&spec, key, value, &error)) << error;
    }
    spec.decisions_path =
        testing::TempDir() + "/cluster_" + pin.overrides[0].second + ".csv";
    const core::SpecRunResult result = core::RunSpec(spec);
    std::remove(spec.decisions_path.c_str());
    ASSERT_TRUE(result.cluster) << label;
    const std::string cluster_csv = ClusterCsv(result.cluster_result);
    std::ostringstream decisions;
    telemetry::WriteDecisionsCsv(decisions, result.decisions);

    EXPECT_EQ(cluster_csv.size(), pin.cluster_size) << label;
    EXPECT_EQ(decisions.str().size(), pin.decisions_size) << label;
    EXPECT_EQ(util::Fnv1a(cluster_csv), pin.cluster_fnv) << label;
    EXPECT_EQ(util::Fnv1a(decisions.str()), pin.decisions_fnv) << label;
  }
}

// The cluster front door under crashes, retraction, retry and the
// degradation ladder, placed and placement-blind: fresh arrivals, shed
// arrivals, retraction re-routes, deferred retries, dead letters and crash
// replays each reach the routing policy through their own path. Recorded
// before those paths were folded into one dispatch function.
struct FrontDoorPin {
  const char* spec;
  bool retraction;
  bool retry;  // retry.enabled, on top of retraction
  size_t cluster_size;
  uint64_t cluster_fnv;
  uint64_t routed;
  uint64_t retries;
  uint64_t dead_letters;
  uint64_t shed_query;
  uint64_t shed_update;
  uint64_t crash_kills;
  uint64_t retracted;
  uint64_t lost;
};

TEST(EngineDeterminismTest, FrontDoorPathsArePinned) {
  const std::vector<std::pair<std::string, std::string>> failover = {
      {"duration", "90"}, {"degrade.enabled", "true"}};
  const std::vector<std::pair<std::string, std::string>> smoke = {
      {"node0.availability", "avail(up; 15:down, 25:up)"},
      {"arrival_rate", "steps(600; 12:1400, 30:600)"},
      {"retraction_queue_factor", "3"},
      {"degrade.enabled", "true"}};
  // Columns after the mode: cluster.csv size and FNV, then routed,
  // retries, dead letters, shed queries, shed updates, and the crash
  // kills, retractions and losses summed over nodes.
  const FrontDoorPin pins[] = {
      {"specs/node_failover.spec", false, false, 74995u, 205153803120104287ULL,
       31658, 0, 0, 5223, 9368, 36, 0, 78},
      {"specs/node_failover.spec", true, false, 74931u, 6839672763077770259ULL,
       31737, 0, 0, 5223, 9367, 36, 42, 0},
      {"specs/node_failover.spec", true, true, 74931u, 10440283742083627236ULL,
       31737, 78, 0, 5223, 9367, 36, 42, 0},
      {"specs/smoke.spec", false, false, 27394u, 3036553932845778151ULL, 15139,
       0, 0, 15380, 7888, 36, 0, 586},
      {"specs/smoke.spec", true, false, 30325u, 4223231672182450674ULL, 25798,
       0, 0, 17262, 11305, 59, 15899, 0},
      {"specs/smoke.spec", true, true, 26847u, 6631751338803251017ULL, 110063,
       75362, 21303, 3706, 0, 72, 76270, 21303},
  };
  for (const FrontDoorPin& pin : pins) {
    const std::string label = std::string(pin.spec) +
                              (pin.retry        ? " retry"
                               : pin.retraction ? " retraction"
                                                : " bare");
    core::ExperimentSpec spec;
    std::string error;
    ASSERT_TRUE(core::LoadSpecFile(
        std::string(ALC_SOURCE_DIR) + "/" + pin.spec, &spec, &error))
        << error;
    const bool is_smoke = std::string(pin.spec) == "specs/smoke.spec";
    for (const auto& [key, value] : is_smoke ? smoke : failover) {
      ASSERT_TRUE(core::ApplySpecOverride(&spec, key, value, &error)) << error;
    }
    ASSERT_TRUE(core::ApplySpecOverride(
        &spec, "retraction", pin.retraction ? "true" : "false", &error))
        << error;
    if (pin.retry) {
      ASSERT_TRUE(
          core::ApplySpecOverride(&spec, "retry.enabled", "true", &error))
          << error;
    }
    const core::SpecRunResult result = core::RunSpec(spec);
    ASSERT_TRUE(result.cluster) << label;
    const core::ClusterResult& cluster = result.cluster_result;
    const std::string cluster_csv = ClusterCsv(cluster);

    EXPECT_EQ(cluster_csv.size(), pin.cluster_size) << label;
    EXPECT_EQ(util::Fnv1a(cluster_csv), pin.cluster_fnv) << label;
    EXPECT_EQ(cluster.routed, pin.routed) << label;
    EXPECT_EQ(cluster.retries, pin.retries) << label;
    EXPECT_EQ(cluster.dead_letters, pin.dead_letters) << label;
    EXPECT_EQ(cluster.shed_query, pin.shed_query) << label;
    EXPECT_EQ(cluster.shed_update, pin.shed_update) << label;
    EXPECT_EQ(cluster.crash_kills, pin.crash_kills) << label;
    EXPECT_EQ(cluster.retracted, pin.retracted) << label;
    EXPECT_EQ(cluster.lost, pin.lost) << label;
  }
}

// specs/diurnal_1m.spec cut to its first 64 nodes over a 2 s horizon
// (1 s warmup): the fleet's metric registry snapshot (every name, in
// order, and every value) and the post-warmup histograms, per node and
// merged. Pins what the registry's duplicate check and the histograms'
// occupied-range bookkeeping must leave unchanged; recorded at the parent
// of that change with the same test code.
TEST(EngineDeterminismTest, FleetRegistrySnapshotIsPinned) {
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::LoadSpecFile(
      std::string(ALC_SOURCE_DIR) + "/specs/diurnal_1m.spec", &spec, &error))
      << error;
  spec.nodes.resize(64);
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "warmup", "1", &error)) << error;
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "duration", "2", &error))
      << error;
  const core::SpecRunResult result = core::RunSpec(spec);
  ASSERT_TRUE(result.cluster);

  std::string names;
  for (const telemetry::MetricSample& sample : result.metrics()) {
    names += sample.name;
    names += '\n';
  }
  std::ostringstream json;
  telemetry::MetricRegistry::WriteSnapshotJson(json, result.metrics());
  std::ostringstream hists;
  auto write = [&hists](const telemetry::LogHistogram& hist) {
    hists << hist.count() << ' ' << util::FormatDouble(hist.sum());
    for (const double q : {0.0, 0.50, 0.99, 0.999, 1.0}) {
      hists << ' ' << util::FormatDouble(hist.Quantile(q));
    }
    hists << '\n';
  };
  write(result.response_hist());
  for (const telemetry::LogHistogram& hist : result.phase_hists()) write(hist);
  for (const core::ClusterNodeResult& node : result.cluster_result.nodes) {
    hists << util::FormatDouble(node.response_p50) << ' '
          << util::FormatDouble(node.response_p99) << '\n';
  }

  EXPECT_EQ(result.metrics().size(), 1552u);
  EXPECT_EQ(util::Fnv1a(names), 12981503135669039763ULL);
  EXPECT_EQ(json.str().size(), 92832u);
  EXPECT_EQ(util::Fnv1a(json.str()), 12120880001051621154ULL);
  EXPECT_EQ(util::Fnv1a(hists.str()), 11528290918093518602ULL)
      << hists.str().substr(0, 400);
}

}  // namespace
}  // namespace alc
