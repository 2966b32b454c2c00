#ifndef ALC_BENCH_COMMON_H_
#define ALC_BENCH_COMMON_H_

// Shared scenario definitions for the figure-reproduction benches. All
// benches run the same calibrated paper-scale system (see db/config.h and
// DESIGN.md "Reconstructions / substitutions") so their numbers are
// comparable with each other.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <thread>
#include <utility>

#include "core/cluster_experiment.h"
#include "core/experiment.h"
#include "core/optimum.h"
#include "core/report.h"
#include "core/spec.h"
#include "core/sweep.h"

namespace alc::bench {

/// Directory for bench artifacts (decision CSVs, traces): `--out DIR` if
/// given, else ./bench_out — never the bare working directory, so repeated
/// bench runs stop littering the repository root. Created on first use.
inline std::string OutputDir(int argc, char** argv) {
  std::string dir = "bench_out";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--out") dir = argv[i + 1];
  }
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  return dir;
}

/// Sets each numeric controller param of `node` ("pa.dither", ...).
inline void SetParams(
    core::NodeSpec* node,
    std::initializer_list<std::pair<const char*, double>> params) {
  for (const auto& [key, value] : params) {
    node->control.params.SetDouble(key, value);
  }
}

/// The canonical stationary scenario as a single-node spec: defaults of
/// db/config.h, admission bound range 5..750 (the paper's figure axes),
/// measurement interval 1 s (a few hundred departures per interval, paper
/// section 5). The controller params are set by key, so sweep overrides
/// ("node.control.controller", "node.control.pa.forgetting", ...) compose
/// with them.
inline core::ExperimentSpec PaperSpec(uint64_t seed = 42) {
  core::ExperimentSpec spec;
  spec.seed = seed;
  spec.duration = 300.0;
  spec.warmup = 60.0;
  core::NodeSpec& node = spec.nodes.emplace_back();
  node.system.seed = seed;
  node.control.measurement_interval = 1.0;
  node.control.initial_limit = 50.0;
  SetParams(&node, {{"is.initial_bound", 50.0}, {"is.min_bound", 5.0},
                    {"is.max_bound", 750.0},    {"is.beta", 1.0},
                    {"is.gamma", 10.0},         {"is.delta", 25.0},
                    {"pa.initial_bound", 50.0}, {"pa.min_bound", 5.0},
                    {"pa.max_bound", 750.0},    {"pa.forgetting", 0.95},
                    {"pa.dither", 15.0},        {"iyer.initial_bound", 50.0},
                    {"iyer.min_bound", 5.0},    {"iyer.max_bound", 750.0},
                    {"iyer.gain", 60.0}});
  return spec;
}

/// The figures-13/14 dynamic scenario: the optimum's position jumps
/// abruptly at t=333 and back at t=666 (query-fraction jump 0.3 -> 0.85,
/// which moves n_opt from ~195 to ~330 and roughly doubles the peak).
inline core::ExperimentSpec JumpSpec(uint64_t seed = 42) {
  core::ExperimentSpec spec = PaperSpec(seed);
  spec.duration = 1000.0;
  spec.warmup = 50.0;
  spec.nodes[0].system.dynamics.query_fraction =
      db::Schedule::Steps(0.30, {{333.0, 0.85}, {666.0, 0.30}});
  return spec;
}

/// Search settings that keep the offline true-optimum sweeps affordable.
inline core::OptimumSearchConfig FastSearch() {
  core::OptimumSearchConfig search;
  search.n_lo = 10.0;
  search.n_hi = 750.0;
  search.coarse_points = 9;
  search.refine_rounds = 1;
  search.refine_points = 5;
  search.sim_duration = 60.0;
  search.sim_warmup = 15.0;
  return search;
}

/// The checked-in spec `specs/<file>`; aborts with the parse error.
inline core::ExperimentSpec LoadBenchSpec(const std::string& file) {
  core::ExperimentSpec spec;
  std::string error;
  if (!core::LoadSpecFile(std::string(ALC_SOURCE_DIR) + "/specs/" + file,
                          &spec, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::abort();
  }
  return spec;
}

/// ApplySpecOverride that aborts with the error.
inline void Override(core::ExperimentSpec* spec, const std::string& key,
                     const std::string& value) {
  std::string error;
  if (!core::ApplySpecOverride(spec, key, value, &error)) {
    std::fprintf(stderr, "override %s: %s\n", key.c_str(), error.c_str());
    std::abort();
  }
}

/// Mean aggregate throughput over the monitor ticks in (start, end].
inline double SurgeThroughput(const core::ClusterResult& result, double start,
                              double end) {
  double sum = 0.0;
  int count = 0;
  for (const core::TrajectoryPoint& point : result.aggregate) {
    if (point.time <= start || point.time > end) continue;
    sum += point.throughput;
    ++count;
  }
  return count > 0 ? sum / count : 0.0;
}

/// The downscaled node of the fleet benches (4 CPUs, 600-granule DB,
/// 0.5 s measurement interval): ~150 commits/s at a thrashing knee near
/// n=25 (~19 ms CPU demand per transaction), the paper-scale thrashing
/// shape at a size that keeps multi-node sweeps affordable. IS and PA
/// start at 20 within [2, 200]; a fixed gate holds 25.
inline core::NodeSpec SmallNode() {
  core::NodeSpec node;
  db::PhysicalConfig& physical = node.system.physical;
  physical.num_cpus = 4;
  physical.cpu_init_mean = 0.001;
  physical.cpu_access_mean = 0.001;
  physical.cpu_commit_mean = 0.001;
  physical.cpu_write_commit_mean = 0.004;
  physical.io_time = 0.008;
  physical.restart_delay_mean = 0.02;
  node.system.logical.db_size = 600;
  node.system.dynamics.k = db::Schedule::Constant(8);
  node.system.dynamics.query_fraction = db::Schedule::Constant(0.3);
  node.system.dynamics.write_fraction = db::Schedule::Constant(0.4);
  node.control.measurement_interval = 0.5;
  node.control.initial_limit = 20.0;
  SetParams(&node, {{"is.initial_bound", 20.0}, {"is.min_bound", 2.0},
                    {"is.max_bound", 200.0},    {"pa.initial_bound", 20.0},
                    {"pa.min_bound", 2.0},      {"pa.max_bound", 200.0},
                    {"pa.dither", 5.0},         {"fixed.limit", 25.0}});
  return node;
}

/// A cluster spec of `num_nodes` copies of `node`, seeded through the
/// "seed" override so every node gets its own decorrelated stream.
inline core::ExperimentSpec Fleet(int num_nodes, const core::NodeSpec& node,
                                  uint64_t seed) {
  core::ExperimentSpec spec;
  spec.cluster = true;
  spec.nodes.assign(static_cast<size_t>(num_nodes), node);
  Override(&spec, "seed", std::to_string(seed));
  return spec;
}

/// Thread count for sweeping `points` grid points: all cores, capped at
/// the grid size. Per-point runs are bit-deterministic regardless.
inline int SweepThreads(int points) {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(points, cores));
}

inline void PrintHeader(const char* figure, const char* claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", figure);
  std::printf("Paper: Heiss & Wagner, VLDB 1991, pp. 47-54\n");
  std::printf("Claim: %s\n", claim);
  std::printf("================================================================\n");
}

}  // namespace alc::bench

#endif  // ALC_BENCH_COMMON_H_
