#ifndef ALC_BENCH_COMMON_H_
#define ALC_BENCH_COMMON_H_

// Shared scenario definitions for the figure-reproduction benches. All
// benches run the same calibrated paper-scale system (see db/config.h and
// DESIGN.md "Reconstructions / substitutions") so their numbers are
// comparable with each other.

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <thread>
#include <utility>

#include "core/experiment.h"
#include "core/optimum.h"
#include "core/report.h"
#include "core/sweep.h"

namespace alc::bench {

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
