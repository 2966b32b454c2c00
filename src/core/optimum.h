#ifndef ALC_CORE_OPTIMUM_H_
#define ALC_CORE_OPTIMUM_H_

#include <utility>
#include <vector>

#include "core/experiment_spec.h"

namespace alc::core {

/// Grid/refinement parameters for the offline true-optimum search.
struct OptimumSearchConfig {
  double n_lo = 10.0;
  double n_hi = 750.0;
  int coarse_points = 13;
  int refine_rounds = 2;
  int refine_points = 5;
  double sim_duration = 90.0;
  double sim_warmup = 20.0;
  uint64_t seed = 1234567;
};

/// Result of one stationary optimum search: the paper's broken "true
/// optimum" line is the timeline of these across workload regimes.
struct OptimumResult {
  double n_opt = 0.0;
  double peak_throughput = 0.0;
  /// The evaluated (n, throughput) curve, sorted by n (the figure-12 data).
  std::vector<std::pair<double, double>> curve;
};

/// Piecewise-constant regime of the true optimum over time.
struct OptimumRegime {
  double start_time = 0.0;
  double n_opt = 0.0;
  double peak_throughput = 0.0;
};

/// Finds the throughput-optimal stationary concurrency level by brute-force
/// sweeps with a fixed admission limit (what the paper's dashed n_opt lines
/// represent). Deliberately offline and expensive: it is ground truth for
/// evaluating the online controllers, not part of them.
class OptimumFinder {
 public:
  /// `base` is a single-node spec.
  OptimumFinder(const ExperimentSpec& base, const OptimumSearchConfig& search);

  /// Optimum with all schedules frozen at `freeze_time`.
  OptimumResult FindAt(double freeze_time);

  /// One regime per step-change of the workload schedules in [0, horizon].
  std::vector<OptimumRegime> Timeline(double horizon);

 private:
  double Evaluate(double fixed_limit, double freeze_time);

  ExperimentSpec base_;
  OptimumSearchConfig search_;
};

}  // namespace alc::core

#endif  // ALC_CORE_OPTIMUM_H_
