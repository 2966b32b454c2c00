#include "core/optimum.h"

#include <algorithm>
#include <cmath>

#include "core/experiment.h"
#include "util/check.h"

namespace alc::core {

OptimumFinder::OptimumFinder(const ExperimentSpec& base,
                             const OptimumSearchConfig& search)
    : base_(base), search_(search) {
  ALC_CHECK_GT(search.n_hi, search.n_lo);
  ALC_CHECK_GE(search.coarse_points, 3);
}

double OptimumFinder::Evaluate(double fixed_limit, double freeze_time) {
  return StationaryThroughput(base_, fixed_limit, freeze_time,
                              search_.sim_duration, search_.sim_warmup,
                              search_.seed);
}

OptimumResult OptimumFinder::FindAt(double freeze_time) {
  OptimumResult result;
  double lo = search_.n_lo;
  double hi = search_.n_hi;

  double best_n = lo;
  double best_t = -1.0;

  // Coarse grid, then shrink around the best point.
  int points = search_.coarse_points;
  for (int round = 0; round <= search_.refine_rounds; ++round) {
    const double step = (hi - lo) / (points - 1);
    for (int i = 0; i < points; ++i) {
      const double n = lo + step * i;
      // Skip re-evaluating points we already have (within half a step).
      bool known = false;
      for (const auto& [cn, ct] : result.curve) {
        if (std::fabs(cn - n) < step * 0.25) {
          known = true;
          break;
        }
      }
      if (known) continue;
      const double throughput = Evaluate(n, freeze_time);
      result.curve.emplace_back(n, throughput);
      if (throughput > best_t) {
        best_t = throughput;
        best_n = n;
      }
    }
    const double span = (hi - lo) / 2.0;
    lo = std::max(search_.n_lo, best_n - span / 2.0);
    hi = std::min(search_.n_hi, best_n + span / 2.0);
    points = search_.refine_points;
  }

  std::sort(result.curve.begin(), result.curve.end());
  result.n_opt = best_n;
  result.peak_throughput = best_t;
  return result;
}

std::vector<OptimumRegime> OptimumFinder::Timeline(double horizon) {
  std::vector<double> changes = base_.nodes[0].system.dynamics.ChangePoints();
  auto terminal_changes = base_.active_terminals.ChangePoints();
  changes.insert(changes.end(), terminal_changes.begin(),
                 terminal_changes.end());
  std::sort(changes.begin(), changes.end());
  changes.erase(std::unique(changes.begin(), changes.end()), changes.end());

  std::vector<double> starts = {0.0};
  for (double change : changes) {
    if (change > 0.0 && change < horizon) starts.push_back(change);
  }

  std::vector<OptimumRegime> timeline;
  for (double start : starts) {
    // Freeze slightly after the regime start so step schedules have
    // switched.
    OptimumResult optimum = FindAt(start + 1e-6);
    timeline.push_back(
        OptimumRegime{start, optimum.n_opt, optimum.peak_throughput});
  }
  return timeline;
}

}  // namespace alc::core
