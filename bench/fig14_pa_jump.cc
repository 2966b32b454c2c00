// E9 — Figure 14: "Trajectory of the Parabola Approach when the position of
// the optimum changes abruptly". PA responds a little more slowly than IS
// but tracks the optimum more accurately and reliably; the visible
// oscillations of n* are the excitation the algorithm enforces (section
// 4.2/5.2).

#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "core/report.h"
#include "util/strformat.h"

int main() {
  using namespace alc;
  bench::PrintHeader(
      "Figure 14: Parabola Approximation trajectory under abrupt jumps",
      "PA responds slower than IS but tracks more accurately and reliably");

  core::ExperimentSpec spec = bench::JumpSpec();
  spec.nodes[0].control.controller = "parabola-approximation";

  std::printf("computing true optimum per regime (offline sweeps)...\n");
  core::OptimumFinder finder(spec, bench::FastSearch());
  const auto timeline = finder.Timeline(spec.duration);
  for (const core::OptimumRegime& regime : timeline) {
    std::printf("  regime from t=%4.0f: n_opt=%4.0f peak=%7.1f/s\n",
                regime.start_time, regime.n_opt, regime.peak_throughput);
  }

  const core::ExperimentResult result = core::Experiment(spec).Run();
  std::printf("\ntrajectory (every 25th interval):\n");
  core::PrintTrajectory(std::cout, result.trajectory, timeline, 25);

  core::TrackingOptions options;
  options.skip_initial = 100.0;
  const core::TrackingStats stats =
      core::EvaluateTracking(result.trajectory, timeline, options);
  std::printf("\ntracking: mean |n*-n_opt| = %.1f (%.0f%% relative), "
              "throughput within 15%% of peak %.0f%% of the time\n",
              stats.mean_abs_error, 100.0 * stats.mean_rel_error,
              100.0 * stats.throughput_capture);
  for (size_t i = 0; i < stats.recovery_times.size(); ++i) {
    std::printf("  recovery after jump %zu: %s\n", i + 1,
                stats.recovery_times[i] < 0.0
                    ? "did not settle within the regime"
                    : util::StrFormat("%.0f s", stats.recovery_times[i])
                          .c_str());
  }

  // Head-to-head with IS on the identical workload (the paper's central
  // comparison: "PA outperformed IS in all cases examined").
  core::ExperimentSpec is_spec = bench::JumpSpec();
  is_spec.nodes[0].control.controller = "incremental-steps";
  const core::ExperimentResult is_result = core::Experiment(is_spec).Run();
  const core::TrackingStats is_stats =
      core::EvaluateTracking(is_result.trajectory, timeline, options);
  std::printf("\nhead-to-head on the identical workload:\n");
  std::printf("  %s\n", core::SummaryLine("parabola-approximation", result).c_str());
  std::printf("  %s\n",
              core::SummaryLine("incremental-steps", is_result).c_str());
  std::printf("  tracking error: PA %.1f vs IS %.1f (mean |n*-n_opt|)\n",
              stats.mean_abs_error, is_stats.mean_abs_error);
  return 0;
}
