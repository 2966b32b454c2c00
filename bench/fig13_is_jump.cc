// E8 — Figure 13: "Trajectory of the Incremental Steps when the position of
// the optimum changes abruptly". The broken line is the true optimum n_opt
// (computed offline by stationary sweeps per regime); the solid line is the
// controller's threshold n*.

#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "core/report.h"
#include "util/strformat.h"

int main() {
  using namespace alc;
  bench::PrintHeader(
      "Figure 13: Incremental Steps trajectory under abrupt optimum jumps",
      "IS reacts quickly but adjusts to the new situation with difficulty");

  core::ExperimentSpec spec = bench::JumpSpec();
  spec.nodes[0].control.controller = "incremental-steps";

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
  std::printf("summary: %s\n",
              core::SummaryLine("incremental-steps", result).c_str());
  return 0;
}
