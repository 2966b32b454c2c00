// E15 — Section 5.2: the aging coefficient alpha shapes the estimator's
// memory. Small alpha forgets fast (responsive, noisy); alpha ~ 1 remembers
// everything (stable, but stale after a change — fig. 8's failure). Sweep
// alpha and the dither amplitude on the jump workload.
//
// Both ablations are SweepRunner axes over PA params ("pa.forgetting",
// "pa.dither") on one jump-scenario spec.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "control/registry.h"
#include "core/report.h"
#include "util/strformat.h"
#include "util/table.h"

int main() {
  using namespace alc;
  bench::PrintHeader(
      "Section 5.2: PA aging coefficient and excitation dither",
      "choose a small measurement interval and a large alpha; least squares "
      "needs variation in the measurements");

  core::ExperimentSpec base_spec = bench::JumpSpec();
  base_spec.duration = 700.0;
  core::OptimumFinder finder(base_spec, bench::FastSearch());
  const auto timeline = finder.Timeline(700.0);
  const control::PaConfig pa =
      control::PaFromParams(base_spec.nodes[0].control.params);

  core::TrackingOptions options;
  options.skip_initial = 100.0;

  {
    core::SweepRunner runner(
        base_spec, {{"node.control.pa.forgetting",
                     {"0.8", "0.9", "0.95", "0.98", "0.999"}}});
    const std::vector<core::SweepPointResult> results =
        runner.Run(bench::SweepThreads(runner.num_points()));

    util::Table table({"alpha", "mean |n*-opt|", "recovery after jump",
                       "throughput", "capture"});
    for (const core::SweepPointResult& point : results) {
      const core::ExperimentResult& result = point.result.single;
      const core::TrackingStats stats =
          core::EvaluateTracking(result.trajectory, timeline, options);
      const double recovery =
          stats.recovery_times.empty() ? -1.0 : stats.recovery_times[0];
      table.AddRow(
          {util::StrFormat("%.3f",
                           std::atof(point.assignment[0].second.c_str())),
           util::StrFormat("%.1f", stats.mean_abs_error),
           recovery < 0 ? std::string("none")
                        : util::StrFormat("%.0f s", recovery),
           util::StrFormat("%.1f", result.mean_throughput),
           util::StrFormat("%.2f", stats.throughput_capture)});
    }
    std::printf("alpha sweep (dither=%.0f):\n", pa.dither);
    table.Print(std::cout);
  }
  {
    core::SweepRunner runner(
        base_spec,
        {{"node.control.pa.dither", {"0", "5", "15", "30", "60"}}});
    const std::vector<core::SweepPointResult> results =
        runner.Run(bench::SweepThreads(runner.num_points()));

    util::Table table({"dither", "mean |n*-opt|", "throughput", "capture"});
    for (const core::SweepPointResult& point : results) {
      const core::ExperimentResult& result = point.result.single;
      const core::TrackingStats stats =
          core::EvaluateTracking(result.trajectory, timeline, options);
      table.AddRow({util::StrFormat("%.0f",
                                    std::atof(
                                        point.assignment[0].second.c_str())),
                    util::StrFormat("%.1f", stats.mean_abs_error),
                    util::StrFormat("%.1f", result.mean_throughput),
                    util::StrFormat("%.2f", stats.throughput_capture)});
    }
    std::printf("\ndither sweep (alpha=%.2f):\n", pa.forgetting);
    table.Print(std::cout);
  }
  std::printf("\nshape check: alpha~1 never recovers from the jump (stale "
              "memory, fig. 8); zero dither starves the estimator of "
              "excitation; huge dither wastes throughput.\n");
  return 0;
}
