// Export the figure-13/14 experiment as CSV files for external plotting
// (gnuplot, matplotlib, ...). Writes into the current directory:
//
//   fig13_is_trajectory.csv   (time,bound,load,throughput,...,n_opt)
//   fig14_pa_trajectory.csv
//   fig12_curve.csv           (n,throughput — the uncontrolled sweep)
//
//   $ ./build/examples/export_figures
//   $ gnuplot -e "plot 'f.csv' using 1:2 with lines, '' using 1:9 with steps"
//     (with f.csv = fig14_pa_trajectory.csv; column 9 is the n_opt overlay)

#include <cstdio>

#include "core/experiment.h"
#include "core/export.h"
#include "core/optimum.h"

int main() {
  using namespace alc;

  // The jump scenario of figures 13/14: the optimum's position moves
  // abruptly at t=333 and t=666 via a query-fraction jump.
  core::ExperimentSpec spec;
  spec.duration = 1000.0;
  spec.warmup = 50.0;
  spec.nodes.emplace_back().system.dynamics.query_fraction =
      db::Schedule::Steps(0.30, {{333.0, 0.85}, {666.0, 0.30}});

  std::printf("computing the true-optimum timeline (offline sweeps)...\n");
  core::OptimumSearchConfig search;
  search.coarse_points = 9;
  search.refine_rounds = 1;
  search.sim_duration = 60.0;
  search.sim_warmup = 15.0;
  core::OptimumFinder finder(spec, search);
  const auto timeline = finder.Timeline(spec.duration);

  for (const char* controller :
       {"incremental-steps", "parabola-approximation"}) {
    core::ExperimentSpec run = spec;
    run.nodes[0].control.controller = controller;
    const core::ExperimentResult result = core::Experiment(run).Run();
    const char* path = std::string_view(controller) == "incremental-steps"
                           ? "fig13_is_trajectory.csv"
                           : "fig14_pa_trajectory.csv";
    if (core::ExportTrajectory(path, result.trajectory, timeline)) {
      std::printf("wrote %s (%zu rows, throughput %.1f/s +- %.1f)\n", path,
                  result.trajectory.size(), result.mean_throughput,
                  result.throughput_ci_half_width);
    } else {
      std::printf("FAILED to write %s\n", path);
      return 1;
    }
  }

  // The uncontrolled stationary curve (figure 12 backdrop).
  const core::OptimumResult stationary = finder.FindAt(0.0);
  if (core::ExportCurve("fig12_curve.csv", stationary.curve)) {
    std::printf("wrote fig12_curve.csv (%zu points, peak %.1f at n=%.0f)\n",
                stationary.curve.size(), stationary.peak_throughput,
                stationary.n_opt);
  }
  return 0;
}
