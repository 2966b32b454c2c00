// E16 — Section 4.3: admission control alone vs admission + displacement.
// After the optimum jumps *down*, displacement enforces the lower bound
// immediately by aborting active transactions; admission-only waits for
// departures. The paper found admission alone responsive enough and
// smoother — displacement wastes the aborted work.

#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "core/report.h"
#include "util/strformat.h"
#include "util/table.h"

int main() {
  using namespace alc;
  bench::PrintHeader(
      "Section 4.3: admission control only vs displacement",
      "displacement enforces lowered bounds instantly but aborts always "
      "waste resources; admission alone was responsive enough");

  // Downward jump: query-heavy (high optimum) -> update-heavy (low).
  core::ExperimentSpec base = bench::PaperSpec();
  base.duration = 700.0;
  base.warmup = 50.0;
  base.nodes[0].system.dynamics.query_fraction =
      db::Schedule::Steps(0.85, {{350.0, 0.30}});

  core::OptimumFinder finder(base, bench::FastSearch());
  const auto timeline = finder.Timeline(700.0);
  std::printf("optimum: n_opt=%.0f -> %.0f at t=350\n\n", timeline[0].n_opt,
              timeline[1].n_opt);

  util::Table table({"mode", "throughput", "mean |n*-opt|",
                     "load excess after drop (30s)", "displaced txns",
                     "wasted CPU"});
  for (bool displacement : {false, true}) {
    core::ExperimentSpec spec = base;
    spec.nodes[0].control.controller = "parabola-approximation";
    spec.nodes[0].control.displacement = displacement;
    const core::ExperimentResult result = core::Experiment(spec).Run();
    core::TrackingOptions options;
    options.skip_initial = 100.0;
    const core::TrackingStats stats =
        core::EvaluateTracking(result.trajectory, timeline, options);

    // How far the *measured load* overhangs the bound right after the drop.
    double excess = 0.0;
    int excess_n = 0;
    for (const core::TrajectoryPoint& point : result.trajectory) {
      if (point.time >= 350.0 && point.time <= 380.0) {
        excess += std::max(0.0, point.load - point.bound);
        ++excess_n;
      }
    }
    table.AddRow(
        {displacement ? "admission + displacement" : "admission only",
         util::StrFormat("%.1f", result.mean_throughput),
         util::StrFormat("%.1f", stats.mean_abs_error),
         util::StrFormat("%.1f", excess_n ? excess / excess_n : 0.0),
         util::StrFormat("%llu",
                         static_cast<unsigned long long>(result.displacements)),
         util::StrFormat("%.3f", result.wasted_cpu_fraction)});
  }
  table.Print(std::cout);
  std::printf("\nshape check: displacement trims the post-drop load excess "
              "faster but pays for it in wasted CPU; overall throughput "
              "stays comparable (the paper's rationale for admission-only).\n");
  return 0;
}
