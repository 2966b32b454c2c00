// E3 — Figure 3: "Example trajectory of the Method of Incremental Steps".
// Under a stationary workload, IS tracks the ridge in zig-zag fashion: the
// bound oscillates around the optimum, reversing whenever performance gets
// worse.

#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "core/report.h"

int main() {
  using namespace alc;
  bench::PrintHeader("Figure 3: zig-zag trajectory of Incremental Steps",
                     "IS climbs from a cold start and oscillates about the "
                     "ridge of the throughput mountain");

  core::ExperimentSpec spec = bench::PaperSpec();
  spec.nodes[0].control.controller = "incremental-steps";
  // Cold start well below n_opt.
  spec.nodes[0].control.params.SetDouble("is.initial_bound", 30.0);
  spec.duration = 300.0;

  core::OptimumFinder finder(spec, bench::FastSearch());
  const core::OptimumResult optimum = finder.FindAt(0.0);
  std::printf("true optimum (offline): n_opt=%.0f, peak=%.1f/s\n\n",
              optimum.n_opt, optimum.peak_throughput);

  const core::ExperimentResult result = core::Experiment(spec).Run();
  const std::vector<core::OptimumRegime> timeline = {
      {0.0, optimum.n_opt, optimum.peak_throughput}};
  core::PrintTrajectory(std::cout, result.trajectory, timeline, 10);

  // Quantify the zig-zag: direction reversals of the bound series.
  int reversals = 0;
  double prev_delta = 0.0;
  for (size_t i = 1; i < result.trajectory.size(); ++i) {
    const double delta =
        result.trajectory[i].bound - result.trajectory[i - 1].bound;
    if (delta * prev_delta < 0.0) ++reversals;
    if (delta != 0.0) prev_delta = delta;
  }
  std::printf("\nzig-zag: %d direction reversals over %zu intervals\n",
              reversals, result.trajectory.size());
  std::printf("%s\n", core::SummaryLine("incremental-steps", result).c_str());
  return 0;
}
