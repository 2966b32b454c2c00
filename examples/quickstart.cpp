// Quickstart: build the simulated transaction processing system, attach the
// Parabola Approximation load controller, run five simulated minutes, and
// print what the controller did.
//
//   $ ./build/examples/quickstart

#include <cstdio>
#include <iostream>

#include "core/experiment.h"
#include "core/report.h"

int main() {
  using namespace alc;

  // 1. Describe the experiment: one node. A default NodeSpec is the
  //    calibrated paper-scale system: 850 terminals, 16 CPUs, 16k-granule
  //    database, optimistic concurrency control.
  core::ExperimentSpec spec;
  core::NodeSpec& node = spec.nodes.emplace_back();
  spec.duration = 300.0;  // simulated seconds
  spec.warmup = 60.0;     // excluded from the summary statistics

  // 2. Pick the load-control policy: the adaptive Parabola Approximation.
  node.control.controller = "parabola-approximation";
  node.control.measurement_interval = 1.0;
  node.control.initial_limit = 50.0;  // cold start far from the optimum

  // 3. Run. Everything is deterministic given node.system.seed.
  core::Experiment experiment(spec);
  const core::ExperimentResult result = experiment.Run();

  // 4. Inspect.
  std::printf("%s\n\n", core::SummaryLine("parabola-approximation", result).c_str());
  std::printf("last 10 control intervals:\n");
  std::printf("%8s %10s %10s %12s\n", "time", "bound n*", "load n",
              "throughput");
  const size_t start =
      result.trajectory.size() > 10 ? result.trajectory.size() - 10 : 0;
  for (size_t i = start; i < result.trajectory.size(); ++i) {
    const core::TrajectoryPoint& point = result.trajectory[i];
    std::printf("%8.0f %10.1f %10.1f %12.1f\n", point.time, point.bound,
                point.load, point.throughput);
  }
  std::printf(
      "\nThe controller found the knee of the throughput curve on its own —\n"
      "no model of the system, just measured (load, throughput) pairs.\n");
  return 0;
}
