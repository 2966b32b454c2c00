// Flash crowd: the offered population triples in an instant (think a ticket
// sale opening). Without load control the system is pushed deep into
// thrashing; with the adaptive gate the surplus waits in the admission
// queue and committed throughput stays at the peak.
//
//   $ ./build/examples/flash_crowd

#include <cstdio>
#include <iostream>

#include "core/experiment.h"
#include "core/report.h"
#include "util/strformat.h"
#include "util/table.h"

int main() {
  using namespace alc;

  core::ExperimentSpec spec;
  spec.nodes.emplace_back();
  spec.duration = 600.0;
  spec.warmup = 60.0;
  // 250 terminals in normal operation; the crowd arrives at t=240 and
  // leaves at t=480.
  spec.active_terminals =
      db::Schedule::Steps(250.0, {{240.0, 850.0}, {480.0, 250.0}});

  util::Table table({"policy", "throughput", "p-mean response",
                     "abort ratio", "commits"});
  core::ExperimentResult adaptive_result;
  for (const char* controller : {"none", "parabola-approximation"}) {
    core::ExperimentSpec run = spec;
    run.nodes[0].control.controller = controller;
    const core::ExperimentResult result = core::Experiment(run).Run();
    if (std::string_view(controller) == "parabola-approximation") {
      adaptive_result = result;
    }
    table.AddRow({std::string(controller),
                  util::StrFormat("%.1f/s", result.mean_throughput),
                  util::StrFormat("%.2fs", result.mean_response),
                  util::StrFormat("%.3f", result.abort_ratio),
                  util::StrFormat("%llu", static_cast<unsigned long long>(
                                              result.commits))});
  }
  table.Print(std::cout);

  std::printf("\nadaptive controller during the crowd (every 30s):\n");
  std::printf("%8s %12s %10s %12s %12s\n", "time", "terminals", "bound n*",
              "load n", "throughput");
  for (const core::TrajectoryPoint& point : adaptive_result.trajectory) {
    const int t = static_cast<int>(point.time);
    if (t % 30 != 0 || t < 180 || t > 570) continue;
    std::printf("%8d %12.0f %10.0f %12.1f %12.1f\n", t,
                spec.active_terminals.Value(point.time), point.bound,
                point.load, point.throughput);
  }
  std::printf("\nDuring the crowd the gate keeps the *admitted* load near "
              "the optimum; the extra demand waits in the FCFS queue instead "
              "of destroying throughput for everyone (paper, section 4.3).\n");
  return 0;
}
