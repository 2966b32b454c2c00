// Daily load cycle: an OLTP system whose mix swings over the day — query
// dominated around noon, update heavy at night (batch jobs). A static MPL
// limit tuned for either phase is wrong for the other; the adaptive
// controller re-tunes continuously.
//
//   $ ./build/examples/daily_load_cycle

#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/experiment.h"
#include "core/report.h"
#include "util/strformat.h"
#include "util/table.h"

int main() {
  using namespace alc;

  // One "day" compressed into 1440 simulated seconds (1 s per minute).
  const double day = 1440.0;
  core::ExperimentSpec spec;
  spec.duration = day;
  spec.warmup = 120.0;
  // Query fraction peaks at "noon" (t = day/2), bottoms at "midnight".
  const db::Schedule query_fraction =
      db::Schedule::Sinusoid(0.55, 0.35, day, -M_PI / 2.0);
  spec.nodes.emplace_back().system.dynamics.query_fraction = query_fraction;
  // The offered population also swells during business hours.
  spec.active_terminals = db::Schedule::Sinusoid(600.0, 250.0, day,
                                                 -M_PI / 2.0);

  util::Table table({"policy", "committed txns", "mean response",
                     "abort ratio"});
  for (const char* controller : {"fixed", "parabola-approximation"}) {
    core::ExperimentSpec run = spec;
    run.nodes[0].control.controller = controller;
    // Tuned for the night mix.
    run.nodes[0].control.params.SetDouble("fixed.limit", 195.0);
    const core::ExperimentResult result = core::Experiment(run).Run();
    table.AddRow({std::string(controller),
                  util::StrFormat("%llu",
                                  static_cast<unsigned long long>(result.commits)),
                  util::StrFormat("%.2fs", result.mean_response),
                  util::StrFormat("%.3f", result.abort_ratio)});

    if (std::string_view(controller) == "parabola-approximation") {
      std::printf("adaptive bound over the day (every 2 'hours'):\n");
      std::printf("%8s %12s %12s %12s\n", "hour", "query frac", "bound n*",
                  "throughput");
      for (const core::TrajectoryPoint& point : result.trajectory) {
        const int minute = static_cast<int>(point.time);
        if (minute % 120 != 0 || minute == 0) continue;
        std::printf("%8d %12.2f %12.0f %12.1f\n", minute / 60,
                    query_fraction.Value(point.time),
                    point.bound, point.throughput);
      }
      std::printf("\n");
    }
  }
  table.Print(std::cout);
  std::printf("\nThe fixed limit leaves throughput on the table around noon "
              "(its bound is too low for the query-heavy mix) — the adaptive "
              "controller raises and lowers the MPL with the mix.\n");
  return 0;
}
