// E13 — Section 5: the measurement-interval tradeoff. Short intervals react
// fast but see noise (controller jitter); long intervals are stable but
// sluggish after a jump. Also exercises the IntervalAdvisor's sizing rule
// ("rather hundreds of departures than some tens") and the outer tuning
// loop.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/common.h"
#include "control/interval_advisor.h"
#include "core/report.h"
#include "util/strformat.h"
#include "util/table.h"

int main() {
  using namespace alc;
  bench::PrintHeader(
      "Section 5: measurement interval length vs stability/responsiveness",
      "the interval should be just long enough to filter stochastic noise");

  core::ExperimentSpec base = bench::JumpSpec();
  base.duration = 700.0;  // one jump at 333, second regime until 666

  core::OptimumFinder finder(base, bench::FastSearch());
  const auto timeline = finder.Timeline(700.0);

  util::Table table({"interval (s)", "departures/interval", "mean |n*-opt|",
                     "bound jitter", "recovery after jump", "throughput"});
  for (double interval : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    core::ExperimentSpec spec = base;
    spec.nodes[0].control.controller = "parabola-approximation";
    spec.nodes[0].control.measurement_interval = interval;
    const core::ExperimentResult result = core::Experiment(spec).Run();

    core::TrackingOptions options;
    options.skip_initial = 100.0;
    const core::TrackingStats stats =
        core::EvaluateTracking(result.trajectory, timeline, options);

    // Jitter: mean absolute step of the bound in steady state, beyond the
    // enforced dither.
    double jitter = 0.0;
    int jitter_n = 0;
    for (size_t i = 1; i < result.trajectory.size(); ++i) {
      const auto& prev = result.trajectory[i - 1];
      const auto& cur = result.trajectory[i];
      if (cur.time < 150.0 || cur.time > 330.0) continue;
      jitter += std::fabs(cur.bound - prev.bound);
      ++jitter_n;
    }
    const double recovery =
        stats.recovery_times.empty() ? -1.0 : stats.recovery_times[0];
    table.AddRow(
        {util::StrFormat("%.2f", interval),
         util::StrFormat("%.0f", result.mean_throughput * interval),
         util::StrFormat("%.1f", stats.mean_abs_error),
         util::StrFormat("%.1f", jitter_n ? jitter / jitter_n : 0.0),
         recovery < 0 ? std::string("none") : util::StrFormat("%.0f s", recovery),
         util::StrFormat("%.1f", result.mean_throughput)});
  }
  table.Print(std::cout);

  control::IntervalAdvisor advisor(1.0, 0.10, 0.95);
  std::printf("\nadvisor: cv=1, eps=10%%, conf=95%% -> %.0f departures "
              "(~%.1f s at the default peak) — 'hundreds rather than tens'\n",
              advisor.RequiredDepartures(),
              advisor.RecommendedInterval(190.0));
  std::printf("note: intervals near the transaction response time (~0.5-1 s "
              "here) are a resonance pocket —\nthe measured load lags the "
              "commanded dither by about half a cycle, so the fit sees "
              "phase-shifted pairs.\nIntervals must be either well below "
              "(with the excitation guard) or, better, above that scale.\n");

  // Outer tuning loop: starts from a deliberately bad interval.
  core::ExperimentSpec tuned = base;
  tuned.nodes[0].control.controller = "parabola-approximation";
  tuned.nodes[0].control.measurement_interval = 0.25;
  tuned.nodes[0].control.outer_tuner = true;
  const core::ExperimentResult tuned_result = core::Experiment(tuned).Run();
  double last_gap = 0.0;
  if (tuned_result.trajectory.size() >= 2) {
    const auto& trajectory = tuned_result.trajectory;
    last_gap = trajectory.back().time - trajectory[trajectory.size() - 2].time;
  }
  std::printf("\nouter tuner: started at 0.25 s, converged to ~%.2f s "
              "intervals; throughput %.1f/s\n",
              last_gap, tuned_result.mean_throughput);
  return 0;
}
