// E10 — Section 9: "a sinusoidal variation modelling more smooth and
// gradual changes. Both algorithms were able to follow gradual changes."
// The workload mix swings sinusoidally; both controllers must modulate the
// bound in phase with the (inverted) write-intensity.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "core/report.h"
#include "util/strformat.h"
#include "util/table.h"

int main() {
  using namespace alc;
  bench::PrintHeader(
      "Section 9: tracking a sinusoidal workload variation",
      "both algorithms follow gradual changes");

  const double period = 300.0;
  auto make_spec = [&](const char* controller) {
    core::ExperimentSpec spec = bench::PaperSpec();
    spec.duration = 900.0;
    spec.warmup = 100.0;
    // Query fraction swings 0.30 +/- 0.35 -> optimum swings accordingly.
    spec.nodes[0].system.dynamics.query_fraction =
        db::Schedule::Sinusoid(0.5, 0.35, period);
    spec.nodes[0].control.controller = controller;
    return spec;
  };

  for (const char* controller :
       {"incremental-steps", "parabola-approximation"}) {
    const core::ExperimentSpec spec = make_spec(controller);
    const db::Schedule& query_fraction =
        spec.nodes[0].system.dynamics.query_fraction;
    const core::ExperimentResult result = core::Experiment(spec).Run();

    // Correlate the bound with the query fraction (which raises the
    // optimum): phase-locked tracking shows up as positive correlation.
    double sum_b = 0.0, sum_q = 0.0, sum_bq = 0.0, sum_b2 = 0.0, sum_q2 = 0.0;
    int count = 0;
    for (const core::TrajectoryPoint& point : result.trajectory) {
      if (point.time < spec.warmup) continue;
      const double q = query_fraction.Value(point.time);
      sum_b += point.bound;
      sum_q += q;
      sum_bq += point.bound * q;
      sum_b2 += point.bound * point.bound;
      sum_q2 += q * q;
      ++count;
    }
    const double cov = sum_bq / count - (sum_b / count) * (sum_q / count);
    const double var_b = sum_b2 / count - (sum_b / count) * (sum_b / count);
    const double var_q = sum_q2 / count - (sum_q / count) * (sum_q / count);
    const double corr = cov / std::sqrt(var_b * var_q);

    std::printf("\n%s\n", core::SummaryLine(
        controller, result).c_str());
    std::printf("  correlation(bound, query fraction) = %+.2f "
                "(positive = tracking the swing)\n", corr);

    // Print one period of the steady-state trajectory, coarsened.
    util::Table table({"time", "query frac", "bound n*", "throughput"});
    for (const core::TrajectoryPoint& point : result.trajectory) {
      if (point.time < 450.0 || point.time > 750.0) continue;
      if (std::fmod(point.time, 25.0) >= 1.0) continue;
      table.AddRow({util::StrFormat("%.0f", point.time),
                    util::StrFormat("%.2f", query_fraction.Value(point.time)),
                    util::StrFormat("%.0f", point.bound),
                    util::StrFormat("%.1f", point.throughput)});
    }
    table.Print(std::cout);
  }
  return 0;
}
