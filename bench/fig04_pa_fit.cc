// E4 — Figure 4: "Principle of the Parabola Approximation". Runs PA on the
// stationary system, then prints the fitted parabola next to the true
// (offline-measured) throughput curve so the quality of the quadratic
// approximation around the operating point is visible.

#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "control/gate.h"
#include "control/monitor.h"
#include "control/parabola.h"
#include "control/registry.h"
#include "db/system.h"
#include "sim/simulator.h"
#include "util/strformat.h"
#include "util/table.h"

int main() {
  using namespace alc;
  bench::PrintHeader("Figure 4: principle of the Parabola Approximation",
                     "P(n) = a0 + a1 n + a2 n^2 fitted by fading-memory RLS; "
                     "its maximum is the next load threshold");

  core::ExperimentSpec spec = bench::PaperSpec();
  spec.duration = 300.0;
  const core::NodeSpec& node = spec.nodes[0];

  // Run the PA controller attached to the real system, but keep our own
  // mirror of it so we can read out the fitted coefficients afterwards.
  control::ParabolaApproximationController pa(
      control::PaFromParams(node.control.params));
  sim::Simulator simulator;
  db::TransactionSystem system(&simulator, node.system);
  system.SetActiveTerminalsSchedule(spec.active_terminals);
  control::AdmissionGate gate(&system, node.control.initial_limit);
  control::Monitor monitor(&simulator, &system,
                           node.control.measurement_interval);
  monitor.SetCallback([&](const control::Sample& sample) {
    gate.SetLimit(pa.Update(sample));
  });
  system.Start();
  monitor.Start();
  simulator.RunUntil(spec.duration);

  double a0, a1, a2;
  pa.FittedCoefficients(&a0, &a1, &a2);
  std::printf("fitted: P(n) = %.2f + %.4f n + %.6f n^2  (a2 %s 0)\n", a0, a1,
              a2, a2 < 0 ? "<" : ">=");
  if (a2 < 0.0) {
    std::printf("vertex: n* = -a1/(2 a2) = %.0f\n\n", -a1 / (2.0 * a2));
  }

  // Compare the fit against the true curve near the operating region.
  core::OptimumFinder finder(spec, bench::FastSearch());
  const core::OptimumResult optimum = finder.FindAt(0.0);
  util::Table table({"n", "measured T(n)", "parabola fit"});
  for (const auto& [n, t] : optimum.curve) {
    const double fit = a0 + a1 * n + a2 * n * n;
    table.AddRow({util::StrFormat("%.0f", n), util::StrFormat("%.1f", t),
                  util::StrFormat("%.1f", fit)});
  }
  table.Print(std::cout);
  std::printf("\nnote: the parabola is a *local* model around the operating "
              "point n~%.0f;\nits vertex (%.0f) approximates the true "
              "optimum (%.0f) without modelling the whole curve.\n",
              pa.bound(), a2 < 0 ? -a1 / (2 * a2) : 0.0, optimum.n_opt);
  return 0;
}
