// E2 — Figure 2: "Dynamic behavior of a thrashing system". The performance
// function P(n, t) is a time-varying mountain whose ridge the controller
// must track. This bench samples the surface on a coarse (time, n) grid for
// the jump scenario of figs. 13/14 and prints it as a matrix, making the
// ridge movement visible in numbers.

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/common.h"
#include "core/experiment.h"
#include "util/strformat.h"
#include "util/table.h"

int main() {
  using namespace alc;
  bench::PrintHeader(
      "Figure 2: the time-varying performance surface P(n, t)",
      "the ridge (optimum) moves when the workload mix changes");

  const core::ExperimentSpec spec = bench::JumpSpec();
  const std::vector<double> loads = {50, 125, 195, 265, 330, 450, 600};
  // One column per regime of the jump schedule (the surface is piecewise
  // stationary, so sampling one t per regime captures it exactly).
  const std::vector<double> times = {0.0, 400.0, 700.0};

  std::vector<std::string> headers = {"load n \\ t"};
  for (double t : times) headers.push_back(util::StrFormat("t=%.0f", t));
  util::Table table(headers);

  std::vector<std::vector<double>> surface(loads.size());
  for (size_t row = 0; row < loads.size(); ++row) {
    std::vector<std::string> cells = {util::StrFormat("%.0f", loads[row])};
    for (double t : times) {
      const double throughput = core::StationaryThroughput(
          spec, loads[row], t + 1e-6, 80.0, 20.0, 13);
      surface[row].push_back(throughput);
      cells.push_back(util::StrFormat("%.1f", throughput));
    }
    table.AddRow(cells);
  }
  table.Print(std::cout);

  for (size_t col = 0; col < times.size(); ++col) {
    size_t best = 0;
    for (size_t row = 1; row < loads.size(); ++row) {
      if (surface[row][col] > surface[best][col]) best = row;
    }
    std::printf("ridge at t=%.0f: n~%.0f (T=%.1f)\n", times[col], loads[best],
                surface[best][col]);
  }
  std::printf("\nshape check: the ridge position moves with the regime "
              "(t=400 regime is query-heavy: higher optimum).\n");
  return 0;
}
