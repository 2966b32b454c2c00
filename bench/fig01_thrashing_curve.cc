// E1 — Figure 1: "Typical shape of the throughput function with thrashing".
// Reproduces the three phases: (I) underload, near-linear growth; (II)
// saturation, flattening; (III) overload, the drop beyond the optimum.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/common.h"
#include "util/strformat.h"
#include "util/table.h"

int main() {
  using namespace alc;
  bench::PrintHeader(
      "Figure 1: throughput vs. load with thrashing (three phases)",
      "throughput rises ~linearly, flattens at saturation, then drops");

  const core::ExperimentSpec base = bench::PaperSpec();
  const std::vector<double> loads = {10,  25,  50,  75,  100, 150, 195,
                                     250, 300, 400, 500, 600, 750};
  util::Table table({"load n", "throughput", "phase"});
  std::vector<std::pair<double, double>> curve;
  for (double n : loads) {
    const double throughput =
        core::StationaryThroughput(base, n, 0.0, 120.0, 30.0, 7);
    curve.emplace_back(n, throughput);
  }
  double peak_t = 0.0, peak_n = 0.0;
  for (const auto& [n, t] : curve) {
    if (t > peak_t) {
      peak_t = t;
      peak_n = n;
    }
  }
  for (const auto& [n, t] : curve) {
    const char* phase = n < 0.55 * peak_n          ? "I (underload)"
                        : (n <= 1.35 * peak_n)     ? "II (saturation)"
                                                   : "III (overload)";
    table.AddRow({util::StrFormat("%.0f", n), util::StrFormat("%.1f", t),
                  phase});
  }
  table.Print(std::cout);

  const double first = curve.front().second;
  const double second = curve[1].second;
  const double last = curve.back().second;
  std::printf("\npeak: T=%.1f at n=%.0f\n", peak_t, peak_n);
  std::printf("shape checks:\n");
  std::printf("  phase I near-linear: T(25)/T(10) = %.2f (expect ~2.5)\n",
              second / first);
  std::printf("  phase III drop: T(750)/T(peak) = %.2f (expect << 1)\n",
              last / peak_t);
  return 0;
}
