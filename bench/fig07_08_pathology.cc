// E6 — Figures 7/8: situations where the Parabola Approximation finds an
// upward-opening parabola (a2 >= 0) and must recover:
//   fig. 7 — the true performance function has a broad flat hump and the
//            sampled measurements suggest a convex course;
//   fig. 8 — the function changed shape abruptly and the current bound is
//            deep in the thrashing region, where the curve is convex.
// Compares the recovery policies on both synthetic pathologies.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "control/parabola.h"
#include "control/registry.h"
#include "sim/random.h"
#include "util/strformat.h"
#include "util/table.h"

namespace {

using alc::control::PaConfig;
using alc::control::PaRecoveryPolicy;
using alc::control::ParabolaApproximationController;
using alc::control::Sample;

Sample MakeSample(double load, double perf, double time) {
  Sample sample;
  sample.time = time;
  sample.interval = 1.0;
  sample.mean_active = load;
  sample.throughput = perf;
  sample.commits = static_cast<long long>(perf);
  return sample;
}

const char* PolicyName(PaRecoveryPolicy policy) {
  switch (policy) {
    case PaRecoveryPolicy::kHold: return "hold";
    case PaRecoveryPolicy::kGradient: return "gradient";
    case PaRecoveryPolicy::kContract: return "contract";
    case PaRecoveryPolicy::kReset: return "reset";
  }
  return "?";
}

// Fig. 7 surface: broad flat hump around 300 with slightly convex shoulders.
double FlatHump(double n) {
  const double plateau = 200.0 / (1.0 + std::exp(-(n - 80.0) / 30.0));
  return plateau - 0.00015 * (n - 300.0) * (n - 300.0) * (n > 300.0 ? 1 : 0) * (n - 300.0);
}

// Fig. 8 surface after the abrupt change: the optimum collapsed to 60 and
// everything beyond ~150 is convex decline.
double Collapsed(double n) {
  return 120.0 * n / 60.0 * std::exp(1.0 - n / 60.0);
}

}  // namespace

int main() {
  using namespace alc;
  bench::PrintHeader(
      "Figures 7/8: upward-opening parabola pathologies and recovery",
      "a2 >= 0 makes the estimate useless; recovery policies must restore "
      "tracking");

  sim::RandomStream rng(17);

  // --- Fig. 7: flat hump. Count how often each policy is in recovery and
  // where it ends up.
  std::printf("fig. 7 scenario (broad flat hump, plateau 150..450):\n");
  util::Table hump({"policy", "recovery ticks", "final bound",
                    "final throughput"});
  for (PaRecoveryPolicy policy :
       {PaRecoveryPolicy::kHold, PaRecoveryPolicy::kGradient,
        PaRecoveryPolicy::kContract, PaRecoveryPolicy::kReset}) {
    PaConfig config =
        control::PaFromParams(bench::PaperSpec().nodes[0].control.params);
    config.recovery = policy;
    config.initial_bound = 150.0;
    ParabolaApproximationController pa(config);
    double bound = config.initial_bound;
    int recovery_ticks = 0;
    for (int t = 0; t < 300; ++t) {
      const double load = bound;
      const double perf = FlatHump(load) + rng.NextNormal(0.0, 3.0);
      bound = pa.Update(MakeSample(load, perf, t));
      if (pa.in_recovery()) ++recovery_ticks;
    }
    hump.AddRow({PolicyName(policy), util::StrFormat("%d", recovery_ticks),
                 util::StrFormat("%.0f", bound),
                 util::StrFormat("%.1f", FlatHump(bound))});
  }
  hump.Print(std::cout);

  // --- Fig. 8: abrupt shape change while the controller sits at a high
  // bound. The bound starts deep in the (new) thrashing region.
  std::printf("\nfig. 8 scenario (shape collapses, old bound deep in "
              "thrashing region, new n_opt=60):\n");
  util::Table collapse({"policy", "bound after 50", "bound after 200",
                        "final |n*-60|"});
  for (PaRecoveryPolicy policy :
       {PaRecoveryPolicy::kHold, PaRecoveryPolicy::kGradient,
        PaRecoveryPolicy::kContract, PaRecoveryPolicy::kReset}) {
    PaConfig config =
        control::PaFromParams(bench::PaperSpec().nodes[0].control.params);
    config.recovery = policy;
    config.initial_bound = 150.0;
    ParabolaApproximationController pa(config);
    double bound = config.initial_bound;
    // Converge on a healthy surface with optimum at 300 first.
    for (int t = 0; t < 150; ++t) {
      const double load = bound;
      const double perf = 250.0 - 0.002 * (load - 300.0) * (load - 300.0) +
                          rng.NextNormal(0.0, 3.0);
      bound = pa.Update(MakeSample(load, perf, t));
    }
    // Abrupt collapse.
    double at_50 = 0.0, at_200 = 0.0;
    for (int t = 0; t < 200; ++t) {
      const double load = bound;
      const double perf = Collapsed(load) + rng.NextNormal(0.0, 2.0);
      bound = pa.Update(MakeSample(load, perf, 150 + t));
      if (t == 49) at_50 = bound;
      if (t == 199) at_200 = bound;
    }
    collapse.AddRow({PolicyName(policy), util::StrFormat("%.0f", at_50),
                     util::StrFormat("%.0f", at_200),
                     util::StrFormat("%.0f", std::fabs(at_200 - 60.0))});
  }
  collapse.Print(std::cout);
  std::printf("\nshape check: every policy must leave the thrashing region "
              "(bound after 200 << 150); gradient/contract should approach "
              "n_opt=60.\n");
  return 0;
}
