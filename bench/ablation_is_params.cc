// E14 — Section 4.1: sensitivity of the Incremental Steps parameters. beta
// scales the step with the performance change, gamma pulls bound and load
// back together, delta is the drift dead band. Sweeps each around the
// default on the jump workload.

#include <cstdio>
#include <iostream>

#include "bench/common.h"
#include "control/registry.h"
#include "core/report.h"
#include "util/strformat.h"
#include "util/table.h"

namespace {

struct RowResult {
  double tracking_error;
  double throughput;
  double capture;
};

RowResult RunIs(const alc::core::ExperimentSpec& base,
                const std::vector<alc::core::OptimumRegime>& timeline,
                const alc::control::IsConfig& is) {
  alc::core::ExperimentSpec spec = base;
  spec.nodes[0].control.controller = "incremental-steps";
  alc::control::AppendIsParams(is, &spec.nodes[0].control.params);
  const alc::core::ExperimentResult result =
      alc::core::Experiment(spec).Run();
  alc::core::TrackingOptions options;
  options.skip_initial = 100.0;
  const alc::core::TrackingStats stats =
      alc::core::EvaluateTracking(result.trajectory, timeline, options);
  return {stats.mean_abs_error, result.mean_throughput,
          stats.throughput_capture};
}

}  // namespace

int main() {
  using namespace alc;
  bench::PrintHeader(
      "Section 4.1: IS parameter sensitivity (beta, gamma, delta)",
      "the parameters must be tuned carefully (section 5)");

  core::ExperimentSpec base = bench::JumpSpec();
  base.duration = 700.0;
  core::OptimumFinder finder(base, bench::FastSearch());
  const auto timeline = finder.Timeline(700.0);
  const control::IsConfig defaults =
      control::IsFromParams(base.nodes[0].control.params);

  {
    util::Table table({"beta", "mean |n*-opt|", "throughput", "capture"});
    for (double beta : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
      control::IsConfig is = defaults;
      is.beta = beta;
      const RowResult row = RunIs(base, timeline, is);
      table.AddRow({util::StrFormat("%.2f", beta),
                    util::StrFormat("%.1f", row.tracking_error),
                    util::StrFormat("%.1f", row.throughput),
                    util::StrFormat("%.2f", row.capture)});
    }
    std::printf("beta sweep (gamma=%.0f, delta=%.0f):\n", defaults.gamma,
                defaults.delta);
    table.Print(std::cout);
  }
  {
    util::Table table({"gamma", "mean |n*-opt|", "throughput", "capture"});
    for (double gamma : {2.0, 5.0, 10.0, 20.0, 40.0}) {
      control::IsConfig is = defaults;
      is.gamma = gamma;
      const RowResult row = RunIs(base, timeline, is);
      table.AddRow({util::StrFormat("%.0f", gamma),
                    util::StrFormat("%.1f", row.tracking_error),
                    util::StrFormat("%.1f", row.throughput),
                    util::StrFormat("%.2f", row.capture)});
    }
    std::printf("\ngamma sweep (beta=%.1f, delta=%.0f):\n", defaults.beta,
                defaults.delta);
    table.Print(std::cout);
  }
  {
    util::Table table({"delta", "mean |n*-opt|", "throughput", "capture"});
    for (double delta : {5.0, 10.0, 25.0, 50.0, 100.0}) {
      control::IsConfig is = defaults;
      is.delta = delta;
      const RowResult row = RunIs(base, timeline, is);
      table.AddRow({util::StrFormat("%.0f", delta),
                    util::StrFormat("%.1f", row.tracking_error),
                    util::StrFormat("%.1f", row.throughput),
                    util::StrFormat("%.2f", row.capture)});
    }
    std::printf("\ndelta sweep (beta=%.1f, gamma=%.0f):\n", defaults.beta,
                defaults.gamma);
    table.Print(std::cout);
  }
  std::printf("\nshape check: very large beta overshoots (higher error); "
              "very small beta/gamma is sluggish after the jumps.\n");
  return 0;
}
