// E12 — Section 1, option 3 vs option 4: the static "rules of thumb"
// (Tay's k^2 n / D < 1.5, Iyer's conflicts/txn <= 0.75) against the
// feedback controllers, across three workload mixes. The paper's point:
// the rules are model-bound and need not hold for all load situations,
// while the feedback controllers are model independent.
//
// The controller dimension is a SweepRunner axis over registry names: one
// spec, seven one-line overrides, no per-controller plumbing.

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/common.h"
#include "core/report.h"
#include "util/strformat.h"
#include "util/table.h"

int main() {
  using namespace alc;
  bench::PrintHeader(
      "Section 1: rules of thumb vs feedback control, three workloads",
      "feedback controllers stay near-optimal where static rules misfire");

  struct Mix {
    const char* name;
    int k;
    double query_fraction;
    double write_fraction;
  };
  const std::vector<Mix> mixes = {
      {"update-heavy (k=16, q=0.3, w=0.25)", 16, 0.30, 0.25},
      {"query-heavy  (k=16, q=0.85, w=0.25)", 16, 0.85, 0.25},
      {"long txns    (k=24, q=0.3, w=0.35)", 24, 0.30, 0.35},
  };
  const std::vector<std::string> controllers = {
      "none",
      "fixed",
      "tay-rule",
      "iyer-rule",
      "incremental-steps",
      "parabola-approximation",
      "golden-section",
  };

  for (const Mix& mix : mixes) {
    core::ExperimentSpec base = bench::PaperSpec();
    core::NodeSpec& node = base.nodes[0];
    node.system.dynamics.k = db::Schedule::Constant(mix.k);
    node.system.dynamics.query_fraction =
        db::Schedule::Constant(mix.query_fraction);
    node.system.dynamics.write_fraction =
        db::Schedule::Constant(mix.write_fraction);
    // fixed.limit is tuned for the *default* mix.
    node.control.params.SetDouble("fixed.limit", 195.0);
    node.control.params.SetDouble("gs.min_bound", 5.0);
    node.control.params.SetDouble("gs.max_bound", 750.0);
    node.control.params.SetDouble("gs.min_bracket", 60.0);

    core::OptimumFinder finder(base, bench::FastSearch());
    const core::OptimumResult optimum = finder.FindAt(0.0);
    std::printf("\nworkload: %s  (true n_opt=%.0f, peak=%.1f/s)\n", mix.name,
                optimum.n_opt, optimum.peak_throughput);

    core::SweepRunner runner(base, {{"node.control.controller", controllers}});
    const std::vector<core::SweepPointResult> results =
        runner.Run(bench::SweepThreads(runner.num_points()));

    util::Table table(
        {"controller", "throughput", "T/T_peak", "mean load", "abort ratio"});
    for (const core::SweepPointResult& point : results) {
      const core::ExperimentResult& result = point.result.single;
      table.AddRow({point.assignment[0].second,
                    util::StrFormat("%.1f", result.mean_throughput),
                    util::StrFormat("%.2f", result.mean_throughput /
                                                optimum.peak_throughput),
                    util::StrFormat("%.0f", result.mean_active),
                    util::StrFormat("%.3f", result.abort_ratio)});
    }
    table.Print(std::cout);
  }
  std::printf(
      "\nshape checks: 'none' thrashes everywhere; 'fixed' is good only on "
      "the mix it was tuned for;\nTay's rule binds k^2 n/D regardless of "
      "where the real bottleneck is; IS/PA stay near T_peak on all mixes.\n");
  return 0;
}
