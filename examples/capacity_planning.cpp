// Capacity planning: the offline OptimumFinder answers "what MPL limit and
// what peak throughput can this box sustain for a given workload mix?" —
// the static version of what the adaptive controllers do online. Useful
// for sizing a fixed limit when you must configure one (paper section 1,
// option 2) and for validating the adaptive controllers against ground
// truth.
//
//   $ ./build/examples/capacity_planning

#include <cstdio>
#include <iostream>

#include "core/optimum.h"
#include "util/strformat.h"
#include "util/table.h"

int main() {
  using namespace alc;

  struct Mix {
    const char* name;
    int k;
    double query_fraction;
    double write_fraction;
  };
  const Mix mixes[] = {
      {"interactive lookup", 8, 0.90, 0.10},
      {"balanced OLTP", 16, 0.30, 0.25},
      {"batch update", 16, 0.05, 0.60},
      {"long analytics + writers", 24, 0.60, 0.30},
  };

  core::OptimumSearchConfig search;
  search.n_lo = 10.0;
  search.n_hi = 750.0;
  search.coarse_points = 9;
  search.refine_rounds = 1;
  search.sim_duration = 60.0;
  search.sim_warmup = 15.0;

  util::Table table({"workload mix", "recommended MPL limit",
                     "peak throughput", "knee throughput @ 2x limit"});
  for (const Mix& mix : mixes) {
    core::ExperimentSpec spec;
    core::NodeSpec& node = spec.nodes.emplace_back();
    node.system.dynamics.k = db::Schedule::Constant(mix.k);
    node.system.dynamics.query_fraction =
        db::Schedule::Constant(mix.query_fraction);
    node.system.dynamics.write_fraction =
        db::Schedule::Constant(mix.write_fraction);

    core::OptimumFinder finder(spec, search);
    const core::OptimumResult optimum = finder.FindAt(0.0);

    // What happens if the limit is set to twice the recommendation.
    double beyond = 0.0;
    for (const auto& [n, throughput] : optimum.curve) {
      if (n >= 2.0 * optimum.n_opt) {
        beyond = throughput;
        break;
      }
    }
    table.AddRow({mix.name, util::StrFormat("%.0f", optimum.n_opt),
                  util::StrFormat("%.1f/s", optimum.peak_throughput),
                  beyond > 0 ? util::StrFormat("%.1f/s", beyond)
                             : std::string("-")});
  }
  table.Print(std::cout);
  std::printf(
      "\nNote how far apart the recommended limits sit: a single static MPL\n"
      "cannot serve all four mixes — the paper's case for adaptive control.\n");
  return 0;
}
