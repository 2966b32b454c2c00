// E11 — Section 1's two CC classes side by side:
//  * blocking (2PL): the mean number of blocked transactions grows
//    quadratically with the concurrency level [Tay et al. 1985], and active
//    transactions a = n - b eventually *decrease*;
//  * non-blocking (timestamp certification): data contention is resolved by
//    aborts/reruns, i.e. converted into resource contention — throughput
//    drops once resource saturation is reached.

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/common.h"
#include "control/gate.h"
#include "db/system.h"
#include "sim/simulator.h"
#include "util/math.h"
#include "util/strformat.h"
#include "util/table.h"

int main() {
  using namespace alc;
  bench::PrintHeader(
      "Section 1: blocking (2PL) vs non-blocking (certification) thrashing",
      "2PL: blocked b(n) quadratic, active a = n - b peaks then falls; "
      "OCC: rerun work saturates the CPU");

  db::SystemConfig base = bench::PaperSpec().nodes[0].system;
  // A tighter database accentuates data contention for the lock manager.
  base.logical.db_size = 4000;
  base.dynamics.write_fraction = db::Schedule::Constant(0.4);

  const std::vector<double> loads = {25, 50, 100, 150, 200, 300, 400};

  util::Table table({"n", "2PL: T", "2PL: blocked b", "2PL: active a",
                     "OCC: T", "OCC: aborts/commit", "OCC: wasted CPU"});
  std::vector<double> ns, bs;
  for (double n : loads) {
    double t_2pl, blocked, t_occ, conflicts, wasted;
    {
      sim::Simulator simulator;
      db::SystemConfig config = base;
      config.cc = db::CcScheme::kTwoPhaseLocking;
      config.seed = 23;
      db::TransactionSystem system(&simulator, config);
      control::AdmissionGate gate(&system, n);
      system.Start();
      simulator.RunUntil(120.0);
      t_2pl = system.metrics().counters.commits / 120.0;
      blocked = system.metrics().blocked_track.AverageUntil(simulator.Now());
    }
    {
      sim::Simulator simulator;
      db::SystemConfig config = base;
      config.cc = db::CcScheme::kOptimisticCertification;
      config.seed = 23;
      db::TransactionSystem system(&simulator, config);
      control::AdmissionGate gate(&system, n);
      system.Start();
      simulator.RunUntil(120.0);
      const db::Counters& counters = system.metrics().counters;
      t_occ = counters.commits / 120.0;
      conflicts = counters.commits > 0
                      ? static_cast<double>(counters.total_aborts()) /
                            counters.commits
                      : 0.0;
      wasted = (counters.useful_cpu + counters.wasted_cpu) > 0
                   ? counters.wasted_cpu /
                         (counters.useful_cpu + counters.wasted_cpu)
                   : 0.0;
    }
    ns.push_back(n);
    bs.push_back(blocked);
    table.AddRow({util::StrFormat("%.0f", n), util::StrFormat("%.1f", t_2pl),
                  util::StrFormat("%.1f", blocked),
                  util::StrFormat("%.1f", n - blocked),
                  util::StrFormat("%.1f", t_occ),
                  util::StrFormat("%.2f", conflicts),
                  util::StrFormat("%.2f", wasted)});
  }
  table.Print(std::cout);

  // Tay's analysis applies before blocking saturates (b -> n - a_min, which
  // looks linear). Check super-linear growth by doubling ratios in the
  // pre-saturation range: quadratic b(n) gives b(2n)/b(n) ~ 4.
  std::printf("\nsuper-linearity of b(n) before saturation:\n");
  for (size_t i = 0; i + 1 < ns.size() && ns[i + 1] <= 150.0; ++i) {
    for (size_t j = i + 1; j < ns.size() && ns[j] <= 150.0; ++j) {
      if (ns[j] == 2.0 * ns[i] && bs[i] > 0.0) {
        std::printf("  b(%.0f)/b(%.0f) = %.1f (linear would be 2, quadratic "
                    "4)\n",
                    ns[j], ns[i], bs[j] / bs[i]);
      }
    }
  }
  std::printf("\nshape check: for 2PL, beyond the critical point adding "
              "transactions adds >1 blocked each (db(n)/dn > 1), so active "
              "a = n - b stops growing and then falls; at high n nearly the "
              "whole population is blocked.\n");
  return 0;
}
