// Cluster-level reproduction: routing policies over per-node adaptive
// admission gates. Sweeps 4 routing policies x 4 admission controllers on a
// 4-node cluster under three offered-load scenarios:
//
//   stationary    constant rate at ~2/3 of cluster capacity
//   flash-crowd   rate spikes far past capacity for a window; an
//                 uncontrolled open system is pushed into thrashing it
//                 cannot leave (the paper's section 1 argument, at fleet
//                 scale)
//   degraded      node 0 loses 70% of its CPU speed mid-run (load-aware
//                 routing must shift work away; blind routing keeps
//                 feeding the slow node)
//
// Each scenario is one SweepRunner grid (routing x admission as override
// axes over a single spec), run on all cores; per-point results are
// bit-identical to sequential runs. The flash-crowd JSQ cell is also
// checked in as specs/cluster_routing_flash.spec and regression-tested to
// match this bench bit-exactly (tests/sweep_test.cc).
//
// Claim under test: load-aware routing (JSQ / self-learning threshold)
// composed with per-node adaptive admission (Parabola) strictly beats blind
// routing with no admission control on the flash-crowd scenario.
//
//   $ ./build/bench/cluster_routing

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "util/strformat.h"
#include "util/table.h"

namespace {

using namespace alc;

constexpr int kNumNodes = 4;

/// Four bench nodes (see bench::SmallNode): the 48-run sweep stays
/// affordable and the thrashing shape matches the paper-scale system.
core::ExperimentSpec BaseCluster(uint64_t seed) {
  core::ExperimentSpec spec = bench::Fleet(kNumNodes, bench::SmallNode(), seed);
  spec.duration = 160.0;
  spec.warmup = 20.0;
  return spec;
}

const std::vector<std::string> kRoutings = {
    "round-robin", "random", "join-shortest-queue", "threshold"};
const std::vector<std::string> kAdmissions = {
    "none", "fixed", "incremental-steps", "parabola-approximation"};

void RunScenario(const char* title, const core::ExperimentSpec& base,
                 core::ClusterResult* jsq_parabola,
                 core::ClusterResult* threshold_parabola,
                 core::ClusterResult* random_none) {
  core::SweepRunner runner(
      base, {{"routing", kRoutings}, {"node.control.controller", kAdmissions}});
  const std::vector<core::SweepPointResult> results =
      runner.Run(bench::SweepThreads(runner.num_points()));

  std::printf("\n--- %s ---\n", title);
  util::Table table({"routing + admission", "throughput", "p-mean response",
                     "abort ratio", "commits"});
  for (const core::SweepPointResult& point : results) {
    const std::string& routing = point.assignment[0].second;
    const std::string& admission = point.assignment[1].second;
    const core::ClusterResult& result = point.result.cluster_result;
    table.AddRow({routing + " + " + admission,
                  util::StrFormat("%.1f/s", result.total_throughput),
                  util::StrFormat("%.3fs", result.mean_response),
                  util::StrFormat("%.3f", result.abort_ratio),
                  util::StrFormat("%llu", static_cast<unsigned long long>(
                                              result.commits))});
    if (routing == "join-shortest-queue" &&
        admission == "parabola-approximation" && jsq_parabola) {
      *jsq_parabola = result;
    }
    if (routing == "threshold" && admission == "parabola-approximation" &&
        threshold_parabola) {
      *threshold_parabola = result;
    }
    if (routing == "random" && admission == "none" && random_none) {
      *random_none = result;
    }
  }
  table.Print(std::cout);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Cluster routing x per-node adaptive admission",
      "load-aware routing over adaptive gates absorbs overload that "
      "thrashes blind routing without admission control");

  const uint64_t seed = 42;

  // Per-node capacity is ~150 commits/s at the optimum (4 CPUs, ~19 ms CPU
  // demand per transaction, thrashing knee near n=25).
  core::ExperimentSpec stationary = BaseCluster(seed);
  stationary.arrival_rate = db::Schedule::Constant(400.0);

  core::ExperimentSpec flash = BaseCluster(seed);
  flash.arrival_rate = core::FlashCrowdSchedule(320.0, 900.0, 40.0, 80.0);

  core::ExperimentSpec degraded = BaseCluster(seed);
  degraded.arrival_rate = db::Schedule::Constant(400.0);
  degraded.nodes[0].cpu_speed = core::NodeSlowdownSchedule(0.3, 40.0, 100.0);

  RunScenario("stationary (400/s offered)", stationary, nullptr, nullptr,
              nullptr);

  core::ClusterResult jsq_parabola, threshold_parabola, random_none;
  RunScenario("flash crowd (320/s, spike to 900/s during [40s,80s))", flash,
              &jsq_parabola, &threshold_parabola, &random_none);

  RunScenario("degraded node (node 0 at 30% speed during [40s,100s))",
              degraded, nullptr, nullptr, nullptr);

  std::printf(
      "\nflash-crowd verdict:\n"
      "  join-shortest-queue + parabola : %.1f commits/s\n"
      "  threshold + parabola           : %.1f commits/s\n"
      "  random + none                  : %.1f commits/s\n",
      jsq_parabola.total_throughput, threshold_parabola.total_throughput,
      random_none.total_throughput);
  const bool jsq_wins =
      jsq_parabola.total_throughput > random_none.total_throughput;
  const bool threshold_wins =
      threshold_parabola.total_throughput > random_none.total_throughput;
  std::printf("  adaptive beats blind: %s\n",
              (jsq_wins || threshold_wins) ? "YES" : "NO");
  std::printf(
      "\nAn uncontrolled open node pushed past the thrashing knee cannot\n"
      "recover: committed throughput falls below the offered rate, so the\n"
      "admitted load keeps growing (paper section 1, at fleet scale). The\n"
      "per-node gates park the surplus in admission queues instead, and\n"
      "load-aware routing keeps the queues where capacity is.\n");
  return (jsq_wins || threshold_wins) ? 0 : 1;
}
