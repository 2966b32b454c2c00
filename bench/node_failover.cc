// Cluster-level displacement under node failure: a 4-node JSQ cluster
// takes a flash crowd (900/s against ~600/s fleet capacity during
// [40s, 70s)), and node 0 crashes at t=60 — mid-crowd, with a deep
// admission queue — then rejoins with a fresh gate + controller at t=110.
//
// The sweep compares the crash-without-retraction baseline (queued work on
// the dead node is lost, in-flight work dies with it) against cluster-level
// displacement (retraction = true: the front-end retracts node 0's queued
// admissions, re-routes them through JSQ over the surviving membership, and
// retries the killed in-flight requests elsewhere).
//
// Claim under test: displacement + rejoin recovers post-failure throughput
// — the retained backlog finishes on the survivors, so committed
// throughput over [60s, end] strictly beats the baseline that dropped it.
//
// The same configuration is checked in as specs/node_failover.spec (pinned
// bit-exactly to this bench by tests/lifecycle_test.cc):
//
//   $ ./build/bench/node_failover
//   $ ./build/tools/alc_run specs/node_failover.spec

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "cluster/lifecycle.h"
#include "util/strformat.h"
#include "util/table.h"

namespace {

using namespace alc;

constexpr int kNumNodes = 4;
constexpr double kCrashTime = 60.0;
constexpr double kRejoinTime = 110.0;

/// The spec-file scenario, built in code on the bench::SmallNode fleet
/// (the calibration of bench/cluster_routing, so the numbers are
/// comparable): flash crowd, node 0 crashing mid-crowd and rejoining fresh.
core::ExperimentSpec FailoverCluster(uint64_t seed) {
  core::ExperimentSpec spec = bench::Fleet(kNumNodes, bench::SmallNode(), seed);
  spec.duration = 200.0;
  spec.warmup = 20.0;
  spec.arrival_rate = core::FlashCrowdSchedule(320.0, 900.0, 40.0, 70.0);
  spec.routing = "join-shortest-queue";
  std::string error;
  if (!cluster::AvailabilitySchedule::Make(
          cluster::NodeState::kUp,
          {{kCrashTime, cluster::NodeState::kDown},
           {kRejoinTime, cluster::NodeState::kUp}},
          &spec.nodes[0].availability, &error)) {
    std::fprintf(stderr, "availability: %s\n", error.c_str());
    std::abort();
  }
  spec.nodes[0].rejoin = cluster::RejoinPolicy::kFresh;
  spec.retraction.enabled = true;
  return spec;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Node failure + cluster-level displacement",
      "retracting a crashed node's queued admissions and re-routing them "
      "through the live membership recovers post-failure throughput");

  core::SweepRunner runner(FailoverCluster(42),
                           {{"retraction", {"false", "true"}}});
  const std::vector<core::SweepPointResult> results =
      runner.Run(bench::SweepThreads(runner.num_points()));

  util::Table table({"mode", "throughput", "post-failure", "commits",
                     "crash kills", "retracted", "lost"});
  core::ClusterResult baseline, displaced;
  for (const core::SweepPointResult& point : results) {
    const bool retraction = point.assignment[0].second == "true";
    const core::ClusterResult& result = point.result.cluster_result;
    (retraction ? displaced : baseline) = result;
    table.AddRow(
        {retraction ? "displacement + rejoin" : "crash, no retraction",
         util::StrFormat("%.1f/s", result.total_throughput),
         util::StrFormat("%.1f/s",
                         bench::SurgeThroughput(result, kCrashTime, 1e30)),
         util::StrFormat("%llu",
                         static_cast<unsigned long long>(result.commits)),
         util::StrFormat("%llu",
                         static_cast<unsigned long long>(result.crash_kills)),
         util::StrFormat("%llu",
                         static_cast<unsigned long long>(result.retracted)),
         util::StrFormat("%llu",
                         static_cast<unsigned long long>(result.lost))});
  }
  table.Print(std::cout);

  const double baseline_post =
      bench::SurgeThroughput(baseline, kCrashTime, 1e30);
  const double displaced_post =
      bench::SurgeThroughput(displaced, kCrashTime, 1e30);
  std::printf(
      "\nverdict:\n"
      "  post-failure throughput, displacement + rejoin : %.1f commits/s\n"
      "  post-failure throughput, crash baseline        : %.1f commits/s\n"
      "  displacement recovers the backlog: %s\n",
      displaced_post, baseline_post,
      displaced_post > baseline_post ? "YES" : "NO");
  std::printf(
      "\nThe crash lands mid-crowd, when node 0 holds a deep admission\n"
      "queue. Displacement moves that queue through the router onto the\n"
      "survivors (and retries the killed in-flight work); the baseline\n"
      "drops it. Both runs route around the dead node and re-admit it at\n"
      "t=%.0fs — the difference after the crash is exactly the retained\n"
      "work.\n",
      kRejoinTime);
  return displaced_post > baseline_post ? 0 : 1;
}
