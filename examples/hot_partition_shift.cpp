// Hot partition shift: the hot-spot-aware rebalancer migrates the hottest
// partitions mid-run. A 4-node fleet runs a range placement (one copy per
// partition) under a skewed stream where 80% of accesses hit partition 0,
// routed by locality-threshold over per-node Parabola gates.
//
// The initial placement homes partition 0 on node 0 — statically, that node
// drowns while the rest of the fleet idles. With the rebalancer enabled,
// every 15 seconds the catalog moves the hottest partitions (by access
// count since the last tick) onto the least-loaded nodes, so ownership of
// the hot data — and the load with it — spreads across the fleet without
// any replica copies.
//
//   $ ./build/examples/hot_partition_shift

#include <cstdio>
#include <iostream>
#include <vector>

#include "core/cluster_experiment.h"
#include "core/export.h"
#include "core/spec.h"
#include "placement/catalog.h"
#include "util/strformat.h"
#include "util/table.h"

int main() {
  using namespace alc;

  constexpr int kNumNodes = 4;
  constexpr int kNumPartitions = 16;
  constexpr uint32_t kDbSize = 9600;

  // One downscaled node: 4 CPUs, thrashing knee near n=25.
  core::NodeSpec base;
  db::PhysicalConfig& physical = base.system.physical;
  physical.num_cpus = 4;
  physical.cpu_init_mean = 0.001;
  physical.cpu_access_mean = 0.001;
  physical.cpu_commit_mean = 0.001;
  physical.cpu_write_commit_mean = 0.004;
  physical.io_time = 0.008;
  physical.restart_delay_mean = 0.02;
  base.system.logical.db_size = kDbSize;
  base.system.dynamics.k = db::Schedule::Constant(8);
  base.system.dynamics.query_fraction = db::Schedule::Constant(0.5);
  base.system.dynamics.write_fraction = db::Schedule::Constant(0.1);
  base.control.controller = "parabola-approximation";
  base.control.measurement_interval = 0.5;
  base.control.initial_limit = 20.0;
  util::ParamMap& params = base.control.params;
  params.SetDouble("pa.initial_bound", 20.0);
  params.SetDouble("pa.min_bound", 2.0);
  params.SetDouble("pa.max_bound", 200.0);
  params.SetDouble("pa.dither", 5.0);

  // Four copies; the seed override gives each node its own random stream.
  core::ExperimentSpec cluster;
  cluster.cluster = true;
  cluster.nodes.assign(kNumNodes, base);
  if (!core::ApplySpecOverride(&cluster, "seed", "7", nullptr)) return 1;
  cluster.duration = 150.0;
  cluster.warmup = 20.0;
  cluster.routing = "locality-threshold";
  cluster.arrival_rate = db::Schedule::Constant(450.0);
  cluster.placement_enabled = true;
  cluster.placement.placement.kind = placement::PlacementKind::kRange;
  cluster.placement.placement.num_partitions = kNumPartitions;
  cluster.placement.workload = base.system.logical;
  cluster.placement.dynamics = base.system.dynamics;
  cluster.placement.workload.hotspot_access_prob = 0.8;
  cluster.placement.workload.hotspot_size_fraction = 1.0 / kNumPartitions;
  cluster.remote_access.cpu_penalty = 0.002;
  cluster.remote_access.latency = 0.016;
  cluster.remote_access.serve_cpu = 0.001;

  struct Setup {
    const char* label;
    double rebalance_interval;
    int rebalance_moves;
  };
  util::Table table({"configuration", "throughput", "p-mean response",
                     "remote frac", "migrations", "commits"});
  core::ClusterResult with_rebalance;
  for (const Setup& setup :
       {Setup{"static placement", 0.0, 0},
        Setup{"rebalance every 15s (2 moves)", 15.0, 2}}) {
    core::ExperimentSpec run = cluster;
    run.placement.placement.rebalance_interval = setup.rebalance_interval;
    run.placement.placement.rebalance_moves = setup.rebalance_moves;
    const core::ClusterResult result = core::ClusterExperiment(run).Run();
    if (setup.rebalance_interval > 0.0) with_rebalance = result;
    table.AddRow({setup.label,
                  util::StrFormat("%.1f/s", result.total_throughput),
                  util::StrFormat("%.3fs", result.mean_response),
                  util::StrFormat("%.3f", result.remote_frac),
                  util::StrFormat("%llu", static_cast<unsigned long long>(
                                              result.migrations)),
                  util::StrFormat("%llu", static_cast<unsigned long long>(
                                              result.commits))});
  }
  table.Print(std::cout);

  std::printf("\nper-node picture with the rebalancer on:\n");
  std::printf("%6s %10s %14s %12s %18s\n", "node", "routed", "commits",
              "remote frac", "partitions owned");
  for (size_t i = 0; i < with_rebalance.nodes.size(); ++i) {
    const core::ClusterNodeResult& node = with_rebalance.nodes[i];
    std::printf("%6zu %10llu %14llu %12.3f %18d\n", i,
                static_cast<unsigned long long>(node.routed),
                static_cast<unsigned long long>(node.commits),
                node.remote_frac, node.partitions_owned);
  }

  std::vector<std::vector<core::TrajectoryPoint>> per_node;
  std::vector<core::ClusterNodePlacementInfo> placement_info;
  for (const core::ClusterNodeResult& node : with_rebalance.nodes) {
    per_node.push_back(node.trajectory);
    placement_info.push_back({node.remote_frac, node.partitions_owned});
  }
  if (core::ExportClusterTrajectory("hot_partition_shift.csv", per_node,
                                    placement_info) &&
      core::ExportPlacement("hot_partition_shift_partitions.csv",
                            with_rebalance.partitions)) {
    std::printf(
        "\nwrote hot_partition_shift.csv (per-node trajectories with\n"
        "remote_frac/partitions_owned) and hot_partition_shift_partitions.csv\n"
        "(end-of-run partition map)\n");
  }

  std::printf(
      "\nWith a static range placement the locality router has no choice:\n"
      "partition 0's only copy lives on node 0, so 80%% of all accesses\n"
      "funnel into one admission gate. The rebalancer watches per-partition\n"
      "access heat and moves the hottest partitions onto the least-loaded\n"
      "nodes every tick; the hot partition keeps migrating toward idle\n"
      "capacity, ownership spreads, and committed throughput rises without\n"
      "storing a single extra replica.\n");
  return 0;
}
