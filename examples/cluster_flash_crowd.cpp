// Cluster flash crowd: the offered rate on a 4-node fleet spikes to ~1.5x
// cluster capacity for 40 seconds. Join-shortest-queue routing over
// per-node Parabola gates absorbs the crowd (the surplus waits in admission
// queues, committed throughput stays at the fleet peak); random routing
// over a badly tuned fixed limit lets every node thrash.
//
//   $ ./build/examples/cluster_flash_crowd

#include <cstdio>
#include <iostream>
#include <vector>

#include "core/cluster_experiment.h"
#include "core/export.h"
#include "core/spec.h"
#include "util/strformat.h"
#include "util/table.h"

int main() {
  using namespace alc;

  // One downscaled node: 4 CPUs, 600-granule database, thrashing knee near
  // n=25, peak ~150 commits/s.
  core::NodeSpec base;
  db::PhysicalConfig& physical = base.system.physical;
  physical.num_cpus = 4;
  physical.cpu_init_mean = 0.001;
  physical.cpu_access_mean = 0.001;
  physical.cpu_commit_mean = 0.001;
  physical.cpu_write_commit_mean = 0.004;
  physical.io_time = 0.008;
  physical.restart_delay_mean = 0.02;
  base.system.logical.db_size = 600;
  base.system.dynamics.k = db::Schedule::Constant(8);
  base.system.dynamics.write_fraction = db::Schedule::Constant(0.4);
  base.control.measurement_interval = 0.5;
  base.control.initial_limit = 20.0;
  util::ParamMap& params = base.control.params;
  params.SetDouble("pa.initial_bound", 20.0);
  params.SetDouble("pa.min_bound", 2.0);
  params.SetDouble("pa.max_bound", 200.0);
  params.SetDouble("pa.dither", 5.0);
  // The "statically tuned" limit: fine for the normal 320/s, deep in
  // thrashing territory once the crowd arrives.
  params.SetDouble("fixed.limit", 150.0);

  // Four copies; the seed override gives each node its own random stream.
  core::ExperimentSpec cluster;
  cluster.cluster = true;
  cluster.nodes.assign(4, base);
  if (!core::ApplySpecOverride(&cluster, "seed", "42", nullptr)) return 1;
  cluster.duration = 200.0;
  cluster.warmup = 20.0;
  cluster.arrival_rate = core::FlashCrowdSchedule(320.0, 900.0, 60.0, 100.0);

  util::Table table({"configuration", "throughput", "p-mean response",
                     "abort ratio", "commits"});
  core::ClusterResult adaptive;
  struct Setup {
    const char* label;
    const char* routing;
    const char* admission;
  };
  for (const Setup& setup :
       {Setup{"random + fixed(150)", "random", "fixed"},
        Setup{"jsq + parabola", "join-shortest-queue",
              "parabola-approximation"}}) {
    core::ExperimentSpec run = cluster;
    run.routing = setup.routing;
    for (core::NodeSpec& node : run.nodes) {
      node.control.controller = setup.admission;
    }
    const core::ClusterResult result = core::ClusterExperiment(run).Run();
    if (std::string_view(setup.admission) == "parabola-approximation") {
      adaptive = result;
    }
    table.AddRow({setup.label,
                  util::StrFormat("%.1f/s", result.total_throughput),
                  util::StrFormat("%.3fs", result.mean_response),
                  util::StrFormat("%.3f", result.abort_ratio),
                  util::StrFormat("%llu", static_cast<unsigned long long>(
                                              result.commits))});
  }
  table.Print(std::cout);

  std::printf("\njsq + parabola, cluster-wide view (every 20s):\n");
  std::printf("%8s %12s %12s %12s %14s\n", "time", "sum bound", "sum load",
              "throughput", "gate queue");
  for (const core::TrajectoryPoint& point : adaptive.aggregate) {
    const int t = static_cast<int>(point.time);
    if (t % 20 != 0 || point.time != t) continue;
    std::printf("%8d %12.0f %12.1f %12.1f %14.1f\n", t, point.bound,
                point.load, point.throughput, point.gate_queue);
  }
  std::vector<std::vector<core::TrajectoryPoint>> per_node;
  per_node.reserve(adaptive.nodes.size());
  for (const core::ClusterNodeResult& node : adaptive.nodes) {
    per_node.push_back(node.trajectory);
  }
  if (core::ExportClusterTrajectory("cluster_flash_crowd.csv", per_node)) {
    std::printf("\nwrote cluster_flash_crowd.csv (per-node trajectories, "
                "node id in column 1)\n");
  }

  std::printf(
      "\nDuring the crowd the four gates keep each node's admitted load at\n"
      "its optimum while the surplus queues at the gates; JSQ drains the\n"
      "queues evenly. The fixed-limit fleet admits ~150 per node and spends\n"
      "the crowd (and long after it) aborting conflicting transactions.\n");
  return 0;
}
