#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>

#include "cluster/router.h"
#include "core/cluster_experiment.h"
#include "core/export.h"
#include "db/system.h"
#include "placement/catalog.h"
#include "sim/simulator.h"

namespace alc {
namespace {

// ----------------------------------------------------------------- catalog --

placement::PlacementConfig Config(placement::PlacementKind kind,
                                  int partitions, int r) {
  placement::PlacementConfig config;
  config.kind = kind;
  config.num_partitions = partitions;
  config.replication_factor = r;
  return config;
}

TEST(PlacementCatalogTest, RangeMapIsContiguousAndCoversAllPartitions) {
  placement::PlacementCatalog catalog(
      Config(placement::PlacementKind::kRange, 8, 1), 4, 1000);
  std::set<int> seen;
  int previous = 0;
  for (uint32_t key = 0; key < 1000; ++key) {
    const int partition = catalog.PartitionOf(key);
    ASSERT_GE(partition, 0);
    ASSERT_LT(partition, 8);
    EXPECT_GE(partition, previous);  // monotone: contiguous blocks
    previous = partition;
    seen.insert(partition);
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(PlacementCatalogTest, HashMapSpreadsAContiguousRange) {
  placement::PlacementCatalog catalog(
      Config(placement::PlacementKind::kHash, 8, 1), 4, 1000);
  // The first 1/8 of the keyspace (a range hot spot) should land in many
  // partitions under the hash map, and deterministically so.
  std::set<int> seen;
  for (uint32_t key = 0; key < 125; ++key) {
    const int partition = catalog.PartitionOf(key);
    ASSERT_GE(partition, 0);
    ASSERT_LT(partition, 8);
    EXPECT_EQ(partition, catalog.PartitionOf(key));
    seen.insert(partition);
  }
  EXPECT_GT(seen.size(), 4u);
}

TEST(PlacementCatalogTest, ReplicaInvariantsHold) {
  placement::PlacementCatalog catalog(
      Config(placement::PlacementKind::kReplicated, 16, 3), 4, 1600);
  EXPECT_EQ(catalog.replication_factor(), 3);
  int homes_total = 0;
  for (int p = 0; p < catalog.num_partitions(); ++p) {
    const std::vector<int>& replicas = catalog.Replicas(p);
    ASSERT_EQ(replicas.size(), 3u);
    std::set<int> distinct(replicas.begin(), replicas.end());
    EXPECT_EQ(distinct.size(), replicas.size()) << "partition " << p;
    EXPECT_EQ(catalog.HomeNode(p), replicas[0]);
    for (int node : replicas) {
      EXPECT_GE(node, 0);
      EXPECT_LT(node, 4);
      EXPECT_TRUE(catalog.IsReplica(p, node));
    }
  }
  for (int node = 0; node < 4; ++node) {
    homes_total += catalog.HomePartitionCount(node);
    EXPECT_GE(catalog.ReplicaPartitionCount(node),
              catalog.HomePartitionCount(node));
  }
  EXPECT_EQ(homes_total, catalog.num_partitions());
}

TEST(PlacementCatalogTest, ReplicationFactorClampsToFleetSize) {
  placement::PlacementCatalog catalog(
      Config(placement::PlacementKind::kReplicated, 4, 9), 3, 400);
  EXPECT_EQ(catalog.replication_factor(), 3);  // r <= N
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(catalog.Replicas(p).size(), 3u);
  }
}

TEST(PlacementCatalogTest, HashAndRangeAreSingleCopy) {
  for (placement::PlacementKind kind :
       {placement::PlacementKind::kHash, placement::PlacementKind::kRange}) {
    placement::PlacementCatalog catalog(Config(kind, 8, 3), 4, 800);
    EXPECT_EQ(catalog.replication_factor(), 1) << PlacementKindName(kind);
  }
}

TEST(PlacementCatalogTest, CountTouchesSortsByCountThenPartition) {
  placement::PlacementCatalog catalog(
      Config(placement::PlacementKind::kRange, 4, 1), 4, 400);
  // Partitions: [0,100) -> 0, [100,200) -> 1, etc.
  const std::vector<db::ItemId> keys = {10, 20, 150, 250, 260, 270};
  std::vector<std::pair<int, int>> touches;
  catalog.CountTouches(keys, &touches);
  ASSERT_EQ(touches.size(), 3u);
  EXPECT_EQ(touches[0], (std::pair<int, int>{2, 3}));
  EXPECT_EQ(touches[1], (std::pair<int, int>{0, 2}));
  EXPECT_EQ(touches[2], (std::pair<int, int>{1, 1}));
  EXPECT_EQ(catalog.MostTouchedPartition(keys), 2);
}

TEST(PlacementCatalogTest, MostTouchedTieGoesToLowestPartition) {
  placement::PlacementCatalog catalog(
      Config(placement::PlacementKind::kRange, 4, 1), 4, 400);
  EXPECT_EQ(catalog.MostTouchedPartition({350, 150, 310, 110}), 1);
  EXPECT_EQ(catalog.MostTouchedPartition({}), -1);
}

TEST(PlacementCatalogTest, RebalanceMovesHottestToLeastLoaded) {
  placement::PlacementCatalog catalog(
      Config(placement::PlacementKind::kReplicated, 4, 2), 4, 400);
  // Initial striping: partition p homed on node p.
  ASSERT_EQ(catalog.HomeNode(2), 2);
  for (int i = 0; i < 100; ++i) catalog.RecordAccess(2);
  catalog.RecordAccess(0);
  const int moved = catalog.Rebalance({5, 9, 7, 1});
  EXPECT_EQ(moved, 1);  // rebalance_moves defaults to 1
  EXPECT_EQ(catalog.HomeNode(2), 3);  // least-loaded node
  // The old home keeps a copy; the set keeps its replication factor.
  EXPECT_TRUE(catalog.IsReplica(2, 2));
  EXPECT_EQ(catalog.Replicas(2).size(), 2u);
  // Heat resets after the rebalance window closes.
  EXPECT_EQ(catalog.heat(2), 0u);
  EXPECT_EQ(catalog.rebalances(), 1u);
  EXPECT_EQ(catalog.migrations(), 1u);
}

TEST(PlacementCatalogTest, RebalanceIsDeterministic) {
  auto run = [] {
    placement::PlacementCatalog catalog(
        Config(placement::PlacementKind::kReplicated, 8, 2), 4, 800);
    for (int p = 0; p < 8; ++p) {
      for (int i = 0; i < (p * 13) % 7; ++i) catalog.RecordAccess(p);
    }
    catalog.Rebalance({3, 1, 4, 1});
    for (int p = 0; p < 8; ++p) {
      for (int i = 0; i < (p * 5) % 11; ++i) catalog.RecordAccess(p);
    }
    catalog.Rebalance({2, 7, 1, 8});
    std::vector<int> homes;
    for (int p = 0; p < 8; ++p) homes.push_back(catalog.HomeNode(p));
    return homes;
  };
  EXPECT_EQ(run(), run());
}

TEST(PlacementCatalogTest, RebalanceSkipsColdAndAlreadyPlacedPartitions) {
  placement::PlacementCatalog catalog(
      Config(placement::PlacementKind::kRange, 4, 1), 4, 400);
  // No heat at all: nothing moves.
  EXPECT_EQ(catalog.Rebalance({4, 3, 2, 1}), 0);
  // Hottest partition already homed on the least-loaded node: no move.
  for (int i = 0; i < 10; ++i) catalog.RecordAccess(3);
  EXPECT_EQ(catalog.Rebalance({4, 3, 2, 1}), 0);
  EXPECT_EQ(catalog.HomeNode(3), 3);
}

// ------------------------------------------------------------------ router --

std::vector<cluster::NodeView> Views(std::vector<int> active,
                                     std::vector<int> queued,
                                     double limit = 50.0) {
  std::vector<cluster::NodeView> views(active.size());
  for (size_t i = 0; i < active.size(); ++i) {
    views[i].active = active[i];
    views[i].gate_queue = queued[i];
    views[i].limit = limit;
  }
  return views;
}

cluster::RouteContext Context(const std::vector<db::ItemId>* keys,
                              const placement::PlacementCatalog* catalog) {
  cluster::RouteContext context;
  context.keys = keys;
  context.catalog = catalog;
  return context;
}

/// Routes one arrival over an all-live membership.
int RouteAllLive(cluster::RoutingPolicy& policy,
                 const std::vector<cluster::NodeView>& views,
                 const cluster::RouteContext& context = {}) {
  cluster::AllLiveMembership membership(views);
  return policy.Route(membership.view(), context);
}

TEST(PlacementRoutingTest, LocalityRoutesToHomeOfMostTouchedPartition) {
  placement::PlacementCatalog catalog(
      Config(placement::PlacementKind::kRange, 4, 1), 4, 400);
  cluster::LocalityPolicy policy;
  // Keys concentrated in partition 2 (homed on node 2), even though node 2
  // is the most loaded: locality is deliberately load-blind.
  const std::vector<db::ItemId> keys = {210, 220, 230, 10};
  const auto views = Views({1, 1, 40, 1}, {0, 0, 10, 0});
  EXPECT_EQ(RouteAllLive(policy, views, Context(&keys, &catalog)), 2);
}

TEST(PlacementRoutingTest, LocalityBreaksPartitionTiesByLoad) {
  placement::PlacementCatalog catalog(
      Config(placement::PlacementKind::kRange, 4, 1), 4, 400);
  cluster::LocalityPolicy policy;
  // Partitions 1 and 3 equally touched; node 3 is cheaper than node 1.
  const std::vector<db::ItemId> keys = {110, 120, 310, 320};
  const auto views = Views({9, 9, 9, 2}, {0, 0, 0, 0});
  EXPECT_EQ(RouteAllLive(policy, views, Context(&keys, &catalog)), 3);
}

TEST(PlacementRoutingTest, LocalityWithoutPlacementPicksLeastOccupied) {
  cluster::LocalityPolicy policy;
  EXPECT_EQ(RouteAllLive(policy, Views({5, 2, 9}, {0, 0, 0})), 1);
}

TEST(PlacementRoutingTest, LocalityThresholdStaysHomeWithHeadroom) {
  placement::PlacementCatalog catalog(
      Config(placement::PlacementKind::kReplicated, 4, 2), 4, 400);
  cluster::LocalityThresholdPolicy policy;
  const std::vector<db::ItemId> keys = {10, 20, 30};
  // Home node 0 at occupancy 8 with limit 20: stay home.
  const auto views = Views({8, 0, 0, 0}, {0, 0, 0, 0}, 20.0);
  EXPECT_EQ(RouteAllLive(policy, views, Context(&keys, &catalog)), 0);
}

TEST(PlacementRoutingTest, LocalityThresholdSpillsToCheapestReplica) {
  placement::PlacementCatalog catalog(
      Config(placement::PlacementKind::kReplicated, 4, 3), 4, 400);
  cluster::LocalityThresholdPolicy policy;
  // Partition 0 replicas: {0, 1, 2}. Home 0 is past its n*; node 3 is the
  // globally cheapest but holds no copy — the spill must stay inside the
  // replica set, so node 2 wins.
  const std::vector<db::ItemId> keys = {10, 20, 30};
  const auto views = Views({30, 12, 4, 0}, {5, 0, 0, 0}, 20.0);
  EXPECT_EQ(RouteAllLive(policy, views, Context(&keys, &catalog)), 2);
}

TEST(PlacementRoutingTest, PowerOfDSamplesWithinReplicaSetDeterministically) {
  placement::PlacementCatalog catalog(
      Config(placement::PlacementKind::kReplicated, 4, 2), 4, 400);
  // Partition 1 replicas: {1, 2}.
  const std::vector<db::ItemId> keys = {110, 120};
  const auto views = Views({3, 3, 3, 0}, {0, 0, 0, 0});
  cluster::PowerOfDPolicy a(cluster::PowerOfDPolicy::Config{2}, 11);
  cluster::PowerOfDPolicy b(cluster::PowerOfDPolicy::Config{2}, 11);
  for (int i = 0; i < 100; ++i) {
    const int choice = RouteAllLive(a, views, Context(&keys, &catalog));
    EXPECT_TRUE(choice == 1 || choice == 2) << choice;
    EXPECT_EQ(choice, RouteAllLive(b, views, Context(&keys, &catalog)));
  }
}

TEST(PlacementRoutingTest, PowerOfDWithoutPlacementCoversFleetAndPicksLoad) {
  cluster::PowerOfDPolicy policy(cluster::PowerOfDPolicy::Config{2}, 5);
  const auto views = Views({4, 4, 4, 4}, {0, 0, 0, 0});
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 400; ++i) ++hits[RouteAllLive(policy, views)];
  for (int count : hits) EXPECT_GT(count, 0);
  // With d = fleet size it degenerates to full JSQ.
  cluster::PowerOfDPolicy jsq(cluster::PowerOfDPolicy::Config{4}, 5);
  EXPECT_EQ(RouteAllLive(jsq, Views({7, 3, 9, 5}, {0, 0, 0, 0})), 1);
}

// When the plurality partition's home is outside the fleet, locality must
// fall through to the next-most-touched partition that does have a home
// inside the fleet — not degrade straight to load-only routing.
TEST(PlacementRoutingTest, LocalityFallsThroughToLowerTouchTier) {
  placement::PlacementCatalog catalog(
      Config(placement::PlacementKind::kRange, 8, 1), 8, 800);
  // Partition 6 (home node 6) holds the plurality, but only nodes 0-3 are
  // routable; partition 1 (home node 1) is the best reachable anchor.
  const std::vector<db::ItemId> keys = {610, 620, 630, 110, 120};
  const auto views = Views({0, 5, 7, 7}, {0, 0, 0, 0});
  cluster::LocalityPolicy locality;
  EXPECT_EQ(RouteAllLive(locality, views, Context(&keys, &catalog)), 1);
  cluster::LocalityThresholdPolicy threshold;
  EXPECT_EQ(RouteAllLive(threshold, views, Context(&keys, &catalog)), 1);
}

// Regression: a catalog can name nodes outside the routed fleet (e.g.
// built for a larger cluster, or after nodes left). The eligible set is
// then empty and the router must fall back to the full fleet instead of
// indexing out of bounds.
TEST(PlacementRoutingTest, DegenerateReplicaSetFallsBackToFullFleet) {
  placement::PlacementCatalog catalog(
      Config(placement::PlacementKind::kRange, 8, 1), 8, 800);
  // Keys in partition 5, homed on node 5 — but only 2 nodes are routable.
  const std::vector<db::ItemId> keys = {510, 520};
  const auto views = Views({9, 2}, {0, 0});
  const cluster::RouteContext context = Context(&keys, &catalog);

  cluster::LocalityPolicy locality;
  EXPECT_EQ(RouteAllLive(locality, views, context), 1);
  cluster::LocalityThresholdPolicy threshold;
  EXPECT_EQ(RouteAllLive(threshold, views, context), 1);
  cluster::PowerOfDPolicy power(cluster::PowerOfDPolicy::Config{2}, 3);
  for (int i = 0; i < 50; ++i) {
    const int choice = RouteAllLive(power, views, context);
    EXPECT_GE(choice, 0);
    EXPECT_LT(choice, 2);
  }

  std::vector<int> candidates;
  bool warned = false;
  cluster::AllLiveMembership membership(views);
  EXPECT_EQ(cluster::EligibleCandidates(membership.view(), context,
                                        &candidates, &warned),
            5);
  EXPECT_EQ(candidates, (std::vector<int>{0, 1}));
  EXPECT_TRUE(warned);
}

// ------------------------------------------------------- planned execution --

TEST(PlannedSubmissionTest, RemoteAccessesAreCountedAndPenalized) {
  sim::Simulator sim;
  db::SystemConfig config;
  config.arrivals = db::ArrivalMode::kExternal;
  config.physical.num_terminals = 4;
  config.logical.db_size = 100;
  config.remote.cpu_penalty = 0.002;
  config.remote.latency = 0.010;
  config.seed = 3;
  db::TransactionSystem system(&sim, config);
  system.Start();
  const std::vector<db::ItemId> items = {1, 2, 3};
  const std::vector<db::AccessMode> modes = {db::AccessMode::kRead,
                                             db::AccessMode::kWrite,
                                             db::AccessMode::kRead};
  system.SubmitExternalPlanned(db::TxnClass::kUpdater, items, modes,
                               {0, 1, 1});
  sim.RunUntil(30.0);
  EXPECT_EQ(system.metrics().counters.commits, 1u);
  EXPECT_EQ(system.metrics().counters.local_accesses, 1u);
  EXPECT_EQ(system.metrics().counters.remote_accesses, 2u);
}

// -------------------------------------------------------------- experiment --

core::NodeSpec SmallNode(uint64_t seed) {
  core::NodeSpec node;
  node.system.physical.num_cpus = 4;
  node.system.physical.cpu_init_mean = 0.001;
  node.system.physical.cpu_access_mean = 0.001;
  node.system.physical.cpu_commit_mean = 0.001;
  node.system.physical.cpu_write_commit_mean = 0.004;
  node.system.physical.io_time = 0.008;
  node.system.physical.restart_delay_mean = 0.02;
  node.system.logical.db_size = 600;
  node.system.dynamics.k = db::Schedule::Constant(8);
  node.system.dynamics.query_fraction = db::Schedule::Constant(0.3);
  node.system.dynamics.write_fraction = db::Schedule::Constant(0.4);
  node.system.seed = seed;
  node.control.controller = "parabola-approximation";
  node.control.measurement_interval = 0.5;
  node.control.initial_limit = 20.0;
  node.control.params.SetDouble("pa.initial_bound", 20.0);
  node.control.params.SetDouble("pa.min_bound", 2.0);
  node.control.params.SetDouble("pa.max_bound", 150.0);
  node.control.params.SetDouble("pa.dither", 5.0);
  return node;
}

core::ExperimentSpec PlacedCluster(int num_nodes, uint64_t seed = 19) {
  core::ExperimentSpec spec;
  spec.cluster = true;
  for (int i = 0; i < num_nodes; ++i) {
    spec.nodes.push_back(SmallNode(core::DecorrelatedNodeSeed(seed, i)));
  }
  spec.seed = seed;
  spec.arrival_rate = db::Schedule::Constant(60.0 * num_nodes);
  spec.duration = 40.0;
  spec.warmup = 10.0;
  spec.routing = "locality-threshold";
  spec.placement_enabled = true;
  spec.placement.placement.kind = placement::PlacementKind::kReplicated;
  spec.placement.placement.num_partitions = 8;
  spec.placement.placement.replication_factor = 2;
  spec.placement.workload = spec.nodes[0].system.logical;
  spec.placement.workload.hotspot_access_prob = 0.6;
  spec.placement.workload.hotspot_size_fraction = 0.125;
  spec.remote_access.cpu_penalty = 0.001;
  spec.remote_access.latency = 0.008;
  spec.remote_access.serve_cpu = 0.001;
  return spec;
}

TEST(PlacementExperimentTest, PlacedRunCommitsAndTracksRemoteTraffic) {
  const core::ExperimentSpec spec = PlacedCluster(4);
  const core::ClusterResult result = core::ClusterExperiment(spec).Run();
  ASSERT_EQ(result.nodes.size(), 4u);
  EXPECT_GT(result.commits, 0u);
  EXPECT_GT(result.remote_frac, 0.0);
  EXPECT_LT(result.remote_frac, 1.0);
  int partitions_owned = 0;
  uint64_t accesses = 0;
  for (const core::ClusterNodeResult& node : result.nodes) {
    partitions_owned += node.partitions_owned;
    accesses += node.local_accesses + node.remote_accesses;
    EXPECT_GE(node.partitions_held, node.partitions_owned);
  }
  EXPECT_EQ(partitions_owned, 8);  // every partition has exactly one home
  EXPECT_GT(accesses, 0u);
  // End-of-run catalog snapshot: one entry per partition, homes consistent
  // with the per-node ownership counts.
  ASSERT_EQ(result.partitions.size(), 8u);
  for (const core::PartitionPlacement& partition : result.partitions) {
    EXPECT_GE(partition.home_node, 0);
    EXPECT_LT(partition.home_node, 4);
    EXPECT_EQ(partition.num_replicas, 2);
    EXPECT_GT(partition.heat, 0u);  // skewed stream touched every partition
  }
}

TEST(PlacementExperimentTest, EveryPlacementKindAndRoutingRuns) {
  for (placement::PlacementKind kind :
       {placement::PlacementKind::kHash, placement::PlacementKind::kRange,
        placement::PlacementKind::kReplicated}) {
    for (const char* routing :
         {"join-shortest-queue", "power-of-d", "locality",
          "locality-threshold"}) {
      core::ExperimentSpec spec = PlacedCluster(2);
      spec.duration = 15.0;
      spec.warmup = 5.0;
      spec.placement.placement.kind = kind;
      spec.routing = routing;
      const core::ClusterResult result =
          core::ClusterExperiment(spec).Run();
      EXPECT_GT(result.commits, 0u)
          << PlacementKindName(kind) << " + "
          << routing;
    }
  }
}

TEST(PlacementExperimentTest, RebalancerRunsOnSchedule) {
  core::ExperimentSpec spec = PlacedCluster(4);
  spec.placement.placement.rebalance_interval = 5.0;
  spec.placement.placement.rebalance_moves = 2;
  const core::ClusterResult result = core::ClusterExperiment(spec).Run();
  EXPECT_GE(result.rebalances, 7u);  // 40s run / 5s interval, minus edge
  EXPECT_GT(result.commits, 0u);
}

void ExpectPointsBitIdentical(const core::TrajectoryPoint& a,
                              const core::TrajectoryPoint& b) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(core::TrajectoryPoint)), 0);
}

std::string ClusterCsv(const core::ClusterResult& result) {
  std::vector<std::vector<core::TrajectoryPoint>> trajectories;
  std::vector<core::ClusterNodePlacementInfo> info;
  for (const core::ClusterNodeResult& node : result.nodes) {
    trajectories.push_back(node.trajectory);
    info.push_back({node.remote_frac, node.partitions_owned});
  }
  std::ostringstream out;
  core::WriteClusterTrajectoryCsv(out, trajectories, info);
  return out.str();
}

TEST(PlacementExperimentTest, FourNodePlacedRunIsBitDeterministic) {
  core::ExperimentSpec spec = PlacedCluster(4, 29);
  spec.placement.placement.rebalance_interval = 7.0;
  const core::ClusterResult a = core::ClusterExperiment(spec).Run();
  const core::ClusterResult b = core::ClusterExperiment(spec).Run();
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.routed, b.routed);
  EXPECT_EQ(a.migrations, b.migrations);
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].commits, b.nodes[i].commits);
    EXPECT_EQ(a.nodes[i].routed, b.nodes[i].routed);
    EXPECT_EQ(a.nodes[i].remote_accesses, b.nodes[i].remote_accesses);
    EXPECT_EQ(a.nodes[i].local_accesses, b.nodes[i].local_accesses);
    EXPECT_EQ(a.nodes[i].partitions_owned, b.nodes[i].partitions_owned);
    ASSERT_EQ(a.nodes[i].trajectory.size(), b.nodes[i].trajectory.size());
    for (size_t t = 0; t < a.nodes[i].trajectory.size(); ++t) {
      ExpectPointsBitIdentical(a.nodes[i].trajectory[t],
                               b.nodes[i].trajectory[t]);
    }
  }
  // Same seed => byte-identical CSV artifact.
  EXPECT_EQ(ClusterCsv(a), ClusterCsv(b));
}

TEST(PlacementExperimentTest, SeedChangesPlacedOutcome) {
  const core::ClusterResult a =
      core::ClusterExperiment(PlacedCluster(2, 1)).Run();
  const core::ClusterResult b =
      core::ClusterExperiment(PlacedCluster(2, 2)).Run();
  EXPECT_NE(a.commits, b.commits);
}

// ------------------------------------------------------------------ export --

TEST(PlacementExportTest, ClusterCsvHeaderIsStable) {
  std::vector<std::vector<core::TrajectoryPoint>> nodes(1);
  nodes[0].resize(1);
  std::ostringstream out;
  core::WriteClusterTrajectoryCsv(out, nodes, {{0.25, 3}});
  const std::string csv = out.str();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "node,time,bound,load,throughput,response,conflict_rate,"
            "gate_queue,cpu_utilization,remote_frac,partitions_owned,"
            "members,epoch,response_p50,response_p95,response_p99,"
            "response_p999");
  // Without a membership series the row reports the always-up default:
  // whole fleet (1 node) live at epoch 0.
  EXPECT_NE(csv.find("0.25,3,1,0"), std::string::npos);
}

TEST(PlacementExportTest, PlacementCsvListsPartitions) {
  placement::PlacementCatalog catalog(
      Config(placement::PlacementKind::kReplicated, 4, 2), 4, 400);
  catalog.RecordAccess(1);
  catalog.RecordAccess(1);
  std::ostringstream out;
  core::WritePlacementCsv(out, catalog);
  const std::string csv = out.str();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "partition,home_node,num_replicas,heat");
  EXPECT_NE(csv.find("1,1,2,2"), std::string::npos);  // partition 1 row
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
}

}  // namespace
}  // namespace alc
