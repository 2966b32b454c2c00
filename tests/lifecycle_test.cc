// Membership-first cluster lifecycle: availability schedules, the
// epoch-versioned MembershipView the policies route over, crash/drain/
// rejoin semantics with cluster-level displacement, the catalog's
// membership subscription, spec grammar + error paths for the lifecycle
// keys, and the bit-determinism of failure/recovery runs.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/lifecycle.h"
#include "cluster/router.h"
#include "core/cluster_experiment.h"
#include "core/export.h"
#include "core/spec.h"
#include "placement/catalog.h"

namespace alc {
namespace {

using cluster::AvailabilitySchedule;
using cluster::NodeState;

AvailabilitySchedule Avail(const std::string& literal) {
  AvailabilitySchedule availability;
  std::string error;
  EXPECT_TRUE(AvailabilitySchedule::Parse(literal, &availability, &error))
      << error;
  return availability;
}

// ------------------------------------------------------------ schedules --

TEST(AvailabilityScheduleTest, DefaultIsAlwaysUp) {
  AvailabilitySchedule availability;
  EXPECT_TRUE(availability.always_up());
  EXPECT_EQ(availability.StateAt(0.0), NodeState::kUp);
  EXPECT_EQ(availability.StateAt(1e9), NodeState::kUp);
  EXPECT_EQ(availability.ToString(), "avail(up)");
}

TEST(AvailabilityScheduleTest, SegmentsTakeEffectAtTheirTimes) {
  const AvailabilitySchedule availability =
      Avail("avail(up; 60:down, 90:drain, 120:up)");
  EXPECT_FALSE(availability.always_up());
  EXPECT_EQ(availability.StateAt(0.0), NodeState::kUp);
  EXPECT_EQ(availability.StateAt(59.999), NodeState::kUp);
  EXPECT_EQ(availability.StateAt(60.0), NodeState::kDown);
  EXPECT_EQ(availability.StateAt(90.0), NodeState::kDrain);
  EXPECT_EQ(availability.StateAt(500.0), NodeState::kUp);
}

TEST(AvailabilityScheduleTest, ToStringParsesBackExactly) {
  for (const char* literal :
       {"avail(up)", "avail(down)", "avail(drain; 10:up)",
        "avail(up; 60:down, 90.5:up, 200:drain)"}) {
    const AvailabilitySchedule availability = Avail(literal);
    EXPECT_EQ(availability.ToString(), literal);
    EXPECT_EQ(Avail(availability.ToString()), availability);
  }
}

TEST(AvailabilityScheduleTest, ParseRejectsMalformedLiterals) {
  AvailabilitySchedule availability;
  std::string error;
  EXPECT_FALSE(
      AvailabilitySchedule::Parse("avail(sideways)", &availability, &error));
  EXPECT_NE(error.find("unknown availability state 'sideways'"),
            std::string::npos)
      << error;
  EXPECT_FALSE(AvailabilitySchedule::Parse("avail(up; 90:down, 60:up)",
                                           &availability, &error));
  EXPECT_NE(error.find("strictly increasing"), std::string::npos) << error;
  EXPECT_FALSE(
      AvailabilitySchedule::Parse("avail(up; 0:down)", &availability, &error));
  EXPECT_NE(error.find("must be positive"), std::string::npos) << error;
  EXPECT_FALSE(
      AvailabilitySchedule::Parse("avail(up; down)", &availability, &error));
  EXPECT_NE(error.find("time:state"), std::string::npos) << error;
  EXPECT_FALSE(AvailabilitySchedule::Parse("steps(1; 2:3)", &availability,
                                           &error));
}

// ----------------------------------------------------- membership routing --

std::vector<cluster::NodeView> Views(std::vector<int> active) {
  std::vector<cluster::NodeView> views(active.size());
  for (size_t i = 0; i < active.size(); ++i) {
    views[i].active = active[i];
    views[i].limit = 50.0;
  }
  return views;
}

TEST(MembershipViewTest, PoliciesRouteOnlyOverTheLiveSet) {
  const auto views = Views({0, 0, 0, 0});
  const std::vector<int> live = {1, 3};
  cluster::MembershipView membership;
  membership.nodes = &views;
  membership.live = &live;
  membership.epoch = 7;
  EXPECT_TRUE(membership.IsLive(1));
  EXPECT_FALSE(membership.IsLive(0));
  EXPECT_EQ(membership.num_live(), 2);

  cluster::RoundRobinPolicy round_robin;
  cluster::RandomPolicy random(3);
  cluster::JoinShortestQueuePolicy jsq;
  cluster::ThresholdPolicy threshold(cluster::ThresholdPolicy::Config{});
  cluster::PowerOfDPolicy power(cluster::PowerOfDPolicy::Config{2}, 5);
  const cluster::RouteContext context;
  for (int i = 0; i < 50; ++i) {
    for (cluster::RoutingPolicy* policy :
         {static_cast<cluster::RoutingPolicy*>(&round_robin),
          static_cast<cluster::RoutingPolicy*>(&random),
          static_cast<cluster::RoutingPolicy*>(&jsq),
          static_cast<cluster::RoutingPolicy*>(&threshold),
          static_cast<cluster::RoutingPolicy*>(&power)}) {
      const int target = policy->Route(membership, context);
      EXPECT_TRUE(target == 1 || target == 3) << policy->name();
    }
  }
}

TEST(MembershipViewTest, LocalityFallsAwayFromDeadHome) {
  placement::PlacementConfig config;
  config.kind = placement::PlacementKind::kReplicated;
  config.num_partitions = 4;
  config.replication_factor = 2;
  placement::PlacementCatalog catalog(config, 4, 400);
  // Partition 1 is homed on node 1 with replica node 2.
  ASSERT_EQ(catalog.HomeNode(1), 1);
  const std::vector<db::ItemId> keys = {110, 120, 130};
  const auto views = Views({0, 0, 5, 0});
  cluster::RouteContext context;
  context.keys = &keys;
  context.catalog = &catalog;

  // All live: locality picks the home.
  cluster::AllLiveMembership all(views);
  cluster::LocalityPolicy locality;
  EXPECT_EQ(locality.Route(all.view(), context), 1);

  // Node 1 dead: the home is unroutable; the policy degrades to the
  // cheapest live node (and locality-threshold spills inside the live
  // replica set).
  const std::vector<int> live = {0, 2, 3};
  cluster::MembershipView partial;
  partial.nodes = &views;
  partial.live = &live;
  const int target = locality.Route(partial, context);
  EXPECT_NE(target, 1);
  cluster::LocalityThresholdPolicy locality_threshold;
  EXPECT_NE(locality_threshold.Route(partial, context), 1);
}

// ------------------------------------------------- catalog subscription --

TEST(CatalogMembershipTest, OrphanedPartitionsRehomeOntoLiveReplicas) {
  placement::PlacementConfig config;
  config.kind = placement::PlacementKind::kReplicated;
  config.num_partitions = 8;
  config.replication_factor = 2;
  placement::PlacementCatalog catalog(config, 4, 800);
  // Striping: partition p homed on p % 4, replica on (p + 1) % 4.
  ASSERT_EQ(catalog.HomeNode(0), 0);
  ASSERT_EQ(catalog.HomeNode(4), 0);
  const uint64_t migrations_before = catalog.migrations();

  catalog.SetNodeLive(0, false);
  EXPECT_FALSE(catalog.IsNodeLive(0));
  // Both orphans re-homed onto their first live replica (node 1), and the
  // moves count as migrations.
  EXPECT_EQ(catalog.HomeNode(0), 1);
  EXPECT_EQ(catalog.HomeNode(4), 1);
  EXPECT_EQ(catalog.migrations(), migrations_before + 2);
  for (int p = 0; p < 8; ++p) {
    EXPECT_NE(catalog.HomeNode(p), 0) << "partition " << p;
  }

  // Rejoin: the node is live again but regains homes only through the
  // rebalancer.
  catalog.SetNodeLive(0, true);
  EXPECT_TRUE(catalog.IsNodeLive(0));
  EXPECT_EQ(catalog.HomePartitionCount(0), 0);
}

TEST(CatalogMembershipTest, RebalanceNeverHomesOntoDeadNodes) {
  placement::PlacementConfig config;
  config.kind = placement::PlacementKind::kRange;
  config.num_partitions = 4;
  placement::PlacementCatalog catalog(config, 4, 400);
  catalog.SetNodeLive(3, false);
  for (int i = 0; i < 100; ++i) catalog.RecordAccess(0);
  // Node 3 reports the lowest load but is dead; the hottest partition must
  // land on the least-loaded live node instead.
  catalog.Rebalance({9, 5, 7, 0});
  EXPECT_EQ(catalog.HomeNode(0), 1);
}

// ------------------------------------------------------------ experiment --

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
  node.control.measurement_interval = 0.5;
  node.control.initial_limit = 20.0;
  node.control.params.SetDouble("pa.initial_bound", 20.0);
  node.control.params.SetDouble("pa.min_bound", 2.0);
  node.control.params.SetDouble("pa.max_bound", 200.0);
  node.control.params.SetDouble("pa.dither", 5.0);
  return node;
}

/// A 3-node cluster with node 0 crashing at t=20 and rejoining at t=35,
/// loaded hard enough that gates hold queues when the crash lands.
core::ExperimentSpec FailoverCluster(uint64_t seed, bool retraction) {
  core::ExperimentSpec spec;
  spec.cluster = true;
  for (int i = 0; i < 3; ++i) {
    spec.nodes.push_back(SmallNode(core::DecorrelatedNodeSeed(seed, i)));
  }
  spec.seed = seed;
  spec.duration = 60.0;
  spec.warmup = 10.0;
  spec.arrival_rate = core::FlashCrowdSchedule(250.0, 700.0, 15.0, 30.0);
  spec.nodes[0].availability = Avail("avail(up; 20:down, 35:up)");
  spec.retraction.enabled = retraction;
  return spec;
}

std::string ClusterCsv(const core::ClusterResult& result) {
  std::vector<std::vector<core::TrajectoryPoint>> trajectories;
  std::vector<core::ClusterNodePlacementInfo> info;
  for (const core::ClusterNodeResult& node : result.nodes) {
    trajectories.push_back(node.trajectory);
    info.push_back({node.remote_frac, node.partitions_owned});
  }
  std::ostringstream out;
  core::WriteClusterTrajectoryCsv(out, trajectories, info, result.membership);
  return out.str();
}

TEST(LifecycleExperimentTest, CrashRetractionAndRejoinBookkeepingHolds) {
  const core::ClusterResult result =
      core::ClusterExperiment(FailoverCluster(11, true)).Run();
  // Two transitions: down at 20, up at 35.
  EXPECT_EQ(result.final_epoch, 2u);
  EXPECT_GT(result.crash_kills, 0u);
  EXPECT_GT(result.retracted, 0u);
  EXPECT_EQ(result.lost, 0u);  // retraction saves everything
  EXPECT_EQ(result.nodes[0].crash_kills, result.crash_kills);
  EXPECT_EQ(result.nodes[0].retracted, result.retracted);

  // The membership series tracks the outage: 3 live before, 2 during,
  // 3 after, with the epoch stepping 0 -> 1 -> 2. Lifecycle transitions
  // are scheduled before the monitors start, so a tick landing exactly on
  // a transition time already sees the new membership.
  ASSERT_FALSE(result.membership.empty());
  for (const cluster::MembershipSample& sample : result.membership) {
    if (sample.time < 20.0) {
      EXPECT_EQ(sample.members, 3) << sample.time;
      EXPECT_EQ(sample.epoch, 0u) << sample.time;
    } else if (sample.time < 35.0) {
      EXPECT_EQ(sample.members, 2) << sample.time;
      EXPECT_EQ(sample.epoch, 1u) << sample.time;
    } else {
      EXPECT_EQ(sample.members, 3) << sample.time;
      EXPECT_EQ(sample.epoch, 2u) << sample.time;
    }
  }

  // Node 0 executes nothing while down, and commits again after the rejoin.
  double down_throughput = 0.0, rejoined_throughput = 0.0;
  for (const core::TrajectoryPoint& point : result.nodes[0].trajectory) {
    if (point.time > 22.0 && point.time <= 35.0) {
      down_throughput += point.throughput;
    }
    if (point.time > 40.0) rejoined_throughput += point.throughput;
  }
  EXPECT_EQ(down_throughput, 0.0);
  EXPECT_GT(rejoined_throughput, 0.0);
}

TEST(LifecycleExperimentTest, WithoutRetractionTheCrashLosesWork) {
  const core::ClusterResult result =
      core::ClusterExperiment(FailoverCluster(11, false)).Run();
  EXPECT_GT(result.crash_kills, 0u);
  EXPECT_EQ(result.retracted, 0u);
  EXPECT_GT(result.lost, 0u);
}

TEST(LifecycleExperimentTest, DisplacementBeatsCrashBaselineOnCommits) {
  // Long enough past the crowd that the backlog fully drains either way —
  // only then does the retained work show up as extra commits (while the
  // fleet stays saturated, dropped work just shortens the queues).
  core::ExperimentSpec baseline_spec = FailoverCluster(13, false);
  core::ExperimentSpec displaced_spec = FailoverCluster(13, true);
  baseline_spec.duration = displaced_spec.duration = 120.0;
  const core::ClusterResult baseline =
      core::ClusterExperiment(baseline_spec).Run();
  const core::ClusterResult displaced =
      core::ClusterExperiment(displaced_spec).Run();
  // The retained backlog finishes on the survivors: strictly more commits.
  EXPECT_GT(displaced.commits, baseline.commits);
}

TEST(LifecycleExperimentTest, DrainFinishesItsQueueWithoutNewWork) {
  core::ExperimentSpec spec = FailoverCluster(17, false);
  spec.nodes[0].availability = Avail("avail(up; 20:drain)");
  const core::ClusterResult result = core::ClusterExperiment(spec).Run();
  // No crash: nothing killed, nothing lost — the backlog completes.
  EXPECT_EQ(result.crash_kills, 0u);
  EXPECT_EQ(result.lost, 0u);
  EXPECT_EQ(result.final_epoch, 1u);
  // The node keeps committing while it drains its queue and admitted work
  // (the crowd has filled its gate by t=20)...
  double drain_throughput = 0.0, late_throughput = 0.0;
  for (const core::TrajectoryPoint& point : result.nodes[0].trajectory) {
    if (point.time > 20.0 && point.time <= 30.0) {
      drain_throughput += point.throughput;
    }
    if (point.time > 50.0) late_throughput += point.throughput;
  }
  EXPECT_GT(drain_throughput, 0.0);
  // ... and is idle once drained (no new work ever routed to it).
  EXPECT_EQ(late_throughput, 0.0);
}

TEST(LifecycleExperimentTest, RetractionQueueFactorShedsDegradedBacklog) {
  // Slow node 0 to a crawl so its queue balloons, and let the degradation
  // trigger shed the excess through the router — no lifecycle transition
  // involved.
  core::ExperimentSpec spec = FailoverCluster(19, true);
  spec.nodes[0].availability = AvailabilitySchedule();  // always up
  spec.nodes[0].system.cpu_speed = core::NodeSlowdownSchedule(0.1, 15.0, 45.0);
  spec.retraction.queue_factor = 2.0;
  spec.retraction.check_interval = 1.0;
  const core::ClusterResult result = core::ClusterExperiment(spec).Run();
  EXPECT_EQ(result.final_epoch, 0u);  // membership never changed
  EXPECT_GT(result.retracted, 0u);    // but backlog moved anyway
  EXPECT_EQ(result.lost, 0u);
}

TEST(LifecycleExperimentTest, FailureRecoveryRunIsBitDeterministic) {
  const core::ClusterResult a =
      core::ClusterExperiment(FailoverCluster(23, true)).Run();
  const core::ClusterResult b =
      core::ClusterExperiment(FailoverCluster(23, true)).Run();
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.routed, b.routed);
  EXPECT_EQ(a.crash_kills, b.crash_kills);
  EXPECT_EQ(a.retracted, b.retracted);
  EXPECT_EQ(a.final_epoch, b.final_epoch);
  // Same seed => byte-identical CSV artifact, membership columns included.
  EXPECT_EQ(ClusterCsv(a), ClusterCsv(b));
}

TEST(LifecycleExperimentTest, PlacementClusterSurvivesFailover) {
  core::ExperimentSpec spec = FailoverCluster(29, true);
  spec.routing = "locality-threshold";
  spec.placement_enabled = true;
  spec.placement.placement.kind = placement::PlacementKind::kReplicated;
  spec.placement.placement.num_partitions = 6;
  spec.placement.placement.replication_factor = 2;
  spec.placement.workload = spec.nodes[0].system.logical;
  spec.remote_access.cpu_penalty = 0.001;
  spec.remote_access.latency = 0.008;
  const core::ClusterResult result = core::ClusterExperiment(spec).Run();
  EXPECT_GT(result.commits, 0u);
  EXPECT_EQ(result.final_epoch, 2u);
  // The crash orphaned node 0's homes; re-homing counts as migrations.
  EXPECT_GT(result.migrations, 0u);
  int owned = 0;
  for (const core::ClusterNodeResult& node : result.nodes) {
    owned += node.partitions_owned;
  }
  EXPECT_EQ(owned, 6);  // every partition has exactly one live-homed owner
}

// ------------------------------------------------------------------ spec --

/// Minimal valid cluster spec body; availability lines are appended inside
/// the [node] section.
std::string SpecText(const std::string& node_extra,
                     const std::string& experiment_extra = "") {
  return "[experiment]\ncluster = true\n" + experiment_extra +
         "\n[node]\ncount = 2\n" + node_extra + "\n";
}

TEST(LifecycleSpecTest, AvailabilityAndRejoinRoundTripThroughText) {
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(
      SpecText("availability = avail(up; 60:down, 90:up)\nrejoin = retained\n",
               "retraction = true\nretraction_queue_factor = 1.5\n"),
      &spec, &error))
      << error;
  EXPECT_EQ(spec.nodes[0].availability, Avail("avail(up; 60:down, 90:up)"));
  EXPECT_EQ(spec.nodes[0].rejoin, cluster::RejoinPolicy::kRetained);
  EXPECT_TRUE(spec.retraction.enabled);
  EXPECT_EQ(spec.retraction.queue_factor, 1.5);

  core::ExperimentSpec reparsed;
  ASSERT_TRUE(core::ParseSpec(core::PrintSpec(spec), &reparsed, &error))
      << error;
  EXPECT_EQ(spec, reparsed);
}

TEST(LifecycleSpecTest, NamedAvailabilityScheduleResolves) {
  core::ExperimentSpec spec;
  std::string error;
  const std::string text =
      "[experiment]\ncluster = true\n"
      "[schedules]\nfailover = avail(up; 30:down)\n"
      "[node]\ncount = 2\navailability = $failover\n";
  ASSERT_TRUE(core::ParseSpec(text, &spec, &error)) << error;
  EXPECT_EQ(spec.nodes[0].availability, Avail("avail(up; 30:down)"));
  EXPECT_EQ(spec.nodes[1].availability, Avail("avail(up; 30:down)"));
}

TEST(LifecycleSpecTest, ParseErrorsCarryLineNumbers) {
  core::ExperimentSpec spec;
  std::string error;

  // Unknown state name: the bad key sits on line 6 of SpecText's body.
  EXPECT_FALSE(core::ParseSpec(
      SpecText("availability = avail(up; 60:sideways)\n"), &spec, &error));
  EXPECT_NE(error.find("line 6"), std::string::npos) << error;
  EXPECT_NE(error.find("unknown availability state 'sideways'"),
            std::string::npos)
      << error;

  // Overlapping / unsorted segments.
  EXPECT_FALSE(core::ParseSpec(
      SpecText("availability = avail(up; 90:down, 60:up)\n"), &spec, &error));
  EXPECT_NE(error.find("line 6"), std::string::npos) << error;
  EXPECT_NE(error.find("strictly increasing"), std::string::npos) << error;

  // Bad rejoin value.
  EXPECT_FALSE(core::ParseSpec(SpecText("rejoin = maybe\n"), &spec, &error));
  EXPECT_NE(error.find("line 6"), std::string::npos) << error;
  EXPECT_NE(error.find("fresh/retained"), std::string::npos) << error;

  // Unknown $reference.
  EXPECT_FALSE(core::ParseSpec(SpecText("availability = $nope\n"), &spec,
                               &error));
  EXPECT_NE(error.find("unknown availability reference"), std::string::npos)
      << error;

  // Lifecycle keys are cluster-only.
  EXPECT_FALSE(core::ParseSpec(
      "[experiment]\ncluster = false\n[node]\n"
      "availability = avail(up; 10:down)\n",
      &spec, &error));
  EXPECT_NE(error.find("require cluster mode"), std::string::npos) << error;
  EXPECT_FALSE(core::ParseSpec(
      "[experiment]\ncluster = false\nretraction = true\n[node]\n", &spec,
      &error));
  EXPECT_NE(error.find("retraction requires cluster mode"), std::string::npos)
      << error;
}

TEST(LifecycleSpecTest, OverridesValidateNodeIndexAndValues) {
  core::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(core::ParseSpec(SpecText(""), &spec, &error)) << error;

  // In-range index works.
  ASSERT_TRUE(core::ApplySpecOverride(&spec, "node1.availability",
                                      "avail(up; 30:down)", &error))
      << error;
  EXPECT_EQ(spec.nodes[1].availability, Avail("avail(up; 30:down)"));
  EXPECT_TRUE(spec.nodes[0].availability.always_up());

  // Out-of-range node index names the fleet size.
  EXPECT_FALSE(core::ApplySpecOverride(&spec, "node7.availability",
                                       "avail(up; 30:down)", &error));
  EXPECT_NE(error.find("node index out of range"), std::string::npos)
      << error;
  EXPECT_NE(error.find("2 nodes"), std::string::npos) << error;

  // Malformed value through the override path.
  EXPECT_FALSE(core::ApplySpecOverride(&spec, "node0.availability",
                                       "avail(up; 60:gone)", &error));
  EXPECT_NE(error.find("unknown availability state"), std::string::npos)
      << error;
  EXPECT_FALSE(
      core::ApplySpecOverride(&spec, "retraction_interval", "0", &error));

  // Lifecycle overrides are cluster-only, like the spec-file keys: on a
  // single-node spec they would be silently unused, so they are rejected
  // instead (a "--sweep retraction=false,true" must not run identical
  // points).
  core::ExperimentSpec single;
  ASSERT_TRUE(core::ParseSpec("[experiment]\ncluster = false\n[node]\n",
                              &single, &error))
      << error;
  EXPECT_FALSE(core::ApplySpecOverride(&single, "retraction", "true", &error));
  EXPECT_NE(error.find("requires cluster mode"), std::string::npos) << error;
  EXPECT_FALSE(core::ApplySpecOverride(&single, "node.availability",
                                       "avail(up; 10:down)", &error));
  EXPECT_NE(error.find("require cluster mode"), std::string::npos) << error;
  EXPECT_FALSE(
      core::ApplySpecOverride(&single, "node0.rejoin", "retained", &error));
}

}  // namespace
}  // namespace alc
