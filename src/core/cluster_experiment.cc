#include "core/cluster_experiment.h"

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "cluster/cluster.h"
#include "cluster/metrics.h"
#include "cluster/registry.h"
#include "elasticity/elasticity.h"
#include "fault/fault.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/math.h"
#include "workload/registry.h"

namespace alc::core {

namespace {

// Narrow adapter giving the fault injector its host powers: lifecycle
// faults go through ground-truth injection on managed-membership fleets
// (so the detector has to find them) and forced transitions otherwise;
// measured-path aggregates land directly on the node subsystems.
class ClusterFaultHost : public fault::FaultHost {
 public:
  explicit ClusterFaultHost(cluster::Cluster* cluster) : cluster_(cluster) {}

  int num_nodes() const override { return cluster_->size(); }

  void CrashNode(int node) override {
    if (cluster_->managed_membership()) {
      cluster_->InjectTruth(node, cluster::NodeState::kDown);
    } else {
      cluster_->ForceTransition(node, cluster::NodeState::kDown);
    }
  }

  void RepairNode(int node) override {
    if (cluster_->managed_membership()) {
      cluster_->InjectTruth(node, cluster::NodeState::kUp);
    } else {
      cluster_->ForceTransition(node, cluster::NodeState::kUp);
    }
  }

  void ApplyPerturbation(int node,
                         const fault::NodePerturbation& p) override {
    db::TransactionSystem& system = cluster_->node(node).system();
    system.disk().SetStallFactor(p.disk_factor);
    system.cpu().SetSpeedFactor(p.cpu_factor);
  }

 private:
  cluster::Cluster* cluster_;
};

}  // namespace

ClusterExperiment::ClusterExperiment(const ExperimentSpec& spec) : spec_(spec) {
  ALC_CHECK(spec.cluster);
  ALC_CHECK(!spec.nodes.empty());
  ALC_CHECK_GT(spec.duration, 0.0);
  ALC_CHECK_GE(spec.warmup, 0.0);
  ALC_CHECK_LT(spec.warmup, spec.duration);
  // ClusterMetrics pairs node samples index-wise and completes a tick once
  // every node has reported it, which needs every monitor on the same grid:
  // one interval, never retuned by an outer tuner (unless it is the only
  // monitor).
  for (const NodeSpec& node : spec.nodes) {
    ALC_CHECK_EQ(node.control.measurement_interval,
                 spec.nodes[0].control.measurement_interval);
    ALC_CHECK(!node.control.outer_tuner || spec.nodes.size() == 1);
  }
}

ClusterResult ClusterExperiment::Run() {
  const int num_nodes = static_cast<int>(spec_.nodes.size());
  sim::Simulator simulator;

  std::vector<cluster::NodeConfig> node_configs;
  node_configs.reserve(num_nodes);
  for (const NodeSpec& node : spec_.nodes) {
    cluster::NodeConfig config;
    config.system = node.system;
    if (spec_.placement_enabled) {
      config.system.remote = spec_.remote_access;
      // Nodes must cover the global keyspace the front-end plans against.
      if (config.system.logical.db_size < spec_.placement.workload.db_size) {
        config.system.logical.db_size = spec_.placement.workload.db_size;
      }
    }
    config.initial_limit = node.control.initial_limit;
    config.displacement = node.control.displacement;
    config.availability = node.availability;
    config.rejoin = node.rejoin;
    node_configs.push_back(std::move(config));
  }

  // The routing policy is the spec's one RoutingPolicyRegistry lookup on
  // `routing` with `routing_params`.
  cluster::RoutingPolicyContext routing_context;
  routing_context.params = &spec_.routing_params;
  routing_context.seed = spec_.seed;
  cluster::Cluster cluster(
      &simulator, node_configs,
      cluster::RoutingPolicyRegistry::Global().MakeChecked(spec_.routing,
                                                           routing_context),
      spec_.seed);
  cluster.SetArrivalRateSchedule(spec_.arrival_rate);
  if (spec_.placement_enabled) {
    cluster.EnablePlacement(spec_.placement);
  }
  cluster.SetRetraction(spec_.retraction);
  cluster.SetRetry(spec_.retry);
  cluster.SetDegrade(spec_.degrade);
  if (audit_ != nullptr) cluster.SetDecisionAudit(audit_);
  if (trace_ != nullptr) cluster.SetTraceRecorder(trace_);

  // Elasticity wiring happens before Start(): managed membership flips the
  // availability schedules to ground-truth injection, and the standby pool
  // is the last `standby` node indices (so node 0 is always base fleet).
  const elasticity::ElasticityConfig& elastic = spec_.elasticity;
  if (elastic.enabled) {
    ALC_CHECK_GE(elastic.standby, 0);
    ALC_CHECK_LT(elastic.standby, num_nodes);
    if (elastic.detector) cluster.SetManagedMembership(true);
    for (int i = num_nodes - elastic.standby; i < num_nodes; ++i) {
      cluster.SetNodeStandby(i);
    }
  }

  // The arrival process comes from the workload registry; the default spec
  // selects "open", which the cluster would also build on its own — going
  // through the registry here keeps user-registered sources reachable from
  // spec files. The raw pointer stays valid for metric registration below
  // (the cluster owns the source for the run's lifetime).
  workload::WorkloadSourceContext source_context;
  source_context.spec = &spec_.workload;
  source_context.arrival_rate = spec_.arrival_rate;
  source_context.seed = spec_.seed;
  std::unique_ptr<workload::WorkloadSource> source =
      workload::WorkloadRegistry::Global().MakeChecked(spec_.workload.source,
                                                       source_context);
  workload::WorkloadSource* workload_source = source.get();
  cluster.SetWorkloadSource(std::move(source));

  // Per-node control loop: the single-node NodeRun replicated N times on
  // the shared event queue. The runs stay in place (monitor callbacks and
  // tuners point into them) in one block: N separate ~66 KB runs, freed
  // at teardown, let the allocator trim and re-fault the heap on every
  // run (+10-25% fleet setup time, measured).
  cluster::ClusterMetrics metrics(num_nodes);
  std::vector<std::optional<NodeRun>> runs(num_nodes);
  for (int i = 0; i < num_nodes; ++i) {
    NodeRun& run = runs[i].emplace(&simulator, &cluster.node(i).system(),
                                   &cluster.node(i).gate(), &spec_.nodes[i], i,
                                   audit_, trace_);
    run.monitor().SetCallback([&metrics, &cluster, &run,
                               i](const control::Sample& sample) {
      // A crashed node has no control plane: while it is down the
      // controller neither learns from the (empty) samples nor moves the
      // gate, so RejoinPolicy::kRetained resumes exactly the pre-crash
      // state instead of whatever an outage of zero-throughput ticks
      // would have taught. The monitor keeps ticking regardless — every
      // node series must stay on the shared grid for aggregation and CSV
      // alignment. Draining nodes keep their loop: they still finish
      // admitted work. Standby nodes idle like down ones: nothing reaches
      // them until the autoscaler provisions them.
      const cluster::NodeState state = cluster.node_state(i);
      const double bound =
          run.Step(sample, state == cluster::NodeState::kDown ||
                               state == cluster::NodeState::kStandby);
      metrics.AddPoint(i, ToTrajectoryPoint(sample, bound),
                       run.monitor().interval_response_window());
      if (i == 0) {
        // One membership sample per grid tick, alongside node 0's point
        // (membership only changes at lifecycle events, so intra-tick
        // callback order cannot matter).
        cluster::MembershipSample membership;
        membership.time = sample.time;
        membership.members = cluster.num_live();
        membership.epoch = cluster.epoch();
        metrics.AddMembershipSample(membership);
      }
    });
  }

  // Rejoin semantics: a node coming back from a crash with the kFresh
  // policy re-learns from scratch — the cluster resets its gate, and the
  // node's run rebuilds its controller here. A provision from standby is
  // the same cold start.
  cluster.SetLifecycleListener(
      [&runs, this](int node, cluster::NodeState from, cluster::NodeState to) {
        if ((from == cluster::NodeState::kDown ||
             from == cluster::NodeState::kStandby) &&
            to == cluster::NodeState::kUp &&
            spec_.nodes[node].rejoin == cluster::RejoinPolicy::kFresh) {
          runs[node]->Rebuild();
        }
      });

  simulator.ScheduleAt(spec_.warmup, [&runs] {
    for (std::optional<NodeRun>& run : runs) run->MarkWarmup();
  });

  // The registry links per-node db metrics plus the cluster-scope counters
  // (observation-only) so the end-of-run snapshot lands in the result.
  telemetry::MetricRegistry registry;
  for (int i = 0; i < num_nodes; ++i) {
    cluster.node(i).system().metrics().RegisterMetrics(
        &registry, "node" + std::to_string(i) + ".");
  }
  cluster.RegisterMetrics(&registry);
  workload_source->RegisterMetrics(&registry, "workload.");

  // The elasticity loop (heartbeat detector + autoscaler) rides the same
  // event queue; Start() schedules its first ticks at t = interval, so
  // calling it before cluster.Start() changes nothing at t = 0.
  std::unique_ptr<elasticity::ElasticityController> elasticity_loop;
  if (elastic.enabled) {
    elasticity_loop = std::make_unique<elasticity::ElasticityController>(
        &simulator, &cluster, elastic, spec_.seed, audit_, trace_);
    elasticity_loop->RegisterMetrics(&registry);
    elasticity_loop->Start();
  }

  // The fault injector schedules its window edges before Start() for the
  // same reason; it perturbs probes through the elasticity loop and the
  // measured path through the host adapter, nothing else.
  ClusterFaultHost fault_host(&cluster);
  std::unique_ptr<fault::FaultInjector> injector;
  if (spec_.fault.enabled) {
    injector = std::make_unique<fault::FaultInjector>(
        &simulator, &fault_host, spec_.fault, spec_.seed, audit_, trace_);
    if (elasticity_loop != nullptr) {
      elasticity_loop->SetProbePerturber(injector.get());
    }
    injector->RegisterMetrics(&registry);
    injector->Start();
  }

  cluster.Start();
  for (std::optional<NodeRun>& run : runs) run->Start();
  simulator.RunUntil(spec_.duration);

  ClusterResult result;
  result.metrics = registry.Snapshot();
  result.duration = spec_.duration;
  result.warmup = spec_.warmup;
  result.routed = cluster.total_routed();
  result.membership = metrics.membership();
  result.final_epoch = cluster.epoch();
  result.arrivals_dropped = cluster.arrivals_dropped();
  result.misroutes = cluster.misroutes();
  if (elasticity_loop != nullptr) {
    result.suspicions = elasticity_loop->suspicions();
    result.false_suspicions = elasticity_loop->false_suspicions();
    result.declared_down = elasticity_loop->declared_down();
    result.false_declarations = elasticity_loop->false_declarations();
    result.provisions = elasticity_loop->provisions();
    result.drains = elasticity_loop->drains();
    result.detection_latency_mean = elasticity_loop->detection_latency_mean();
  }
  result.retries = cluster.retries();
  result.dead_letters = cluster.dead_letters();
  result.shed_query = cluster.shed_query();
  result.shed_update = cluster.shed_update();
  if (injector != nullptr) {
    result.faults_started = injector->faults_started();
    result.faults_ended = injector->faults_ended();
    result.probes_lost = injector->probes_lost();
    result.probes_delayed = injector->probes_delayed();
  }
  if (cluster.catalog() != nullptr) {
    result.rebalances = cluster.catalog()->rebalances();
    result.migrations = cluster.catalog()->migrations();
    result.partitions.reserve(cluster.catalog()->num_partitions());
    for (int p = 0; p < cluster.catalog()->num_partitions(); ++p) {
      PartitionPlacement partition;
      partition.home_node = cluster.catalog()->HomeNode(p);
      partition.num_replicas =
          static_cast<int>(cluster.catalog()->Replicas(p).size());
      partition.heat = cluster.catalog()->heat(p);
      result.partitions.push_back(partition);
    }
  }
  double response_sum = 0.0;
  uint64_t total_local = 0;
  uint64_t total_remote = 0;
  NodeHistograms hists;  // one node's at a time
  for (int i = 0; i < num_nodes; ++i) {
    ClusterNodeResult node;
    node.trajectory = metrics.node_trajectories()[i];
    // Node percentiles come from its own histogram, cluster percentiles
    // from the merge (== pooled-sample bucketing).
    runs[i]->Summarize(spec_.duration, spec_.warmup, &node, &hists.response,
                       &hists.phases);
    node.response_p50 = hists.response.Quantile(0.50);
    node.response_p95 = hists.response.Quantile(0.95);
    node.response_p99 = hists.response.Quantile(0.99);
    node.response_p999 = hists.response.Quantile(0.999);
    result.response_hist.Merge(hists.response);
    for (size_t p = 0; p < hists.phases.size(); ++p) {
      result.phase_hists[p].Merge(hists.phases[p]);
    }
    node.routed = cluster.routed_per_node()[i];
    node.crash_kills = cluster.crash_kills_per_node()[i];
    node.retracted = cluster.retracted_per_node()[i];
    node.lost = cluster.lost_per_node()[i];
    result.crash_kills += node.crash_kills;
    result.retracted += node.retracted;
    result.lost += node.lost;
    const db::Counters& final = cluster.node(i).system().metrics().counters;
    const db::Counters& before = runs[i]->counters_at_warmup();
    node.local_accesses = final.local_accesses - before.local_accesses;
    node.remote_accesses = final.remote_accesses - before.remote_accesses;
    node.remote_frac = util::Ratio(
        node.remote_accesses, node.local_accesses + node.remote_accesses);
    if (cluster.catalog() != nullptr) {
      node.partitions_owned = cluster.catalog()->HomePartitionCount(i);
      node.partitions_held = cluster.catalog()->ReplicaPartitionCount(i);
    }
    total_local += node.local_accesses;
    total_remote += node.remote_accesses;

    result.total_throughput += node.mean_throughput;
    result.commits += node.commits;
    result.aborts += node.aborts;
    response_sum += node.mean_response * static_cast<double>(node.commits);
    result.nodes.push_back(std::move(node));
  }
  result.mean_response = util::Ratio(response_sum, result.commits);
  result.abort_ratio =
      util::Ratio(result.aborts, result.commits + result.aborts);
  result.remote_frac =
      util::Ratio(total_remote, total_local + total_remote);
  result.aggregate = metrics.Aggregate();
  return result;
}

}  // namespace alc::core
