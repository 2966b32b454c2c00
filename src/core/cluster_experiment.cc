#include "core/cluster_experiment.h"

#include <memory>
#include <string>
#include <utility>

#include "cluster/cluster.h"
#include "cluster/metrics.h"
#include "cluster/registry.h"
#include "control/monitor.h"
#include "control/tuner.h"
#include "core/introspect.h"
#include "elasticity/elasticity.h"
#include "fault/fault.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/logging.h"
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

/// The spec's routing policy: one RoutingPolicyRegistry lookup on
/// `routing` with `routing_params`. Aborts (with the registered names
/// listed) on an unknown policy name.
std::unique_ptr<cluster::RoutingPolicy> MakeRoutingPolicy(
    const ExperimentSpec& spec) {
  cluster::RoutingPolicyContext context;
  context.params = &spec.routing_params;
  context.seed = spec.seed;
  std::string error;
  std::unique_ptr<cluster::RoutingPolicy> policy =
      cluster::RoutingPolicyRegistry::Global().Make(spec.routing, context,
                                                    &error);
  if (policy == nullptr) {
    ALC_LOG(kError, error);
    ALC_CHECK(policy != nullptr);
  }
  return policy;
}

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
    config.dynamics = node.dynamics;
    config.cpu_speed = node.cpu_speed;
    config.initial_limit = node.control.initial_limit;
    config.displacement = node.control.displacement;
    config.availability = node.availability;
    config.rejoin = node.rejoin;
    node_configs.push_back(std::move(config));
  }

  cluster::Cluster cluster(&simulator, node_configs, MakeRoutingPolicy(spec_),
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
  std::string source_error;
  std::unique_ptr<workload::WorkloadSource> source =
      workload::WorkloadRegistry::Global().Make(
          spec_.workload.source, source_context, &source_error);
  if (source == nullptr) {
    ALC_LOG(kError, source_error);
    ALC_CHECK(source != nullptr);
  }
  workload::WorkloadSource* workload_source = source.get();
  cluster.SetWorkloadSource(std::move(source));

  // Per-node control loop: monitor -> controller -> gate, exactly the
  // single-node wiring replicated N times on the shared event queue.
  cluster::ClusterMetrics metrics(num_nodes);
  DecisionProbe probe(audit_, trace_);
  std::vector<std::unique_ptr<control::LoadController>> controllers;
  std::vector<std::unique_ptr<control::Monitor>> monitors;
  std::vector<std::unique_ptr<control::OuterTuner>> tuners(num_nodes);
  controllers.reserve(num_nodes);
  monitors.reserve(num_nodes);
  for (int i = 0; i < num_nodes; ++i) {
    const NodeSpec& node = spec_.nodes[i];
    controllers.push_back(MakeController(node));
    monitors.push_back(std::make_unique<control::Monitor>(
        &simulator, &cluster.node(i).system(),
        node.control.measurement_interval));
    if (node.control.outer_tuner) {
      tuners[i] = std::make_unique<control::OuterTuner>(
          monitors.back().get(), control::OuterTuner::Config{});
    }
    control::AdmissionGate* gate = &cluster.node(i).gate();
    control::OuterTuner* tuner = tuners[i].get();
    control::Monitor* monitor = monitors.back().get();
    telemetry::TraceRecorder* trace = trace_;
    // The controller is looked up through the vector, not captured raw: a
    // fresh rejoin replaces controllers[i] mid-run (lifecycle listener
    // below) and the control loop must pick up the rebuilt instance.
    monitors.back()->SetCallback([&metrics, &controllers, &cluster, &probe,
                                  gate, tuner, monitor, trace,
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
      const bool down = state == cluster::NodeState::kDown ||
                        state == cluster::NodeState::kStandby;
      double bound = gate->limit();
      if (!down) {
        const double old_limit = bound;
        bound = controllers[i]->Update(sample);
        gate->SetLimit(bound);
        if (tuner) tuner->Observe(sample);
        if (probe.active()) {
          probe.Observe(*controllers[i], i, sample, old_limit, bound);
        }
      }
      if (trace != nullptr) {
        trace->Counter("limit", i, sample.time, bound);
      }

      metrics.AddPoint(i, ToTrajectoryPoint(sample, bound),
                       monitor->interval_response_window());
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
  // experiment rebuilds its controller here.
  cluster.SetLifecycleListener([&controllers, this](int node,
                                                    cluster::NodeState from,
                                                    cluster::NodeState to) {
    // A provision from standby is a cold start like a fresh rejoin: the
    // cluster resets the gate, the experiment rebuilds the controller.
    if ((from == cluster::NodeState::kDown ||
         from == cluster::NodeState::kStandby) &&
        to == cluster::NodeState::kUp &&
        spec_.nodes[node].rejoin == cluster::RejoinPolicy::kFresh) {
      controllers[node] = MakeController(spec_.nodes[node]);
    }
  });

  // Warmup boundary snapshots for summary statistics.
  std::vector<db::Counters> at_warmup(num_nodes);
  std::vector<telemetry::LogHistogram> hist_at_warmup(num_nodes);
  std::vector<std::array<telemetry::LogHistogram, telemetry::kNumPhases>>
      phases_at_warmup(num_nodes);
  simulator.ScheduleAt(spec_.warmup, [&] {
    for (int i = 0; i < num_nodes; ++i) {
      at_warmup[i] = cluster.node(i).system().metrics().counters;
      hist_at_warmup[i] = cluster.node(i).system().metrics().response_hist;
      phases_at_warmup[i] = cluster.node(i).system().metrics().phase_hists;
    }
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
  for (auto& monitor : monitors) monitor->Start();
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
  const double span = spec_.duration - spec_.warmup;
  double response_sum = 0.0;
  uint64_t total_local = 0;
  uint64_t total_remote = 0;
  for (int i = 0; i < num_nodes; ++i) {
    const db::Counters& final = cluster.node(i).system().metrics().counters;
    const db::Counters& before = at_warmup[i];
    ClusterNodeResult node;
    node.trajectory = metrics.node_trajectories()[i];
    node.commits = final.commits - before.commits;
    node.aborts = final.total_aborts() - before.total_aborts();
    node.displacements =
        final.aborts_displacement - before.aborts_displacement;
    node.routed = cluster.routed_per_node()[i];
    node.crash_kills = cluster.crash_kills_per_node()[i];
    node.retracted = cluster.retracted_per_node()[i];
    node.lost = cluster.lost_per_node()[i];
    result.crash_kills += node.crash_kills;
    result.retracted += node.retracted;
    result.lost += node.lost;
    node.mean_throughput = static_cast<double>(node.commits) / span;
    node.mean_response =
        node.commits > 0
            ? (final.response_time_sum - before.response_time_sum) /
                  node.commits
            : 0.0;
    node.abort_ratio =
        (node.commits + node.aborts) > 0
            ? static_cast<double>(node.aborts) /
                  static_cast<double>(node.commits + node.aborts)
            : 0.0;
    node.local_accesses = final.local_accesses - before.local_accesses;
    node.remote_accesses = final.remote_accesses - before.remote_accesses;
    const uint64_t accesses = node.local_accesses + node.remote_accesses;
    node.remote_frac = accesses > 0 ? static_cast<double>(node.remote_accesses) /
                                          static_cast<double>(accesses)
                                    : 0.0;
    if (cluster.catalog() != nullptr) {
      node.partitions_owned = cluster.catalog()->HomePartitionCount(i);
      node.partitions_held = cluster.catalog()->ReplicaPartitionCount(i);
    }
    // Post-warmup distributions: node percentiles from its own histogram,
    // cluster percentiles from the merge (== pooled-sample bucketing).
    telemetry::LogHistogram node_hist =
        cluster.node(i).system().metrics().response_hist;
    node_hist.Subtract(hist_at_warmup[i]);
    node.response_p50 = node_hist.Quantile(0.50);
    node.response_p95 = node_hist.Quantile(0.95);
    node.response_p99 = node_hist.Quantile(0.99);
    node.response_p999 = node_hist.Quantile(0.999);
    result.response_hist.Merge(node_hist);
    for (int p = 0; p < telemetry::kNumPhases; ++p) {
      telemetry::LogHistogram phase_hist =
          cluster.node(i).system().metrics().phase_hists[static_cast<size_t>(
              p)];
      phase_hist.Subtract(phases_at_warmup[i][static_cast<size_t>(p)]);
      result.phase_hists[static_cast<size_t>(p)].Merge(phase_hist);
    }
    total_local += node.local_accesses;
    total_remote += node.remote_accesses;
    double load_sum = 0.0;
    int load_count = 0;
    for (const TrajectoryPoint& point : node.trajectory) {
      if (point.time >= spec_.warmup) {
        load_sum += point.load;
        ++load_count;
      }
    }
    node.mean_active = load_count > 0 ? load_sum / load_count : 0.0;

    result.total_throughput += node.mean_throughput;
    result.commits += node.commits;
    result.aborts += node.aborts;
    response_sum += node.mean_response * static_cast<double>(node.commits);
    result.nodes.push_back(std::move(node));
  }
  result.mean_response =
      result.commits > 0 ? response_sum / static_cast<double>(result.commits)
                         : 0.0;
  result.abort_ratio =
      (result.commits + result.aborts) > 0
          ? static_cast<double>(result.aborts) /
                static_cast<double>(result.commits + result.aborts)
          : 0.0;
  result.remote_frac =
      (total_local + total_remote) > 0
          ? static_cast<double>(total_remote) /
                static_cast<double>(total_local + total_remote)
          : 0.0;
  result.aggregate = metrics.Aggregate();
  return result;
}

}  // namespace alc::core
