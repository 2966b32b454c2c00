#ifndef ALC_CORE_CLUSTER_EXPERIMENT_H_
#define ALC_CORE_CLUSTER_EXPERIMENT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "cluster/metrics.h"
#include "core/experiment.h"
#include "core/experiment_spec.h"
#include "telemetry/histogram.h"
#include "telemetry/trace.h"

namespace alc::core {

/// Per-node outcome of a cluster run: the node's controller trajectory and
/// the summary a single-node ExperimentResult reports (the NodeSummary
/// base, filled by the node's NodeRun), plus what the cluster saw of it.
struct ClusterNodeResult : NodeSummary {
  uint64_t routed = 0;  // arrivals the router sent here (whole run)

  // Lifecycle outcomes at this node (zero on always-up fleets):
  /// In-flight transactions killed by crashes of this node.
  uint64_t crash_kills = 0;
  /// Queued admissions retracted from this node's gate and re-routed.
  uint64_t retracted = 0;
  /// Work lost at this node (dropped queue entries and unretried kills).
  uint64_t lost = 0;

  // Access-locality split over [warmup, duration]. local_accesses counts
  // completed access phases in every run; remote_accesses (and hence a
  // nonzero remote_frac) only occur in placement runs.
  uint64_t local_accesses = 0;
  uint64_t remote_accesses = 0;
  /// remote_accesses / (local + remote); 0 when no accesses completed.
  double remote_frac = 0.0;
  /// Partitions homed on this node at run end (post-rebalance state).
  int partitions_owned = 0;
  /// Partitions this node holds any replica of at run end.
  int partitions_held = 0;

  // Post-warmup response-time percentiles of this node's commits (from its
  // log histogram; zero when the node committed nothing after warmup).
  double response_p50 = 0.0;
  double response_p95 = 0.0;
  double response_p99 = 0.0;
  double response_p999 = 0.0;
};

/// End-of-run snapshot of one partition's placement (placement runs only):
/// where it ended up after any rebalancing, and the access heat it had
/// accumulated since the last rebalance tick.
struct PartitionPlacement {
  int home_node = -1;
  int num_replicas = 0;
  uint64_t heat = 0;
};

/// Everything a finished cluster run reports: per-node results plus the
/// aggregated cluster-wide view.
struct ClusterResult {
  std::vector<ClusterNodeResult> nodes;
  /// Cluster-wide series (see ClusterMetrics::Aggregate for semantics).
  std::vector<TrajectoryPoint> aggregate;
  /// Membership per monitor tick, aligned with the trajectory series: how
  /// many nodes were live and the epoch in force (constant fleet-size/0 on
  /// always-up fleets).
  std::vector<cluster::MembershipSample> membership;

  // Summary over [warmup, duration], summed across nodes:
  double total_throughput = 0.0;
  double mean_response = 0.0;  // commit-weighted across nodes
  double abort_ratio = 0.0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t routed = 0;  // arrivals routed over the whole run

  // Lifecycle summary (zero on always-up fleets):
  uint64_t final_epoch = 0;   // membership transitions over the run
  uint64_t crash_kills = 0;   // in-flight transactions killed by crashes
  uint64_t retracted = 0;     // queued admissions re-routed by the front-end
  uint64_t lost = 0;          // work lost to crashes without retraction
  uint64_t arrivals_dropped = 0;  // arrivals with no live node to go to

  // Elasticity runs only (zero otherwise):
  /// Arrivals routed to a ground-truth-dead node during detection windows.
  uint64_t misroutes = 0;
  uint64_t suspicions = 0;        // detector suspicion onsets
  uint64_t false_suspicions = 0;  // ... of nodes that were actually alive
  uint64_t declared_down = 0;     // detector down declarations
  /// Down declarations of nodes that were actually alive (quorum-level
  /// false positives — the headline detector-quality signal).
  uint64_t false_declarations = 0;
  uint64_t provisions = 0;        // standby nodes brought into the fleet
  uint64_t drains = 0;            // fleet nodes drained back to standby
  /// Mean time from ground-truth fault to the detector's kDown declaration.
  double detection_latency_mean = 0.0;

  // Robustness runs only (zero unless retry/degrade/fault configured):
  uint64_t retries = 0;           // deferred re-submissions executed
  uint64_t dead_letters = 0;      // work abandoned after the retry budget
  uint64_t shed_query = 0;        // fresh queries shed by the ladder
  uint64_t shed_update = 0;       // fresh updates shed by the ladder
  uint64_t faults_started = 0;    // fault windows opened by the injector
  uint64_t faults_ended = 0;      // fault windows closed by the injector
  uint64_t probes_lost = 0;       // heartbeat probes eaten by faults
  uint64_t probes_delayed = 0;    // heartbeat probes slowed by faults

  // Placement runs only (zero/empty otherwise):
  double remote_frac = 0.0;  // cluster-wide remote share of accesses
  uint64_t rebalances = 0;   // rebalance ticks that ran
  uint64_t migrations = 0;   // partition homes moved across all ticks
  /// One entry per partition: the catalog state at run end (post-
  /// rebalance), exportable with WritePlacementCsv.
  std::vector<PartitionPlacement> partitions;

  double duration = 0.0;
  double warmup = 0.0;

  /// Post-warmup response-time distribution merged across all nodes: the
  /// cluster-wide percentiles (exactly equal to bucketing the pooled
  /// commits, by merge determinism).
  telemetry::LogHistogram response_hist;
  /// Post-warmup per-phase distributions merged across nodes, indexed by
  /// telemetry::Phase (empty when nodes ran telemetry.per_phase = false).
  std::array<telemetry::LogHistogram, telemetry::kNumPhases> phase_hists;

  /// End-of-run snapshot of every registered metric (per-node db counters
  /// and histograms under "node<i>.", cluster routing/lifecycle counters
  /// under "cluster."), sorted by name. Feeds the run manifest.
  std::vector<telemetry::MetricSample> metrics;
};

/// Builds the full cluster stack (one simulator, N node systems with gates,
/// one NodeRun per node, router, arrival source, and the elasticity loop
/// and fault injector when the spec enables them) from a cluster-mode spec
/// (`cluster` true), runs it, and returns per-node trajectories plus
/// aggregate statistics. Each node's control loop and post-warmup summary
/// are its NodeRun's, exactly as in the single-node Experiment; a node
/// that is down or on standby steps frozen. Deterministic given the spec.
class ClusterExperiment {
 public:
  explicit ClusterExperiment(const ExperimentSpec& spec);

  /// Attaches an optional trace recorder for the next Run(): per-node
  /// transaction lifecycle, gate decisions, controller limit changes, and
  /// membership epoch transitions. Pass nullptr (default) for no tracing.
  void SetTraceRecorder(telemetry::TraceRecorder* recorder) {
    trace_ = recorder;
  }

  /// Attaches an optional decision audit for the next Run(): every
  /// controller step on every live node is recorded as a DecisionRecord.
  /// Down nodes record nothing — their control plane does not step.
  /// Observation-only; pass nullptr (default) for no auditing.
  void SetDecisionAudit(telemetry::DecisionAudit* audit) { audit_ = audit; }

  ClusterResult Run();

 private:
  ExperimentSpec spec_;
  telemetry::TraceRecorder* trace_ = nullptr;
  telemetry::DecisionAudit* audit_ = nullptr;
};

}  // namespace alc::core

#endif  // ALC_CORE_CLUSTER_EXPERIMENT_H_
