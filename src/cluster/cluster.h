#ifndef ALC_CLUSTER_CLUSTER_H_
#define ALC_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/lifecycle.h"
#include "cluster/router.h"
#include "control/gate.h"
#include "db/database.h"
#include "db/schedule.h"
#include "db/system.h"
#include "db/workload.h"
#include "placement/catalog.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "telemetry/trace.h"
#include "util/chunk_vector.h"
#include "workload/source.h"

namespace alc::telemetry {
class DecisionAudit;
class MetricRegistry;
}  // namespace alc::telemetry

namespace alc::cluster {

/// Everything needed to build one cluster node. Nodes may be heterogeneous:
/// different CPU counts, database sizes, CC schemes, workload mixes, speed
/// profiles, and availability schedules are all allowed. `system.arrivals`
/// is forced to kExternal — a cluster node receives work only from the
/// router.
struct NodeConfig {
  db::SystemConfig system;
  double initial_limit = 50.0;
  bool displacement = false;
  /// Lifecycle: when this node is up / draining / down (default: always
  /// up, which keeps every lifecycle event out of the run).
  AvailabilitySchedule availability;
  /// What the node's control plane remembers when it rejoins after a crash.
  RejoinPolicy rejoin = RejoinPolicy::kFresh;
};

/// Cluster-level displacement (the front-end retraction of ROADMAP fame).
struct RetractionConfig {
  /// Master switch: when false, a crash simply loses the node's gate queue
  /// and in-flight work, and a drain strands its queue until completion.
  bool enabled = false;
  /// Degradation trigger: when > 0, every `check_interval` seconds the
  /// front-end retracts queued admissions beyond `queue_factor * n*` from
  /// each live node's gate and re-routes them through the policy — a node
  /// does not need to die to shed its backlog, degrading past the
  /// threshold is enough. 0 limits retraction to lifecycle transitions.
  double queue_factor = 0.0;
  double check_interval = 1.0;
};

/// Bounded retry with exponential backoff for retracted and crash-killed
/// work. Without it (the historical default) retractions re-route
/// immediately and crash kills replay as instant fresh submissions; with it
/// every re-submission is deferred by a backoff delay and charged against a
/// per-work-unit budget — exhausting the budget dead-letters the work
/// instead of bouncing it across a sick fleet forever.
struct RetryConfig {
  bool enabled = false;
  /// Re-submissions allowed per work unit before it dead-letters.
  int budget = 3;
  /// Backoff delay before attempt n (0-based prior re-submissions):
  /// min(base * factor^n, max) * (1 + jitter * U[-0.5, 0.5)).
  double backoff_base = 0.05;
  double backoff_factor = 2.0;
  double backoff_max = 1.0;
  /// Deterministic jitter width (fraction of the delay) from the cluster's
  /// seeded retry stream; 0 disables the draw entirely.
  double jitter = 0.2;
};

/// Graceful-degradation ladder: when the fleet-mean gate queue factor
/// (queue length / n*, averaged over live nodes) crosses tiered thresholds,
/// the front door sheds fresh arrivals by transaction class — queries first
/// (level 1), then updates too (level 2) — and restores in reverse order
/// once the pressure falls below hysteresis-scaled thresholds. Retries and
/// retractions are never shed: admitted-and-displaced work finishes or
/// dead-letters through the retry budget.
struct DegradeConfig {
  bool enabled = false;
  /// Evaluation period (seconds); one ladder step at most per tick.
  double interval = 1.0;
  /// Mean queue factor at which queries shed (ladder level 1).
  double shed_query = 2.0;
  /// Mean queue factor at which updates shed too (ladder level 2).
  double shed_update = 4.0;
  /// Restore when the factor drops below threshold * hysteresis.
  double restore_hysteresis = 0.8;
};

/// One TP node: a full TransactionSystem replica plus the admission gate in
/// front of it. The per-node controller and monitor are wired by the
/// experiment layer (core/cluster_experiment); the cluster owns only the
/// data plane.
class ClusterNode {
 public:
  ClusterNode(sim::Simulator* sim, const NodeConfig& config);

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  db::TransactionSystem& system() { return system_; }
  const db::TransactionSystem& system() const { return system_; }
  control::AdmissionGate& gate() { return gate_; }
  const control::AdmissionGate& gate() const { return gate_; }

  /// The router-visible state of this node, read from the system and gate.
  NodeView View() const;

  /// Keeps `*slot` equal to View() from now on: writes it at once and
  /// again on every change of the admitted count, the gate queue or the
  /// gate threshold (through the system's load observer). `slot` must
  /// outlive the node.
  void PublishTo(NodeView* slot);

 private:
  db::TransactionSystem system_;
  control::AdmissionGate gate_;
  NodeView* published_ = nullptr;
};

/// Data placement layer of a cluster: the global keyspace the front-end
/// draws access plans from, and the partition/replica catalog the router
/// consults. With placement enabled, every node must hold a database of at
/// least `workload.db_size` granules (nodes execute any key; non-replica
/// keys pay the remote-access penalty of their system config).
struct PlacementSpec {
  placement::PlacementConfig placement;
  /// Global keyspace and skew (db_size, hotspot region).
  db::LogicalConfig workload;
  /// The workload mix the front-end stamps its plans with.
  db::WorkloadDynamics dynamics;
};

/// N transaction-system replicas sharing one simulator event queue, fed by
/// a pluggable workload source (default: the open Poisson stream over the
/// arrival-rate schedule) through a routing policy over the epoch-versioned
/// live membership. Each arrival is routed on the current MembershipView
/// and submitted to the chosen node. Without placement, the node stamps the
/// work from its own workload dynamics; with placement the front-end draws
/// a key-carrying plan from the global keyspace (biased toward the
/// arrival's session-affinity key range when one is attached), routes on
/// it, and marks non-replica keys remote. Session-tagged arrivals report
/// their commit/kill/drop back to the source, closing the think/issue loop
/// of closed and hybrid workloads.
///
/// Lifecycle: each node follows its availability schedule. A node going
/// kDown crashes — its in-flight work is killed and its gate queue is
/// either retracted and re-routed (retraction enabled; the lost in-flight
/// requests are also retried elsewhere as fresh submissions) or dropped. A
/// node entering kDrain leaves the routing set but finishes everything it
/// holds (with retraction, its queued work moves elsewhere immediately). A
/// node returning kUp rejoins the membership; after a crash its gate and
/// controller state start fresh or retained per its RejoinPolicy. Every
/// transition bumps the membership epoch and notifies the placement
/// catalog, which re-homes orphaned partitions at once.
///
/// All randomness (arrival gaps, per-node variates, policy choices) comes
/// from seeded streams, so a cluster run is bit-deterministic per
/// configuration — lifecycle events included.
class Cluster : public workload::WorkloadHost {
 public:
  /// (node, previous state, new state), fired after the membership and data
  /// plane updated. The experiment layer uses it to rebuild controllers on
  /// fresh rejoins.
  using LifecycleListener =
      std::function<void(int node, NodeState from, NodeState to)>;

  Cluster(sim::Simulator* sim, const std::vector<NodeConfig>& nodes,
          std::unique_ptr<RoutingPolicy> policy, uint64_t seed);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Cluster-wide offered load for the default open source: arrivals per
  /// second (time-varying allowed, e.g. a flash crowd). Must be called
  /// before Start(). Ignored when SetWorkloadSource installs a source that
  /// does not consume it.
  void SetArrivalRateSchedule(db::Schedule schedule);

  /// Installs the workload source that will drive arrivals. Must be called
  /// before Start(). When unset, Start() builds the historical open
  /// Poisson source from the arrival-rate schedule (byte-identical event
  /// stream to the pre-subsystem inline driver).
  void SetWorkloadSource(std::unique_ptr<workload::WorkloadSource> source);

  /// The installed (or defaulted) source; null before Start() unless
  /// SetWorkloadSource ran. The experiment layer uses this to register
  /// source metrics under the "workload." namespace.
  workload::WorkloadSource* workload_source() { return source_.get(); }

  // WorkloadHost API (called by the source).
  /// Routes one arrival to a node, or drops it (and reports the drop back
  /// to the source for tracked arrivals) when no node is live.
  void SubmitArrival(const workload::Arrival& arrival) override;
  /// Global keyspace size under placement, 0 for placement-blind runs.
  uint32_t keyspace() const override;

  /// Enables the data placement layer. Must be called before Start(). The
  /// catalog is built here; if the placement config sets a rebalance
  /// interval, Start() schedules periodic hot-partition migrations driven
  /// by front-end occupancy.
  void EnablePlacement(const PlacementSpec& spec);

  /// Configures cluster-level displacement. Must be called before Start().
  void SetRetraction(const RetractionConfig& config);

  /// Configures bounded retry/backoff for retracted and crash-killed work.
  /// Must be called before Start(). Only meaningful with retraction
  /// enabled (otherwise that work is dropped before the retry path runs).
  void SetRetry(const RetryConfig& config);

  /// Configures the graceful-degradation ladder. Must be called before
  /// Start().
  void SetDegrade(const DegradeConfig& config);

  /// Attaches the decision audit trail: degradation ladder steps record
  /// under controller "degrade-ladder". nullptr detaches. Observation-only.
  void SetDecisionAudit(telemetry::DecisionAudit* audit) { audit_ = audit; }

  /// Deferred re-submissions executed (retry path).
  uint64_t retries() const { return retries_; }
  /// Work units abandoned after exhausting the retry budget.
  uint64_t dead_letters() const { return dead_letters_; }
  /// Fresh arrivals shed by the degradation ladder, by class.
  uint64_t shed_query() const { return shed_query_; }
  uint64_t shed_update() const { return shed_update_; }
  /// Current ladder level: 0 = full service, 1 = queries shed, 2 = all shed.
  int degrade_level() const { return degrade_level_; }

  /// Registers the lifecycle listener. Must be called before Start().
  void SetLifecycleListener(LifecycleListener listener);

  /// Managed-membership mode (measured failure detection). Availability
  /// transitions to down/up stop flipping the membership directly and
  /// become ground-truth fault injection instead: a node's crash freezes
  /// its gate and kills its in-flight work, but the router keeps sending
  /// arrivals to it (counted in misroutes()) until the failure detector
  /// calls ForceTransition(kDown) — the detection window is a real,
  /// measurable cost. Must be called before Start().
  void SetManagedMembership(bool managed);
  bool managed_membership() const { return managed_; }

  /// Moves a node into the standby pool before the run starts: it begins
  /// outside the membership holding no work, available for the autoscaler
  /// to provision. Must be called before Start().
  void SetNodeStandby(int node);

  /// Applies a membership transition as the *control plane's* belief — the
  /// actuator for failure detectors (declare kDown / kUp) and autoscalers
  /// (provision standby -> kUp, drain kUp -> kDrain -> kStandby). In
  /// managed mode the data-plane crash semantics stay with the ground
  /// truth: declaring a truly-dead node down retracts its piled-up queue
  /// through the retraction path; declaring a live node down (false
  /// positive) moves its queue but lets admitted work finish, like a
  /// drain.
  void ForceTransition(int node, NodeState to);

  /// Ground-truth fault injection (managed mode): what availability
  /// schedules actuate instead of the membership.
  void InjectTruth(int node, NodeState to);

  /// True while node i is in truth crashed (managed mode only).
  bool truth_down(int i) const { return truth_down_[i] != 0; }
  /// Time the current truth fault of node i began (valid while
  /// truth_down(i)).
  double truth_down_since(int i) const { return truth_down_since_[i]; }
  /// Arrivals routed to an in-truth-dead node during detection windows.
  uint64_t misroutes() const { return misroutes_; }

  /// Attaches an optional trace recorder: each node's system emits its
  /// lifecycle with pid = node index, and the cluster emits membership
  /// epoch transitions and retraction batches. nullptr detaches.
  void SetTraceRecorder(telemetry::TraceRecorder* recorder);

  /// Links the cluster-scope counters (routing, lifecycle outcomes, epoch)
  /// into `registry` under "cluster." and "node<i>." prefixes.
  /// Observation-only; the Cluster must outlive the registry's last
  /// Snapshot().
  void RegisterMetrics(telemetry::MetricRegistry* registry) const;

  /// Starts every node, the lifecycle schedules, and the arrival process.
  /// Call once.
  void Start();

  int size() const { return static_cast<int>(nodes_.size()); }
  ClusterNode& node(int i) { return *nodes_[i]; }
  const ClusterNode& node(int i) const { return *nodes_[i]; }
  RoutingPolicy& policy() { return *policy_; }
  /// Node i's published router-visible state (always equal to
  /// node(i).View()).
  const NodeView& view(int i) const { return views_[i]; }

  // Membership-first API: the live set, per-node states, and the epoch
  // counter that versions them.
  NodeState node_state(int i) const { return states_[i]; }
  int num_live() const { return static_cast<int>(live_.size()); }
  uint64_t epoch() const { return epoch_; }
  const std::vector<int>& live_nodes() const { return live_; }
  /// Gate queue length over max(n*, 1), averaged over the live set in
  /// live-set order (0 when none is live): the pressure signal of the
  /// degradation ladder and the autoscaler.
  double MeanQueueFactor() const;

  uint64_t total_routed() const { return total_routed_; }
  const std::vector<uint64_t>& routed_per_node() const { return routed_; }

  // Lifecycle outcome counters (whole run, per node and summed).
  /// In-flight transactions killed by crashes on node i.
  const std::vector<uint64_t>& crash_kills_per_node() const {
    return crash_kills_;
  }
  /// Queued admissions retracted from node i's gate and re-routed.
  const std::vector<uint64_t>& retracted_per_node() const {
    return retracted_;
  }
  /// Work lost at node i: queued admissions dropped by a crash without
  /// retraction, plus retracted/retried work with no live node to go to.
  const std::vector<uint64_t>& lost_per_node() const { return lost_; }
  /// Arrivals dropped at the front door because no node was live.
  uint64_t arrivals_dropped() const { return arrivals_dropped_; }

  /// Null until EnablePlacement.
  placement::PlacementCatalog* catalog() { return catalog_.get(); }
  const placement::PlacementCatalog* catalog() const { return catalog_.get(); }

 private:
  void ScheduleRebalance();
  void ScheduleRetractionScan();
  /// The membership view over the published node views and `live`.
  MembershipView Snapshot(const std::vector<int>& live) const;
  /// Recomputes live_ (sorted kUp nodes) from states_.
  void RebuildLive();
  void ApplyTransition(int node, NodeState to);
  /// Crash kill of `node`'s in-flight work: retried elsewhere with
  /// retraction, lost without. Returns the number killed.
  int KillInFlight(int node);
  /// Pulls up to `max_count` queued admissions out of `node`'s gate and
  /// re-routes them over the live set minus `node` (after a backoff when
  /// retry is on), or loses them with `drop` or nowhere to go.
  void RetractAndReroute(int node, int max_count, bool drop);
  /// Replays one crash-killed request as a fresh, untagged arrival.
  void RetryElsewhere(int origin);
  /// Draws plan_ from the front-end keyspace (placement mode), biased to
  /// the arrival's affinity range, and records its heat.
  void StampPlan(const workload::Arrival& arrival);
  /// Reloads a kept plan into plan_ and maps its partitions (no heat).
  void StagePlan(db::TxnClass cls, const std::vector<db::ItemId>& items,
                 const std::vector<db::AccessMode>& modes);
  /// The one route-and-submit path: routes over `members` (on plan_ under
  /// placement), counts the routing and submits to the target, tagged with
  /// `session` when >= 0 and stamped with `retry_count`.
  void Dispatch(const MembershipView& members, bool retraction,
                int32_t session, int retry_count);
  /// Reports a failed request back to the source when `session` >= 0.
  void ReportFailed(int32_t session);
  /// Backoff delay before a re-submission that already saw `prior_attempts`
  /// re-submissions, with deterministic jitter from retry_rng_.
  double BackoffDelay(int prior_attempts);
  /// Executes the deferred re-submission parked in retry_slots_[slot].
  void ResubmitRetry(int slot);
  /// Parks a re-submission (with plan_ when `preplanned`) in a retry slot
  /// and schedules ResubmitRetry after the backoff delay. `prior` is the
  /// work unit's re-submission count before this one.
  void ScheduleRetry(int origin, int32_t session, int prior, bool preplanned);
  /// One degradation-ladder evaluation: steps the shed level at most one
  /// rung per tick based on MeanQueueFactor().
  void DegradeTick();
  void ScheduleDegradeTick();
  /// True when the degradation ladder sheds a fresh arrival of `cls` at
  /// the current level; counts the shed and reports the drop.
  bool ShedArrival(db::TxnClass cls, int32_t session);

  sim::Simulator* sim_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
  std::vector<NodeConfig> configs_;
  std::unique_ptr<RoutingPolicy> policy_;
  std::unique_ptr<workload::WorkloadSource> source_;
  uint64_t seed_;
  db::Schedule arrival_rate_ = db::Schedule::Constant(100.0);
  /// One slot per node, written by the node itself (ClusterNode::PublishTo)
  /// whenever its admitted count, gate queue or gate threshold changes, so
  /// routing reads current state without assembling it per decision. Sized
  /// once in the constructor and never resized: the nodes hold pointers
  /// into it.
  std::vector<NodeView> views_;
  std::vector<uint64_t> routed_;
  uint64_t total_routed_ = 0;
  bool started_ = false;

  telemetry::TraceRecorder* trace_ = nullptr;

  // Membership state.
  std::vector<NodeState> states_;
  std::vector<int> live_;  // sorted live node indices
  uint64_t epoch_ = 0;
  bool lifecycle_active_ = false;  // any non-always-up schedule?
  // Managed-membership (measured failure detection) state.
  bool managed_ = false;
  std::vector<uint8_t> truth_down_;      // ground truth: node is crashed
  std::vector<double> truth_down_since_;  // fault start time per node
  uint64_t misroutes_ = 0;
  RetractionConfig retraction_;
  RetryConfig retry_;
  DegradeConfig degrade_;
  telemetry::DecisionAudit* audit_ = nullptr;
  /// Parked deferred re-submission. Slots live in chunked storage (stable
  /// addresses, one allocation per 64 slots) and recycle through
  /// retry_free_; the plan vectors keep their capacity across reuses, so a
  /// steady retry stream stops allocating once warm.
  struct PendingRetry {
    int32_t session = -1;
    int attempts = 0;  // re-submissions including this one
    int origin = -1;
    bool preplanned = false;
    db::TxnClass cls = db::TxnClass::kUpdater;
    std::vector<db::ItemId> items;
    std::vector<db::AccessMode> modes;
  };
  util::ChunkVector<PendingRetry> retry_slots_;
  std::vector<int> retry_free_;
  sim::RandomStream retry_rng_;
  sim::RandomStream shed_rng_;
  uint64_t retries_ = 0;
  uint64_t dead_letters_ = 0;
  uint64_t shed_query_ = 0;
  uint64_t shed_update_ = 0;
  int degrade_level_ = 0;
  double degrade_level_gauge_ = 0.0;  // registry-linked mirror of the level
  LifecycleListener listener_;
  std::vector<uint64_t> crash_kills_;
  std::vector<uint64_t> retracted_;
  std::vector<uint64_t> lost_;
  uint64_t arrivals_dropped_ = 0;
  std::vector<db::Transaction*> retract_scratch_;
  std::vector<int> live_scratch_;  // live set minus a retraction origin
  std::vector<int> scan_scratch_;  // stable iteration copy for the scanner

  // Placement state (set by EnablePlacement).
  PlacementSpec placement_spec_;
  std::unique_ptr<placement::PlacementCatalog> catalog_;
  std::unique_ptr<db::AccessPatternGenerator> plan_gen_;
  sim::RandomStream plan_class_rng_;
  db::Transaction plan_;                // what Dispatch submits, placed
  std::vector<int> plan_partitions_;    // partition per planned key
  std::vector<uint8_t> remote_flags_;   // reused per placed submission
  std::vector<int> load_scratch_;       // reused per rebalance tick
};

}  // namespace alc::cluster

#endif  // ALC_CLUSTER_CLUSTER_H_
