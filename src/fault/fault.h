#ifndef ALC_FAULT_FAULT_H_
#define ALC_FAULT_FAULT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "elasticity/probe.h"
#include "fault/config.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "telemetry/audit.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "util/registry.h"

namespace alc::fault {

/// Aggregate measured-path perturbation of one node, recomputed from the
/// set of currently active fault windows on every window edge. Recomputing
/// from scratch (instead of incrementally adding and subtracting
/// contributions) keeps the floating-point state exactly reproducible no
/// matter how windows overlap or in which order they close.
struct NodePerturbation {
  /// Additive extra round-trip delay on heartbeat probes (seconds).
  double probe_delay = 0.0;
  /// Combined probe-loss probability: 1 - prod(1 - p_i) over active
  /// probe-loss windows.
  double probe_loss = 0.0;
  /// Front-end link cut: probes to this node are always lost (no RNG draw).
  bool partitioned = false;
  /// Multiplier on disk service time (>= 1 stalls, 1 = unperturbed).
  double disk_factor = 1.0;
  /// Multiplier on effective CPU speed (0.5 = half speed, 1 = unperturbed).
  double cpu_factor = 1.0;
};

/// What the injector is allowed to do to the cluster. Deliberately narrow:
/// lifecycle faults flip ground truth (or force transitions on unmanaged
/// fleets), and measured-path aggregates are pushed as absolute values —
/// the injector never reaches into routing, gates, or workload state.
class FaultHost {
 public:
  virtual ~FaultHost() = default;

  virtual int num_nodes() const = 0;

  /// Takes `node` down at the window start (ground-truth injection on
  /// managed-membership fleets, a forced transition otherwise).
  virtual void CrashNode(int node) = 0;
  /// Brings `node` back at the window end.
  virtual void RepairNode(int node) = 0;

  /// Pushes the recomputed aggregate for `node` into the measured path
  /// (disk/CPU factors into the node's subsystems; probe fields are read
  /// back by the injector itself via the ProbePerturber interface).
  virtual void ApplyPerturbation(int node, const NodePerturbation& p) = 0;
};

/// One pluggable fault kind. Stateless: window state lives in the
/// injector. `Contribute` folds one ACTIVE window into a node's aggregate
/// perturbation; `OnStart`/`OnEnd` are lifecycle hooks fired at the window
/// edges (the crash-burst kind uses them, measured-path kinds do not).
class FaultKind {
 public:
  virtual ~FaultKind() = default;
  virtual void Contribute(const FaultSpec& spec, NodePerturbation* out) const;
  virtual void OnStart(const FaultSpec& spec, FaultHost* host) const;
  virtual void OnEnd(const FaultSpec& spec, FaultHost* host) const;
};

/// Fault kinds by name: built-ins come with Global(), external kinds can
/// be added before spec validation. Registered names are valid in
/// `[fault] inject = ...` lines; the injector makes one kind per window,
/// handing the factory the window it serves.
///
/// Built-in kinds (magnitude semantics in parentheses):
///   probe-delay  — additive heartbeat-probe RTT spike (seconds)
///   probe-loss   — per-probe loss probability (in [0, 1])
///   partition    — asymmetric front-end link cut: probes always lost (-)
///   disk-stall   — disk service-time multiplier (> 0, e.g. 4 = 4x slower)
///   cpu-degrade  — CPU speed multiplier (> 0, e.g. 0.5 = half speed)
///   crash-burst  — correlated crash of the node set at start, repair at
///                  end (-)
using FaultRegistry = util::Registry<FaultKind, FaultSpec>;
FaultRegistry BuiltinRegistry(FaultRegistry*);

/// Spec-driven fault injector. Start() schedules one event per window
/// edge on the shared simulator queue; each edge recomputes the affected
/// nodes' aggregate perturbations from the set of still-active windows and
/// pushes them through the FaultHost. Perturbs only the measured path:
/// ground truth, workload variates, and every other component's RNG stream
/// are untouched (the injector draws from its own spawned stream, and only
/// when a probe-loss window is actually active).
///
/// Every edge is stamped into the DecisionAudit (controller
/// "fault-injector", reason "<kind>-start"/"<kind>-end") and the trace, so
/// a run's decision log shows exactly which fault was in force when the
/// detector or the degradation ladder reacted.
class FaultInjector : public elasticity::ProbePerturber {
 public:
  FaultInjector(sim::Simulator* simulator, FaultHost* host,
                const FaultConfig& config, uint64_t seed,
                telemetry::DecisionAudit* audit,
                telemetry::TraceRecorder* trace);

  /// Schedules every window edge. Call once, before the run starts.
  void Start();

  // elasticity::ProbePerturber:
  double ProbeExtraDelay(int node) override;
  bool ProbeLost(int node) override;

  const NodePerturbation& perturbation(int node) const {
    return perturbations_[static_cast<size_t>(node)];
  }

  uint64_t faults_started() const { return faults_started_; }
  uint64_t faults_ended() const { return faults_ended_; }
  uint64_t probes_lost() const { return probes_lost_; }
  uint64_t probes_delayed() const { return probes_delayed_; }

  /// Links the injector counters under "fault." (observation-only).
  void RegisterMetrics(telemetry::MetricRegistry* registry) const;

 private:
  struct Entry {
    FaultSpec spec;
    std::unique_ptr<FaultKind> kind;
    bool active = false;
    // Process-lifetime interned audit reasons (DecisionRecord stores raw
    // pointers that outlive the injector).
    const char* start_reason = nullptr;
    const char* end_reason = nullptr;
  };

  void OnEdge(size_t index, bool starting);
  /// Recomputes the aggregates of every node `spec` targets from the
  /// currently active window set and pushes them through the host.
  void RecomputeAffected(const FaultSpec& spec);
  void RecomputeNode(int node);
  void RecordEdge(const Entry& entry, bool starting);

  sim::Simulator* simulator_;
  FaultHost* host_;
  telemetry::DecisionAudit* audit_;
  telemetry::TraceRecorder* trace_;
  sim::RandomStream rng_;
  std::vector<Entry> entries_;
  std::vector<NodePerturbation> perturbations_;
  uint64_t faults_started_ = 0;
  uint64_t faults_ended_ = 0;
  uint64_t probes_lost_ = 0;
  uint64_t probes_delayed_ = 0;
};

}  // namespace alc::fault

#endif  // ALC_FAULT_FAULT_H_
