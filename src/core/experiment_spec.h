#ifndef ALC_CORE_EXPERIMENT_SPEC_H_
#define ALC_CORE_EXPERIMENT_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "db/config.h"
#include "db/schedule.h"
#include "elasticity/config.h"
#include "fault/config.h"
#include "util/params.h"
#include "workload/source.h"

namespace alc::core {

/// Load-control wiring of one node, string-native: the controller is a
/// ControllerRegistry name and its configuration a ParamMap, so a spec file
/// can select and parameterize any registered policy — including ones
/// registered outside src/ — without recompilation. The paper's zoo
/// registers as "none", "fixed", "tay-rule", "iyer-rule",
/// "incremental-steps" (section 4.1), "parabola-approximation" (section
/// 4.2) and "golden-section"; a param the map does not set takes the
/// factory's default.
struct ControlSpec {
  std::string controller = "parabola-approximation";
  util::ParamMap params;  // canonical keys: "pa.dither", "is.beta", ...
  /// Measurement interval length Delta-t (paper section 5).
  double measurement_interval = 1.0;
  double initial_limit = 50.0;
  /// Enforce lowered bounds by aborting active transactions (section 4.3).
  bool displacement = false;
  /// Enable the outer tuning loop that retunes the interval (section 5).
  bool outer_tuner = false;

  /// Field by field over the spec's key tables (spec.cc).
  bool operator==(const ControlSpec& other) const;
  bool operator!=(const ControlSpec& other) const { return !(*this == other); }
};

/// One node of an experiment: simulated system (with its workload dynamics
/// and CPU speed profile), control wiring, and (cluster mode) an
/// availability schedule. Nodes may be heterogeneous in every field. A
/// single-node experiment uses exactly one of these.
struct NodeSpec {
  db::SystemConfig system;
  ControlSpec control;
  /// Lifecycle (cluster mode only): `availability = avail(up; 60:down,
  /// 90:up)` segments drive crash/drain/rejoin transitions; `rejoin`
  /// selects what the control plane remembers across a crash.
  cluster::AvailabilitySchedule availability;
  cluster::RejoinPolicy rejoin = cluster::RejoinPolicy::kFresh;

  bool operator==(const NodeSpec& other) const;
  bool operator!=(const NodeSpec& other) const { return !(*this == other); }
};

/// One row of a spec file's `[expect]` section: a named check on the run's
/// manifest leaves (`name = <expr> <op> <bound>`; grammar and evaluation in
/// core/expect.h), kept as written. `line` is the spec-file line the row
/// came from (0 when built in code) and serves error messages only: it is
/// neither printed nor compared.
struct ExpectRow {
  std::string name;
  std::string check;
  int line = 0;

  bool operator==(const ExpectRow& other) const {
    return name == other.name && check == other.check;
  }
};

/// A complete experiment description unifying the single-node and cluster
/// cases: one node list, one control surface, one text serialization (see
/// core/spec.h). In single mode (`cluster` false, exactly one node) the
/// node runs the paper's closed/open model driven by `active_terminals`;
/// in cluster mode the fleet sits behind a routed front-end driven by
/// `arrival_rate`, with optional data placement. Everything is
/// reproducible from this struct, and `ParseSpec(PrintSpec(spec))` returns
/// an equal spec.
struct ExperimentSpec {
  std::string name = "experiment";
  /// Run mode: single-node Experiment when false, ClusterExperiment when
  /// true (a 1-node cluster is valid: it exercises the routed front-end).
  bool cluster = false;
  /// Seeds the router policy and the cluster arrival stream, and is the
  /// default seed for nodes that do not declare their own.
  uint64_t seed = 1;
  double duration = 300.0;  // s of virtual time
  double warmup = 30.0;     // s excluded from summary statistics

  std::vector<NodeSpec> nodes;

  /// Single mode: the closed model's terminal population N(t).
  db::Schedule active_terminals =
      db::Schedule::Constant(db::PhysicalConfig{}.num_terminals);

  /// Cluster mode: routing policy (a RoutingPolicyRegistry name) and its
  /// parameters ("threshold.initial_threshold", "power-of-d.d", ...).
  std::string routing = "join-shortest-queue";
  util::ParamMap routing_params;
  /// Cluster-wide Poisson arrival rate (transactions per second). Drives
  /// the default "open" workload source; session sources use the
  /// `[workload]` section instead.
  db::Schedule arrival_rate = db::Schedule::Constant(100.0);

  /// Cluster mode: the arrival process ([workload] section) — which
  /// WorkloadRegistry source drives the front-end and, for session
  /// sources, the population/burst/think/affinity model. Defaults
  /// reproduce the classic open Poisson stream exactly.
  workload::WorkloadSpec workload;

  /// Cluster-level displacement (keys "retraction",
  /// "retraction_queue_factor", "retraction_interval"): retract queued
  /// admissions from nodes that crash, drain or degrade and re-route them.
  cluster::RetractionConfig retraction;

  /// Cluster mode: bounded retry/backoff for retracted and crash-killed
  /// work ("retry.*" keys), and the class-tiered graceful-degradation
  /// ladder ("degrade.*" keys). Both off by default.
  cluster::RetryConfig retry;
  cluster::DegradeConfig degrade;

  /// Cluster mode: spec-driven fault injection ([fault] section) — probe
  /// loss/delay storms, partitions, disk stalls, CPU degradation, and
  /// crash bursts perturbing the measured path only.
  fault::FaultConfig fault;

  /// When non-empty, RunSpec records a Chrome trace-event JSON of the run
  /// (transaction lifecycle, gate decisions, controller limit changes,
  /// membership transitions) and writes it here; empty disables tracing.
  /// Observability only: the trace never perturbs the simulation.
  std::string trace_path;

  /// When non-empty, RunSpec audits every controller step (monitor inputs,
  /// limit move, reason code, controller state) and writes the stable
  /// decisions.csv here; empty disables auditing. Observability only: the
  /// audit never perturbs the simulation.
  std::string decisions_path;

  /// Cluster mode: data placement layer ([placement] section, off by
  /// default). When enabled, the front-end draws each arrival's access
  /// plan from `placement.workload`, the router sees the keys and the
  /// catalog, and every node pays `remote_access` for keys it does not
  /// hold (ClusterExperiment copies the penalty into each node's system).
  bool placement_enabled = false;
  cluster::PlacementSpec placement;
  db::RemoteAccessConfig remote_access;

  /// Cluster mode: closed-loop elasticity ([elasticity] section) — measured
  /// heartbeat failure detection replacing the membership oracle, and an
  /// autoscaler provisioning/draining a standby pool off fleet signals.
  elasticity::ElasticityConfig elasticity;

  /// The `[expect]` rows, in file order. They never change what a run
  /// computes: alc_run evaluates them after RunSpec returns.
  std::vector<ExpectRow> expect;

  bool operator==(const ExperimentSpec& other) const;
  bool operator!=(const ExperimentSpec& other) const {
    return !(*this == other);
  }
};

/// Derives the seed for one cluster node from a base seed. The mix is
/// multiplicative (splitmix64 finalizer), not an additive stride: the
/// TransactionSystem derives its internal streams by adding fixed offsets
/// to its seed, so additively-strided node seeds would make neighboring
/// nodes share bit-identical streams.
uint64_t DecorrelatedNodeSeed(uint64_t base, int node_index);

/// Arrival-rate schedule for a flash crowd: `base_rate` except
/// [start, end), where the rate is `crowd_rate`.
db::Schedule FlashCrowdSchedule(double base_rate, double crowd_rate,
                                double start, double end);

/// CPU speed schedule for a degraded node: full speed except [start, end),
/// where the node runs at `degraded_speed` (< 1).
db::Schedule NodeSlowdownSchedule(double degraded_speed, double start,
                                  double end);

}  // namespace alc::core

#endif  // ALC_CORE_EXPERIMENT_SPEC_H_
