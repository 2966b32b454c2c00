#ifndef ALC_CORE_SPEC_H_
#define ALC_CORE_SPEC_H_

#include <optional>
#include <string>
#include <vector>

#include "core/cluster_experiment.h"
#include "core/cluster_scenario.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "db/config.h"
#include "elasticity/config.h"
#include "db/schedule.h"
#include "db/workload.h"
#include "placement/catalog.h"
#include "util/params.h"
#include "workload/source.h"

namespace alc::core {

/// Load-control wiring of one node, string-native: the controller is a
/// ControllerRegistry name and its configuration a ParamMap, so a spec file
/// can select and parameterize any registered policy — including ones
/// registered outside src/ — without recompilation.
struct ControlSpec {
  std::string controller = "parabola-approximation";
  util::ParamMap params;  // canonical keys: "pa.dither", "is.beta", ...
  double measurement_interval = 1.0;
  double initial_limit = 50.0;
  bool displacement = false;
  bool outer_tuner = false;

  /// Field by field over the spec's key tables (spec.cc).
  bool operator==(const ControlSpec& other) const;
  bool operator!=(const ControlSpec& other) const { return !(*this == other); }
};

/// One node of an experiment: simulated system, workload dynamics, control
/// wiring, a CPU speed profile, and (cluster mode) an availability
/// schedule. Nodes may be heterogeneous in every field. A single-node
/// experiment uses exactly one of these.
struct NodeSpec {
  db::SystemConfig system;
  db::WorkloadDynamics dynamics =
      db::WorkloadDynamics::FromConfig(db::LogicalConfig{});
  ControlSpec control;
  db::Schedule cpu_speed = db::Schedule::Constant(1.0);
  /// Lifecycle (cluster mode only): `availability = avail(up; 60:down,
  /// 90:up)` segments drive crash/drain/rejoin transitions; `rejoin`
  /// selects what the control plane remembers across a crash.
  cluster::AvailabilitySchedule availability;
  cluster::RejoinPolicy rejoin = cluster::RejoinPolicy::kFresh;

  bool operator==(const NodeSpec& other) const;
  bool operator!=(const NodeSpec& other) const { return !(*this == other); }
};

/// A complete experiment description unifying the single-node and cluster
/// cases: one node list, one control surface, one text serialization. In
/// single mode (`cluster` false, exactly one node) the node runs the
/// paper's closed/open model driven by `active_terminals`; in cluster mode
/// the fleet sits behind a routed front-end driven by `arrival_rate`, with
/// optional data placement. Everything is reproducible from this struct,
/// and `ParseSpec(PrintSpec(spec))` returns an equal spec.
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

  /// Cluster-level displacement: when true the front-end retracts queued
  /// admissions from nodes that crash or drain and re-routes them (crash
  /// kills are retried elsewhere as fresh requests); when false that work
  /// is lost (crash) or strands until the drain completes. A positive
  /// `retraction_queue_factor` additionally sheds queue beyond
  /// factor * n* from live nodes every `retraction_interval` seconds.
  bool retraction = false;
  double retraction_queue_factor = 0.0;
  double retraction_interval = 1.0;

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

  /// Cluster mode: data placement layer (see cluster::PlacementSpec).
  bool placement_enabled = false;
  placement::PlacementConfig placement;
  db::LogicalConfig placement_workload;
  std::optional<db::WorkloadDynamics> placement_dynamics;
  db::RemoteAccessConfig remote_access;

  /// Cluster mode: closed-loop elasticity ([elasticity] section) — measured
  /// heartbeat failure detection replacing the membership oracle, and an
  /// autoscaler provisioning/draining a standby pool off fleet signals.
  elasticity::ElasticityConfig elasticity;

  bool operator==(const ExperimentSpec& other) const;
  bool operator!=(const ExperimentSpec& other) const {
    return !(*this == other);
  }
};

/// Canonical text form: every field as a `key = value` line under
/// `[experiment]` / `[placement]` / one `[node]` section per node, with
/// schedules as literals (db::Schedule::ToString). Doubles round trip
/// exactly; ParseSpec(PrintSpec(spec)) == spec.
std::string PrintSpec(const ExperimentSpec& spec);

/// Parses spec text. Accepts everything PrintSpec emits plus conveniences
/// for hand-written files: `#` comments, omitted keys (defaults apply), a
/// `[schedules]` section of named schedule literals referenced as `$name`,
/// and `count = N` inside a `[node]` section to clone the node N times with
/// decorrelated seeds (DecorrelatedNodeSeed over the node's seed if
/// declared, else the experiment seed). On failure returns false and sets
/// `error` to a line-numbered message, leaving `out` untouched.
///
/// Every value is validated as its key is read: scalars against their
/// type and range (each bound mirrors the check of the code that consumes
/// the field, so a value that would abort the run fails here), schedule
/// literals, enum names, controller/routing/autoscaler/workload *names*,
/// and the values of the params the built-in policies read
/// ("control.pa.dither", "routing.power-of-d.d", "scaler.pi.kp"). Then the
/// cross-field rules of ValidateSpec apply. The run window is checked when
/// the file sets warmup, and reported at the later of the warmup and
/// duration lines; a file that only shortens duration may be completed by
/// overrides, so its window is left to ValidateSpec. Params no built-in
/// policy reads flow through as strings by design: they belong to
/// externally registered policies, whose factories validate them.
bool ParseSpec(const std::string& text, ExperimentSpec* out,
               std::string* error);

/// Reads and parses a spec file. False on I/O or parse failure.
bool LoadSpecFile(const std::string& path, ExperimentSpec* out,
                  std::string* error);

/// Applies one `key = value` override to a parsed spec — the mechanism
/// behind sweep axes and alc_run --set. Keys address the same fields as
/// spec files: experiment-level keys bare ("duration", "routing",
/// "arrival_rate", "routing.threshold.min_threshold"), keys of the other
/// sections prefixed with the section name ("placement.kind",
/// "elasticity.hb.interval"), node keys with "node." (all nodes) or
/// "node<i>." (node i alone), e.g. "node.control.controller" or
/// "node0.physical.num_cpus". Overriding "seed" re-derives every node's
/// seed from the new value (directly for one node, DecorrelatedNodeSeed
/// per index otherwise), so a seed sweep is a replication sweep; pin a
/// node afterwards with "node<i>.seed" if needed. Values are validated as
/// ParseSpec validates them; on a single-node spec, the keys only a
/// cluster reads (retraction, availability, rejoin, retry/degrade, and the
/// [workload], [elasticity] and [fault] sections) are refused.
bool ApplySpecOverride(ExperimentSpec* spec, const std::string& key,
                       const std::string& value, std::string* error);

/// Cross-field rules a single key cannot check on its own: warmup <
/// duration, the cluster-only features of a single-node spec, fleet shape,
/// retry/degrade/elasticity threshold ordering, fault windows and targets.
/// ParseSpec applies them to every file; callers applying overrides run
/// them once all overrides are in, since a valid end state may pass through
/// an invalid one ("--set duration=8 --set warmup=2" on a spec with warmup
/// 30). False with a message if `spec` would abort a run.
bool ValidateSpec(const ExperimentSpec& spec, std::string* error);

/// Struct conversions. The Spec* functions embed the legacy configs'
/// typed controller/routing structs as canonical params, so the resulting
/// spec drives bit-identical runs; To* rebuild legacy configs with the
/// string-native fields (`ControlConfig::name`/`params`,
/// `ClusterScenarioConfig::routing_name`/`routing_params`) carrying the
/// configuration.
ExperimentSpec SpecFromScenario(const ScenarioConfig& scenario);
ExperimentSpec SpecFromCluster(const ClusterScenarioConfig& scenario);
/// Requires !spec.cluster and exactly one node.
ScenarioConfig ToScenario(const ExperimentSpec& spec);
/// Requires spec.cluster and at least one node.
ClusterScenarioConfig ToClusterScenario(const ExperimentSpec& spec);

/// Outcome of RunSpec: exactly one of the two results is populated.
struct SpecRunResult {
  bool cluster = false;
  ExperimentResult single;
  ClusterResult cluster_result;

  /// Decision audit of the run, in chronological order (empty unless the
  /// spec set decisions_path). The same records RunSpec already wrote as
  /// decisions.csv, kept for the alc_run summary and tests.
  std::vector<telemetry::DecisionRecord> decisions;
  /// Records the audit ring overwrote (0 unless the run out-ran capacity).
  size_t decisions_dropped = 0;

  double total_throughput() const {
    return cluster ? cluster_result.total_throughput : single.mean_throughput;
  }
  double mean_response() const {
    return cluster ? cluster_result.mean_response : single.mean_response;
  }
  double abort_ratio() const {
    return cluster ? cluster_result.abort_ratio : single.abort_ratio;
  }
  uint64_t commits() const {
    return cluster ? cluster_result.commits : single.commits;
  }
  const std::vector<telemetry::MetricSample>& metrics() const {
    return cluster ? cluster_result.metrics : single.metrics;
  }
};

/// Runs the spec through Experiment or ClusterExperiment as its mode
/// demands. Deterministic given the spec.
SpecRunResult RunSpec(const ExperimentSpec& spec);

}  // namespace alc::core

#endif  // ALC_CORE_SPEC_H_
