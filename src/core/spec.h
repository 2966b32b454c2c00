#ifndef ALC_CORE_SPEC_H_
#define ALC_CORE_SPEC_H_

#include <array>
#include <string>
#include <vector>

#include "core/cluster_experiment.h"
#include "core/experiment.h"
#include "core/experiment_spec.h"

namespace alc::core {

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
/// declared, else the experiment seed). `[expect]` rows (core/expect.h)
/// pass CheckExpect once the file is in. On failure returns false and sets
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
/// retry/degrade/elasticity threshold ordering, fault windows and targets,
/// each node controller's bound ordering and, for the Tay rule, a k(t) that
/// stays > 0 over the run. ParseSpec applies them to every file; callers
/// applying overrides run them once all overrides are in, since a valid end
/// state may pass through an invalid one ("--set duration=8 --set
/// warmup=2" on a spec with warmup 30). False with a message if `spec`
/// would abort a run.
bool ValidateSpec(const ExperimentSpec& spec, std::string* error);

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
  /// Post-warmup response-time distribution (merged across nodes in a
  /// cluster run).
  const telemetry::LogHistogram& response_hist() const {
    return cluster ? cluster_result.response_hist : single.response_hist;
  }
  /// Post-warmup per-phase distributions, indexed by telemetry::Phase.
  const std::array<telemetry::LogHistogram, telemetry::kNumPhases>&
  phase_hists() const {
    return cluster ? cluster_result.phase_hists : single.phase_hists;
  }
};

/// Runs the spec through Experiment or ClusterExperiment as its mode
/// demands. Deterministic given the spec.
SpecRunResult RunSpec(const ExperimentSpec& spec);

}  // namespace alc::core

#endif  // ALC_CORE_SPEC_H_
