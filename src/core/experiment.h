#ifndef ALC_CORE_EXPERIMENT_H_
#define ALC_CORE_EXPERIMENT_H_

#include <array>
#include <memory>
#include <vector>

#include "control/controller.h"
#include "control/gate.h"
#include "control/monitor.h"
#include "control/tuner.h"
#include "core/experiment_spec.h"
#include "db/metrics.h"
#include "telemetry/audit.h"
#include "telemetry/histogram.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace alc::core {

/// One point of a controller trajectory: what the paper's figures 13/14
/// plot over time.
struct TrajectoryPoint {
  double time = 0.0;
  double bound = 0.0;        // n*, the controller's threshold
  double load = 0.0;         // measured mean active n
  double throughput = 0.0;   // commits/s in the interval
  double response = 0.0;     // mean response time of interval commits
  double conflict_rate = 0.0;
  double gate_queue = 0.0;
  double cpu_utilization = 0.0;
  // Response-time percentiles of the interval's commits (log-histogram
  // interpolation, zero on commit-free intervals).
  double response_p50 = 0.0;
  double response_p95 = 0.0;
  double response_p99 = 0.0;
  double response_p999 = 0.0;
};

/// The trajectory point of one monitor sample taken under threshold
/// `bound`.
inline TrajectoryPoint ToTrajectoryPoint(const control::Sample& sample,
                                         double bound) {
  TrajectoryPoint point;
  point.time = sample.time;
  point.bound = bound;
  point.load = sample.mean_active;
  point.throughput = sample.throughput;
  point.response = sample.mean_response;
  point.conflict_rate = sample.conflict_rate;
  point.gate_queue = sample.gate_queue;
  point.cpu_utilization = sample.cpu_utilization;
  point.response_p50 = sample.response_p50;
  point.response_p95 = sample.response_p95;
  point.response_p99 = sample.response_p99;
  point.response_p999 = sample.response_p999;
  return point;
}

/// The figures one node reports over [warmup, duration], shared by the
/// single-node ExperimentResult and the per-node ClusterNodeResult and
/// filled by NodeRun::Summarize.
struct NodeSummary {
  std::vector<TrajectoryPoint> trajectory;
  double mean_throughput = 0.0;  // commits / span
  double mean_response = 0.0;    // response sum / commits
  double mean_active = 0.0;      // trajectory average of load
  double abort_ratio = 0.0;      // aborts / (aborts + commits)
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t displacements = 0;
};

/// Everything a finished single-node run reports.
struct ExperimentResult : NodeSummary {
  double wasted_cpu_fraction = 0.0;

  /// 95% batch-means confidence half-width for mean_throughput, from the
  /// post-warmup interval series (batches of 10 intervals). Zero when the
  /// run is too short for at least two batches. For a stationary scenario
  /// this is a statistically sound interval; under dynamic workloads it
  /// reports variability, not estimation error.
  double throughput_ci_half_width = 0.0;

  db::Counters final_counters;   // cumulative, including warmup
  double duration = 0.0;
  double warmup = 0.0;

  /// Post-warmup response-time distribution (final histogram minus the
  /// warmup snapshot): any quantile of the run is one lookup away.
  telemetry::LogHistogram response_hist;
  /// Post-warmup per-phase wall-clock distributions, indexed by
  /// telemetry::Phase. Empty when the spec disabled per-phase
  /// recording (telemetry.per_phase = false).
  std::array<telemetry::LogHistogram, telemetry::kNumPhases> phase_hists;

  /// End-of-run snapshot of every registered metric (db counters, load
  /// gauges, response/phase histograms) under the "node0." namespace,
  /// sorted by name. Feeds the run manifest.
  std::vector<telemetry::MetricSample> metrics;
};

/// A node's response and phase histograms: its warmup mark, or the
/// post-warmup ones Summarize writes.
struct NodeHistograms {
  telemetry::LogHistogram response;
  std::array<telemetry::LogHistogram, telemetry::kNumPhases> phases;
};

/// One node's feedback loop (paper figure 5) and its post-warmup summary,
/// shared by Experiment (one node) and ClusterExperiment (one per node).
/// It builds the node's controller, monitor and optional outer tuner; the
/// experiment sets the monitor callback to call Step(), schedules
/// MarkWarmup() at the warmup time, calls Start(), and after the run
/// Summarize().
/// Pinned in place: the tuner and the monitor callback point into it.
class NodeRun {
 public:
  /// `node` must outlive the run; `index` names the node in the audit and
  /// the trace; `audit` and `trace` may be null.
  NodeRun(sim::Simulator* simulator, db::TransactionSystem* system,
          control::AdmissionGate* gate, const NodeSpec* node, int index,
          telemetry::DecisionAudit* audit, telemetry::TraceRecorder* trace);
  NodeRun(const NodeRun&) = delete;
  NodeRun& operator=(const NodeRun&) = delete;

  control::Monitor& monitor() { return monitor_; }
  void Start() { monitor_.Start(); }

  /// One control step: controller update, gate limit, tuner observation,
  /// the step's decision record and controller-state trace counters, then
  /// the `limit` trace counter. A `frozen` node (down or on standby) only
  /// emits the counter, keeping its pre-outage state. Returns the bound in
  /// force.
  double Step(const control::Sample& sample, bool frozen);

  /// A fresh controller: the cold start of a kFresh rejoin or a provision.
  void Rebuild();

  void MarkWarmup();
  /// Fills `out` over [warmup, duration] (mean_active from the trajectory
  /// the caller put in `out`) and overwrites `response` and `phases` with
  /// the post-warmup histograms; a caller summarizing many nodes reuses
  /// one set.
  void Summarize(double duration, double warmup, NodeSummary* out,
                 telemetry::LogHistogram* response,
                 std::array<telemetry::LogHistogram, telemetry::kNumPhases>*
                     phases) const;
  /// For the figures only one experiment reports (wasted CPU, locality).
  const db::Counters& counters_at_warmup() const { return at_warmup_; }

 private:
  /// Audits and traces one controller step. Observation-only: it reads the
  /// controller's state const-ly and appends PODs to the sinks.
  void Observe(const control::Sample& sample, double old_limit,
               double new_limit);

  db::TransactionSystem* system_;
  control::AdmissionGate* gate_;
  const NodeSpec* node_;
  int index_;
  telemetry::DecisionAudit* audit_;
  telemetry::TraceRecorder* trace_;
  const char* last_reason_ = nullptr;  // literal identity
  std::unique_ptr<control::LoadController> controller_;
  control::Monitor monitor_;
  std::unique_ptr<control::OuterTuner> tuner_;
  db::Counters at_warmup_;
  NodeHistograms hists_at_warmup_;
};

/// Builds the full stack (simulator, transaction system, gate and one
/// NodeRun) from a single-node spec (`cluster` false, one node), runs it,
/// and returns the trajectory plus summary statistics. Deterministic given
/// the spec.
class Experiment {
 public:
  explicit Experiment(const ExperimentSpec& spec);

  /// Attaches an optional trace recorder for the next Run(): transaction
  /// lifecycle, gate decisions, and controller limit changes are emitted
  /// as Chrome trace events. Pass nullptr (default) for no tracing.
  void SetTraceRecorder(telemetry::TraceRecorder* recorder) {
    trace_ = recorder;
  }

  /// Attaches an optional decision audit for the next Run(): every
  /// controller step is recorded as a DecisionRecord (inputs, limit move,
  /// reason, controller state). Observation-only; pass nullptr (default)
  /// for no auditing.
  void SetDecisionAudit(telemetry::DecisionAudit* audit) { audit_ = audit; }

  ExperimentResult Run();

 private:
  ExperimentSpec spec_;
  telemetry::TraceRecorder* trace_ = nullptr;
  telemetry::DecisionAudit* audit_ = nullptr;
};

/// Builds a node's admission controller: one ControllerRegistry lookup on
/// `control.controller` with `control.params`. The Tay rule also reads the
/// node's declared database size and k(t) schedule. Aborts (with the
/// registered names listed) on an unknown controller name.
std::unique_ptr<control::LoadController> MakeController(const NodeSpec& node);

/// Convenience: stationary throughput of a single-node spec under a fixed
/// admission limit with all schedules frozen at their value at
/// `freeze_time`. The workhorse of the figure-12 sweep and the
/// true-optimum search.
double StationaryThroughput(const ExperimentSpec& base, double fixed_limit,
                            double freeze_time, double duration,
                            double warmup, uint64_t seed);

/// Freezes the dynamic schedules of a single-node spec (its node's workload
/// dynamics and the terminal population) at time `freeze_time`.
ExperimentSpec FrozenAt(const ExperimentSpec& base, double freeze_time);

}  // namespace alc::core

#endif  // ALC_CORE_EXPERIMENT_H_
