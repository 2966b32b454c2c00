#include "core/experiment.h"

#include <memory>
#include <utility>

#include "control/registry.h"
#include "db/system.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "util/check.h"
#include "util/math.h"

namespace alc::core {

std::unique_ptr<control::LoadController> MakeController(const NodeSpec& node) {
  control::ControllerContext context;
  context.params = &node.control.params;
  context.db_size = static_cast<double>(node.system.logical.db_size);
  // The Tay rule reads the *declared* workload descriptor k(t).
  db::Schedule k_schedule = node.system.dynamics.k;
  context.k_of_time = [k_schedule](double t) { return k_schedule.Value(t); };
  return control::ControllerRegistry::Global().MakeChecked(
      node.control.controller, context);
}

NodeRun::NodeRun(sim::Simulator* simulator, db::TransactionSystem* system,
                 control::AdmissionGate* gate, const NodeSpec* node, int index,
                 telemetry::DecisionAudit* audit,
                 telemetry::TraceRecorder* trace)
    : system_(system),
      gate_(gate),
      node_(node),
      index_(index),
      audit_(audit),
      trace_(trace),
      controller_(MakeController(*node)),
      monitor_(simulator, system, node->control.measurement_interval) {
  if (node->control.outer_tuner) {
    tuner_ = std::make_unique<control::OuterTuner>(
        &monitor_, control::OuterTuner::Config{});
  }
}

double NodeRun::Step(const control::Sample& sample, bool frozen) {
  double bound = gate_->limit();
  if (!frozen) {
    const double old_limit = bound;
    bound = controller_->Update(sample);
    gate_->SetLimit(bound);
    if (tuner_) tuner_->Observe(sample);
    if (audit_ != nullptr || trace_ != nullptr) {
      Observe(sample, old_limit, bound);
    }
  }
  if (trace_ != nullptr) trace_->Counter("limit", index_, sample.time, bound);
  return bound;
}

void NodeRun::Observe(const control::Sample& sample, double old_limit,
                      double new_limit) {
  control::DecisionState state;
  controller_->DescribeDecision(&state);
  if (audit_ != nullptr) {
    telemetry::DecisionRecord record;
    record.time = sample.time;
    record.node = index_;
    // Controller names are string-literal string_views, so .data() is a
    // null-terminated literal that outlives the audit.
    record.controller = controller_->name().data();
    record.reason = state.reason;
    record.old_limit = old_limit;
    record.new_limit = new_limit;
    record.throughput = sample.throughput;
    record.conflict_rate = sample.conflict_rate;
    record.gate_queue = sample.gate_queue;
    record.mean_active = sample.mean_active;
    record.num_state = state.num_values;
    for (int i = 0; i < state.num_values; ++i) {
      record.state_names[i] = state.names[i];
      record.state_values[i] = state.values[i];
    }
    audit_->Record(record);
  }
  if (trace_ != nullptr) {
    for (int i = 0; i < state.num_values; ++i) {
      trace_->Counter(state.names[i], index_, sample.time, state.values[i]);
    }
    // One instant per reason *change* keeps the track readable: the steady
    // reason shows as counter context, transitions as markers.
    if (state.reason != last_reason_) {
      trace_->Instant(state.reason, index_, sample.time, "limit", new_limit);
      last_reason_ = state.reason;
    }
  }
}

void NodeRun::Rebuild() { controller_ = MakeController(*node_); }

void NodeRun::MarkWarmup() {
  const db::Metrics& metrics = system_->metrics();
  at_warmup_ = metrics.counters;
  hists_at_warmup_.response = metrics.response_hist;
  hists_at_warmup_.phases = metrics.phase_hists;
}

void NodeRun::Summarize(
    double duration, double warmup, NodeSummary* out,
    telemetry::LogHistogram* response,
    std::array<telemetry::LogHistogram, telemetry::kNumPhases>* phases) const {
  const db::Metrics& metrics = system_->metrics();
  const db::Counters& final = metrics.counters;
  out->commits = final.commits - at_warmup_.commits;
  out->aborts = final.total_aborts() - at_warmup_.total_aborts();
  out->displacements =
      final.aborts_displacement - at_warmup_.aborts_displacement;
  out->mean_throughput = out->commits / (duration - warmup);
  out->mean_response = util::Ratio(
      final.response_time_sum - at_warmup_.response_time_sum, out->commits);
  out->abort_ratio = util::Ratio(out->aborts, out->commits + out->aborts);
  double load_sum = 0.0;
  int load_count = 0;
  for (const TrajectoryPoint& point : out->trajectory) {
    if (point.time >= warmup) {
      load_sum += point.load;
      ++load_count;
    }
  }
  out->mean_active = util::Ratio(load_sum, load_count);

  *response = metrics.response_hist;
  response->Subtract(hists_at_warmup_.response);
  for (size_t p = 0; p < phases->size(); ++p) {
    (*phases)[p] = metrics.phase_hists[p];
    (*phases)[p].Subtract(hists_at_warmup_.phases[p]);
  }
}

Experiment::Experiment(const ExperimentSpec& spec) : spec_(spec) {
  ALC_CHECK(!spec.cluster);
  ALC_CHECK_EQ(spec.nodes.size(), 1u);
  ALC_CHECK_GT(spec.duration, 0.0);
  ALC_CHECK_GE(spec.warmup, 0.0);
  ALC_CHECK_LT(spec.warmup, spec.duration);
}

ExperimentResult Experiment::Run() {
  const NodeSpec& node = spec_.nodes[0];
  sim::Simulator simulator;
  db::TransactionSystem system(&simulator, node.system);
  system.SetActiveTerminalsSchedule(spec_.active_terminals);
  if (trace_ != nullptr) system.SetTraceRecorder(trace_, 0);

  control::AdmissionGate gate(&system, node.control.initial_limit);
  gate.EnableDisplacement(node.control.displacement);

  NodeRun run(&simulator, &system, &gate, &node, 0, audit_, trace_);

  ExperimentResult result;
  result.duration = spec_.duration;
  result.warmup = spec_.warmup;
  run.monitor().SetCallback([&](const control::Sample& sample) {
    result.trajectory.push_back(
        ToTrajectoryPoint(sample, run.Step(sample, false)));
  });
  simulator.ScheduleAt(spec_.warmup, [&run] { run.MarkWarmup(); });

  // The registry links the system's metric fields (observation-only) so
  // the end-of-run snapshot lands in the result for the manifest.
  telemetry::MetricRegistry registry;
  system.metrics().RegisterMetrics(&registry, "node0.");

  system.Start();
  run.Start();
  simulator.RunUntil(spec_.duration);

  result.metrics = registry.Snapshot();
  result.final_counters = system.metrics().counters;
  run.Summarize(spec_.duration, spec_.warmup, &result, &result.response_hist,
                &result.phase_hists);
  const db::Counters& at_warmup = run.counters_at_warmup();
  const double useful =
      result.final_counters.useful_cpu - at_warmup.useful_cpu;
  const double wasted =
      result.final_counters.wasted_cpu - at_warmup.wasted_cpu;
  result.wasted_cpu_fraction = util::Ratio(wasted, useful + wasted);

  sim::BatchMeans throughput_batches(10);
  for (const TrajectoryPoint& point : result.trajectory) {
    if (point.time >= spec_.warmup) throughput_batches.Add(point.throughput);
  }
  result.throughput_ci_half_width = throughput_batches.HalfWidth(0.95);
  return result;
}

ExperimentSpec FrozenAt(const ExperimentSpec& base, double freeze_time) {
  ExperimentSpec frozen = base;
  db::WorkloadDynamics& dynamics = frozen.nodes[0].system.dynamics;
  dynamics.k = db::Schedule::Constant(dynamics.k.Value(freeze_time));
  dynamics.query_fraction =
      db::Schedule::Constant(dynamics.query_fraction.Value(freeze_time));
  dynamics.write_fraction =
      db::Schedule::Constant(dynamics.write_fraction.Value(freeze_time));
  frozen.active_terminals =
      db::Schedule::Constant(base.active_terminals.Value(freeze_time));
  return frozen;
}

double StationaryThroughput(const ExperimentSpec& base, double fixed_limit,
                            double freeze_time, double duration,
                            double warmup, uint64_t seed) {
  ExperimentSpec spec = FrozenAt(base, freeze_time);
  NodeSpec& node = spec.nodes[0];
  node.control.controller = "fixed";
  node.control.params = util::ParamMap();
  control::AppendFixedParams(control::FixedConfig{fixed_limit},
                             &node.control.params);
  node.control.initial_limit = fixed_limit;
  node.control.displacement = false;
  node.control.outer_tuner = false;
  node.system.seed = seed;
  spec.duration = duration;
  spec.warmup = warmup;
  return Experiment(spec).Run().mean_throughput;
}

}  // namespace alc::core
