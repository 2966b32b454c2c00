#include "core/experiment.h"

#include <cstdio>
#include <memory>
#include <string>

#include "control/gate.h"
#include "control/monitor.h"
#include "control/registry.h"
#include "control/tuner.h"
#include "core/introspect.h"
#include "db/system.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "util/check.h"

namespace alc::core {

std::unique_ptr<control::LoadController> MakeController(const NodeSpec& node) {
  control::ControllerContext context;
  context.params = &node.control.params;
  context.db_size = static_cast<double>(node.system.logical.db_size);
  // The Tay rule reads the *declared* workload descriptor k(t).
  db::Schedule k_schedule = node.dynamics.k;
  context.k_of_time = [k_schedule](double t) { return k_schedule.Value(t); };

  std::string error;
  std::unique_ptr<control::LoadController> controller =
      control::ControllerRegistry::Global().Make(node.control.controller,
                                                 context, &error);
  if (controller == nullptr) {
    std::fprintf(stderr, "MakeController: %s\n", error.c_str());
    ALC_CHECK(controller != nullptr);
  }
  return controller;
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
  system.SetWorkloadDynamics(node.dynamics);
  system.SetActiveTerminalsSchedule(spec_.active_terminals);
  if (trace_ != nullptr) system.SetTraceRecorder(trace_, 0);

  control::AdmissionGate gate(&system, node.control.initial_limit);
  gate.EnableDisplacement(node.control.displacement);

  std::unique_ptr<control::LoadController> controller = MakeController(node);

  control::Monitor monitor(&simulator, &system,
                           node.control.measurement_interval);
  std::unique_ptr<control::OuterTuner> tuner;
  if (node.control.outer_tuner) {
    tuner = std::make_unique<control::OuterTuner>(
        &monitor, control::OuterTuner::Config{});
  }

  ExperimentResult result;
  result.duration = spec_.duration;
  result.warmup = spec_.warmup;

  DecisionProbe probe(audit_, trace_);
  monitor.SetCallback([&](const control::Sample& sample) {
    const double old_limit = gate.limit();
    const double bound = controller->Update(sample);
    gate.SetLimit(bound);
    if (tuner) tuner->Observe(sample);
    if (trace_ != nullptr) {
      trace_->Counter("limit", 0, sample.time, bound);
    }
    if (probe.active()) {
      probe.Observe(*controller, 0, sample, old_limit, bound);
    }

    result.trajectory.push_back(ToTrajectoryPoint(sample, bound));
  });

  // Warmup boundary snapshot for summary statistics.
  db::Counters at_warmup;
  telemetry::LogHistogram hist_at_warmup;
  std::array<telemetry::LogHistogram, telemetry::kNumPhases> phases_at_warmup;
  simulator.ScheduleAt(spec_.warmup, [&] {
    at_warmup = system.metrics().counters;
    hist_at_warmup = system.metrics().response_hist;
    phases_at_warmup = system.metrics().phase_hists;
  });

  // The registry links the system's metric fields (observation-only) so
  // the end-of-run snapshot lands in the result for the manifest.
  telemetry::MetricRegistry registry;
  system.metrics().RegisterMetrics(&registry, "node0.");

  system.Start();
  monitor.Start();
  simulator.RunUntil(spec_.duration);

  result.metrics = registry.Snapshot();
  const db::Counters& final = system.metrics().counters;
  result.final_counters = final;
  result.response_hist = system.metrics().response_hist;
  result.response_hist.Subtract(hist_at_warmup);
  for (int i = 0; i < telemetry::kNumPhases; ++i) {
    result.phase_hists[static_cast<size_t>(i)] =
        system.metrics().phase_hists[static_cast<size_t>(i)];
    result.phase_hists[static_cast<size_t>(i)].Subtract(
        phases_at_warmup[static_cast<size_t>(i)]);
  }
  const double span = spec_.duration - spec_.warmup;
  const uint64_t commits = final.commits - at_warmup.commits;
  const uint64_t aborts = final.total_aborts() - at_warmup.total_aborts();
  result.commits = commits;
  result.aborts = aborts;
  result.displacements =
      final.aborts_displacement - at_warmup.aborts_displacement;
  result.mean_throughput = static_cast<double>(commits) / span;
  result.mean_response =
      commits > 0
          ? (final.response_time_sum - at_warmup.response_time_sum) / commits
          : 0.0;
  result.abort_ratio =
      (commits + aborts) > 0
          ? static_cast<double>(aborts) / static_cast<double>(commits + aborts)
          : 0.0;
  const double useful = final.useful_cpu - at_warmup.useful_cpu;
  const double wasted = final.wasted_cpu - at_warmup.wasted_cpu;
  result.wasted_cpu_fraction =
      (useful + wasted) > 0.0 ? wasted / (useful + wasted) : 0.0;

  double load_sum = 0.0;
  int load_count = 0;
  sim::BatchMeans throughput_batches(10);
  for (const TrajectoryPoint& point : result.trajectory) {
    if (point.time >= spec_.warmup) {
      load_sum += point.load;
      ++load_count;
      throughput_batches.Add(point.throughput);
    }
  }
  result.mean_active = load_count > 0 ? load_sum / load_count : 0.0;
  result.throughput_ci_half_width = throughput_batches.HalfWidth(0.95);
  return result;
}

ExperimentSpec FrozenAt(const ExperimentSpec& base, double freeze_time) {
  ExperimentSpec frozen = base;
  db::WorkloadDynamics& dynamics = frozen.nodes[0].dynamics;
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
