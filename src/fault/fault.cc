#include "fault/fault.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace alc::fault {

namespace {

/// Whether `spec` targets `node` (an empty node list means every node).
bool Targets(const FaultSpec& spec, int node) {
  if (spec.nodes.empty()) return true;
  return std::find(spec.nodes.begin(), spec.nodes.end(), node) !=
         spec.nodes.end();
}

class ProbeDelayFault : public FaultKind {
 public:
  void Contribute(const FaultSpec& spec, NodePerturbation* out) const override {
    out->probe_delay += spec.magnitude;
  }
};

class ProbeLossFault : public FaultKind {
 public:
  void Contribute(const FaultSpec& spec, NodePerturbation* out) const override {
    const double p = std::clamp(spec.magnitude, 0.0, 1.0);
    out->probe_loss = 1.0 - (1.0 - out->probe_loss) * (1.0 - p);
  }
};

class PartitionFault : public FaultKind {
 public:
  void Contribute(const FaultSpec& /*spec*/,
                  NodePerturbation* out) const override {
    out->partitioned = true;
  }
};

class DiskStallFault : public FaultKind {
 public:
  void Contribute(const FaultSpec& spec, NodePerturbation* out) const override {
    out->disk_factor *= spec.magnitude;
  }
};

class CpuDegradeFault : public FaultKind {
 public:
  void Contribute(const FaultSpec& spec, NodePerturbation* out) const override {
    out->cpu_factor *= spec.magnitude;
  }
};

class CrashBurstFault : public FaultKind {
 public:
  void OnStart(const FaultSpec& spec, FaultHost* host) const override {
    for (int node = 0; node < host->num_nodes(); ++node) {
      if (Targets(spec, node)) host->CrashNode(node);
    }
  }
  void OnEnd(const FaultSpec& spec, FaultHost* host) const override {
    for (int node = 0; node < host->num_nodes(); ++node) {
      if (Targets(spec, node)) host->RepairNode(node);
    }
  }
};

/// Audit records carry raw `const char*` reasons that outlive the
/// injector (SpecRunResult hands the decision log out of the experiment
/// after everything on the experiment stack is gone), so edge reasons are
/// interned for the life of the process. Locked: sweep runners construct
/// injectors from several worker threads.
const char* InternReason(const std::string& reason) {
  static std::mutex mutex;
  static std::set<std::string>* pool = new std::set<std::string>();
  const std::lock_guard<std::mutex> lock(mutex);
  return pool->insert(reason).first->c_str();
}

}  // namespace

void FaultKind::Contribute(const FaultSpec& /*spec*/,
                           NodePerturbation* /*out*/) const {}
void FaultKind::OnStart(const FaultSpec& /*spec*/,
                        FaultHost* /*host*/) const {}
void FaultKind::OnEnd(const FaultSpec& /*spec*/, FaultHost* /*host*/) const {}

FaultRegistry BuiltinRegistry(FaultRegistry*) {
  FaultRegistry registry("fault kind");
  registry.Register<ProbeDelayFault>("probe-delay");
  registry.Register<ProbeLossFault>("probe-loss");
  registry.Register<PartitionFault>("partition");
  registry.Register<DiskStallFault>("disk-stall");
  registry.Register<CpuDegradeFault>("cpu-degrade");
  registry.Register<CrashBurstFault>("crash-burst");
  return registry;
}

FaultInjector::FaultInjector(sim::Simulator* simulator, FaultHost* host,
                             const FaultConfig& config, uint64_t seed,
                             telemetry::DecisionAudit* audit,
                             telemetry::TraceRecorder* trace)
    : simulator_(simulator),
      host_(host),
      audit_(audit),
      trace_(trace),
      // Salted off the experiment seed; the stream is drawn from only when
      // a probe-loss window is active, so fault-free runs stay bit-exact.
      rng_(seed ^ 0x1f83d9abfb41bd6bULL),
      perturbations_(static_cast<size_t>(host->num_nodes())) {
  entries_.reserve(config.faults.size());
  for (const FaultSpec& spec : config.faults) {
    Entry entry;
    entry.spec = spec;
    entry.kind = FaultRegistry::Global().MakeChecked(spec.kind, spec);
    entry.start_reason = InternReason(spec.kind + "-start");
    entry.end_reason = InternReason(spec.kind + "-end");
    entries_.push_back(std::move(entry));
  }
}

void FaultInjector::Start() {
  for (size_t i = 0; i < entries_.size(); ++i) {
    const FaultSpec& spec = entries_[i].spec;
    ALC_CHECK_GE(spec.start, 0.0);
    ALC_CHECK_GT(spec.end, spec.start);
    simulator_->ScheduleAt(spec.start, [this, i] { OnEdge(i, true); });
    simulator_->ScheduleAt(spec.end, [this, i] { OnEdge(i, false); });
  }
}

void FaultInjector::OnEdge(size_t index, bool starting) {
  Entry& entry = entries_[index];
  entry.active = starting;
  if (starting) {
    ++faults_started_;
    entry.kind->OnStart(entry.spec, host_);
  } else {
    ++faults_ended_;
    entry.kind->OnEnd(entry.spec, host_);
  }
  RecomputeAffected(entry.spec);
  RecordEdge(entry, starting);
}

void FaultInjector::RecomputeAffected(const FaultSpec& spec) {
  if (spec.nodes.empty()) {
    for (int node = 0; node < host_->num_nodes(); ++node) RecomputeNode(node);
    return;
  }
  for (int node : spec.nodes) RecomputeNode(node);
}

void FaultInjector::RecomputeNode(int node) {
  NodePerturbation aggregate;
  for (const Entry& entry : entries_) {
    if (!entry.active || !Targets(entry.spec, node)) continue;
    entry.kind->Contribute(entry.spec, &aggregate);
  }
  perturbations_[static_cast<size_t>(node)] = aggregate;
  host_->ApplyPerturbation(node, aggregate);
}

void FaultInjector::RecordEdge(const Entry& entry, bool starting) {
  const double now = simulator_->Now();
  const char* reason = starting ? entry.start_reason : entry.end_reason;
  if (trace_ != nullptr) {
    trace_->Instant(reason, telemetry::TraceRecorder::kClusterPid, now,
                    "magnitude", entry.spec.magnitude);
  }
  if (audit_ == nullptr) return;
  telemetry::DecisionRecord record;
  record.time = now;
  record.controller = "fault-injector";
  record.reason = reason;
  record.num_state = 3;
  record.state_names[0] = "magnitude";
  record.state_values[0] = entry.spec.magnitude;
  record.state_names[1] = "start";
  record.state_values[1] = entry.spec.start;
  record.state_names[2] = "end";
  record.state_values[2] = entry.spec.end;
  for (int node = 0; node < host_->num_nodes(); ++node) {
    if (!Targets(entry.spec, node)) continue;
    record.node = node;
    audit_->Record(record);
  }
}

double FaultInjector::ProbeExtraDelay(int node) {
  const double delay = perturbations_[static_cast<size_t>(node)].probe_delay;
  if (delay > 0.0) ++probes_delayed_;
  return delay;
}

bool FaultInjector::ProbeLost(int node) {
  const NodePerturbation& p = perturbations_[static_cast<size_t>(node)];
  if (p.partitioned) {
    ++probes_lost_;
    return true;
  }
  if (p.probe_loss > 0.0 && rng_.NextBernoulli(p.probe_loss)) {
    ++probes_lost_;
    return true;
  }
  return false;
}

void FaultInjector::RegisterMetrics(telemetry::MetricRegistry* registry) const {
  registry->LinkCounter("fault.started", &faults_started_);
  registry->LinkCounter("fault.ended", &faults_ended_);
  registry->LinkCounter("fault.probes_lost", &probes_lost_);
  registry->LinkCounter("fault.probes_delayed", &probes_delayed_);
}

}  // namespace alc::fault
