#include "elasticity/elasticity.h"

#include <algorithm>
#include <string>

#include "telemetry/registry.h"
#include "util/check.h"
#include "util/logging.h"

namespace alc::elasticity {

ElasticityController::ElasticityController(sim::Simulator* sim,
                                           cluster::Cluster* cluster,
                                           const ElasticityConfig& config,
                                           uint64_t seed,
                                           telemetry::DecisionAudit* audit,
                                           telemetry::TraceRecorder* trace)
    : sim_(sim),
      cluster_(cluster),
      config_(config),
      audit_(audit),
      trace_(trace),
      // Salted off the experiment seed; drawn from only for observer >= 1
      // probes with a nonzero jitter, so single-observer detectors stay
      // bit-identical to builds without the stream.
      hb_rng_(seed ^ 0x5be0cd19137e2179ULL),
      detector_(config.heartbeat, cluster->size()),
      pool_member_(cluster->size(), 0),
      ramps_(cluster->size()) {
  ALC_CHECK(sim != nullptr);
  ALC_CHECK(cluster != nullptr);
  ALC_CHECK(config.enabled);
  ALC_CHECK_GT(config.heartbeat.interval, 0.0);
  ALC_CHECK_GT(config.scaler_interval, 0.0);
  ALC_CHECK_GE(config.min_live, 1);
  ALC_CHECK(config.heartbeat.delay_source == "occupancy" ||
            config.heartbeat.delay_source == "response");
  if (config.heartbeat.delay_source == "response") {
    for (int i = 0; i < cluster->size(); ++i) {
      db::TransactionSystem& system = cluster->node(i).system();
      probe_windows_.push_back(system.config().telemetry.per_phase
                                   ? system.metrics().AddResponseWindow()
                                   : nullptr);
    }
  }
  if (config.detector) ALC_CHECK(cluster->managed_membership());
  AutoscalerContext context;
  context.params = &config_.scaler_params;
  context.seed = seed;
  scaler_ = AutoscalerRegistry::Global().MakeChecked(config_.scaler, context);
  scaling_enabled_ = config_.scaler != "none";
  for (int i = 0; scaling_enabled_ && i < cluster_->size(); ++i) {
    scaler_windows_.push_back(
        cluster_->node(i).system().metrics().AddResponseWindow());
  }
  for (int i = 0; i < cluster_->size(); ++i) {
    if (cluster_->node_state(i) == cluster::NodeState::kStandby) {
      pool_member_[i] = 1;
      pool_size_ += 1.0;
    }
  }
}

void ElasticityController::RegisterMetrics(
    telemetry::MetricRegistry* registry) const {
  registry->LinkCounter("elasticity.suspicions", &suspicions_);
  registry->LinkCounter("elasticity.false_suspicions", &false_suspicions_);
  registry->LinkCounter("elasticity.declared_down", &declared_down_);
  registry->LinkCounter("elasticity.false_declarations",
                        &false_declarations_);
  registry->LinkCounter("elasticity.recoveries", &recoveries_);
  registry->LinkCounter("elasticity.provisions", &provisions_);
  registry->LinkCounter("elasticity.drains", &drains_);
  registry->LinkGauge("elasticity.pool_size", &pool_size_);
  registry->LinkGauge("elasticity.detection_latency_last",
                      &detection_latency_last_);
  registry->LinkGauge("elasticity.detection_latency_mean",
                      &detection_latency_mean_);
}

void ElasticityController::Start() {
  if (config_.detector) {
    for (int i = 0; i < cluster_->size(); ++i) {
      sim_->Schedule(config_.heartbeat.interval,
                     [this, i] { HeartbeatTick(i); });
    }
  }
  // Empty the response windows so the first sample and the first probe
  // cover exactly the time since Start().
  for (telemetry::HistogramWindow* window : scaler_windows_) window->Clear();
  for (telemetry::HistogramWindow* window : probe_windows_) {
    if (window != nullptr) window->Clear();
  }
  if (scaling_enabled_) {
    sim_->Schedule(config_.scaler_interval, [this] { ScalerTick(); });
  }
  UpdatePoolGauge();
}

void ElasticityController::UpdatePoolGauge() {
  int standby = 0;
  for (int i = 0; i < cluster_->size(); ++i) {
    if (cluster_->node_state(i) == cluster::NodeState::kStandby) ++standby;
  }
  pool_size_ = static_cast<double>(standby);
  if (trace_ != nullptr) {
    trace_->Counter("pool", telemetry::TraceRecorder::kClusterPid,
                    sim_->Now(), pool_size_);
  }
}

void ElasticityController::RecordDetector(int node, const char* reason,
                                          int live_before, double rtt,
                                          double latency) {
  if (audit_ == nullptr) return;
  telemetry::DecisionRecord record;
  record.time = sim_->Now();
  record.node = node;
  record.controller = "heartbeat-detector";
  record.reason = reason;
  record.old_limit = static_cast<double>(live_before);
  record.new_limit = static_cast<double>(cluster_->num_live());
  record.num_state = 0;
  record.state_names[record.num_state] = "misses";
  record.state_values[record.num_state++] =
      static_cast<double>(detector_.consecutive_misses(node));
  record.state_names[record.num_state] = "rtt";
  record.state_values[record.num_state++] = rtt;
  if (latency > 0.0) {
    record.state_names[record.num_state] = "detect_latency";
    record.state_values[record.num_state++] = latency;
  }
  if (config_.heartbeat.kind == "phi") {
    record.state_names[record.num_state] = "phi";
    record.state_values[record.num_state++] = detector_.phi(node);
  }
  audit_->Record(record);
}

void ElasticityController::HeartbeatTick(int node) {
  const cluster::NodeState state = cluster_->node_state(node);
  if (state == cluster::NodeState::kStandby) {
    // Standby nodes are not probed; their next provisioning starts with a
    // clean detection history.
    detector_.Reset(node);
    sim_->Schedule(config_.heartbeat.interval,
                   [this, node] { HeartbeatTick(node); });
    return;
  }

  // Modeled probe round-trip. The default "occupancy" model grows with the
  // node's front-end occupancy relative to its admission limit, so deep
  // overload looks like silence. The denominator is the gate's configured
  // limit, not the slow-start effective limit — a ramped cap throttles
  // admission, not the node's ability to answer a probe (using the ramp
  // cap would flap freshly provisioned nodes straight back out of the
  // membership). The "response" model reads the node's measured response
  // times instead — rtt = delay_base + delay_response * p95 of the window
  // since the previous probe — and falls back to the occupancy proxy
  // while the window is empty or the node runs with per-phase telemetry
  // off.
  double rtt = 0.0;
  bool modeled = false;
  telemetry::HistogramWindow* window =
      probe_windows_.empty() ? nullptr : probe_windows_[node];
  if (window != nullptr) {
    if (window->count() > 0) {
      rtt = config_.heartbeat.delay_base +
            config_.heartbeat.delay_response * window->Quantile(0.95);
      modeled = true;
    }
    window->Clear();
  }
  if (!modeled) {
    const cluster::NodeView& view = cluster_->view(node);
    const double rel = static_cast<double>(cluster::Occupancy(view)) /
                       std::max(cluster_->node(node).gate().limit(), 1.0);
    rtt = config_.heartbeat.delay_base *
          (1.0 + config_.heartbeat.delay_load * rel);
  }
  // Injected probe-delay / partition / loss faults perturb only this
  // measured path; with no perturber attached nothing below changes.
  if (perturber_ != nullptr) rtt += perturber_->ProbeExtraDelay(node);

  const bool truth_down = cluster_->truth_down(node);
  const int live_before = cluster_->num_live();
  // K virtual observers share the probe but see it through their own
  // deterministic rtt jitter (observer 0 jitter-free, so a single-observer
  // detector reproduces the PR 9 stream exactly). Each observer loses
  // probes independently under injected loss. Edges come from the quorum
  // aggregate, so at most one declaration fires per round.
  for (int obs = 0; obs < config_.heartbeat.observers; ++obs) {
    double rtt_k = rtt;
    if (obs > 0 && config_.heartbeat.observer_jitter > 0.0) {
      rtt_k *= 1.0 + config_.heartbeat.observer_jitter *
                         (hb_rng_.NextDouble() - 0.5);
    }
    const bool lost = perturber_ != nullptr && perturber_->ProbeLost(node);
    const bool missed =
        truth_down || lost || rtt_k > config_.heartbeat.timeout;
    switch (detector_.Observe(node, obs, missed, sim_->Now())) {
      case HealthEvent::kNone:
        break;
      case HealthEvent::kSuspected: {
        ++suspicions_;
        const bool real = cluster_->truth_down(node);
        if (!real) ++false_suspicions_;
        if (trace_ != nullptr) {
          trace_->Instant("suspect", node, sim_->Now());
        }
        RecordDetector(node, real ? "suspect" : "false-suspect", live_before,
                       rtt_k, 0.0);
        break;
      }
      case HealthEvent::kDeclaredDown: {
        ++declared_down_;
        double latency = 0.0;
        const bool real = cluster_->truth_down(node);
        if (real) {
          latency = sim_->Now() - cluster_->truth_down_since(node);
          detection_latency_last_ = latency;
          detection_latency_sum_ += latency;
          ++detections_;
          detection_latency_mean_ =
              detection_latency_sum_ / static_cast<double>(detections_);
        } else {
          ++false_declarations_;
          if (detector_.consecutive_misses(node) >=
                  config_.heartbeat.down_after &&
              config_.heartbeat.suspect_after >=
                  config_.heartbeat.down_after) {
            // A declaration of a live node that skipped the suspect stage
            // (coinciding thresholds) still counts as a false suspicion.
            ++false_suspicions_;
          }
        }
        // Declare it: the membership finally learns what ground truth has
        // known for `latency` seconds. The piled-up gate queue moves
        // through the retraction path now.
        const cluster::NodeState now_state = cluster_->node_state(node);
        if (now_state == cluster::NodeState::kUp ||
            now_state == cluster::NodeState::kDrain) {
          cluster_->ForceTransition(node, cluster::NodeState::kDown);
        }
        RecordDetector(node, real ? "down-confirmed" : "down-false",
                       live_before, rtt_k, latency);
        break;
      }
      case HealthEvent::kCleared: {
        if (trace_ != nullptr) trace_->Instant("clear", node, sim_->Now());
        RecordDetector(node, "clear", live_before, rtt_k, 0.0);
        break;
      }
      case HealthEvent::kRecovered: {
        ++recoveries_;
        if (cluster_->node_state(node) == cluster::NodeState::kDown) {
          cluster_->ForceTransition(node, cluster::NodeState::kUp);
          StartRamp(node);
        }
        RecordDetector(node, "recover", live_before, rtt_k, 0.0);
        break;
      }
    }
  }
  sim_->Schedule(config_.heartbeat.interval,
                 [this, node] { HeartbeatTick(node); });
}

void ElasticityController::StartRamp(int node) {
  if (config_.slow_start_initial <= 0.0 || config_.slow_start_duration <= 0.0) {
    return;
  }
  Ramp& ramp = ramps_[node];
  ++ramp.gen;
  ramp.step = 0;
  ramp.cap = config_.slow_start_initial;
  cluster_->node(node).gate().SetRampCap(ramp.cap);
  const uint64_t gen = ramp.gen;
  sim_->Schedule(config_.slow_start_duration / 8.0,
                 [this, node, gen] { RampStep(node, gen); });
}

void ElasticityController::RampStep(int node, uint64_t gen) {
  Ramp& ramp = ramps_[node];
  if (ramp.gen != gen) return;  // superseded by a newer ramp
  if (cluster_->node_state(node) != cluster::NodeState::kUp) {
    // The node left the membership mid-ramp; abandon the ramp but leave
    // the generation alone — a pending FinishDrain is keyed on it, and a
    // fresh provision bumps it before restarting from the initial cap.
    cluster_->node(node).gate().ClearRampCap();
    return;
  }
  ++ramp.step;
  if (ramp.step >= 8) {
    cluster_->node(node).gate().ClearRampCap();
    return;
  }
  ramp.cap *= 2.0;
  cluster_->node(node).gate().SetRampCap(ramp.cap);
  sim_->Schedule(config_.slow_start_duration / 8.0,
                 [this, node, gen] { RampStep(node, gen); });
}

void ElasticityController::FinishDrain(int node, uint64_t gen) {
  if (ramps_[node].gen != gen) return;  // re-provisioned during the grace
  if (cluster_->node_state(node) != cluster::NodeState::kDrain) return;
  cluster_->ForceTransition(node, cluster::NodeState::kStandby);
  detector_.Reset(node);
  UpdatePoolGauge();
}

void ElasticityController::ScalerTick() {
  FleetSample sample;
  sample.time = sim_->Now();
  sample.live = cluster_->num_live();

  sample.queue_factor = cluster_->MeanQueueFactor();

  // Fleet p95 over the last interval: merge each node's window.
  for (telemetry::HistogramWindow* window : scaler_windows_) {
    window->MergeInto(&fleet_window_);
    window->Clear();
  }
  sample.p95 = fleet_window_.Quantile(0.95);
  fleet_window_.Clear();

  int standby = 0;
  for (int i = 0; i < cluster_->size(); ++i) {
    if (cluster_->node_state(i) == cluster::NodeState::kStandby) ++standby;
  }
  sample.standby = standby;

  const int live_before = sample.live;
  ScaleDecision decision = scaler_->Update(sample);
  const char* outcome = decision.reason;
  if (decision.delta > 0) {
    // Provision the lowest-index standby node. No health guard on purpose:
    // standby nodes are not probed, so the controller has no measured
    // belief about them — a node that crashed while parked is provisioned
    // anyway, blackholes its share of arrivals for one detection window,
    // and is then declared down like any other member. That window is the
    // honest price of measurement-only provisioning.
    int target = -1;
    for (int i = 0; i < cluster_->size(); ++i) {
      if (cluster_->node_state(i) == cluster::NodeState::kStandby) {
        target = i;
        break;
      }
    }
    if (target < 0) {
      outcome = "pool-empty";
    } else {
      ++ramps_[target].gen;  // invalidate a pending FinishDrain
      cluster_->ForceTransition(target, cluster::NodeState::kUp);
      StartRamp(target);
      ++provisions_;
      UpdatePoolGauge();
      if (util::Logger::level() <= util::LogLevel::kInfo) {
        ALC_LOG(kInfo, "provision node=" + std::to_string(target) +
                           " live=" + std::to_string(cluster_->num_live()));
      }
    }
  } else if (decision.delta < 0) {
    // Drain the highest-index live pool member; the base fleet and the
    // min_live floor are never scaled away.
    int target = -1;
    if (cluster_->num_live() > config_.min_live) {
      for (int i = cluster_->size() - 1; i >= 0; --i) {
        // The guard is the detector's belief, not ground truth — the
        // autoscaler only ever acts on measured signals. A node that is in
        // truth dead but not yet declared can be picked; the detector
        // keeps probing draining nodes and declares it from kDrain.
        if (pool_member_[i] != 0 &&
            cluster_->node_state(i) == cluster::NodeState::kUp &&
            detector_.state(i) != HealthState::kDown) {
          target = i;
          break;
        }
      }
    }
    if (target < 0) {
      outcome = "no-drain-target";
    } else {
      // Invalidate any in-flight slow-start ramp and drop its cap before
      // stamping the completion generation: the stamp taken after the
      // bump keeps FinishDrain live even though the abandoned RampStep
      // still fires once (and no-ops on the generation mismatch).
      ++ramps_[target].gen;
      cluster_->node(target).gate().ClearRampCap();
      cluster_->ForceTransition(target, cluster::NodeState::kDrain);
      ++drains_;
      const uint64_t gen = ramps_[target].gen;
      sim_->Schedule(config_.drain_delay,
                     [this, target, gen] { FinishDrain(target, gen); });
      if (util::Logger::level() <= util::LogLevel::kInfo) {
        ALC_LOG(kInfo, "drain node=" + std::to_string(target) +
                           " live=" + std::to_string(cluster_->num_live()));
      }
    }
  }

  if (audit_ != nullptr) {
    control::DecisionState state;
    scaler_->DescribeDecision(&state);
    telemetry::DecisionRecord record;
    record.time = sample.time;
    record.node = -1;  // fleet-scope decision
    record.controller = scaler_->name().data();
    record.reason = outcome;
    record.old_limit = static_cast<double>(live_before);
    record.new_limit = static_cast<double>(cluster_->num_live());
    record.gate_queue = sample.queue_factor;
    record.throughput = sample.p95;
    record.mean_active = static_cast<double>(sample.standby);
    record.num_state = state.num_values;
    for (int s = 0; s < state.num_values; ++s) {
      record.state_names[s] = state.names[s];
      record.state_values[s] = state.values[s];
    }
    audit_->Record(record);
  }

  sim_->Schedule(config_.scaler_interval, [this] { ScalerTick(); });
}

}  // namespace alc::elasticity
