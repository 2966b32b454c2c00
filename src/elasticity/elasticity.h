#ifndef ALC_ELASTICITY_ELASTICITY_H_
#define ALC_ELASTICITY_ELASTICITY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "elasticity/autoscaler.h"
#include "elasticity/config.h"
#include "elasticity/heartbeat.h"
#include "elasticity/probe.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "telemetry/audit.h"
#include "telemetry/histogram.h"
#include "telemetry/trace.h"

namespace alc::telemetry {
class MetricRegistry;
}  // namespace alc::telemetry

namespace alc::elasticity {

/// The fleet-level closed loop: drives per-node heartbeats through the
/// event engine into the HeartbeatDetector and actuates its verdicts
/// against the cluster membership (ForceTransition), and runs the
/// autoscaler sampling loop that provisions/drains standby nodes off
/// measured fleet signals. Every verdict and every scaler tick is emitted
/// as a DecisionRecord; counters and gauges register under "elasticity.".
///
/// Determinism: everything runs on the shared simulator queue off fixed
/// intervals; heartbeat outcomes are pure functions of ground truth and
/// front-end occupancy. Steady-state operation (heartbeats, scaler
/// samples) allocates nothing — the response windows are preallocated
/// HistogramWindows, and all event captures fit the queue cell's inline
/// buffer.
class ElasticityController {
 public:
  /// `cluster` must already be in managed-membership mode when
  /// config.detector is true, and standby nodes must already be marked.
  /// `audit` and `trace` may be null. Call Start() before the simulator
  /// runs (heartbeats begin at t = interval).
  ElasticityController(sim::Simulator* sim, cluster::Cluster* cluster,
                       const ElasticityConfig& config, uint64_t seed,
                       telemetry::DecisionAudit* audit,
                       telemetry::TraceRecorder* trace);

  ElasticityController(const ElasticityController&) = delete;
  ElasticityController& operator=(const ElasticityController&) = delete;

  void Start();

  /// Attaches a measured-path probe perturber (the fault injector). With
  /// none attached the probe path makes no perturber calls at all, so
  /// unfaulted runs stay bit-identical. Call before Start().
  void SetProbePerturber(ProbePerturber* perturber) { perturber_ = perturber; }

  /// Links the loop's counters and gauges under "elasticity.".
  /// Observation-only; this object must outlive the registry's last
  /// Snapshot().
  void RegisterMetrics(telemetry::MetricRegistry* registry) const;

  const HeartbeatDetector& detector() const { return detector_; }

  // Detection outcomes.
  uint64_t suspicions() const { return suspicions_; }
  uint64_t false_suspicions() const { return false_suspicions_; }
  uint64_t declared_down() const { return declared_down_; }
  /// Down declarations of nodes whose ground truth was alive.
  uint64_t false_declarations() const { return false_declarations_; }
  uint64_t recoveries() const { return recoveries_; }
  /// Mean / last time from ground-truth fault to kDown declaration.
  double detection_latency_mean() const { return detection_latency_mean_; }
  double detection_latency_last() const { return detection_latency_last_; }

  // Scaling outcomes.
  uint64_t provisions() const { return provisions_; }
  uint64_t drains() const { return drains_; }
  /// Standby nodes currently provisionable.
  int pool_size() const { return static_cast<int>(pool_size_); }

 private:
  void HeartbeatTick(int node);
  void ScalerTick();
  void StartRamp(int node);
  void RampStep(int node, uint64_t gen);
  void FinishDrain(int node, uint64_t gen);
  void UpdatePoolGauge();
  /// Records one detector decision: fleet size before/after plus the
  /// probe's miss count and modeled rtt.
  void RecordDetector(int node, const char* reason, int live_before,
                      double rtt, double latency);

  sim::Simulator* sim_;
  cluster::Cluster* cluster_;
  ElasticityConfig config_;
  telemetry::DecisionAudit* audit_;
  telemetry::TraceRecorder* trace_;
  ProbePerturber* perturber_ = nullptr;
  /// Observer rtt jitter stream — drawn from only for observers >= 1 with
  /// a nonzero jitter amplitude, so single-observer runs consume nothing.
  sim::RandomStream hb_rng_;
  HeartbeatDetector detector_;
  std::unique_ptr<AutoscalerPolicy> scaler_;
  bool scaling_enabled_ = false;

  /// Nodes that began in the standby pool: the only ones the autoscaler
  /// may drain back (the base fleet is never scaled away).
  std::vector<uint8_t> pool_member_;
  /// Per-node slow-start ramp; gen stamps invalidate stale ramp events
  /// when a node leaves kUp mid-ramp and is provisioned again later.
  struct Ramp {
    uint64_t gen = 0;
    int step = 0;
    double cap = 0.0;
  };
  std::vector<Ramp> ramps_;

  /// Autoscaler p95 signal: each node's responses since the previous
  /// sample (windows owned by the node's metrics; empty unless scaling is
  /// enabled), merged into one fleet window per sample.
  std::vector<telemetry::HistogramWindow*> scaler_windows_;
  telemetry::HistogramWindow fleet_window_;

  /// Probe-delay model "response": each node's responses since its
  /// previous probe (empty unless that model is selected; null for nodes
  /// without per-phase telemetry, which fall back to occupancy).
  std::vector<telemetry::HistogramWindow*> probe_windows_;

  uint64_t suspicions_ = 0;
  uint64_t false_suspicions_ = 0;
  uint64_t declared_down_ = 0;
  uint64_t false_declarations_ = 0;
  uint64_t recoveries_ = 0;
  uint64_t provisions_ = 0;
  uint64_t drains_ = 0;
  double pool_size_ = 0.0;  // gauge
  double detection_latency_last_ = 0.0;
  double detection_latency_mean_ = 0.0;
  double detection_latency_sum_ = 0.0;
  uint64_t detections_ = 0;
};

}  // namespace alc::elasticity

#endif  // ALC_ELASTICITY_ELASTICITY_H_
