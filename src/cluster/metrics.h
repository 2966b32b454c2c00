#ifndef ALC_CLUSTER_METRICS_H_
#define ALC_CLUSTER_METRICS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "core/experiment.h"
#include "telemetry/histogram.h"

namespace alc::cluster {

/// Cluster membership at one monitor tick: how many nodes were live and
/// the membership epoch in force. Sampled on the same interval grid as the
/// node trajectories, so index i of the membership series describes the
/// same window as index i of every node series.
struct MembershipSample {
  double time = 0.0;
  int members = 0;
  uint64_t epoch = 0;
};

/// Collects per-node controller trajectories and folds them into one
/// cluster-wide series. All node monitors tick on the same interval grid,
/// so aligned sample indices describe the same wall-clock window.
class ClusterMetrics {
 public:
  explicit ClusterMetrics(int num_nodes);

  void AddPoint(int node, const core::TrajectoryPoint& point);

  /// Adds a node's point together with its interval response window.
  /// Windows merge across nodes into the tick's window as they arrive, so
  /// Aggregate() can report true cluster-wide percentiles — a quantile
  /// cannot be recovered from per-node quantiles, only from merged
  /// buckets. Every node must report tick t before any node reports tick
  /// t + 1 (the shared monitor grid ClusterExperiment enforces); once all
  /// have, the tick's four percentiles are kept and the window is cleared.
  /// Memory: one window plus four doubles per tick.
  void AddPoint(int node, const core::TrajectoryPoint& point,
                const telemetry::HistogramWindow& interval_window);

  /// Records the membership in force at one tick (the experiment samples
  /// it once per grid tick, alongside node 0's trajectory point).
  void AddMembershipSample(const MembershipSample& sample) {
    membership_.push_back(sample);
  }

  const std::vector<MembershipSample>& membership() const {
    return membership_;
  }

  const std::vector<std::vector<core::TrajectoryPoint>>& node_trajectories()
      const {
    return trajectories_;
  }

  /// Cluster-wide series, one point per aligned tick (truncated to the
  /// shortest node series): extensive quantities (bound, load, throughput,
  /// gate queue) are summed; response time and conflict rate are
  /// commit-weighted means (weight = per-node throughput of the tick);
  /// cpu_utilization is the unweighted node mean (the front-end has no view
  /// of per-node processor counts). Response percentiles come from the
  /// tick's merged cross-node window (see the AddPoint overload); zero
  /// when points were added without windows.
  std::vector<core::TrajectoryPoint> Aggregate() const;

 private:
  std::vector<std::vector<core::TrajectoryPoint>> trajectories_;
  /// p50/p95/p99/p999 of each completed aligned tick's merged window.
  std::vector<std::array<double, 4>> tick_percentiles_;
  /// The tick in progress: windows of the tick_reports_ nodes that have
  /// reported it so far.
  telemetry::HistogramWindow tick_window_;
  int tick_reports_ = 0;
  std::vector<MembershipSample> membership_;
};

}  // namespace alc::cluster

#endif  // ALC_CLUSTER_METRICS_H_
