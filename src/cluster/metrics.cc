#include "cluster/metrics.h"

#include <algorithm>

#include "util/check.h"

namespace alc::cluster {

ClusterMetrics::ClusterMetrics(int num_nodes) : trajectories_(num_nodes) {
  ALC_CHECK_GT(num_nodes, 0);
}

void ClusterMetrics::AddPoint(int node, const core::TrajectoryPoint& point) {
  ALC_CHECK_GE(node, 0);
  ALC_CHECK_LT(node, static_cast<int>(trajectories_.size()));
  trajectories_[node].push_back(point);
}

void ClusterMetrics::AddPoint(
    int node, const core::TrajectoryPoint& point,
    const telemetry::HistogramWindow& interval_window) {
  ALC_CHECK_GE(node, 0);
  ALC_CHECK_LT(node, static_cast<int>(trajectories_.size()));
  // Ticks complete in order, so the node's tick index must be the one in
  // progress.
  ALC_CHECK_EQ(trajectories_[node].size(), tick_percentiles_.size());
  interval_window.MergeInto(&tick_window_);
  trajectories_[node].push_back(point);
  if (++tick_reports_ < static_cast<int>(trajectories_.size())) return;
  static constexpr double kQuantiles[] = {0.50, 0.95, 0.99, 0.999};
  std::array<double, 4>& percentiles = tick_percentiles_.emplace_back();
  tick_window_.Quantiles(kQuantiles, 4, percentiles.data());
  tick_window_.Clear();
  tick_reports_ = 0;
}

std::vector<core::TrajectoryPoint> ClusterMetrics::Aggregate() const {
  size_t ticks = trajectories_[0].size();
  for (const auto& series : trajectories_) {
    ticks = std::min(ticks, series.size());
  }
  std::vector<core::TrajectoryPoint> aggregate;
  aggregate.reserve(ticks);
  for (size_t t = 0; t < ticks; ++t) {
    core::TrajectoryPoint sum;
    sum.time = trajectories_[0][t].time;
    double weighted_response = 0.0;
    double weighted_conflicts = 0.0;
    double cpu_sum = 0.0;
    for (const auto& series : trajectories_) {
      const core::TrajectoryPoint& point = series[t];
      sum.bound += point.bound;
      sum.load += point.load;
      sum.throughput += point.throughput;
      sum.gate_queue += point.gate_queue;
      weighted_response += point.throughput * point.response;
      weighted_conflicts += point.throughput * point.conflict_rate;
      cpu_sum += point.cpu_utilization;
    }
    if (sum.throughput > 0.0) {
      sum.response = weighted_response / sum.throughput;
      sum.conflict_rate = weighted_conflicts / sum.throughput;
    }
    sum.cpu_utilization = cpu_sum / static_cast<double>(trajectories_.size());
    if (t < tick_percentiles_.size()) {
      const std::array<double, 4>& percentiles = tick_percentiles_[t];
      sum.response_p50 = percentiles[0];
      sum.response_p95 = percentiles[1];
      sum.response_p99 = percentiles[2];
      sum.response_p999 = percentiles[3];
    }
    aggregate.push_back(sum);
  }
  return aggregate;
}

}  // namespace alc::cluster
