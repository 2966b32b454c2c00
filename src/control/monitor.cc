#include "control/monitor.h"

#include <utility>

#include "util/check.h"

namespace alc::control {

Monitor::Monitor(sim::Simulator* sim, db::TransactionSystem* system,
                 double interval)
    : sim_(sim), system_(system), interval_(interval) {
  ALC_CHECK(sim != nullptr);
  ALC_CHECK(system != nullptr);
  ALC_CHECK_GT(interval, 0.0);
  window_ = system->metrics().AddResponseWindow();
}

void Monitor::SetCallback(std::function<void(const Sample&)> callback) {
  callback_ = std::move(callback);
}

void Monitor::SetInterval(double interval) {
  ALC_CHECK_GT(interval, 0.0);
  interval_ = interval;
}

void Monitor::Start() {
  ALC_CHECK(!started_);
  started_ = true;
  last_ = TakeSnapshot();
  window_->Clear();
  sim_->Schedule(interval_, [this] { Tick(); });
}

Monitor::Snapshot Monitor::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.counters = system_->metrics().counters;
  snapshot.cpu_busy_time = system_->cpu().busy_time();
  snapshot.time = sim_->Now();
  return snapshot;
}

void Monitor::Tick() {
  const Snapshot current = TakeSnapshot();
  const double span = current.time - last_.time;
  ALC_CHECK_GT(span, 0.0);
  const db::Counters& now = current.counters;
  const db::Counters& before = last_.counters;

  Sample sample;
  sample.time = current.time;
  sample.interval = span;
  const auto commits = now.commits - before.commits;
  const auto aborts = now.total_aborts() - before.total_aborts();
  sample.commits = static_cast<long long>(commits);
  sample.throughput = static_cast<double>(commits) / span;
  sample.abort_rate = static_cast<double>(aborts) / span;
  sample.conflict_rate =
      commits > 0 ? static_cast<double>(aborts) / static_cast<double>(commits)
                  : static_cast<double>(aborts);
  sample.mean_response =
      commits > 0
          ? (now.response_time_sum - before.response_time_sum) / commits
          : 0.0;

  // Interval percentiles: the window holds exactly the interval's commits.
  static constexpr double kQuantiles[] = {0.50, 0.95, 0.99, 0.999};
  double percentiles[4];
  window_->Quantiles(kQuantiles, 4, percentiles);
  sample.response_p50 = percentiles[0];
  sample.response_p95 = percentiles[1];
  sample.response_p99 = percentiles[2];
  sample.response_p999 = percentiles[3];

  db::Metrics& metrics = system_->metrics();
  sample.mean_active = metrics.active_track.AverageUntil(current.time);
  metrics.active_track.ResetWindow(current.time);
  sample.mean_blocked = metrics.blocked_track.AverageUntil(current.time);
  metrics.blocked_track.ResetWindow(current.time);
  sample.gate_queue = metrics.queued_track.AverageUntil(current.time);
  metrics.queued_track.ResetWindow(current.time);

  const double cpu_delta = current.cpu_busy_time - last_.cpu_busy_time;
  sample.cpu_utilization =
      cpu_delta / (span * system_->cpu().num_processors());
  const double useful = now.useful_cpu - before.useful_cpu;
  const double wasted = now.wasted_cpu - before.wasted_cpu;
  sample.useful_cpu_fraction =
      (useful + wasted) > 0.0 ? useful / (useful + wasted) : 1.0;

  last_ = current;
  if (callback_) callback_(sample);
  window_->Clear();
  sim_->Schedule(interval_, [this] { Tick(); });
}

}  // namespace alc::control
