#ifndef ALC_CONTROL_MONITOR_H_
#define ALC_CONTROL_MONITOR_H_

#include <functional>

#include "control/sample.h"
#include "db/system.h"
#include "sim/simulator.h"
#include "telemetry/histogram.h"

namespace alc::control {

/// The measurement subsystem (paper figure 5). Every `interval` seconds it
/// differences the system's cumulative counters into one Sample and hands it
/// to the registered callback (the controller + gate). The interval length
/// trades stability against responsiveness (paper section 5); it can be
/// retuned at runtime by an outer loop.
class Monitor {
 public:
  Monitor(sim::Simulator* sim, db::TransactionSystem* system, double interval);

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Callback invoked with each completed interval's sample.
  void SetCallback(std::function<void(const Sample&)> callback);

  /// Schedules the first tick `interval` from now. Call once.
  void Start();

  /// Changes the interval length; takes effect from the next tick.
  void SetInterval(double interval);
  double interval() const { return interval_; }

  /// Response times committed in the interval being sampled: the window
  /// the system records into, read for the sample's percentiles. Valid
  /// only during the callback of that interval (it is cleared right
  /// after); the cluster layer merges it across nodes for aggregate
  /// percentiles.
  const telemetry::HistogramWindow& interval_response_window() const {
    return *window_;
  }

 private:
  struct Snapshot {
    db::Counters counters;
    double cpu_busy_time = 0.0;
    double time = 0.0;
  };

  void Tick();
  Snapshot TakeSnapshot() const;

  sim::Simulator* sim_;
  db::TransactionSystem* system_;
  double interval_;
  std::function<void(const Sample&)> callback_;
  Snapshot last_;
  /// Owned by the system's metrics; holds the commits since the last tick.
  telemetry::HistogramWindow* window_ = nullptr;
  bool started_ = false;
};

}  // namespace alc::control

#endif  // ALC_CONTROL_MONITOR_H_
