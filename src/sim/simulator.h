#ifndef ALC_SIM_SIMULATOR_H_
#define ALC_SIM_SIMULATOR_H_

#include <cstdint>
#include <utility>

#include "sim/event_queue.h"
#include "util/check.h"

namespace alc::sim {

/// Single-threaded discrete-event simulator. Owns the virtual clock and the
/// event queue. Callbacks may schedule further events (including at the
/// current time, which fire after all previously scheduled same-time events).
class Simulator {
 public:
  /// Registers this simulator's clock as the thread's log-time source
  /// (util::Logger), so log lines carry the simulated time; the destructor
  /// restores whatever was registered before.
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time in seconds.
  double Now() const { return now_; }

  /// Schedules `fn` to run `delay >= 0` seconds from now. Accepts any
  /// callable; ones that fit the queue cell's inline buffer (all hot-path
  /// captures) are stored without allocating.
  template <typename F>
  EventHandle Schedule(double delay, F&& fn) {
    ALC_CHECK_GE(delay, 0.0);
    return queue_.Push(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute virtual time `time >= Now()`.
  template <typename F>
  EventHandle ScheduleAt(double time, F&& fn) {
    ALC_CHECK_GE(time, now_);
    return queue_.Push(time, std::forward<F>(fn));
  }

  /// Creates a FIFO lane (EventQueue::AddLane) for a constant-delay event
  /// source.
  uint32_t AddLane() { return queue_.AddLane(); }

  /// Schedules `fn` to run `delay >= 0` seconds from now through `lane`.
  /// Fires exactly where Schedule() would; cheaper when the lane's delays
  /// are constant. Lane events cannot be cancelled.
  template <typename F>
  void ScheduleLane(uint32_t lane, double delay, F&& fn) {
    ALC_CHECK_GE(delay, 0.0);
    queue_.PushLane(lane, now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event. Returns true if the event had not fired.
  bool Cancel(EventHandle handle);

  /// Executes the next event if any. Returns false when the queue is empty.
  bool Step();

  /// Runs until virtual time reaches `until` or the queue drains. The clock
  /// is left at min(until, time of last event).
  void RunUntil(double until);

  /// Runs until the queue drains. Intended for tests; production scenarios
  /// use RunUntil since a closed system never drains.
  void RunAll();

  /// Total events executed so far (for micro-benchmarks and diagnostics).
  uint64_t events_executed() const { return events_executed_; }

  /// True if no live events remain.
  bool empty() const { return queue_.empty(); }

 private:
  EventQueue queue_;
  double now_ = 0.0;
  uint64_t events_executed_ = 0;
  /// The thread's previously registered log-time simulator (nesting: a
  /// test or sweep worker may build simulators back to back or stacked).
  Simulator* prev_log_simulator_ = nullptr;
};

}  // namespace alc::sim

#endif  // ALC_SIM_SIMULATOR_H_
