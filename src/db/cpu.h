#ifndef ALC_DB_CPU_H_
#define ALC_DB_CPU_H_

#include <cstdint>

#include "db/schedule.h"
#include "sim/event_cell.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "util/ring_buffer.h"

namespace alc::db {

/// Homogeneous multiprocessor serving one shared FCFS queue (paper fig. 11).
/// Service is non-preemptive; a request occupies one processor for its
/// service time, then the completion callback runs.
class CpuSubsystem {
 public:
  /// `speed` is the time-varying processor speed factor: a request's
  /// wall-clock duration is demand / speed, with the speed read once at
  /// service start. Models degraded nodes in cluster scenarios (thermal
  /// throttling, co-located work stealing cycles).
  CpuSubsystem(sim::Simulator* sim, int num_processors,
               Schedule speed = Schedule::Constant(1.0));

  CpuSubsystem(const CpuSubsystem&) = delete;
  CpuSubsystem& operator=(const CpuSubsystem&) = delete;

  /// Enqueues a request for `service_time` seconds of one processor;
  /// `done` runs at completion. Small captures (the system's phase
  /// continuations) ride in the cell's inline buffer: no allocation per
  /// request, queued or not.
  void Request(double service_time, sim::EventCell done);

  /// Multiplier on top of the speed schedule (default 1), actuated by the
  /// fault injector for cpu-degrade windows: effective speed is
  /// schedule * factor, read at service start like the schedule itself.
  /// A factor of exactly 1 is bit-neutral.
  void SetSpeedFactor(double factor) { speed_factor_ = factor; }
  double speed_factor() const { return speed_factor_; }

  int num_processors() const { return num_processors_; }
  int busy() const { return busy_; }
  size_t queue_length() const { return queue_.size(); }
  uint64_t completed() const { return completed_; }

  /// Total processor-seconds delivered so far.
  double busy_time() const;

  /// Utilization over [0, now]: busy_time / (now * m).
  double Utilization() const;

 private:
  struct Pending {
    double service_time;
    sim::EventCell done;
  };

  void StartService(double service_time, sim::EventCell done);
  void OnServiceComplete(sim::EventCell done);

  sim::Simulator* sim_;
  int num_processors_;
  Schedule speed_;
  double speed_factor_ = 1.0;
  int busy_ = 0;
  /// Ring, not deque: a saturated CPU cycles this queue constantly and a
  /// deque allocates/frees a block every few operations.
  util::RingBuffer<Pending> queue_;
  uint64_t completed_ = 0;
  double busy_time_accum_ = 0.0;
  double busy_since_ = 0.0;  // time of last busy_ change
};

}  // namespace alc::db

#endif  // ALC_DB_CPU_H_
