#ifndef ALC_DB_DISK_H_
#define ALC_DB_DISK_H_

#include <cstdint>

#include "sim/event_cell.h"
#include "sim/simulator.h"

namespace alc::db {

/// Disk subsystem with constant service times and no contention (paper
/// fig. 11): an infinite-server station — every request is served
/// immediately and completes after the fixed service time.
class DiskSubsystem {
 public:
  DiskSubsystem(sim::Simulator* sim, double service_time);

  DiskSubsystem(const DiskSubsystem&) = delete;
  DiskSubsystem& operator=(const DiskSubsystem&) = delete;

  /// Starts an I/O; `done` runs after the constant service time. Small
  /// captures stay in the cell's inline buffer (no allocation).
  void Request(sim::EventCell done);

  /// Multiplier on the constant service time (default 1), actuated by the
  /// fault injector for disk-stall windows; read per request, so a window
  /// edge affects only I/Os issued after it. A factor of exactly 1 is
  /// bit-neutral.
  void SetStallFactor(double factor) { stall_factor_ = factor; }
  double stall_factor() const { return stall_factor_; }

  uint64_t completed() const { return completed_; }
  int in_flight() const { return in_flight_; }
  double service_time() const { return service_time_; }

 private:
  sim::Simulator* sim_;
  double service_time_;
  /// The simulator lane completions go through: the service time is
  /// constant, so completions are pushed in time order.
  uint32_t lane_;
  double stall_factor_ = 1.0;
  uint64_t completed_ = 0;
  int in_flight_ = 0;
};

}  // namespace alc::db

#endif  // ALC_DB_DISK_H_
