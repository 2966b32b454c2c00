#ifndef PERFBENCH_CALIBRATION_H_
#define PERFBENCH_CALIBRATION_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Measures how fast the host runs right now. The host this benchmark runs
/// on is shared: its speed swings by a third or more from one stretch of
/// seconds to the next as neighbours come and go. The probe times a fixed
/// slice of simulator-like work (pops and pushes on a binary heap of event
/// times, exponential draws, small-table updates) whose code never changes,
/// so its duration tracks only the host. The harness runs a slice at every
/// control tick and scales the simulator's host time by
/// kReferenceSliceMs / (slice time measured alongside).
class SpeedProbe {
 public:
  /// About the duration of one slice on the development host (Intel Xeon,
  /// 2.1 GHz) when unloaded; scaled times read as if measured there.
  static constexpr double kReferenceSliceMs = 0.036;

  SpeedProbe();

  /// Runs one slice; returns its host time in milliseconds.
  double SliceMs();

  /// Median of `count` slices: a steadier reading for a one-off scaling.
  double MedianSliceMs(int count);

 private:
  std::vector<double> heap_;
  std::vector<uint32_t> table_;
  uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_H_
