#include "calibration.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>

namespace perfbench {

namespace {

constexpr int kHeapSize = 4096;
constexpr uint32_t kTableMask = 4095;
constexpr int kOpsPerSlice = 300;

}  // namespace

SpeedProbe::SpeedProbe() : table_(kTableMask + 1, 0) {
  heap_.reserve(kHeapSize + 1);
  for (int i = 0; i < kHeapSize; ++i) {
    heap_.push_back(static_cast<double>(i));
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<double>());
}

double SpeedProbe::SliceMs() {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kOpsPerSlice; ++i) {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<double>());
    const double time = heap_.back();
    heap_.pop_back();
    ++table_[state_ & kTableMask];
    const double u = static_cast<double>(state_ >> 11) * 0x1.0p-53;
    heap_.push_back(time - std::log1p(-u));
    std::push_heap(heap_.begin(), heap_.end(), std::greater<double>());
  }
  const auto end = std::chrono::steady_clock::now();
  // Renormalize so event times stay small and every slice does equal work.
  if (heap_.front() > 1e6) {
    const double base = heap_.front();
    for (double& t : heap_) t -= base;
  }
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double SpeedProbe::MedianSliceMs(int count) {
  std::vector<double> times;
  for (int i = 0; i < count; ++i) times.push_back(SliceMs());
  std::nth_element(times.begin(), times.begin() + count / 2, times.end());
  return times[count / 2];
}

}  // namespace perfbench
