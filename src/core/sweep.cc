#include "core/sweep.h"

#include <atomic>
#include <cstdio>
#include <thread>
#include <utility>

#include "util/check.h"

namespace alc::core {

SweepRunner::SweepRunner(ExperimentSpec base, std::vector<SweepAxis> axes)
    : base_(std::move(base)), axes_(std::move(axes)) {
  for (const SweepAxis& axis : axes_) {
    ALC_CHECK(!axis.values.empty());
  }
}

int SweepRunner::num_points() const {
  int points = 1;
  for (const SweepAxis& axis : axes_) {
    points *= static_cast<int>(axis.values.size());
  }
  return points;
}

bool SweepRunner::Expand(
    int index, ExperimentSpec* spec,
    std::vector<std::pair<std::string, std::string>>* assignment,
    std::string* error) const {
  ALC_CHECK_GE(index, 0);
  ALC_CHECK_LT(index, num_points());
  assignment->clear();

  // Row-major decomposition: the last axis varies fastest.
  std::vector<int> digits(axes_.size(), 0);
  int remainder = index;
  for (size_t axis = axes_.size(); axis-- > 0;) {
    const int radix = static_cast<int>(axes_[axis].values.size());
    digits[axis] = remainder % radix;
    remainder /= radix;
  }

  *spec = base_;
  for (size_t axis = 0; axis < axes_.size(); ++axis) {
    const std::string& key = axes_[axis].key;
    const std::string& value = axes_[axis].values[digits[axis]];
    assignment->emplace_back(key, value);
    if (!ApplySpecOverride(spec, key, value, error)) return false;
  }
  return true;
}

ExperimentSpec SweepRunner::SpecAt(
    int index,
    std::vector<std::pair<std::string, std::string>>* assignment) const {
  ExperimentSpec spec;
  std::vector<std::pair<std::string, std::string>> pairs;
  std::string error;
  if (!Expand(index, &spec, &pairs, &error)) {
    std::fprintf(stderr, "SweepRunner: %s\n", error.c_str());
    ALC_CHECK(false);
  }
  if (assignment != nullptr) *assignment = std::move(pairs);
  if (hook_) hook_(index, &spec);
  return spec;
}

bool SweepRunner::Validate(std::string* error) const {
  ExperimentSpec spec;
  std::vector<std::pair<std::string, std::string>> assignment;
  for (int i = 0; i < num_points(); ++i) {
    std::string message;
    if (Expand(i, &spec, &assignment, &message) &&
        ValidateSpec(spec, &message)) {
      continue;
    }
    std::string point;
    for (const auto& [key, value] : assignment) {
      point += (point.empty() ? "" : " ") + key + "=" + value;
    }
    *error = point + ": " + message;
    return false;
  }
  return true;
}

void RunParallel(int count, int threads,
                 const std::function<void(int index)>& task) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  if (threads > count) threads = count;
  if (threads <= 1) {
    for (int i = 0; i < count; ++i) task(i);
    return;
  }
  std::atomic<int> next{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&next, count, &task] {
      while (true) {
        const int i = next.fetch_add(1);
        if (i >= count) break;
        task(i);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
}

std::vector<SweepPointResult> SweepRunner::Run(int threads) const {
  const int points = num_points();
  std::vector<SweepPointResult> results(points);
  // Expand all specs up front on the calling thread: ApplySpecOverride
  // aborts loudly on a bad key, and doing that before any simulation starts
  // keeps failures cheap and single-threaded.
  for (int i = 0; i < points; ++i) {
    results[i].index = i;
    results[i].spec = SpecAt(i, &results[i].assignment);
  }
  RunParallel(points, threads, [&results](int i) {
    results[i].result = RunSpec(results[i].spec);
  });
  return results;
}

}  // namespace alc::core
