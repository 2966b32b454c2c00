#ifndef ALC_CORE_SWEEP_H_
#define ALC_CORE_SWEEP_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/spec.h"

namespace alc::core {

/// Calls `task(i)` once for every i in [0, count) on up to `threads` worker
/// threads (<= 0: the hardware concurrency), pulling indices in order;
/// with one worker every call runs in order on the calling thread. Each
/// task must touch only its own slot of any shared output.
void RunParallel(int count, int threads,
                 const std::function<void(int index)>& task);

/// One sweep dimension: a spec override key (ApplySpecOverride syntax, e.g.
/// "routing", "node.control.controller", "node.control.pa.forgetting") and
/// the values to try.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// One evaluated grid point.
struct SweepPointResult {
  int index = 0;  // row-major grid position (first axis slowest)
  /// The (key, value) assignment of this point, one pair per axis.
  std::vector<std::pair<std::string, std::string>> assignment;
  /// The fully overridden spec that ran.
  ExperimentSpec spec;
  SpecRunResult result;
};

/// Expands a parameter grid over a base spec and runs every point, either
/// sequentially or on a thread pool. Each point's simulation is the
/// single-threaded, seeded run the spec describes, so results are
/// bit-identical whatever the thread count — parallelism only reorders
/// wall-clock, never outcomes — and arrive ordered by grid index.
///
/// Replaces the hand-rolled nested sweep loops the bench binaries used to
/// carry; a bench is now base spec + axes + a table over the results.
class SweepRunner {
 public:
  /// Aborts (via ApplySpecOverride) on an invalid axis key at Run/SpecAt
  /// time, not construction. An empty axis list is a 1-point sweep.
  SweepRunner(ExperimentSpec base, std::vector<SweepAxis> axes);

  int num_points() const;

  /// The spec of grid point `index` (row-major, first axis slowest) and,
  /// optionally, its (key, value) assignment. Aborts on an override that
  /// does not apply.
  ExperimentSpec SpecAt(int index,
                        std::vector<std::pair<std::string, std::string>>*
                            assignment = nullptr) const;

  /// False with a message naming the first grid point whose overrides do
  /// not apply or whose spec ValidateSpec rejects. A grid whose every axis
  /// value is valid alone may still combine into a bad point ("warmup=5"
  /// with "duration=3"); checking each point lets a caller reject the grid
  /// before any run starts.
  bool Validate(std::string* error) const;

  /// Runs all points. `threads` <= 0 picks the hardware concurrency;
  /// capped at the number of points.
  std::vector<SweepPointResult> Run(int threads = 1) const;

  /// Optional per-point spec rewrite, applied at the end of SpecAt after
  /// the axis overrides (so Run() applies it on the calling thread, before
  /// any worker starts). Used by alc_run to give every grid point its own
  /// trace/decisions output file; a hook that varies only such output
  /// paths preserves the bit-identical-to-sequential guarantee.
  void SetSpecHook(std::function<void(int index, ExperimentSpec*)> hook) {
    hook_ = std::move(hook);
  }

 private:
  /// The spec of grid point `index` and its assignment; false with the
  /// override's message when one does not apply (the assignment then ends
  /// at the failing axis).
  bool Expand(int index, ExperimentSpec* spec,
              std::vector<std::pair<std::string, std::string>>* assignment,
              std::string* error) const;

  ExperimentSpec base_;
  std::vector<SweepAxis> axes_;
  std::function<void(int index, ExperimentSpec*)> hook_;
};

}  // namespace alc::core

#endif  // ALC_CORE_SWEEP_H_
