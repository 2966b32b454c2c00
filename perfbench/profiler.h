#ifndef PERFBENCH_PROFILER_H_
#define PERFBENCH_PROFILER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Statistical host-time profile of this process, taken from outside the
/// simulator: SIGPROF fires after every `period_us` of CPU time the process
/// consumes and records the interrupted program counter. After Stop(),
/// Layers() attributes each sample to the simulator layer whose code it
/// landed in — the `alc::<namespace>` of the enclosing function symbol
/// (engine = alc::sim, db, control, cluster, ...), "harness" for the
/// benchmark's own code, "alloc" for the heap allocator, "other" for the
/// rest. With LTO, code inlined into a caller counts for the caller's
/// layer.
///
/// One profiler per process (the signal handler is process-wide). Samples
/// are counted only on x86-64 and AArch64 Linux; elsewhere the profile is
/// empty.
class LayerProfiler {
 public:
  /// Preallocates room for `capacity` samples; later ones are not kept.
  explicit LayerProfiler(size_t capacity);
  ~LayerProfiler();

  LayerProfiler(const LayerProfiler&) = delete;
  LayerProfiler& operator=(const LayerProfiler&) = delete;

  /// Arms the timer. Samples accumulate across Start/Stop pairs.
  void Start(int period_us);
  void Stop();

  uint64_t samples() const;

  /// Sample count per layer name; symbolizes the executable on each call.
  std::map<std::string, uint64_t> Layers() const;

 private:
  std::vector<uintptr_t> pcs_;
  bool running_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROFILER_H_
