#ifndef ALC_TELEMETRY_HISTOGRAM_H_
#define ALC_TELEMETRY_HISTOGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace alc::telemetry {

/// Wall-clock decomposition of a committed transaction's response time,
/// recorded per phase into db::Metrics::phase_hists so overload diagnosis
/// can say *where* a percentile went (gate queue vs data contention vs
/// resource). The buckets do not sum exactly to the response: restart
/// delays and scheduling slack between phases are attributed nowhere.
enum class Phase {
  kGateWait = 0,  // submitted/displaced -> admitted (admission queue)
  kLockWait,      // 2PL: blocked in lock queues (zero under OCC)
  kCpu,           // CPU queue + service, init and access phases
  kDisk,          // disk service + remote-access latency, init and accesses
  kCommit,        // commit-phase CPU + disk
};

inline constexpr int kNumPhases = 5;

const char* PhaseName(Phase phase);

/// HdrHistogram-style log-linear bucketed histogram over positive doubles
/// (seconds). Each power-of-two octave above kMinValue is split into
/// kSubBuckets linear sub-buckets, so any recorded value lands in a bucket
/// whose width is at most 1/kSubBuckets of its magnitude — quantiles carry
/// a bounded relative error (~3% at 32 sub-buckets) at O(1) memory,
/// independent of run length.
///
/// Everything is integer bucket counts: recording never allocates,
/// Merge() of per-node histograms is bucket-wise addition and therefore
/// exactly equals the histogram of the pooled samples, and Subtract() of an
/// earlier snapshot yields the histogram of the values recorded since
/// (counts are cumulative and monotone). Per-interval reads use
/// HistogramWindow below instead of snapshots. This is the repo's canonical
/// latency statistic: a 10M-transaction run reports p50/p99/p999 from
/// ~9 KB of state instead of a full sample series.
///
/// The histogram tracks its occupied range [lo, hi), the only buckets it
/// ever writes or reads; the rest of its storage is left uninitialised, so
/// constructing one costs no pass over kNumBuckets. Widening the range
/// zeroes just the buckets it adds; recording pays two compares for it.
/// Copying, assigning, Merge(), Subtract() and Quantile() touch only the
/// range, so they cost the few hundred buckets a run occupies, and Clear()
/// just empties the range.
class LogHistogram {
 public:
  /// User-provided, so value-initialisation leaves the buckets unwritten.
  LogHistogram() {}
  LogHistogram(const LogHistogram& other);
  LogHistogram& operator=(const LogHistogram& other);

  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 32
  static constexpr int kOctaves = 36;
  static constexpr int kNumBuckets = kOctaves * kSubBuckets;
  /// Lower edge of bucket 0; values below land in the underflow range
  /// [0, kMinValue). 1 us resolution floor, ~68719 s ceiling.
  static constexpr double kMinValue = 1e-6;

  /// Records one value. Negative and NaN values count as underflow (zero).
  void Add(double value) { AddAt(BucketIndex(value), value); }
  /// Add() with the bucket already computed: `index` must equal
  /// BucketIndex(value). Lets a recorder that feeds several histograms the
  /// same value compute the index once.
  void AddAt(int index, double value);

  /// Bucket-wise addition: afterwards *this equals the histogram of the
  /// union of both sample sets, exactly.
  void Merge(const LogHistogram& other);

  /// Removes an earlier snapshot of *this* histogram (bucket-wise
  /// subtraction), leaving the histogram of the values recorded since the
  /// snapshot. The argument must be a prefix snapshot: every bucket count
  /// must be <= the current one (a bucket outside this range counts 0).
  void Subtract(const LogHistogram& earlier);

  /// O(1): empties the range and the counters.
  void Clear();

  /// Interpolated quantile, q in [0, 1]. Returns 0 for an empty histogram.
  /// The result is the linear interpolation inside the target bucket, so
  /// it differs from the exact sample quantile by at most one bucket width
  /// (relative error <= 1/kSubBuckets, plus interpolation slack).
  double Quantile(double q) const;

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Bucket index for a value: -1 for underflow (< kMinValue),
  /// kNumBuckets for overflow (beyond the top octave).
  static int BucketIndex(double value);
  /// Lower/upper value edges of bucket `index` in [0, kNumBuckets).
  static double BucketLow(int index);
  static double BucketHigh(int index);

  /// Count of bucket `index` in [0, kNumBuckets); 0 outside the range.
  uint64_t bucket(int index) const {
    return index >= lo_ && index < hi_ ? buckets_[static_cast<size_t>(index)]
                                       : 0;
  }
  uint64_t underflow() const { return underflow_; }
  uint64_t overflow() const { return overflow_; }

 private:
  friend class HistogramWindow;

  /// Copies other's range and counters; *this must be empty.
  void CopyRange(const LogHistogram& other);
  /// Widens the range to include [lo, hi), zeroing the buckets it adds.
  void Cover(int lo, int hi);

  /// Only [lo_, hi_) is initialised. Empty is lo_ = kNumBuckets, hi_ = 0,
  /// so a single compare against each end finds an index outside it.
  std::array<uint64_t, kNumBuckets> buckets_;
  int lo_ = kNumBuckets;
  int hi_ = 0;
  uint64_t underflow_ = 0;
  uint64_t overflow_ = 0;
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// The histogram of one measurement window: LogHistogram's bucket layout
/// plus the list of buckets the window has touched. A reader owns a
/// window, has it fed every value as it is recorded, reads it at the end of
/// an interval and clears it. Reading, merging and clearing each cost
/// O(touched buckets), which is at most the number of values in the window,
/// instead of a pass over all kNumBuckets — at short intervals a window
/// holds a handful of values. The quantiles are bit-identical to
/// LogHistogram::Quantile over the same values. Never allocates.
class HistogramWindow {
 public:
  void Add(double value) { AddAt(LogHistogram::BucketIndex(value), value); }
  /// `index` must equal LogHistogram::BucketIndex(value).
  void AddAt(int index, double value);

  /// out[i] = LogHistogram::Quantile(qs[i]) of the window's values, for
  /// i in [0, n). Non-decreasing qs share one ascending pass over the
  /// touched buckets. Sorts the touched list, hence non-const.
  void Quantiles(const double* qs, int n, double* out);
  double Quantile(double q) {
    double out;
    Quantiles(&q, 1, &out);
    return out;
  }

  /// Adds the window's values to `out`: the same result as
  /// LogHistogram::Merge of a histogram holding them.
  void MergeInto(LogHistogram* out) const;
  void MergeInto(HistogramWindow* out) const;

  /// Empties the window; every bucket is zero afterwards.
  void Clear();

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::array<uint64_t, LogHistogram::kNumBuckets>& buckets() const {
    return buckets_;
  }

 private:
  static_assert(LogHistogram::kNumBuckets <= UINT16_MAX,
                "touched_ stores bucket indices as uint16_t");

  std::array<uint64_t, LogHistogram::kNumBuckets> buckets_{};
  /// touched_[0, num_touched_) are the indices of the nonzero buckets, in
  /// first-touch order until a read sorts them.
  std::array<uint16_t, LogHistogram::kNumBuckets> touched_;
  size_t num_touched_ = 0;
  bool sorted_ = true;
  uint64_t underflow_ = 0;
  uint64_t overflow_ = 0;
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

inline void LogHistogram::AddAt(int index, double value) {
  if (index < 0) {
    ++underflow_;
  } else if (index >= kNumBuckets) {
    ++overflow_;
  } else {
    // After the first few values the range rarely widens, so the branch
    // stays untaken and the call out of line.
    if (index < lo_ || index >= hi_) Cover(index, index + 1);
    ++buckets_[static_cast<size_t>(index)];
  }
  ++count_;
  sum_ += value;
}

inline void HistogramWindow::AddAt(int index, double value) {
  if (index < 0) {
    ++underflow_;
  } else if (index >= LogHistogram::kNumBuckets) {
    ++overflow_;
  } else if (buckets_[static_cast<size_t>(index)]++ == 0) {
    if (num_touched_ > 0 && touched_[num_touched_ - 1] > index) {
      sorted_ = false;
    }
    touched_[num_touched_++] = static_cast<uint16_t>(index);
  }
  ++count_;
  sum_ += value;
}

}  // namespace alc::telemetry

#endif  // ALC_TELEMETRY_HISTOGRAM_H_
