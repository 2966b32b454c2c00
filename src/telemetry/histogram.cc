#include "telemetry/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace alc::telemetry {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kGateWait:
      return "gate_wait";
    case Phase::kLockWait:
      return "lock_wait";
    case Phase::kCpu:
      return "cpu";
    case Phase::kDisk:
      return "disk";
    case Phase::kCommit:
      return "commit";
  }
  return "?";
}

int LogHistogram::BucketIndex(double value) {
  // NaN and negatives fail the comparison and count as underflow, like 0.
  if (!(value >= kMinValue)) return -1;
  int exp = 0;
  // value/kMinValue = mantissa * 2^exp with mantissa in [0.5, 1), so the
  // octave is exp-1 and the mantissa carries the linear position inside it.
  // frexp is exact (it only splits the binary representation), which keeps
  // bucketing deterministic across platforms.
  const double mantissa = std::frexp(value / kMinValue, &exp);
  const int octave = exp - 1;
  if (octave >= kOctaves) return kNumBuckets;
  const int sub = static_cast<int>((mantissa * 2.0 - 1.0) * kSubBuckets);
  return octave * kSubBuckets + sub;
}

double LogHistogram::BucketLow(int index) {
  ALC_CHECK_GE(index, 0);
  ALC_CHECK_LT(index, kNumBuckets);
  const int octave = index >> kSubBucketBits;
  const int sub = index & (kSubBuckets - 1);
  return kMinValue * std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets,
                                octave);
}

double LogHistogram::BucketHigh(int index) {
  ALC_CHECK_GE(index, 0);
  ALC_CHECK_LT(index, kNumBuckets);
  return index + 1 < kNumBuckets ? BucketLow(index + 1)
                                 : kMinValue * std::ldexp(1.0, kOctaves);
}

LogHistogram::LogHistogram(const LogHistogram& other) { CopyRange(other); }

LogHistogram& LogHistogram::operator=(const LogHistogram& other) {
  if (this != &other) {
    Clear();
    CopyRange(other);
  }
  return *this;
}

void LogHistogram::CopyRange(const LogHistogram& other) {
  if (other.lo_ < other.hi_) {
    std::copy(other.buckets_.begin() + other.lo_,
              other.buckets_.begin() + other.hi_,
              buckets_.begin() + other.lo_);
  }
  lo_ = other.lo_;
  hi_ = other.hi_;
  underflow_ = other.underflow_;
  overflow_ = other.overflow_;
  count_ = other.count_;
  sum_ = other.sum_;
}

void LogHistogram::Cover(int lo, int hi) {
  if (lo_ >= hi_) lo_ = hi_ = lo;  // empty: widen from [lo, lo)
  if (lo < lo_) {
    std::fill(buckets_.begin() + lo, buckets_.begin() + lo_, 0);
    lo_ = lo;
  }
  if (hi > hi_) {
    std::fill(buckets_.begin() + hi_, buckets_.begin() + hi, 0);
    hi_ = hi;
  }
}

void LogHistogram::Merge(const LogHistogram& other) {
  if (other.lo_ < other.hi_) Cover(other.lo_, other.hi_);
  for (int i = other.lo_; i < other.hi_; ++i) {
    buckets_[static_cast<size_t>(i)] += other.buckets_[static_cast<size_t>(i)];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  count_ += other.count_;
  sum_ += other.sum_;
}

void LogHistogram::Subtract(const LogHistogram& earlier) {
  // A bucket of earlier's range outside this one counts 0 here, so the
  // check catches a non-prefix snapshot that occupies it. The range stays
  // as it was: it may now hold zero buckets, which every reader skips.
  for (int i = earlier.lo_; i < earlier.hi_; ++i) {
    const uint64_t here = bucket(i);
    const uint64_t before = earlier.buckets_[static_cast<size_t>(i)];
    ALC_CHECK_GE(here, before);
    if (before > 0) buckets_[static_cast<size_t>(i)] = here - before;
  }
  ALC_CHECK_GE(underflow_, earlier.underflow_);
  ALC_CHECK_GE(overflow_, earlier.overflow_);
  ALC_CHECK_GE(count_, earlier.count_);
  underflow_ -= earlier.underflow_;
  overflow_ -= earlier.overflow_;
  count_ -= earlier.count_;
  sum_ -= earlier.sum_;
}

void LogHistogram::Clear() {
  lo_ = kNumBuckets;
  hi_ = 0;
  underflow_ = 0;
  overflow_ = 0;
  count_ = 0;
  sum_ = 0.0;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count_);
  // Underflow range [0, kMinValue): interpolate linearly from zero.
  double cumulative = static_cast<double>(underflow_);
  if (target <= cumulative) {
    return underflow_ > 0
               ? kMinValue * (target / static_cast<double>(underflow_))
               : 0.0;
  }
  for (int i = lo_; i < hi_; ++i) {
    const uint64_t in_bucket = buckets_[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    const double next = cumulative + static_cast<double>(in_bucket);
    if (target <= next) {
      const double fraction =
          (target - cumulative) / static_cast<double>(in_bucket);
      const double low = BucketLow(i);
      return low + fraction * (BucketHigh(i) - low);
    }
    cumulative = next;
  }
  // Only overflow mass remains: report the histogram ceiling.
  return kMinValue * std::ldexp(1.0, kOctaves);
}

void HistogramWindow::Quantiles(const double* qs, int n, double* out) {
  if (count_ == 0) {
    std::fill(out, out + n, 0.0);
    return;
  }
  if (!sorted_) {
    std::sort(touched_.begin(), touched_.begin() + num_touched_);
    sorted_ = true;
  }
  // The arithmetic below is LogHistogram::Quantile's, step for step: the
  // same clamping, the same running double `cumulative` over the nonzero
  // buckets in ascending order, the same interpolation. A non-decreasing
  // target resumes at the bucket the previous one landed in, because every
  // bucket before it ended below the previous target.
  const double underflow = static_cast<double>(underflow_);
  size_t pos = 0;
  double cumulative = underflow;
  double last_target = 0.0;
  for (int k = 0; k < n; ++k) {
    double q = qs[k];
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double target = q * static_cast<double>(count_);
    if (target <= underflow) {
      out[k] = underflow_ > 0 ? LogHistogram::kMinValue * (target / underflow)
                              : 0.0;
      continue;
    }
    if (!(target >= last_target)) {  // descending (or NaN): rescan
      pos = 0;
      cumulative = underflow;
    }
    last_target = target;
    // Only overflow mass remains past the last touched bucket.
    out[k] = LogHistogram::kMinValue * std::ldexp(1.0, LogHistogram::kOctaves);
    for (; pos < num_touched_; ++pos) {
      const int i = touched_[pos];
      const uint64_t in_bucket = buckets_[static_cast<size_t>(i)];
      const double next = cumulative + static_cast<double>(in_bucket);
      if (target <= next) {
        const double fraction =
            (target - cumulative) / static_cast<double>(in_bucket);
        const double low = LogHistogram::BucketLow(i);
        out[k] = low + fraction * (LogHistogram::BucketHigh(i) - low);
        break;
      }
      cumulative = next;
    }
  }
}

void HistogramWindow::MergeInto(LogHistogram* out) const {
  for (size_t k = 0; k < num_touched_; ++k) {
    const int i = touched_[k];
    if (i < out->lo_ || i >= out->hi_) out->Cover(i, i + 1);
    out->buckets_[static_cast<size_t>(i)] += buckets_[static_cast<size_t>(i)];
  }
  out->underflow_ += underflow_;
  out->overflow_ += overflow_;
  out->count_ += count_;
  out->sum_ += sum_;
}

void HistogramWindow::MergeInto(HistogramWindow* out) const {
  for (size_t k = 0; k < num_touched_; ++k) {
    const uint16_t i = touched_[k];
    if (out->buckets_[i] == 0) {
      if (out->num_touched_ > 0 && out->touched_[out->num_touched_ - 1] > i) {
        out->sorted_ = false;
      }
      out->touched_[out->num_touched_++] = i;
    }
    out->buckets_[i] += buckets_[i];
  }
  out->underflow_ += underflow_;
  out->overflow_ += overflow_;
  out->count_ += count_;
  out->sum_ += sum_;
}

void HistogramWindow::Clear() {
  for (size_t k = 0; k < num_touched_; ++k) buckets_[touched_[k]] = 0;
  num_touched_ = 0;
  sorted_ = true;
  underflow_ = 0;
  overflow_ = 0;
  count_ = 0;
  sum_ = 0.0;
}

}  // namespace alc::telemetry
