// LogHistogram properties (quantile error bound, exact merge determinism,
// interval subtraction), HistogramWindow's bit-equality with LogHistogram,
// the occupied-range histogram against a full-scan model, TraceRecorder
// structural checks and the metric registry.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "sim/random.h"
#include "telemetry/histogram.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace alc {
namespace {

using telemetry::HistogramWindow;
using telemetry::LogHistogram;
using telemetry::TraceRecorder;

/// Exact sample quantile with the same "target = q * n, linear position"
/// convention the histogram interpolates towards.
double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double target = q * static_cast<double>(values.size());
  size_t index = static_cast<size_t>(target);
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

// ---------------------------------------------------------------- buckets --

TEST(LogHistogramTest, BucketIndexEdges) {
  EXPECT_EQ(LogHistogram::BucketIndex(0.0), -1);
  EXPECT_EQ(LogHistogram::BucketIndex(-1.0), -1);
  EXPECT_EQ(LogHistogram::BucketIndex(std::nan("")), -1);
  EXPECT_EQ(LogHistogram::BucketIndex(LogHistogram::kMinValue / 2), -1);
  EXPECT_EQ(LogHistogram::BucketIndex(LogHistogram::kMinValue), 0);
  EXPECT_EQ(LogHistogram::BucketIndex(1e12), LogHistogram::kNumBuckets);
}

TEST(LogHistogramTest, BucketEdgesContainTheirValues) {
  sim::RandomStream rng(7);
  for (int i = 0; i < 10000; ++i) {
    // Log-uniform over ~12 decades, covering every octave.
    const double value = std::exp(rng.NextDouble() * 27.0 - 13.0);
    const int index = LogHistogram::BucketIndex(value);
    if (index < 0 || index >= LogHistogram::kNumBuckets) continue;
    EXPECT_LE(LogHistogram::BucketLow(index), value);
    EXPECT_LT(value, LogHistogram::BucketHigh(index));
  }
}

TEST(LogHistogramTest, BucketWidthIsBoundedRelative) {
  for (int index = 0; index < LogHistogram::kNumBuckets; ++index) {
    const double low = LogHistogram::BucketLow(index);
    const double high = LogHistogram::BucketHigh(index);
    // Log-linear guarantee: width <= low / kSubBuckets (one sub-bucket of
    // the octave), hence the relative quantile error bound.
    EXPECT_LE(high - low, low / LogHistogram::kSubBuckets * (1 + 1e-12));
  }
}

// -------------------------------------------------------------- quantiles --

TEST(LogHistogramTest, EmptyHistogramQuantileIsZero) {
  LogHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.Quantile(0.5), 0.0);
  EXPECT_EQ(hist.mean(), 0.0);
}

TEST(LogHistogramTest, QuantileRelativeErrorBoundExponential) {
  sim::RandomStream rng(42);
  LogHistogram hist;
  std::vector<double> values;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.NextExponential(0.1);  // mean 0.1 s
    values.push_back(v);
    hist.Add(v);
  }
  for (const double q : {0.1, 0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double exact = ExactQuantile(values, q);
    const double approx = hist.Quantile(q);
    // One sub-bucket of relative width plus interpolation slack.
    EXPECT_NEAR(approx, exact, exact * 0.04)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
  EXPECT_NEAR(hist.mean(), 0.1, 0.01);
}

TEST(LogHistogramTest, QuantileRelativeErrorBoundLogUniform) {
  // A heavy-spread distribution across many octaves: the log-linear layout
  // must hold the same relative error everywhere, not just near the mean.
  sim::RandomStream rng(1234);
  LogHistogram hist;
  std::vector<double> values;
  for (int i = 0; i < 50000; ++i) {
    const double v = std::exp(rng.NextDouble() * 11.5 - 9.2);  // ~1e-4..1e1
    values.push_back(v);
    hist.Add(v);
  }
  for (const double q : {0.05, 0.25, 0.5, 0.75, 0.95, 0.999}) {
    const double exact = ExactQuantile(values, q);
    EXPECT_NEAR(hist.Quantile(q), exact, exact * 0.04) << "q=" << q;
  }
}

TEST(LogHistogramTest, UnderflowOnlyQuantileInterpolates) {
  LogHistogram hist;
  for (int i = 0; i < 10; ++i) hist.Add(0.0);
  EXPECT_EQ(hist.count(), 10u);
  EXPECT_EQ(hist.underflow(), 10u);
  const double q = hist.Quantile(0.5);
  EXPECT_GE(q, 0.0);
  EXPECT_LE(q, LogHistogram::kMinValue);
}

TEST(LogHistogramTest, OverflowValuesCountAndClamp) {
  LogHistogram hist;
  hist.Add(1e15);
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.overflow(), 1u);
  EXPECT_GT(hist.Quantile(0.5), 0.0);
}

// ------------------------------------------------------------------ merge --

TEST(LogHistogramTest, MergeEqualsPooledSamples) {
  // Merge determinism: merging per-node histograms must equal bucketing
  // the pooled sample set exactly, bucket by bucket — this is what makes
  // cluster-wide percentiles from per-node state trustworthy.
  sim::RandomStream rng(99);
  LogHistogram pooled;
  std::vector<LogHistogram> nodes(4);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.NextExponential(0.05 * (1 + i % 4));
    pooled.Add(v);
    nodes[static_cast<size_t>(i % 4)].Add(v);
  }
  LogHistogram merged;
  for (const LogHistogram& node : nodes) merged.Merge(node);
  EXPECT_EQ(merged.count(), pooled.count());
  EXPECT_EQ(merged.underflow(), pooled.underflow());
  EXPECT_EQ(merged.overflow(), pooled.overflow());
  // Bucket counts are exactly equal; the double `sum` may differ in the
  // last bits because merge adds per-node subtotals in a different order
  // than pooled addition.
  EXPECT_NEAR(merged.sum(), pooled.sum(), pooled.sum() * 1e-12);
  for (int b = 0; b < LogHistogram::kNumBuckets; ++b) {
    ASSERT_EQ(merged.bucket(b), pooled.bucket(b)) << "bucket " << b;
  }
  for (const double q : {0.5, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(merged.Quantile(q), pooled.Quantile(q));
  }
}

TEST(LogHistogramTest, SubtractYieldsIntervalHistogram) {
  sim::RandomStream rng(7);
  LogHistogram hist;
  LogHistogram interval_only;
  for (int i = 0; i < 1000; ++i) hist.Add(rng.NextExponential(0.2));
  const LogHistogram snapshot = hist;  // warmup boundary
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextExponential(0.02);
    hist.Add(v);
    interval_only.Add(v);
  }
  LogHistogram interval = hist;
  interval.Subtract(snapshot);
  EXPECT_EQ(interval.count(), interval_only.count());
  for (int b = 0; b < LogHistogram::kNumBuckets; ++b) {
    ASSERT_EQ(interval.bucket(b), interval_only.bucket(b));
  }
  EXPECT_DOUBLE_EQ(interval.Quantile(0.5), interval_only.Quantile(0.5));
}

TEST(LogHistogramTest, ClearResets) {
  LogHistogram hist;
  hist.Add(0.5);
  hist.Add(1e15);
  hist.Add(0.0);
  hist.Clear();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.underflow(), 0u);
  EXPECT_EQ(hist.overflow(), 0u);
  EXPECT_EQ(hist.sum(), 0.0);
}

// ----------------------------------------------------------------- window --

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Value sets that reach every branch of LogHistogram::Quantile: the empty
/// set, underflow (values below kMinValue, zero, negatives, NaN), overflow
/// (beyond the top octave), single-bucket sets, and random mixes of all of
/// them with ordinary response times spread over many octaves.
std::vector<std::vector<double>> WindowCases() {
  std::vector<std::vector<double>> cases = {
      {},
      {0.25},
      {0.25, 0.25, 0.25, 0.2500001},
      {0.0, -1.0, std::nan(""), 1e-7},
      {1e6, 1e12, 2e5},
      {1e-7, 0.03, 1e7},
  };
  sim::RandomStream rng(23);
  const double specials[] = {0.0,   -0.5, std::nan(""), 1e-9, 5e-7,
                             1e5,   1e12, LogHistogram::kMinValue};
  for (int c = 0; c < 200; ++c) {
    std::vector<double> values;
    const int n = static_cast<int>(rng.NextUint64(60));
    for (int i = 0; i < n; ++i) {
      const double u = rng.NextDouble();
      if (u < 0.15) {
        values.push_back(specials[rng.NextUint64(8)]);
      } else if (u < 0.5) {
        values.push_back(rng.NextExponential(0.05));
      } else {
        values.push_back(std::pow(10.0, -8.0 + 14.0 * rng.NextDouble()));
      }
    }
    cases.push_back(std::move(values));
  }
  return cases;
}

constexpr double kWindowQuantiles[] = {0.0, 0.5, 0.95, 0.99, 0.999, 1.0};
constexpr int kNumWindowQuantiles = 6;

TEST(HistogramWindowTest, QuantilesAreBitEqualToLogHistogram) {
  for (const std::vector<double>& values : WindowCases()) {
    SCOPED_TRACE(values.size());
    LogHistogram hist;
    HistogramWindow window;
    for (const double v : values) {
      hist.Add(v);
      window.Add(v);
    }
    EXPECT_EQ(window.count(), hist.count());
    double out[kNumWindowQuantiles];
    window.Quantiles(kWindowQuantiles, kNumWindowQuantiles, out);
    for (int k = 0; k < kNumWindowQuantiles; ++k) {
      EXPECT_TRUE(BitEqual(out[k], hist.Quantile(kWindowQuantiles[k])))
          << "q=" << kWindowQuantiles[k] << " window " << out[k]
          << " histogram " << hist.Quantile(kWindowQuantiles[k]);
    }
    // Descending and out-of-range requests rescan instead of resuming.
    const double mixed[] = {0.99, 0.5, 1.5, -0.5, 0.95};
    double mixed_out[5];
    window.Quantiles(mixed, 5, mixed_out);
    for (int k = 0; k < 5; ++k) {
      EXPECT_TRUE(BitEqual(mixed_out[k], hist.Quantile(mixed[k])))
          << "q=" << mixed[k];
    }
  }
}

TEST(HistogramWindowTest, MergeIntoEqualsMerge) {
  const std::vector<std::vector<double>> cases = WindowCases();
  for (size_t c = 0; c + 1 < cases.size(); ++c) {
    LogHistogram base;
    HistogramWindow base_window;
    for (const double v : cases[c + 1]) {
      base.Add(v);
      base_window.Add(v);
    }
    LogHistogram added;
    HistogramWindow window;
    for (const double v : cases[c]) {
      added.Add(v);
      window.Add(v);
    }

    LogHistogram merged = base;
    merged.Merge(added);
    LogHistogram into = base;
    window.MergeInto(&into);
    for (int b = 0; b < LogHistogram::kNumBuckets; ++b) {
      ASSERT_EQ(into.bucket(b), merged.bucket(b)) << "case " << c;
    }
    EXPECT_EQ(into.underflow(), merged.underflow());
    EXPECT_EQ(into.overflow(), merged.overflow());
    EXPECT_EQ(into.count(), merged.count());
    EXPECT_TRUE(BitEqual(into.sum(), merged.sum()));

    window.MergeInto(&base_window);
    for (int b = 0; b < LogHistogram::kNumBuckets; ++b) {
      ASSERT_EQ(base_window.buckets()[static_cast<size_t>(b)], merged.bucket(b))
          << "case " << c;
    }
    EXPECT_EQ(base_window.count(), merged.count());
    EXPECT_TRUE(BitEqual(base_window.sum(), merged.sum()));
    double out[kNumWindowQuantiles];
    base_window.Quantiles(kWindowQuantiles, kNumWindowQuantiles, out);
    for (int k = 0; k < kNumWindowQuantiles; ++k) {
      EXPECT_TRUE(BitEqual(out[k], merged.Quantile(kWindowQuantiles[k])))
          << "case " << c << " q=" << kWindowQuantiles[k];
    }
  }
}

TEST(HistogramWindowTest, ClearLeavesEveryBucketZero) {
  const std::vector<std::vector<double>> cases = WindowCases();
  HistogramWindow window;
  for (const std::vector<double>& values : cases) {
    for (const double v : values) window.Add(v);
    window.Clear();
    for (const uint64_t count : window.buckets()) ASSERT_EQ(count, 0u);
    EXPECT_EQ(window.count(), 0u);
    EXPECT_EQ(window.sum(), 0.0);
    // A cleared window reads like an empty histogram, including underflow
    // and overflow, and refills like a fresh one.
    double out[kNumWindowQuantiles];
    window.Quantiles(kWindowQuantiles, kNumWindowQuantiles, out);
    for (const double q : out) EXPECT_EQ(q, 0.0);
    LogHistogram refill;
    window.Add(0.125);
    window.Add(-1.0);
    refill.Add(0.125);
    refill.Add(-1.0);
    window.Quantiles(kWindowQuantiles, kNumWindowQuantiles, out);
    for (int k = 0; k < kNumWindowQuantiles; ++k) {
      EXPECT_TRUE(BitEqual(out[k], refill.Quantile(kWindowQuantiles[k])));
    }
    window.Clear();
  }
}

// --------------------------------------------------------- occupied range --

/// LogHistogram as it was before it tracked its occupied range: every
/// operation and Quantile() pass over all kNumBuckets buckets. The
/// range-tracking histogram must match it bucket for bucket and bit for
/// bit.
struct FullScanHistogram {
  std::array<uint64_t, LogHistogram::kNumBuckets> buckets{};
  uint64_t underflow = 0;
  uint64_t overflow = 0;
  uint64_t count = 0;
  double sum = 0.0;

  void Add(double value) {
    const int index = LogHistogram::BucketIndex(value);
    if (index < 0) {
      ++underflow;
    } else if (index >= LogHistogram::kNumBuckets) {
      ++overflow;
    } else {
      ++buckets[static_cast<size_t>(index)];
    }
    ++count;
    sum += value;
  }

  void Merge(const FullScanHistogram& other) {
    for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
    underflow += other.underflow;
    overflow += other.overflow;
    count += other.count;
    sum += other.sum;
  }

  void Subtract(const FullScanHistogram& earlier) {
    for (size_t i = 0; i < buckets.size(); ++i) buckets[i] -= earlier.buckets[i];
    underflow -= earlier.underflow;
    overflow -= earlier.overflow;
    count -= earlier.count;
    sum -= earlier.sum;
  }

  double Quantile(double q) const {
    if (count == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double target = q * static_cast<double>(count);
    double cumulative = static_cast<double>(underflow);
    if (target <= cumulative) {
      return underflow > 0 ? LogHistogram::kMinValue *
                                 (target / static_cast<double>(underflow))
                           : 0.0;
    }
    for (int i = 0; i < LogHistogram::kNumBuckets; ++i) {
      const uint64_t in_bucket = buckets[static_cast<size_t>(i)];
      if (in_bucket == 0) continue;
      const double next = cumulative + static_cast<double>(in_bucket);
      if (target <= next) {
        const double fraction =
            (target - cumulative) / static_cast<double>(in_bucket);
        const double low = LogHistogram::BucketLow(i);
        return low + fraction * (LogHistogram::BucketHigh(i) - low);
      }
      cumulative = next;
    }
    return LogHistogram::kMinValue * std::ldexp(1.0, LogHistogram::kOctaves);
  }
};

::testing::AssertionResult SameAsFullScan(const LogHistogram& hist,
                                          const FullScanHistogram& model) {
  for (int b = 0; b < LogHistogram::kNumBuckets; ++b) {
    if (hist.bucket(b) != model.buckets[static_cast<size_t>(b)]) {
      return ::testing::AssertionFailure() << "bucket " << b << " differs";
    }
  }
  if (hist.underflow() != model.underflow || hist.overflow() != model.overflow ||
      hist.count() != model.count || !BitEqual(hist.sum(), model.sum)) {
    return ::testing::AssertionFailure()
           << "count " << hist.count() << " vs " << model.count
           << ", underflow " << hist.underflow() << " vs " << model.underflow
           << ", overflow " << hist.overflow() << " vs " << model.overflow
           << ", sum " << hist.sum() << " vs " << model.sum;
  }
  for (const double q : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    if (!BitEqual(hist.Quantile(q), model.Quantile(q))) {
      return ::testing::AssertionFailure()
             << "q=" << q << ": " << hist.Quantile(q) << " vs "
             << model.Quantile(q);
    }
  }
  return ::testing::AssertionSuccess();
}

/// What one random sequence records.
enum class ValueMix { kMixed, kUnderflowOnly, kOverflowOnly, kTopBucket };

double DrawValue(ValueMix mix, sim::RandomStream* rng) {
  const double top = LogHistogram::BucketLow(LogHistogram::kNumBuckets - 1);
  switch (mix) {
    case ValueMix::kUnderflowOnly: {
      const double values[] = {0.0, -2.0, std::nan(""), 1e-7};
      return values[rng->NextUint64(4)];
    }
    case ValueMix::kOverflowOnly:
      return 1e12 * (1.0 + rng->NextDouble());
    case ValueMix::kTopBucket:
      // The top bucket is [top, top * 64/63).
      return top * (1.0 + rng->NextDouble() / 64.0);
    case ValueMix::kMixed:
      break;
  }
  const double u = rng->NextDouble();
  if (u < 0.15) {
    const double specials[] = {0.0, std::nan(""), 1e-7,
                               1e12, top, LogHistogram::kMinValue};
    return specials[rng->NextUint64(6)];
  }
  if (u < 0.5) return rng->NextExponential(0.05);
  return std::pow(10.0, -6.0 + 10.0 * rng->NextDouble());
}

/// Histogram slots over raw bytes set to `fill` before each histogram is
/// built in place. A LogHistogram never initialises the buckets outside its
/// occupied range, so with a nonzero fill a bucket read or kept from outside
/// it shows as a wrong count.
class FilledStorage {
  static_assert(std::is_trivially_destructible_v<LogHistogram>);

 public:
  FilledStorage(size_t slots, unsigned char fill)
      : fill_(fill), bytes_(new unsigned char[slots * sizeof(LogHistogram)]) {
    std::memset(bytes_.get(), fill, slots * sizeof(LogHistogram));
  }

  LogHistogram* Build(size_t slot) { return new (Fill(slot)) LogHistogram(); }
  LogHistogram* Copy(size_t slot, const LogHistogram& other) {
    return new (Fill(slot)) LogHistogram(other);
  }

 private:
  // LogHistogram is trivially destructible, so a slot is refilled and
  // rebuilt without destroying what it held.
  void* Fill(size_t slot) {
    unsigned char* at = bytes_.get() + slot * sizeof(LogHistogram);
    std::memset(at, fill_, sizeof(LogHistogram));
    return at;
  }

  unsigned char fill_;
  std::unique_ptr<unsigned char[]> bytes_;
};

constexpr int kSequenceHists = 4;

/// One seeded sequence of every operation (Add, Merge, a snapshot copy,
/// Subtract, Clear, copy and assignment, HistogramWindow::MergeInto) over
/// hists[0, kSequenceHists) and snapshots[0, kSequenceHists), each
/// histogram checked against the full-scan model after every step.
/// `copies` supplies the histograms that copy construction builds.
void CheckModelSequence(ValueMix mix, uint64_t seed, LogHistogram* const* hists,
                        LogHistogram* const* snapshots,
                        FilledStorage* copies) {
  SCOPED_TRACE("mix " + std::to_string(static_cast<int>(mix)) + " seed " +
               std::to_string(seed));
  sim::RandomStream rng(seed);
  std::vector<FullScanHistogram> models(kSequenceHists);
  // snapshots[k] is an earlier copy of hists[k]; it stays a prefix until
  // hists[k] is cleared, subtracted from or overwritten.
  std::vector<FullScanHistogram> snapshot_models(kSequenceHists);
  std::vector<bool> is_prefix(kSequenceHists, true);
  HistogramWindow window;
  FullScanHistogram window_model;
  for (int step = 0; step < 200; ++step) {
    const size_t k = rng.NextUint64(kSequenceHists);
    const size_t j = rng.NextUint64(kSequenceHists);
    switch (rng.NextUint64(8)) {
      case 0:
      case 1: {
        const uint64_t n = 1 + rng.NextUint64(20);
        for (uint64_t i = 0; i < n; ++i) {
          const double v = DrawValue(mix, &rng);
          hists[k]->Add(v);
          models[k].Add(v);
        }
        break;
      }
      case 2:  // j == k merges a histogram into itself
        hists[k]->Merge(*hists[j]);
        models[k].Merge(models[j]);
        break;
      case 3:
        *snapshots[k] = *hists[k];
        snapshot_models[k] = models[k];
        is_prefix[k] = true;
        ASSERT_TRUE(SameAsFullScan(*snapshots[k], snapshot_models[k]));
        break;
      case 4:
        if (!is_prefix[k]) break;
        hists[k]->Subtract(*snapshots[k]);
        models[k].Subtract(snapshot_models[k]);
        is_prefix[k] = false;
        break;
      case 5:
        hists[k]->Clear();
        models[k] = FullScanHistogram();
        is_prefix[k] = false;
        break;
      case 6: {
        ASSERT_TRUE(SameAsFullScan(*copies->Copy(0, *hists[k]), models[k]));
        *hists[j] = *hists[k];  // j == k assigns to itself
        models[j] = models[k];
        if (j != k) is_prefix[j] = false;
        break;
      }
      case 7: {
        const uint64_t n = rng.NextUint64(10);
        for (uint64_t i = 0; i < n; ++i) {
          const double v = DrawValue(mix, &rng);
          window.Add(v);
          window_model.Add(v);
        }
        window.MergeInto(hists[k]);
        models[k].Merge(window_model);
        window.Clear();
        window_model = FullScanHistogram();
        break;
      }
    }
    ASSERT_TRUE(SameAsFullScan(*hists[k], models[k])) << "step " << step;
    ASSERT_TRUE(SameAsFullScan(*hists[j], models[j])) << "step " << step;
  }
  for (int k = 0; k < kSequenceHists; ++k) {
    EXPECT_TRUE(SameAsFullScan(*hists[k], models[k])) << "hist " << k;
    EXPECT_TRUE(SameAsFullScan(*snapshots[k], snapshot_models[k]))
        << "snapshot " << k;
  }
}

constexpr ValueMix kValueMixes[] = {ValueMix::kMixed, ValueMix::kUnderflowOnly,
                                    ValueMix::kOverflowOnly,
                                    ValueMix::kTopBucket};

TEST(LogHistogramRangeTest, RandomSequencesMatchTheFullScanModel) {
  for (const ValueMix mix : kValueMixes) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      std::vector<LogHistogram> hists(kSequenceHists);
      std::vector<LogHistogram> snapshots(kSequenceHists);
      LogHistogram* hist_ptrs[kSequenceHists];
      LogHistogram* snapshot_ptrs[kSequenceHists];
      for (int k = 0; k < kSequenceHists; ++k) {
        hist_ptrs[k] = &hists[static_cast<size_t>(k)];
        snapshot_ptrs[k] = &snapshots[static_cast<size_t>(k)];
      }
      FilledStorage copies(1, 0);
      CheckModelSequence(mix, seed, hist_ptrs, snapshot_ptrs, &copies);
    }
  }
}

// The same sequences over histograms built on storage filled with 0xA5:
// the results must match those of fresh histograms bit for bit.
TEST(LogHistogramRangeTest, HistogramsOverPoisonedStorageMatchTheModel) {
  for (const ValueMix mix : kValueMixes) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      FilledStorage storage(2 * kSequenceHists, 0xA5);
      LogHistogram* hists[kSequenceHists];
      LogHistogram* snapshots[kSequenceHists];
      for (int k = 0; k < kSequenceHists; ++k) {
        hists[k] = storage.Build(static_cast<size_t>(k));
        snapshots[k] = storage.Build(static_cast<size_t>(kSequenceHists + k));
      }
      FilledStorage copies(1, 0xA5);
      CheckModelSequence(mix, seed, hists, snapshots, &copies);
    }
  }
}

TEST(LogHistogramRangeTest, EdgeHistogramsMatchTheFullScanModel) {
  const double top = LogHistogram::BucketLow(LogHistogram::kNumBuckets - 1);
  const std::vector<std::vector<double>> cases = {
      {},                                 // empty
      {0.0, -1.0, 1e-7},                  // underflow only
      {1e12, 5e11},                       // overflow only
      {top, top},                         // top bucket only
      {LogHistogram::kMinValue},          // bucket 0 only
      {LogHistogram::kMinValue, top},     // the whole range
  };
  for (const std::vector<double>& values : cases) {
    SCOPED_TRACE(values.size());
    LogHistogram hist;
    FullScanHistogram model;
    for (const double v : values) {
      hist.Add(v);
      model.Add(v);
    }
    EXPECT_TRUE(SameAsFullScan(hist, model));
    const LogHistogram copy = hist;
    EXPECT_TRUE(SameAsFullScan(copy, model));
    LogHistogram merged;
    merged.Merge(hist);
    EXPECT_TRUE(SameAsFullScan(merged, model));
    merged.Subtract(copy);
    EXPECT_TRUE(SameAsFullScan(merged, FullScanHistogram()));
    hist.Clear();
    EXPECT_TRUE(SameAsFullScan(hist, FullScanHistogram()));
  }
}

TEST(LogHistogramRangeDeathTest, SubtractOfANonPrefixSnapshotAborts) {
  LogHistogram hist;
  hist.Add(0.5);
  hist.Add(0.6);
  // An earlier histogram may not hold a value the later one lacks: below
  // its occupied range, above it, or a bucket inside it with more mass.
  for (const double extra : {0.001, 100.0, 0.5}) {
    LogHistogram earlier = hist;
    earlier.Add(extra);
    hist.Add(1e12);  // keeps count and overflow ahead of `earlier`
    EXPECT_DEATH(LogHistogram(hist).Subtract(earlier), "CHECK failed")
        << extra;
  }
}

// ------------------------------------------------------------------ trace --

TEST(TraceRecorderTest, RecordsAndSerializes) {
  TraceRecorder trace;
  trace.Complete("txn", 0, 7, 1.0, 0.25, "attempts", 2.0);
  trace.Instant("abort_deadlock", 1, 2.5);
  trace.Counter("limit", 0, 3.0, 42.0);
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.dropped(), 0u);

  std::ostringstream out;
  trace.WriteJson(out);
  const std::string json = out.str();
  // Structural smoke: the Chrome trace-event envelope and all three phase
  // kinds are present (full JSON validity is checked by CI via python).
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"I\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"txn\""), std::string::npos);
  EXPECT_NE(json.find("\"attempts\""), std::string::npos);
  // ts is microseconds: 1.0 s -> 1000000.
  EXPECT_NE(json.find("\"ts\":1000000"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(TraceRecorderTest, CapacityBoundsAndCountsDrops) {
  TraceRecorder trace(4);
  for (int i = 0; i < 10; ++i) trace.Instant("e", 0, i);
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceRecorderTest, JsonStaysWellFormedAfterDroppingAtCapacity) {
  TraceRecorder trace(3);
  trace.Counter("limit", 0, 0.5, 20.0);
  trace.Instant("node_down", 1, 1.0);
  trace.Counter("limit", 0, 1.5, 22.0);
  trace.Counter("limit", 0, 2.0, 24.0);  // dropped
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.dropped(), 1u);
  std::ostringstream out;
  trace.WriteJson(out);
  const std::string json = out.str();
  // Structurally balanced and closed despite the drop.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // The dropped fourth event is absent.
  EXPECT_EQ(json.find("2000000"), std::string::npos);  // 2.0 s in micros
}

// ----------------------------------------------------- histogram edges --

TEST(LogHistogramTest, NonPositiveAndSubMinimumAddsLandInUnderflow) {
  LogHistogram hist;
  hist.Add(0.0);
  hist.Add(-4.0);
  hist.Add(std::nan(""));
  hist.Add(LogHistogram::kMinValue / 10);  // positive but below range
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_EQ(hist.underflow(), 4u);
  EXPECT_EQ(hist.overflow(), 0u);
  // Every quantile of an underflow-only histogram stays within [0, min].
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_GE(hist.Quantile(q), 0.0) << q;
    EXPECT_LE(hist.Quantile(q), LogHistogram::kMinValue) << q;
  }
}

TEST(LogHistogramTest, BeyondTopOctaveQuantilesHitTheCeiling) {
  LogHistogram hist;
  const double huge = 1e18;  // far beyond kMinValue * 2^kOctaves
  for (int i = 0; i < 100; ++i) hist.Add(huge);
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_EQ(hist.overflow(), 100u);
  // Overflow samples clamp to the histogram ceiling: finite, at least the
  // top of the tracked range, and identical for every quantile.
  const double ceiling = hist.Quantile(0.5);
  EXPECT_TRUE(std::isfinite(ceiling));
  EXPECT_GE(ceiling, LogHistogram::BucketLow(LogHistogram::kNumBuckets - 1));
  EXPECT_EQ(hist.Quantile(0.01), ceiling);
  EXPECT_EQ(hist.Quantile(0.999), ceiling);
}

TEST(LogHistogramTest, EmptyHistogramEveryQuantileAndMomentIsZero) {
  const LogHistogram hist;
  for (const double q : {0.0, 0.25, 0.5, 0.95, 0.999, 1.0}) {
    EXPECT_EQ(hist.Quantile(q), 0.0) << q;
  }
  EXPECT_EQ(hist.mean(), 0.0);
  EXPECT_EQ(hist.underflow(), 0u);
  EXPECT_EQ(hist.overflow(), 0u);
}

// ----------------------------------------------------- metric registry --

TEST(MetricRegistryTest, OwnedAndLinkedMetricsSnapshotSortedByName) {
  telemetry::MetricRegistry registry;
  uint64_t* counter = registry.Counter("zeta.count");
  double* gauge = registry.Gauge("alpha.level");
  *counter = 42;
  *gauge = 1.5;

  uint64_t external_counter = 7;
  double external_gauge = 2.25;
  LogHistogram external_hist;
  external_hist.Add(0.5);
  external_hist.Add(1.0);
  registry.LinkCounter("mid.linked_count", &external_counter);
  registry.LinkGauge("mid.linked_level", &external_gauge);
  registry.LinkHistogram("mid.response", &external_hist);

  const std::vector<telemetry::MetricSample> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 5u);
  EXPECT_EQ(snapshot[0].name, "alpha.level");
  EXPECT_EQ(snapshot[1].name, "mid.linked_count");
  EXPECT_EQ(snapshot[2].name, "mid.linked_level");
  EXPECT_EQ(snapshot[3].name, "mid.response");
  EXPECT_EQ(snapshot[4].name, "zeta.count");

  EXPECT_EQ(snapshot[0].kind, telemetry::MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(snapshot[0].value, 1.5);
  EXPECT_EQ(snapshot[1].kind, telemetry::MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(snapshot[1].value, 7.0);
  EXPECT_EQ(snapshot[3].kind, telemetry::MetricKind::kHistogram);
  EXPECT_EQ(snapshot[3].count, 2u);
  EXPECT_DOUBLE_EQ(snapshot[3].mean, 0.75);

  // Snapshots read live values: mutations after linking are visible.
  external_counter = 8;
  EXPECT_DOUBLE_EQ(registry.Snapshot()[1].value, 8.0);
}

TEST(MetricRegistryTest, JsonSnapshotIsStructurallySound) {
  telemetry::MetricRegistry registry;
  *registry.Counter("commits") = 10;
  *registry.Gauge("cpu") = 0.5;
  registry.Histogram("response")->Add(1.0);
  std::ostringstream out;
  registry.WriteJson(out);
  const std::string json = out.str();
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"commits\""), std::string::npos);
  EXPECT_NE(json.find("\"cpu\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricRegistryDeathTest, DuplicateNameAbortsNamingTheMetric) {
  // Registration does not look for duplicates; the snapshot that would
  // list the name twice aborts and names it.
  telemetry::MetricRegistry registry;
  registry.Counter("node3.commits");
  registry.Gauge("node3.active");
  const uint64_t linked = 0;
  registry.LinkCounter("node3.commits", &linked);
  EXPECT_DEATH(registry.Snapshot(),
               "MetricRegistry: metric 'node3.commits' registered twice");
  std::ostringstream out;
  EXPECT_DEATH(registry.WriteJson(out), "node3.commits");
}

}  // namespace
}  // namespace alc
