#ifndef ALC_TELEMETRY_REGISTRY_H_
#define ALC_TELEMETRY_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/histogram.h"

namespace alc::telemetry {

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

/// One entry of a registry snapshot. Counters report `value` (the count);
/// gauges report `value`; histograms report count/mean and the standard
/// percentile set.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  uint64_t count = 0;  // histogram sample count
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// Unified metric registry: every counter, gauge, and latency histogram a
/// run exposes, under one stable dotted namespace (`node3.commits`,
/// `cluster.retracted`, `node0.response`), snapshot as one sorted list and
/// serializable as JSON for the run manifest.
///
/// Two registration styles share the namespace:
///  - Owned metrics (`Counter`/`Gauge`/`Histogram`) allocate stable storage
///    inside the registry and hand back a raw pointer; the hot path is then
///    a plain `++*counter` or `hist->Add(v)` — no lookup, no allocation.
///  - Linked metrics (`LinkCounter`/`LinkGauge`/`LinkHistogram`) register a
///    const pointer to a field that already exists (db::Counters, cluster
///    lifecycle counters, ...). The owning struct keeps its layout and its
///    hot path untouched; the registry only reads it at snapshot time.
///    Linked pointers must outlive the registry's last Snapshot() call.
///
/// Registration itself allocates (names are strings) and happens once at
/// experiment setup, never per event. It does not look for duplicate names:
/// Snapshot() finds them after sorting the entries by name, in
/// O(n log n) for the whole registry. The registry is observation-only: it never mutates linked
/// fields, so registering metrics cannot perturb a run (pinned by
/// tests/audit_test.cc byte-identity).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Owned metrics: returns a stable pointer for direct hot-path updates.
  uint64_t* Counter(const std::string& name);
  double* Gauge(const std::string& name);
  LogHistogram* Histogram(const std::string& name);

  /// Linked metrics: exports an existing field under `name`.
  void LinkCounter(const std::string& name, const uint64_t* value);
  void LinkGauge(const std::string& name, const double* value);
  void LinkHistogram(const std::string& name, const LogHistogram* hist);

  size_t size() const { return entries_.size(); }

  /// Current values of every registered metric, sorted by name. Aborts,
  /// naming the metric, if a name was registered twice.
  std::vector<MetricSample> Snapshot() const;

  /// Serializes a snapshot as one JSON object keyed by metric name.
  /// Counters/gauges map to a number; histograms map to an object with
  /// count/mean/p50/p95/p99/p999. Keys are sorted; doubles use the
  /// shortest exact round-trip form so manifests diff cleanly.
  void WriteJson(std::ostream& out) const;

  /// Static helper shared with the manifest writer: formats a snapshot
  /// (already sorted) as the same JSON object.
  static void WriteSnapshotJson(std::ostream& out,
                                const std::vector<MetricSample>& snapshot);

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    const uint64_t* counter = nullptr;
    const double* gauge = nullptr;
    const LogHistogram* hist = nullptr;
  };

  std::vector<Entry> entries_;
  // Owned storage. Deques keep pointers stable across growth.
  std::deque<uint64_t> owned_counters_;
  std::deque<double> owned_gauges_;
  std::deque<LogHistogram> owned_hists_;
};

}  // namespace alc::telemetry

#endif  // ALC_TELEMETRY_REGISTRY_H_
