#ifndef ALC_DB_METRICS_H_
#define ALC_DB_METRICS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/types.h"
#include "sim/stats.h"
#include "telemetry/histogram.h"

namespace alc::telemetry {
class MetricRegistry;
}  // namespace alc::telemetry

namespace alc::db {

/// Cumulative counters of the transaction system. The measurement subsystem
/// (control/monitor) snapshots these and differences consecutive snapshots
/// per interval, so the system itself never needs interval bookkeeping.
struct Counters {
  uint64_t submitted = 0;
  uint64_t commits = 0;
  uint64_t aborts_certification = 0;
  uint64_t aborts_deadlock = 0;
  uint64_t aborts_displacement = 0;
  uint64_t lock_waits = 0;     // 2PL: access requests that had to block
  uint64_t lock_requests = 0;  // 2PL: all access requests
  /// Completed access phases split by whether the granule was stored on
  /// this node (see RemoteAccessConfig). Every access counts as local
  /// unless an externally planned transaction marked it remote, so
  /// remote_accesses stays zero outside cluster placement scenarios.
  uint64_t local_accesses = 0;
  uint64_t remote_accesses = 0;
  /// Admitted transactions terminated by a node crash (cluster lifecycle).
  /// Not a concurrency-control abort: excluded from total_aborts() and the
  /// conflict-rate signal the controllers consume — a crash says nothing
  /// about data contention.
  uint64_t crash_kills = 0;
  /// Gate-queued submissions returned to the front-end without executing
  /// (cluster-level displacement retraction, or dropped on a crash).
  uint64_t retracted = 0;
  double response_time_sum = 0.0;  // of committed transactions, submit->commit
  double useful_cpu = 0.0;         // CPU of attempts that committed
  double wasted_cpu = 0.0;         // CPU of attempts that aborted

  uint64_t total_aborts() const {
    return aborts_certification + aborts_deadlock + aborts_displacement;
  }
};

/// Record of one committed transaction, for offline serializability checks.
struct CommitRecord {
  TxnId txn_id;
  uint64_t start_seq;
  uint64_t commit_seq;
  std::vector<ItemId> read_set;
  std::vector<ItemId> write_set;
};

/// Full metric surface of a TransactionSystem: cumulative counters,
/// time-weighted load tracks, and the optional commit history.
class Metrics {
 public:
  Counters counters;

  /// Time-weighted number of admitted transactions n(t) (the paper's load).
  sim::TimeWeightedAverage active_track;
  /// Time-weighted number of blocked transactions (2PL; Tay's b(n)).
  sim::TimeWeightedAverage blocked_track;
  /// Time-weighted admission-gate queue length.
  sim::TimeWeightedAverage queued_track;

  /// Distribution of committed-transaction response times.
  sim::WelfordAccumulator response_times;
  /// Attempts needed per committed transaction.
  sim::WelfordAccumulator attempts_per_commit;

  /// Log-bucketed distribution of committed response times (submit->commit,
  /// cumulative like the counters): the canonical latency statistic. The
  /// experiment layer subtracts the warmup snapshot and merges nodes for
  /// run-level p50/p95/p99/p999, in O(1) memory per system. Per-interval
  /// percentiles do not come from here: each periodic reader owns a
  /// response window (AddResponseWindow) that sees the same values.
  telemetry::LogHistogram response_hist;
  /// Wall-clock decomposition of committed responses, indexed by
  /// telemetry::Phase. Recorded only when SystemConfig::telemetry.per_phase
  /// (recording is side-effect-free either way).
  std::array<telemetry::LogHistogram, telemetry::kNumPhases> phase_hists;

  bool record_history = false;
  std::vector<CommitRecord> history;

  /// Records one committed response: computes its bucket once and bumps
  /// response_hist and every response window.
  void RecordResponse(double response) {
    const int index = telemetry::LogHistogram::BucketIndex(response);
    response_hist.AddAt(index, response);
    for (const auto& window : response_windows_) {
      window->AddAt(index, response);
    }
  }

  /// A new window that sees every response recorded from now on, for a
  /// reader that samples per interval (the monitor, the autoscaler, the
  /// probe-delay model): it reads the window and clears it each interval.
  /// Owned here, so it stays valid as long as this Metrics.
  telemetry::HistogramWindow* AddResponseWindow() {
    response_windows_.push_back(std::make_unique<telemetry::HistogramWindow>());
    return response_windows_.back().get();
  }

  /// Links every counter, the load gauges, and the response/phase
  /// histograms into `registry` under `prefix` (e.g. "node0."). Linking is
  /// observation-only: the registry reads these fields at snapshot time and
  /// the hot-path layout above is untouched. The Metrics object must
  /// outlive the registry's last Snapshot().
  void RegisterMetrics(telemetry::MetricRegistry* registry,
                       const std::string& prefix) const;

 private:
  std::vector<std::unique_ptr<telemetry::HistogramWindow>> response_windows_;
};

}  // namespace alc::db

#endif  // ALC_DB_METRICS_H_
