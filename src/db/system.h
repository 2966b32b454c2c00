#ifndef ALC_DB_SYSTEM_H_
#define ALC_DB_SYSTEM_H_

#include <functional>
#include <memory>
#include <vector>

#include "db/cc.h"
#include "db/config.h"
#include "db/cpu.h"
#include "db/database.h"
#include "db/disk.h"
#include "db/metrics.h"
#include "db/schedule.h"
#include "db/transaction.h"
#include "db/two_phase_locking.h"
#include "db/workload.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "telemetry/trace.h"
#include "util/chunk_vector.h"

namespace alc::db {

/// The complete simulated transaction processing system of paper figure 11:
/// a closed network of N terminals (think times), an admission boundary, a
/// homogeneous multiprocessor with a shared FCFS queue, an infinite-server
/// constant-time disk, and a concurrency-control scheme over a database of
/// D granules. Each transaction executes k+2 phases (init, k accesses with
/// gradually growing access set, commit).
///
/// The admission boundary is pluggable: a load-control gate (src/control)
/// installs submission/departure hooks and calls Admit()/Displace(). With no
/// hooks installed every submission is admitted immediately (the "do
/// nothing" policy of paper section 1).
class TransactionSystem {
 public:
  TransactionSystem(sim::Simulator* sim, const SystemConfig& config);

  TransactionSystem(const TransactionSystem&) = delete;
  TransactionSystem& operator=(const TransactionSystem&) = delete;

  /// Called for every transaction that needs admission: fresh submissions
  /// from terminals and displaced transactions (txn->displaced == true).
  /// The callee must eventually call Admit(txn).
  void SetSubmissionHook(std::function<void(Transaction*)> on_submit);

  /// Called after a transaction commits and leaves the system (an admission
  /// slot became free).
  void SetDepartureHook(std::function<void(Transaction*)> on_departure);

  /// Called once per session-tagged external submission (session >= 0 at
  /// SubmitExternal/SubmitExternalPlanned) when it terminally leaves this
  /// node: (session, response, ok) with ok true on commit, false on a
  /// crash kill. Retracted-but-queued work does not fire the hook — the
  /// caller that retracts decides whether the work re-routes (keeping the
  /// tag) or drops. Distinct from the departure hook, which the admission
  /// gate owns. External mode only.
  void SetSessionHook(std::function<void(int32_t, double, bool)> on_done);

  /// Load observer: called with `context` right after the admitted count
  /// changes, and by the admission gate (NotifyLoadObserver) right after
  /// its queue or threshold changes. A cluster node uses it to keep its
  /// slot of the front end's membership view current; single-node systems
  /// leave it null. A plain function pointer, not a std::function: it runs
  /// on every admission and departure.
  using LoadObserver = void (*)(void* context);
  void SetLoadObserver(LoadObserver observer, void* context);
  void NotifyLoadObserver() {
    if (load_observer_ != nullptr) load_observer_(load_context_);
  }

  /// Time-varying number of participating terminals (<= num_terminals).
  /// Terminals beyond the scheduled count stay dormant and re-check after a
  /// think time. Closed mode only. Must be called before Start().
  void SetActiveTerminalsSchedule(Schedule schedule);

  /// Open mode: time-varying Poisson arrival rate (transactions per
  /// second); overrides config.open_arrival_rate. Must be called before
  /// Start().
  void SetArrivalRateSchedule(Schedule schedule);

  /// Attaches an optional trace recorder (nullptr detaches). `pid` is the
  /// Chrome-trace process lane, the node index in cluster runs. Recording
  /// is branch-gated on the pointer: with no recorder the hot path costs
  /// one predictable branch and never allocates.
  void SetTraceRecorder(telemetry::TraceRecorder* recorder, int pid);

  /// Schedules the initial think times; call once.
  void Start();

  /// External mode only: submits one new transaction right now. This is the
  /// entry point a cluster router uses to place work on this node; the node
  /// stamps the work unit (class, access count) from its own workload
  /// dynamics at the current time. `session >= 0` tags the work for the
  /// session hook (see SetSessionHook). `retry_count` stamps how many times
  /// the front-end has already re-submitted this work unit (bounded-retry
  /// accounting); 0 for first-time arrivals.
  void SubmitExternal(int32_t session = -1, int retry_count = 0);

  /// External mode only: submits one transaction whose access plan was
  /// already drawn by the cluster front-end from the global keyspace
  /// (placement scenarios). `remote[i]` marks items this node does not
  /// store; those accesses pay config.remote's CPU/latency penalty. The
  /// plan is replayed verbatim on every attempt (no resampling), keeping
  /// the remote/local split consistent with the routing decision. All three
  /// spans must have equal, non-zero length; items must be distinct and
  /// within this node's database size.
  void SubmitExternalPlanned(TxnClass cls, const std::vector<ItemId>& items,
                             const std::vector<AccessMode>& modes,
                             const std::vector<uint8_t>& remote,
                             int32_t session = -1, int retry_count = 0);

  /// Admits a queued transaction into execution (gate-facing API).
  void Admit(Transaction* txn);

  /// Displaces an admitted transaction (paper section 4.3): running
  /// transactions are marked and abort at their next phase boundary;
  /// blocked or restart-waiting transactions abort immediately. The
  /// transaction re-enters through the submission hook with
  /// txn->displaced == true.
  void Displace(Transaction* txn);

  /// Crashes the node: every admitted transaction is killed — blocked and
  /// restart-waiting ones terminate immediately, running ones at their next
  /// phase boundary (the residual phase is the crash wind-down; no new work
  /// starts). Killed transactions never re-enter: their slots return to the
  /// pool and metrics count them under crash_kills, not CC aborts. Returns
  /// the number killed. External mode only (cluster lifecycle hook).
  int CrashActive();

  /// External mode only: returns a gate-queued (never admitted) submission's
  /// slot to the pool without executing it — the cluster front-end calls
  /// this after retracting the transaction from the admission queue, either
  /// to re-route the work elsewhere or to drop it on a crash. The plan
  /// fields (cls, planned_*) stay readable until the slot is reused, so
  /// callers can copy them out first.
  void ReleaseQueued(Transaction* txn);

  /// Number of admitted transactions (the paper's load n): running, blocked,
  /// or waiting out a restart delay.
  int active() const { return active_; }

  double Now() const { return sim_->Now(); }

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  const SystemConfig& config() const { return config_; }
  Database& database() { return database_; }
  CpuSubsystem& cpu() { return cpu_; }
  DiskSubsystem& disk() { return disk_; }
  ConcurrencyControl& cc() { return *cc_; }
  /// Non-null only when config.cc == kTwoPhaseLocking.
  LockManager* lock_manager() { return lock_manager_; }

  /// All transactions currently admitted (for displacement victim search).
  void CollectActive(std::vector<Transaction*>* out);

  /// Sum of terminals in thinking state (for conservation checks in tests;
  /// closed mode).
  int CountThinking() const;

 private:
  void ScheduleThink(int terminal_id);
  void SubmitFromTerminal(int terminal_id);
  void ScheduleNextArrival();
  void SubmitFromArrival();
  Transaction* AcquireFromPool();
  /// Resets a (possibly recycled) slot to a fresh queued submission:
  /// identity, timing, attempt state, and any stale externally-planned
  /// state from a previous occupant. Callers stamp the work (class, k,
  /// plan) afterwards and then hand the transaction to the submission hook.
  void InitSubmission(Transaction* txn);
  void SetupNewWork(Transaction* txn);
  void StartAttempt(Transaction* txn);
  void RunAccessPhase(Transaction* txn, int index);
  void CompleteAccess(Transaction* txn, int index);
  void RunCommitPhase(Transaction* txn);
  void Finalize(Transaction* txn);
  void Commit(Transaction* txn);
  void AbortAttempt(Transaction* txn, AbortReason reason);
  void AbortForDisplacement(Transaction* txn);
  /// Terminal crash-kill of an admitted transaction: releases CC state,
  /// counts crash_kills, frees the slot. No restart, no submission hook.
  void FinishKill(Transaction* txn);
  void SetActive(int delta);
  /// Draws an exponential CPU demand and charges it to the attempt.
  double DrawCpu(Transaction* txn, double mean);
  /// Whether access phase `index` of `txn` touches a remotely stored item.
  bool RemoteAt(const Transaction* txn, int index) const;

  sim::Simulator* sim_;
  SystemConfig config_;
  Schedule active_terminals_;
  Schedule arrival_rate_;
  Metrics metrics_;

  sim::RandomStream think_rng_;
  sim::RandomStream class_rng_;
  sim::RandomStream service_rng_;
  sim::RandomStream restart_rng_;

  Database database_;
  AccessPatternGenerator access_gen_;
  CpuSubsystem cpu_;
  DiskSubsystem disk_;
  /// Simulator lane of the remote round trips (constant latency).
  uint32_t remote_lane_ = 0;
  std::unique_ptr<ConcurrencyControl> cc_;
  LockManager* lock_manager_ = nullptr;  // borrowed view into cc_

  /// Closed mode: one slot per terminal, reused. Open mode: a growing pool
  /// with a free list (stable addresses via chunked storage; one heap
  /// allocation per 64 slots instead of std::deque's one per slot).
  util::ChunkVector<Transaction> transactions_;
  std::vector<Transaction*> free_pool_;  // open mode: idle work units
  std::function<void(Transaction*)> on_submit_;
  std::function<void(Transaction*)> on_departure_;
  std::function<void(int32_t, double, bool)> on_session_done_;
  LoadObserver load_observer_ = nullptr;
  void* load_context_ = nullptr;

  telemetry::TraceRecorder* trace_ = nullptr;
  int32_t trace_pid_ = 0;

  int active_ = 0;
  TxnId next_txn_id_ = 1;
  bool started_ = false;
};

}  // namespace alc::db

#endif  // ALC_DB_SYSTEM_H_
