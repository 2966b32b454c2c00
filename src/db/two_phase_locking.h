#ifndef ALC_DB_TWO_PHASE_LOCKING_H_
#define ALC_DB_TWO_PHASE_LOCKING_H_

#include <functional>
#include <vector>

#include "db/cc.h"
#include "db/database.h"
#include "db/metrics.h"
#include "sim/simulator.h"
#include "util/ring_buffer.h"

namespace alc::db {

/// Strict two-phase locking: shared/exclusive item locks acquired at access
/// time and held to commit/abort. The wait policy is strict FIFO per item
/// (the queue head run of compatible requests is granted when holders
/// allow), which prevents writer starvation. Deadlocks are detected on
/// block by a waits-for graph search; the youngest cycle member is aborted
/// (paper section 4.3: "victim selection may be based on the same criteria
/// as for deadlock breaking").
///
/// This implements the *blocking* CC class of paper section 1, whose mean
/// blocked-transaction count grows quadratically with the concurrency level
/// [Tay et al. 1985]; bench/cc_comparison reproduces that behaviour.
class LockManager : public ConcurrencyControl {
 public:
  LockManager(Database* db, Metrics* metrics, sim::Simulator* sim);

  /// Must be set before the first access; invoked for deadlock victims.
  void SetAbortHook(AbortHook hook);

  void OnAttemptStart(Transaction* txn) override;
  void RequestAccess(Transaction* txn, int index,
                     sim::EventCell proceed) override;
  bool CertifyCommit(Transaction* txn) override;
  void OnCommit(Transaction* txn) override;
  void OnAbort(Transaction* txn) override;
  void CancelWaiting(Transaction* txn) override;

  /// Number of transactions currently blocked in some lock queue.
  int num_blocked() const { return blocked_count_; }
  uint64_t deadlocks_detected() const { return deadlocks_detected_; }

  /// Test introspection: holder/waiter counts for an item.
  int NumHolders(ItemId item) const;
  int NumWaiters(ItemId item) const;

 private:
  struct Waiter {
    Transaction* txn;
    AccessMode mode;
    sim::EventCell proceed;
  };
  struct Holder {
    Transaction* txn;
    AccessMode mode;
  };
  /// Rings, not deques: one ItemLock exists per database granule, and a
  /// default-constructed deque eagerly allocates its block map — vectors
  /// make an idle lock table allocation-free and FIFO churn on a hot item
  /// reuses capacity.
  struct ItemLock {
    std::vector<Holder> holders;
    util::RingBuffer<Waiter> waiters;
  };

  static bool Compatible(AccessMode a, AccessMode b) {
    return a == AccessMode::kRead && b == AccessMode::kRead;
  }

  bool CanGrant(const ItemLock& lock, AccessMode mode) const;
  void Grant(ItemLock* lock, Transaction* txn, AccessMode mode);
  /// Grants the head run of compatible waiters; proceeds are scheduled at
  /// the current time (never synchronously) to avoid re-entrancy.
  void GrantWaiters(ItemId item);
  void ReleaseAll(Transaction* txn);
  void RemoveWaiter(Transaction* txn);

  /// Detects a waits-for cycle reachable from `start`; if found, aborts the
  /// youngest member via the abort hook. Returns true if a victim was taken.
  /// Runs on every block, so the search reuses persistent scratch and visit
  /// stamps on the transactions — no allocation at steady state.
  bool ResolveDeadlock(Transaction* start);
  /// Appends the transactions `txn` is directly waiting for (holders of,
  /// and incompatible waiters ahead in, its blocked-on queue) to `out`.
  void AppendWaitsFor(Transaction* txn, std::vector<Transaction*>* out) const;

  Database* db_;
  Metrics* metrics_;
  sim::Simulator* sim_;
  AbortHook abort_hook_;
  std::vector<ItemLock> locks_;
  int blocked_count_ = 0;
  uint64_t deadlocks_detected_ = 0;
  uint64_t commit_seq_ = 0;
  /// ReleaseAll's item list, reused across commits and aborts.
  std::vector<ItemId> released_;

  /// Deadlock-DFS scratch, reused across searches. Frames reference spans
  /// of the shared edge pool instead of owning per-frame vectors.
  struct DfsFrame {
    Transaction* node;
    size_t edges_end;  // this frame's edges are dfs_edges_[next..edges_end)
    size_t next;
  };
  std::vector<DfsFrame> dfs_stack_;
  std::vector<Transaction*> dfs_edges_;
  std::vector<Transaction*> dfs_path_;
  std::vector<Transaction*> dfs_cycle_;
  uint64_t dfs_epoch_ = 0;
};

}  // namespace alc::db

#endif  // ALC_DB_TWO_PHASE_LOCKING_H_
