#include "db/two_phase_locking.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace alc::db {

LockManager::LockManager(Database* db, Metrics* metrics, sim::Simulator* sim)
    : db_(db), metrics_(metrics), sim_(sim), locks_(db->size()) {
  ALC_CHECK(metrics != nullptr);
  ALC_CHECK(sim != nullptr);
}

void LockManager::SetAbortHook(AbortHook hook) { abort_hook_ = std::move(hook); }

void LockManager::OnAttemptStart(Transaction* txn) {
  ALC_CHECK(txn->held_locks.empty());
  ALC_CHECK_EQ(txn->blocked_on, -1);
}

bool LockManager::CanGrant(const ItemLock& lock, AccessMode mode) const {
  if (!lock.waiters.empty()) return false;  // strict FIFO, no overtaking
  for (const Holder& holder : lock.holders) {
    if (!Compatible(mode, holder.mode)) return false;
  }
  return true;
}

void LockManager::Grant(ItemLock* lock, Transaction* txn, AccessMode mode) {
  lock->holders.push_back(Holder{txn, mode});
  txn->held_locks.push_back(
      static_cast<ItemId>(lock - locks_.data()));
}

void LockManager::RequestAccess(Transaction* txn, int index,
                                sim::EventCell proceed) {
  ALC_CHECK(abort_hook_ != nullptr);
  const ItemId item = txn->access_items[index];
  const AccessMode mode = txn->access_modes[index];
  ItemLock& lock = locks_[item];
  ++metrics_->counters.lock_requests;

  if (CanGrant(lock, mode)) {
    Grant(&lock, txn, mode);
    proceed();
    return;
  }

  ++metrics_->counters.lock_waits;
  lock.waiters.push_back(Waiter{txn, mode, std::move(proceed)});
  txn->state = TxnState::kBlocked;
  txn->blocked_on = item;
  txn->block_start_time = sim_->Now();
  ++blocked_count_;
  metrics_->blocked_track.Update(sim_->Now(), blocked_count_);
  ResolveDeadlock(txn);
}

bool LockManager::CertifyCommit(Transaction* txn) {
  // 2PL serializes during execution; commit always certifies.
  (void)txn;
  return true;
}

void LockManager::OnCommit(Transaction* txn) {
  if (metrics_->record_history) {
    metrics_->history.push_back(CommitRecord{txn->id, txn->start_seq,
                                             ++commit_seq_, txn->read_set,
                                             txn->write_set});
  }
  ReleaseAll(txn);
}

void LockManager::OnAbort(Transaction* txn) { ReleaseAll(txn); }

void LockManager::CancelWaiting(Transaction* txn) {
  if (txn->blocked_on >= 0) RemoveWaiter(txn);
}

void LockManager::RemoveWaiter(Transaction* txn) {
  ALC_CHECK_GE(txn->blocked_on, 0);
  ItemLock& lock = locks_[static_cast<size_t>(txn->blocked_on)];
  auto it = std::find_if(lock.waiters.begin(), lock.waiters.end(),
                         [txn](const Waiter& w) { return w.txn == txn; });
  ALC_CHECK(it != lock.waiters.end());
  const ItemId item = static_cast<ItemId>(txn->blocked_on);
  lock.waiters.erase(it);
  txn->blocked_on = -1;
  txn->lock_wait += sim_->Now() - txn->block_start_time;
  --blocked_count_;
  metrics_->blocked_track.Update(sim_->Now(), blocked_count_);
  // Removing a queue head may unblock the run behind it.
  GrantWaiters(item);
}

void LockManager::ReleaseAll(Transaction* txn) {
  for (ItemId item : txn->held_locks) {
    ItemLock& lock = locks_[item];
    auto it = std::find_if(lock.holders.begin(), lock.holders.end(),
                           [txn](const Holder& h) { return h.txn == txn; });
    ALC_CHECK(it != lock.holders.end());
    lock.holders.erase(it);
  }
  // Grant after all releases so multi-item cascades see the final state.
  // The items move to reused scratch, so the transaction keeps its list's
  // capacity and a steady-state commit allocates nothing; GrantWaiters
  // defers every proceed, so it never re-enters here mid-loop.
  released_.assign(txn->held_locks.begin(), txn->held_locks.end());
  txn->held_locks.clear();
  for (ItemId item : released_) GrantWaiters(item);
}

void LockManager::GrantWaiters(ItemId item) {
  ItemLock& lock = locks_[item];
  while (!lock.waiters.empty()) {
    Waiter& head = lock.waiters.front();
    bool compatible = true;
    for (const Holder& holder : lock.holders) {
      if (!Compatible(head.mode, holder.mode)) {
        compatible = false;
        break;
      }
    }
    if (!compatible) return;
    Transaction* txn = head.txn;
    sim::EventCell proceed = std::move(head.proceed);
    Grant(&lock, txn, head.mode);
    lock.waiters.pop_front();
    txn->blocked_on = -1;
    txn->lock_wait += sim_->Now() - txn->block_start_time;
    txn->state = TxnState::kRunning;
    --blocked_count_;
    metrics_->blocked_track.Update(sim_->Now(), blocked_count_);
    // Deferred so lock-table mutation never re-enters from the continuation.
    sim_->Schedule(0.0, std::move(proceed));
  }
}

void LockManager::AppendWaitsFor(Transaction* txn,
                                 std::vector<Transaction*>* out) const {
  if (txn->blocked_on < 0) return;
  const ItemLock& lock = locks_[static_cast<size_t>(txn->blocked_on)];
  AccessMode mode = AccessMode::kRead;
  bool found = false;
  for (const Waiter& waiter : lock.waiters) {
    if (waiter.txn == txn) {
      mode = waiter.mode;
      found = true;
      break;
    }
  }
  ALC_CHECK(found);
  for (const Holder& holder : lock.holders) {
    if (!Compatible(mode, holder.mode)) out->push_back(holder.txn);
  }
  for (const Waiter& waiter : lock.waiters) {
    if (waiter.txn == txn) break;
    if (!Compatible(mode, waiter.mode)) out->push_back(waiter.txn);
  }
}

bool LockManager::ResolveDeadlock(Transaction* start) {
  // Iterative DFS over the waits-for graph. Colors: 0 unvisited, 1 on
  // stack, 2 done. A back edge to an on-stack node closes a cycle. Visit
  // colors are epoch-stamped on the transactions and frames reference
  // spans of a shared edge pool, so the search — which runs on every
  // block — reuses all of its storage.
  ++dfs_epoch_;
  dfs_stack_.clear();
  dfs_edges_.clear();
  dfs_path_.clear();
  dfs_cycle_.clear();
  const auto color_of = [this](const Transaction* txn) {
    return txn->dfs_stamp == dfs_epoch_ ? txn->dfs_color : 0;
  };
  const auto set_color = [this](Transaction* txn, int color) {
    txn->dfs_stamp = dfs_epoch_;
    txn->dfs_color = color;
  };

  AppendWaitsFor(start, &dfs_edges_);
  dfs_stack_.push_back(DfsFrame{start, dfs_edges_.size(), 0});
  set_color(start, 1);
  dfs_path_.push_back(start);

  while (!dfs_stack_.empty() && dfs_cycle_.empty()) {
    DfsFrame& frame = dfs_stack_.back();
    if (frame.next >= frame.edges_end) {
      set_color(frame.node, 2);
      dfs_path_.pop_back();
      dfs_stack_.pop_back();
      continue;
    }
    Transaction* next = dfs_edges_[frame.next++];
    const int c = color_of(next);
    if (c == 1) {
      // Cycle: from `next` to the end of the current path.
      auto it = std::find(dfs_path_.begin(), dfs_path_.end(), next);
      ALC_CHECK(it != dfs_path_.end());
      dfs_cycle_.assign(it, dfs_path_.end());
    } else if (c == 0) {
      set_color(next, 1);
      dfs_path_.push_back(next);
      const size_t begin = dfs_edges_.size();
      AppendWaitsFor(next, &dfs_edges_);
      dfs_stack_.push_back(DfsFrame{next, dfs_edges_.size(), begin});
    }
  }
  if (dfs_cycle_.empty()) return false;

  ++deadlocks_detected_;
  // Youngest = latest attempt start (ties by larger id). All cycle members
  // are blocked, so the victim holds no scheduled events.
  Transaction* victim = dfs_cycle_.front();
  for (Transaction* candidate : dfs_cycle_) {
    if (candidate->attempt_start_time > victim->attempt_start_time ||
        (candidate->attempt_start_time == victim->attempt_start_time &&
         candidate->id > victim->id)) {
      victim = candidate;
    }
  }
  ALC_CHECK_GE(victim->blocked_on, 0);
  RemoveWaiter(victim);
  abort_hook_(victim, AbortReason::kDeadlock);
  return true;
}

int LockManager::NumHolders(ItemId item) const {
  return static_cast<int>(locks_[item].holders.size());
}

int LockManager::NumWaiters(ItemId item) const {
  return static_cast<int>(locks_[item].waiters.size());
}

}  // namespace alc::db
