#ifndef ALC_CONTROL_GATE_H_
#define ALC_CONTROL_GATE_H_

#include <cstdint>
#include <vector>

#include "db/system.h"
#include "db/transaction.h"
#include "util/ring_buffer.h"

namespace alc::control {

/// The admission gate of paper section 4.3 / figure 5: an arriving
/// transaction is admitted iff the current load n is below the threshold
/// n*; otherwise it waits in a FCFS queue and is admitted as soon as
/// n < n* holds again.
///
/// With displacement enabled, lowering the threshold below the current load
/// immediately aborts the youngest active transactions (the same victim
/// criterion as deadlock breaking) and re-queues them at the head of the
/// gate queue. The paper found admission control alone responsive enough
/// and smoother, so displacement defaults to off.
///
/// Every change to the queue or to the threshold (n* or the ramp cap) is
/// reported through the system's load observer (see
/// db::TransactionSystem::SetLoadObserver), right after it happens.
class AdmissionGate {
 public:
  /// Installs itself as the system's admission boundary.
  AdmissionGate(db::TransactionSystem* system, double initial_limit);

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Sets the threshold n*. Raising it admits queued transactions at once;
  /// lowering it displaces excess transactions if displacement is enabled.
  void SetLimit(double limit);
  double limit() const { return limit_; }

  /// Elasticity warm-up slow-start: an additional cap on top of n* while a
  /// freshly provisioned node ramps. The effective threshold is
  /// min(n*, ramp cap); the per-node controller keeps tuning n* underneath
  /// and takes over fully once the ramp clears.
  void SetRampCap(double cap);
  void ClearRampCap();
  bool ramping() const { return ramp_cap_ > 0.0; }
  /// The admission rule's actual bound: min(n*, ramp cap) while ramping.
  double effective_limit() const {
    return ramp_cap_ > 0.0 && ramp_cap_ < limit_ ? ramp_cap_ : limit_;
  }

  /// Crash freeze (managed-membership mode): a frozen gate accepts
  /// submissions into its queue but admits nothing — the node is in truth
  /// dead, yet the front-end keeps routing to it until the failure detector
  /// notices. Unfreezing re-admits per the normal rule.
  void SetFrozen(bool frozen);
  bool frozen() const { return frozen_; }

  void EnableDisplacement(bool enabled) { displacement_ = enabled; }
  bool displacement_enabled() const { return displacement_; }

  /// Cluster-level displacement hook: removes up to `max_count` queued
  /// (not yet admitted) transactions from the BACK of the queue into `out`
  /// (newest first — the oldest waiters keep their place at this node).
  /// The caller owns what happens next: a cluster front-end re-routes the
  /// retracted work to another node's gate, or releases it on a crash.
  /// Returns the number retracted. The transactions stay in state kQueued
  /// and still belong to this gate's system until the caller disposes of
  /// them (ReleaseQueued / resubmission elsewhere).
  int RetractQueued(int max_count, std::vector<db::Transaction*>* out);

  int queue_length() const { return static_cast<int>(queue_.size()); }
  uint64_t total_admitted() const { return total_admitted_; }
  uint64_t total_displaced() const { return total_displaced_; }
  uint64_t total_retracted() const { return total_retracted_; }

 private:
  void OnSubmit(db::Transaction* txn);
  void OnDeparture(db::Transaction* txn);
  void TryAdmit();
  void DisplaceExcess();
  void TrackQueue();

  db::TransactionSystem* system_;
  double limit_;
  double ramp_cap_ = 0.0;  // 0 = no ramp in effect
  bool frozen_ = false;
  bool displacement_ = false;
  /// FIFO admission queue. A RingBuffer rather than std::deque: the deque
  /// frees head blocks as the queue drains and allocates fresh tail blocks
  /// as it refills, so a steady drain/refill cycle (retraction-driven
  /// shedding pops and repopulates this queue millions of times in surge
  /// runs) allocates forever; the ring buffer reuses its capacity.
  util::RingBuffer<db::Transaction*> queue_;
  uint64_t total_admitted_ = 0;
  uint64_t total_displaced_ = 0;
  uint64_t total_retracted_ = 0;
  std::vector<db::Transaction*> displace_scratch_;  // reused per displacement
};

}  // namespace alc::control

#endif  // ALC_CONTROL_GATE_H_
