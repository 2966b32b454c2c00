#include "control/gate.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.h"

namespace alc::control {

AdmissionGate::AdmissionGate(db::TransactionSystem* system,
                             double initial_limit)
    : system_(system), limit_(initial_limit) {
  ALC_CHECK(system != nullptr);
  ALC_CHECK_GT(initial_limit, 0.0);
  system_->SetSubmissionHook([this](db::Transaction* txn) { OnSubmit(txn); });
  system_->SetDepartureHook(
      [this](db::Transaction* txn) { OnDeparture(txn); });
}

void AdmissionGate::TrackQueue() {
  system_->metrics().queued_track.Update(system_->Now(),
                                         static_cast<double>(queue_.size()));
  system_->NotifyLoadObserver();
}

void AdmissionGate::OnSubmit(db::Transaction* txn) {
  // Displaced transactions resume at the queue head (they already waited
  // once and carry done work worth restarting soon); fresh arrivals join
  // FCFS at the tail.
  if (txn->displaced) {
    queue_.push_front(txn);
  } else {
    queue_.push_back(txn);
  }
  TrackQueue();
  TryAdmit();
}

void AdmissionGate::OnDeparture(db::Transaction* txn) {
  (void)txn;
  TryAdmit();
}

void AdmissionGate::TryAdmit() {
  if (frozen_) return;
  // Paper's rule: admit iff n < n* (capped by the slow-start ramp).
  const double bound = effective_limit();
  while (!queue_.empty() &&
         static_cast<double>(system_->active()) < bound) {
    db::Transaction* next = queue_.front();
    queue_.pop_front();
    ++total_admitted_;
    TrackQueue();
    system_->Admit(next);
  }
}

int AdmissionGate::RetractQueued(int max_count,
                                 std::vector<db::Transaction*>* out) {
  int retracted = 0;
  while (retracted < max_count && !queue_.empty()) {
    out->push_back(queue_.back());
    queue_.pop_back();
    ++retracted;
    ++total_retracted_;
  }
  if (retracted > 0) TrackQueue();
  return retracted;
}

void AdmissionGate::SetLimit(double limit) {
  ALC_CHECK_GT(limit, 0.0);
  limit_ = limit;
  system_->NotifyLoadObserver();
  if (displacement_) DisplaceExcess();
  TryAdmit();
}

void AdmissionGate::SetRampCap(double cap) {
  ALC_CHECK_GT(cap, 0.0);
  ramp_cap_ = cap;
  system_->NotifyLoadObserver();
  TryAdmit();  // a ramp step only ever raises the cap
}

void AdmissionGate::ClearRampCap() {
  ramp_cap_ = 0.0;
  system_->NotifyLoadObserver();
  TryAdmit();
}

void AdmissionGate::SetFrozen(bool frozen) {
  if (frozen_ == frozen) return;
  frozen_ = frozen;
  if (!frozen_) TryAdmit();
}

void AdmissionGate::DisplaceExcess() {
  // The admission rule "admit while n < n*" has fixed point ceil(n*); use
  // the same target here so displaced transactions are not re-admitted in
  // the same control action.
  int excess =
      system_->active() - static_cast<int>(std::ceil(effective_limit()));
  if (excess <= 0) return;
  system_->CollectActive(&displace_scratch_);
  // Youngest first: latest attempt start, ties by larger id.
  std::sort(displace_scratch_.begin(), displace_scratch_.end(),
            [](const db::Transaction* a, const db::Transaction* b) {
              if (a->attempt_start_time != b->attempt_start_time) {
                return a->attempt_start_time > b->attempt_start_time;
              }
              return a->id > b->id;
            });
  for (db::Transaction* txn : displace_scratch_) {
    if (excess <= 0) break;
    system_->Displace(txn);
    ++total_displaced_;
    --excess;
  }
}

}  // namespace alc::control
