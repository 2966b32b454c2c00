#include "db/cpu.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace alc::db {

CpuSubsystem::CpuSubsystem(sim::Simulator* sim, int num_processors,
                           Schedule speed)
    : sim_(sim), num_processors_(num_processors), speed_(std::move(speed)) {
  ALC_CHECK(sim != nullptr);
  ALC_CHECK_GT(num_processors, 0);
}

void CpuSubsystem::Request(double service_time, sim::EventCell done) {
  ALC_CHECK_GE(service_time, 0.0);
  if (busy_ < num_processors_) {
    StartService(service_time, std::move(done));
  } else {
    queue_.push_back(Pending{service_time, std::move(done)});
  }
}

void CpuSubsystem::StartService(double service_time, sim::EventCell done) {
  busy_time_accum_ += busy_ * (sim_->Now() - busy_since_);
  busy_since_ = sim_->Now();
  ++busy_;
  const double speed =
      std::max(speed_.Value(sim_->Now()) * speed_factor_, 1e-6);
  // this + the moved cell is exactly EventQueue::Cell's inline capacity, so
  // the completion event carries the continuation without allocating.
  sim_->Schedule(service_time / speed,
                 [this, done = std::move(done)]() mutable {
                   OnServiceComplete(std::move(done));
                 });
}

void CpuSubsystem::OnServiceComplete(sim::EventCell done) {
  busy_time_accum_ += busy_ * (sim_->Now() - busy_since_);
  busy_since_ = sim_->Now();
  --busy_;
  ++completed_;
  if (!queue_.empty()) {
    Pending next = std::move(queue_.front());
    queue_.pop_front();
    StartService(next.service_time, std::move(next.done));
  }
  done();  // last: may re-enter Request and take the freed processor
}

double CpuSubsystem::busy_time() const {
  return busy_time_accum_ + busy_ * (sim_->Now() - busy_since_);
}

double CpuSubsystem::Utilization() const {
  const double now = sim_->Now();
  if (now <= 0.0) return 0.0;
  return busy_time() / (now * num_processors_);
}

}  // namespace alc::db
