#include "db/disk.h"

#include <utility>

#include "util/check.h"

namespace alc::db {

DiskSubsystem::DiskSubsystem(sim::Simulator* sim, double service_time)
    : sim_(sim), service_time_(service_time) {
  ALC_CHECK(sim != nullptr);
  ALC_CHECK_GE(service_time, 0.0);
  lane_ = sim->AddLane();
}

void DiskSubsystem::Request(sim::EventCell done) {
  ++in_flight_;
  // this + the moved cell fits EventQueue::Cell's inline buffer exactly.
  sim_->ScheduleLane(lane_, service_time_ * stall_factor_,
                     [this, done = std::move(done)]() mutable {
    --in_flight_;
    ++completed_;
    done();
  });
}

}  // namespace alc::db
