#include "workload/session.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace alc::workload {
namespace {

// splitmix64 finalizer over (seed, salt, user): derives each user's private
// stream and affinity anchor from their identity alone, so a given user
// behaves identically across runs, node counts, and unrelated spec edits.
// Multiplicative mixing (not additive) keeps streams decorrelated even for
// adjacent user ids; same construction as core's DecorrelatedNodeSeed.
uint64_t MixUserSeed(uint64_t seed, uint64_t salt, uint64_t user) {
  uint64_t z = seed ^ salt ^ (0x9e3779b97f4a7c15ULL * (user + 1));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr uint64_t kSessionArrivalSalt = 0x7b14cf0a9d6431e5ULL;
constexpr uint64_t kUserStreamSalt = 0x3f84d5b5b5470917ULL;
constexpr uint64_t kAffinitySalt = 0x94d049bb133111ebULL;

}  // namespace

SessionWorkload::SessionWorkload(Mode mode, const WorkloadSpec& spec,
                                 uint64_t seed)
    : mode_(mode),
      spec_(spec),
      seed_(seed),
      arrival_rng_(seed ^ kSessionArrivalSalt) {
  ALC_CHECK_GE(spec.population, 1u);
  ALC_CHECK_GE(spec.sessions, 1);
  ALC_CHECK_GE(spec.affinity, 0.0);
  ALC_CHECK_LE(spec.affinity, 1.0);
  ALC_CHECK_GE(spec.affinity_keys, 1);
}

void SessionWorkload::Start(sim::Simulator* sim, WorkloadHost* host) {
  ALC_CHECK(sim != nullptr);
  ALC_CHECK(host != nullptr);
  sim_ = sim;
  host_ = host;
  if (mode_ == Mode::kClosed) {
    // A fixed population of forever-cycling terminals. Each starts with a
    // think draw from its own stream so requests stagger instead of
    // synchronizing at t=0.
    for (int i = 0; i < spec_.sessions; ++i) {
      const int32_t slot = AcquireSlot();
      InitSession(slot, static_cast<uint64_t>(i));
      pool_[slot].remaining = std::numeric_limits<int64_t>::max();
      ScheduleThink(slot);
    }
  } else {
    ScheduleNextSessionArrival();
  }
}

void SessionWorkload::ScheduleNextSessionArrival() {
  const double rate = std::max(spec_.session_rate.Value(sim_->Now()), 1e-9);
  sim_->Schedule(arrival_rng_.NextExponential(1.0 / rate),
                 [this] { BeginHybridSession(); });
}

void SessionWorkload::BeginHybridSession() {
  // Reschedule first: the session arrival process is open-loop, blind to
  // what existing sessions or the cluster are doing.
  ScheduleNextSessionArrival();
  const uint64_t user = arrival_rng_.NextUint64(spec_.population);
  const int32_t slot = AcquireSlot();
  InitSession(slot, user);
  Session& s = pool_[slot];
  s.remaining = std::max<int64_t>(
      1, std::llround(spec_.txns_per_session.Sample(&s.rng)));
  IssueRequest(slot);
}

int32_t SessionWorkload::AcquireSlot() {
  if (!free_slots_.empty()) {
    const int32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const int32_t slot = static_cast<int32_t>(pool_.size());
  pool_.emplace_back();
  // The free list never holds more than every slot; growing its capacity
  // geometrically keeps each new pool high-water mark allocation-free.
  if (free_slots_.capacity() < pool_.size()) {
    free_slots_.reserve(2 * pool_.size());
  }
  return slot;
}

void SessionWorkload::InitSession(int32_t slot, uint64_t user) {
  Session& s = pool_[slot];
  s.rng = sim::RandomStream(MixUserSeed(seed_, kUserStreamSalt, user));
  s.user = user;
  s.remaining = 0;
  s.start_time = sim_->Now();
  s.affinity_start = 0;
  s.affinity_size = 0;
  const uint32_t keyspace = host_->keyspace();
  if (keyspace > 0 && spec_.affinity > 0.0) {
    const uint32_t size =
        std::min<uint32_t>(static_cast<uint32_t>(spec_.affinity_keys),
                           keyspace);
    const uint32_t span = keyspace - size + 1;
    s.affinity_start = static_cast<uint32_t>(
        MixUserSeed(seed_, kAffinitySalt, user) % span);
    s.affinity_size = size;
  }
  ++sessions_started_;
  active_sessions_ += 1.0;
  if (trace_ != nullptr) {
    trace_->Counter("workload.active_sessions",
                    telemetry::TraceRecorder::kClusterPid, sim_->Now(),
                    active_sessions_);
  }
}

void SessionWorkload::IssueRequest(int32_t slot) {
  const Session& s = pool_[slot];
  Arrival arrival;
  arrival.session = slot;
  arrival.affinity = spec_.affinity;
  arrival.affinity_start = s.affinity_start;
  arrival.affinity_size = s.affinity_size;
  host_->SubmitArrival(arrival);
}

void SessionWorkload::ScheduleThink(int32_t slot) {
  Session& s = pool_[slot];
  const double think = std::max(0.0, spec_.think_time.Sample(&s.rng));
  sim_->Schedule(think, [this, slot] { IssueRequest(slot); });
}

void SessionWorkload::OnComplete(int32_t session, double response, bool ok) {
  ALC_CHECK_GE(session, 0);
  ALC_CHECK_LT(static_cast<size_t>(session), pool_.size());
  if (ok) {
    ++requests_ok_;
    response_hist_.Add(response);
  } else {
    ++requests_failed_;
  }
  Session& s = pool_[session];
  if (s.remaining != std::numeric_limits<int64_t>::max()) --s.remaining;
  if (s.remaining <= 0) {
    EndSession(session);
  } else {
    ScheduleThink(session);
  }
}

void SessionWorkload::EndSession(int32_t slot) {
  Session& s = pool_[slot];
  ++sessions_completed_;
  active_sessions_ -= 1.0;
  session_duration_hist_.Add(sim_->Now() - s.start_time);
  if (trace_ != nullptr) {
    trace_->Counter("workload.active_sessions",
                    telemetry::TraceRecorder::kClusterPid, sim_->Now(),
                    active_sessions_);
    trace_->Instant("session_end", telemetry::TraceRecorder::kClusterPid,
                    sim_->Now(), "requests",
                    static_cast<double>(sessions_completed_));
  }
  free_slots_.push_back(slot);
}

void SessionWorkload::RegisterMetrics(telemetry::MetricRegistry* registry,
                                      const std::string& prefix) {
  registry->LinkGauge(prefix + "active_sessions", &active_sessions_);
  registry->LinkCounter(prefix + "sessions_started", &sessions_started_);
  registry->LinkCounter(prefix + "sessions_completed", &sessions_completed_);
  registry->LinkCounter(prefix + "requests_ok", &requests_ok_);
  registry->LinkCounter(prefix + "requests_failed", &requests_failed_);
  registry->LinkHistogram(prefix + "session_response", &response_hist_);
  registry->LinkHistogram(prefix + "session_duration",
                          &session_duration_hist_);
}

void SessionWorkload::SetTraceRecorder(telemetry::TraceRecorder* trace) {
  trace_ = trace;
}

}  // namespace alc::workload
