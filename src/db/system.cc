#include "db/system.h"

#include <cmath>
#include <utility>

#include "db/occ.h"
#include "util/check.h"

namespace alc::db {
namespace {

/// Chrome-trace thread lane for a transaction: closed-mode work keeps its
/// terminal's lane; pooled (open/external) work folds onto a bounded set of
/// lanes by id so the viewer stays navigable.
int64_t TraceTid(const Transaction* txn) {
  return txn->terminal_id >= 0 ? txn->terminal_id
                               : static_cast<int64_t>(txn->id % 256);
}

}  // namespace

TransactionSystem::TransactionSystem(sim::Simulator* sim,
                                     const SystemConfig& config)
    : sim_(sim),
      config_(config),
      active_terminals_(Schedule::Constant(config.physical.num_terminals)),
      arrival_rate_(Schedule::Constant(config.open_arrival_rate)),
      think_rng_(config.seed),
      class_rng_(config.seed + 0x9e3779b97f4a7c15ULL),
      service_rng_(config.seed + 0x3c6ef372fe94f82aULL),
      restart_rng_(config.seed + 0x78dde6e5fd29f045ULL),
      database_(config.logical.db_size),
      access_gen_(&config_.logical, sim::RandomStream(config.seed ^ 0xa5a5a5a5a5a5a5a5ULL)),
      cpu_(sim, config.physical.num_cpus, config.cpu_speed),
      disk_(sim, config.physical.io_time) {
  ALC_CHECK(sim != nullptr);
  ALC_CHECK_GT(config.physical.num_terminals, 0);
  metrics_.record_history = config.record_history;
  remote_lane_ = sim->AddLane();

  if (config_.cc == CcScheme::kTwoPhaseLocking) {
    auto lm = std::make_unique<LockManager>(&database_, &metrics_, sim_);
    lm->SetAbortHook([this](Transaction* txn, AbortReason reason) {
      AbortAttempt(txn, reason);
    });
    lock_manager_ = lm.get();
    cc_ = std::move(lm);
  } else {
    cc_ = std::make_unique<TimestampCertifier>(&database_, &metrics_);
  }

  if (config_.arrivals == ArrivalMode::kClosed) {
    transactions_.resize(config.physical.num_terminals);
    for (int i = 0; i < config.physical.num_terminals; ++i) {
      transactions_[i].terminal_id = i;
    }
  }

  on_submit_ = [this](Transaction* txn) { Admit(txn); };
  on_departure_ = [](Transaction*) {};

  metrics_.active_track.Start(0.0, 0.0);
  metrics_.blocked_track.Start(0.0, 0.0);
  metrics_.queued_track.Start(0.0, 0.0);
}

void TransactionSystem::SetSubmissionHook(
    std::function<void(Transaction*)> on_submit) {
  ALC_CHECK(on_submit != nullptr);
  on_submit_ = std::move(on_submit);
}

void TransactionSystem::SetDepartureHook(
    std::function<void(Transaction*)> on_departure) {
  ALC_CHECK(on_departure != nullptr);
  on_departure_ = std::move(on_departure);
}

void TransactionSystem::SetSessionHook(
    std::function<void(int32_t, double, bool)> on_done) {
  ALC_CHECK(on_done != nullptr);
  on_session_done_ = std::move(on_done);
}

void TransactionSystem::SetLoadObserver(LoadObserver observer,
                                        void* context) {
  load_observer_ = observer;
  load_context_ = context;
}

void TransactionSystem::SetTraceRecorder(telemetry::TraceRecorder* recorder,
                                         int pid) {
  trace_ = recorder;
  trace_pid_ = pid;
}

void TransactionSystem::SetActiveTerminalsSchedule(Schedule schedule) {
  ALC_CHECK(!started_);
  active_terminals_ = std::move(schedule);
}

void TransactionSystem::SetArrivalRateSchedule(Schedule schedule) {
  ALC_CHECK(!started_);
  arrival_rate_ = std::move(schedule);
}

void TransactionSystem::Start() {
  ALC_CHECK(!started_);
  started_ = true;
  if (config_.arrivals == ArrivalMode::kOpen) {
    ScheduleNextArrival();
    return;
  }
  if (config_.arrivals == ArrivalMode::kExternal) return;
  for (int i = 0; i < config_.physical.num_terminals; ++i) {
    ScheduleThink(i);
  }
}

void TransactionSystem::SubmitExternal(int32_t session, int retry_count) {
  ALC_CHECK(started_);
  ALC_CHECK(config_.arrivals == ArrivalMode::kExternal);
  Transaction* txn = AcquireFromPool();
  SetupNewWork(txn);
  // Safe to tag after the submission hook: no phase completes
  // synchronously, so the slot cannot have reached the session hook yet.
  txn->session = session;
  txn->retry_count = retry_count;
}

void TransactionSystem::SubmitExternalPlanned(
    TxnClass cls, const std::vector<ItemId>& items,
    const std::vector<AccessMode>& modes,
    const std::vector<uint8_t>& remote, int32_t session, int retry_count) {
  ALC_CHECK(started_);
  ALC_CHECK(config_.arrivals == ArrivalMode::kExternal);
  ALC_CHECK(!items.empty());
  ALC_CHECK_EQ(items.size(), modes.size());
  ALC_CHECK_EQ(items.size(), remote.size());
  for (const ItemId item : items) {
    // CC metadata is indexed by item id; an out-of-range key would corrupt
    // the heap, so the global keyspace must fit this node's database.
    ALC_CHECK_LT(item, database_.size());
  }
  Transaction* txn = AcquireFromPool();
  InitSubmission(txn);
  txn->cls = cls;
  txn->k = static_cast<int>(items.size());
  txn->preplanned = true;
  txn->planned_items = items;
  txn->planned_modes = modes;
  txn->planned_remote = remote;
  txn->session = session;
  txn->retry_count = retry_count;
  ++metrics_.counters.submitted;
  on_submit_(txn);
}

void TransactionSystem::InitSubmission(Transaction* txn) {
  txn->id = next_txn_id_++;
  txn->first_submit_time = sim_->Now();
  txn->queue_enter_time = txn->first_submit_time;
  txn->gate_wait = 0.0;
  txn->lock_wait = 0.0;
  txn->cpu_wall = 0.0;
  txn->disk_wall = 0.0;
  txn->commit_wall = 0.0;
  txn->attempts = 0;
  txn->doomed = false;
  txn->displaced = false;
  txn->killed = false;
  txn->state = TxnState::kQueued;
  txn->ResetAttempt();
  // Pool slots are reused across submission paths: a slot that last
  // carried an externally planned transaction must not replay its plan.
  txn->preplanned = false;
  txn->planned_items.clear();
  txn->planned_modes.clear();
  txn->planned_remote.clear();
  // Likewise a recycled slot must not report to a previous session.
  txn->session = -1;
  txn->retry_count = 0;
}

void TransactionSystem::ScheduleNextArrival() {
  // Poisson process with a (slowly) time-varying rate: the next gap is
  // drawn at the current rate. Exact for constant rates; for schedules the
  // approximation error is one inter-arrival time of lag.
  const double rate = std::max(arrival_rate_.Value(sim_->Now()), 1e-9);
  sim_->Schedule(think_rng_.NextExponential(1.0 / rate),
                 [this] { SubmitFromArrival(); });
}

Transaction* TransactionSystem::AcquireFromPool() {
  if (!free_pool_.empty()) {
    Transaction* txn = free_pool_.back();
    free_pool_.pop_back();
    return txn;
  }
  transactions_.emplace_back();
  transactions_.back().terminal_id = -1;
  // The free list never holds more than every slot: growing its capacity
  // with the pool keeps the pushes that recycle slots allocation-free.
  if (free_pool_.capacity() < transactions_.size()) {
    free_pool_.reserve(2 * transactions_.size());
  }
  return &transactions_.back();
}

void TransactionSystem::SubmitFromArrival() {
  ScheduleNextArrival();
  Transaction* txn = AcquireFromPool();
  SetupNewWork(txn);
}

void TransactionSystem::ScheduleThink(int terminal_id) {
  transactions_[terminal_id].state = TxnState::kThinking;
  const double think =
      think_rng_.NextExponential(config_.physical.think_time_mean);
  sim_->Schedule(think, [this, terminal_id] { SubmitFromTerminal(terminal_id); });
}

void TransactionSystem::SubmitFromTerminal(int terminal_id) {
  // Terminals beyond the scheduled participation count stay dormant and
  // poll again after a think time (models operators joining/leaving).
  const double quota = active_terminals_.Value(sim_->Now());
  if (terminal_id >= static_cast<int>(std::lround(quota))) {
    ScheduleThink(terminal_id);
    return;
  }
  SetupNewWork(&transactions_[terminal_id]);
}

void TransactionSystem::SetupNewWork(Transaction* txn) {
  const double now = sim_->Now();
  InitSubmission(txn);
  txn->cls = class_rng_.NextBernoulli(config_.dynamics.QueryFractionAt(now))
                 ? TxnClass::kQuery
                 : TxnClass::kUpdater;
  txn->k = config_.dynamics.KAt(now, database_.size());
  ++metrics_.counters.submitted;
  on_submit_(txn);
}

void TransactionSystem::SetActive(int delta) {
  active_ += delta;
  ALC_CHECK_GE(active_, 0);
  metrics_.active_track.Update(sim_->Now(), active_);
  NotifyLoadObserver();
}

void TransactionSystem::Admit(Transaction* txn) {
  ALC_CHECK(txn->state == TxnState::kQueued);
  txn->admit_time = sim_->Now();
  const double waited = txn->admit_time - txn->queue_enter_time;
  txn->gate_wait += waited;
  if (trace_ != nullptr && waited > 0.0) {
    trace_->Complete("gate_wait", trace_pid_, TraceTid(txn),
                     txn->queue_enter_time, waited);
  }
  txn->displaced = false;
  SetActive(+1);
  StartAttempt(txn);
}

void TransactionSystem::StartAttempt(Transaction* txn) {
  const double now = sim_->Now();
  ++txn->attempts;
  txn->attempt_start_time = now;
  txn->state = TxnState::kRunning;
  txn->doomed = false;
  txn->restart_event = sim::EventHandle{};

  if (txn->preplanned) {
    // Externally planned work replays the front-end's plan on every attempt
    // (displacement cleared access_items via ResetAttempt; restarts must
    // not resample — the remote flags belong to exactly this item set).
    txn->access_items = txn->planned_items;
    txn->access_modes = txn->planned_modes;
  } else if (txn->access_items.empty() || config_.logical.resample_on_restart) {
    // k is re-read on resample so long-running re-submissions follow the
    // workload schedules; non-resampled restarts keep their original plan.
    txn->k = config_.dynamics.KAt(now, database_.size());
    access_gen_.PlanAccesses(txn, database_.size(), txn->k,
                             config_.dynamics.WriteFractionAt(now));
  }
  txn->read_set.clear();
  txn->write_set.clear();
  // One reservation instead of a doubling chain on a slot's first use;
  // no-op on warmed slots.
  txn->read_set.reserve(txn->access_items.size());
  txn->write_set.reserve(txn->access_items.size());
  txn->attempt_cpu = 0.0;
  txn->phase = 0;

  cc_->OnAttemptStart(txn);

  // Phase 0: initialization (CPU burst + one I/O). The phase_stamp deltas
  // split the wall clock between the CPU and disk stations.
  txn->phase_stamp = now;
  const double service = DrawCpu(txn, config_.physical.cpu_init_mean);
  cpu_.Request(service, [this, txn] {
    const double t = sim_->Now();
    txn->cpu_wall += t - txn->phase_stamp;
    txn->phase_stamp = t;
    disk_.Request([this, txn] {
      txn->disk_wall += sim_->Now() - txn->phase_stamp;
      RunAccessPhase(txn, 0);
    });
  });
}

double TransactionSystem::DrawCpu(Transaction* txn, double mean) {
  double service;
  switch (config_.physical.cpu_distribution) {
    case ServiceDistribution::kDeterministic:
      service = mean;
      break;
    case ServiceDistribution::kErlang2:
      service = 0.5 * (service_rng_.NextExponential(mean) +
                       service_rng_.NextExponential(mean));
      break;
    case ServiceDistribution::kExponential:
    default:
      service = service_rng_.NextExponential(mean);
      break;
  }
  txn->attempt_cpu += service;
  return service;
}

void TransactionSystem::RunAccessPhase(Transaction* txn, int index) {
  if (txn->doomed) {
    AbortForDisplacement(txn);
    return;
  }
  txn->phase = index + 1;
  cc_->RequestAccess(txn, index, [this, txn, index] {
    if (txn->doomed) {
      AbortForDisplacement(txn);
      return;
    }
    txn->state = TxnState::kRunning;
    txn->phase_stamp = sim_->Now();
    double service = DrawCpu(txn, config_.physical.cpu_access_mean);
    const bool remote = RemoteAt(txn, index);
    if (remote && config_.remote.cpu_penalty > 0.0) {
      // Deterministic surcharge for fetching the granule from its replica
      // (marshalling + protocol CPU), charged to the attempt like any
      // other burst so wasted-work accounting stays consistent.
      service += config_.remote.cpu_penalty;
      txn->attempt_cpu += config_.remote.cpu_penalty;
    }
    cpu_.Request(service, [this, txn, index, remote] {
      const double t = sim_->Now();
      txn->cpu_wall += t - txn->phase_stamp;
      txn->phase_stamp = t;
      if (remote && config_.remote.latency > 0.0) {
        // Network round trip to the remote replica before the local I/O
        // (the round trip lands in disk_wall together with the I/O).
        sim_->ScheduleLane(remote_lane_, config_.remote.latency,
                           [this, txn, index] {
          disk_.Request([this, txn, index] {
            txn->disk_wall += sim_->Now() - txn->phase_stamp;
            CompleteAccess(txn, index);
          });
        });
        return;
      }
      disk_.Request([this, txn, index] {
        txn->disk_wall += sim_->Now() - txn->phase_stamp;
        CompleteAccess(txn, index);
      });
    });
  });
}

bool TransactionSystem::RemoteAt(const Transaction* txn, int index) const {
  return txn->preplanned &&
         index < static_cast<int>(txn->planned_remote.size()) &&
         txn->planned_remote[index] != 0;
}

void TransactionSystem::CompleteAccess(Transaction* txn, int index) {
  const ItemId item = txn->access_items[index];
  if (RemoteAt(txn, index)) {
    ++metrics_.counters.remote_accesses;
  } else {
    ++metrics_.counters.local_accesses;
  }
  txn->read_set.push_back(item);
  if (txn->access_modes[index] == AccessMode::kWrite) {
    txn->write_set.push_back(item);
  }
  if (index + 1 < static_cast<int>(txn->access_items.size())) {
    RunAccessPhase(txn, index + 1);
  } else {
    RunCommitPhase(txn);
  }
}

void TransactionSystem::RunCommitPhase(Transaction* txn) {
  if (txn->doomed) {
    AbortForDisplacement(txn);
    return;
  }
  txn->phase = txn->k + 1;
  // Commit processing: fixed bookkeeping plus install/log work per written
  // item (queries commit cheaply, heavy updaters expensively).
  txn->phase_stamp = sim_->Now();
  double service = DrawCpu(txn, config_.physical.cpu_commit_mean);
  for (size_t i = 0; i < txn->write_set.size(); ++i) {
    service += DrawCpu(txn, config_.physical.cpu_write_commit_mean);
  }
  cpu_.Request(service, [this, txn] {
    disk_.Request([this, txn] {
      txn->commit_wall += sim_->Now() - txn->phase_stamp;
      Finalize(txn);
    });
  });
}

void TransactionSystem::Finalize(Transaction* txn) {
  if (txn->doomed) {
    AbortForDisplacement(txn);
    return;
  }
  if (cc_->CertifyCommit(txn)) {
    Commit(txn);
  } else {
    AbortAttempt(txn, AbortReason::kCertificationFailure);
  }
}

void TransactionSystem::Commit(Transaction* txn) {
  const double now = sim_->Now();
  cc_->OnCommit(txn);
  ++metrics_.counters.commits;
  const double response = now - txn->first_submit_time;
  metrics_.counters.response_time_sum += response;
  metrics_.response_times.Add(response);
  metrics_.attempts_per_commit.Add(txn->attempts);
  metrics_.counters.useful_cpu += txn->attempt_cpu;
  metrics_.RecordResponse(response);
  if (config_.telemetry.per_phase) {
    auto& phases = metrics_.phase_hists;
    phases[static_cast<size_t>(telemetry::Phase::kGateWait)].Add(
        txn->gate_wait);
    phases[static_cast<size_t>(telemetry::Phase::kLockWait)].Add(
        txn->lock_wait);
    phases[static_cast<size_t>(telemetry::Phase::kCpu)].Add(txn->cpu_wall);
    phases[static_cast<size_t>(telemetry::Phase::kDisk)].Add(txn->disk_wall);
    phases[static_cast<size_t>(telemetry::Phase::kCommit)].Add(
        txn->commit_wall);
  }
  if (trace_ != nullptr) {
    trace_->Complete("txn", trace_pid_, TraceTid(txn),
                     txn->first_submit_time, response, "attempts",
                     static_cast<double>(txn->attempts));
  }
  SetActive(-1);
  txn->state = TxnState::kThinking;
  on_departure_(txn);
  if (config_.arrivals == ArrivalMode::kClosed) {
    ScheduleThink(txn->terminal_id);
  } else {
    // Open/external systems: committed work leaves; the slot returns to
    // the pool.
    free_pool_.push_back(txn);
    // After the departure hook so the freed admission slot is refilled
    // before the session schedules its next think.
    if (txn->session >= 0 && on_session_done_) {
      on_session_done_(txn->session, response, true);
    }
  }
}

void TransactionSystem::AbortAttempt(Transaction* txn, AbortReason reason) {
  cc_->OnAbort(txn);
  metrics_.counters.wasted_cpu += txn->attempt_cpu;
  switch (reason) {
    case AbortReason::kCertificationFailure:
      ++metrics_.counters.aborts_certification;
      break;
    case AbortReason::kDeadlock:
      ++metrics_.counters.aborts_deadlock;
      break;
    case AbortReason::kDisplacement:
      ++metrics_.counters.aborts_displacement;
      break;
  }
  if (trace_ != nullptr) {
    const char* name = reason == AbortReason::kCertificationFailure
                           ? "abort_certification"
                           : reason == AbortReason::kDeadlock
                                 ? "abort_deadlock"
                                 : "displace";
    trace_->Instant(name, trace_pid_, sim_->Now());
  }
  if (reason == AbortReason::kDisplacement) {
    // Leaves the admitted set and re-queues at the gate.
    SetActive(-1);
    txn->state = TxnState::kQueued;
    txn->displaced = true;
    txn->doomed = false;
    txn->queue_enter_time = sim_->Now();
    txn->ResetAttempt();
    on_submit_(txn);
    return;
  }
  // Certification / deadlock: stays part of the load and reruns after an
  // exponential restart delay.
  txn->state = TxnState::kRestartWait;
  const double delay =
      restart_rng_.NextExponential(config_.physical.restart_delay_mean);
  txn->restart_event = sim_->Schedule(delay, [this, txn] { StartAttempt(txn); });
}

void TransactionSystem::AbortForDisplacement(Transaction* txn) {
  // A crash outranks a displacement: a doomed transaction on a crashed
  // node terminates here instead of re-queueing at the (dead) gate.
  if (txn->killed) {
    FinishKill(txn);
    return;
  }
  AbortAttempt(txn, AbortReason::kDisplacement);
}

void TransactionSystem::Displace(Transaction* txn) {
  ALC_CHECK(txn->state == TxnState::kRunning ||
            txn->state == TxnState::kBlocked ||
            txn->state == TxnState::kRestartWait);
  switch (txn->state) {
    case TxnState::kBlocked:
      // Safe to abort immediately: a blocked transaction has no scheduled
      // events, only a lock-queue entry.
      cc_->CancelWaiting(txn);
      AbortAttempt(txn, AbortReason::kDisplacement);
      break;
    case TxnState::kRestartWait:
      ALC_CHECK(sim_->Cancel(txn->restart_event));
      AbortAttempt(txn, AbortReason::kDisplacement);
      break;
    case TxnState::kRunning:
      // Mid CPU/IO: aborts at the next phase boundary. The residual phase
      // work is part of the cost of displacement (paper section 4.3 notes
      // aborts waste resources).
      txn->doomed = true;
      break;
    default:
      break;
  }
}

int TransactionSystem::CrashActive() {
  ALC_CHECK(config_.arrivals == ArrivalMode::kExternal);
  int killed = 0;
  for (Transaction& txn : transactions_) {
    switch (txn.state) {
      case TxnState::kBlocked:
        cc_->CancelWaiting(&txn);
        FinishKill(&txn);
        ++killed;
        break;
      case TxnState::kRestartWait:
        ALC_CHECK(sim_->Cancel(txn.restart_event));
        FinishKill(&txn);
        ++killed;
        break;
      case TxnState::kRunning:
        // Mid CPU/IO: the pending completion callback still references this
        // slot, so the kill lands at the next phase boundary (see the
        // doomed checks there) and the slot is recycled only then. A slot
        // already killed by an earlier crash (still winding down) is not
        // counted twice.
        if (!txn.killed) {
          txn.doomed = true;
          txn.killed = true;
          ++killed;
        }
        break;
      default:
        break;
    }
  }
  return killed;
}

void TransactionSystem::FinishKill(Transaction* txn) {
  cc_->OnAbort(txn);
  ++metrics_.counters.crash_kills;
  if (trace_ != nullptr) {
    trace_->Instant("crash_kill", trace_pid_, sim_->Now());
  }
  metrics_.counters.wasted_cpu += txn->attempt_cpu;
  SetActive(-1);
  txn->state = TxnState::kThinking;
  txn->doomed = false;
  txn->killed = false;
  // No departure hook: the admission slot that opened up belongs to a dead
  // node; the gate queue was already retracted or dropped by the caller.
  free_pool_.push_back(txn);
  // The session's request is terminally gone on this node; report the
  // failure so a closed-loop source can move on (any cluster-level retry
  // re-enters untagged).
  if (txn->session >= 0 && on_session_done_) {
    on_session_done_(txn->session, sim_->Now() - txn->first_submit_time,
                     false);
  }
}

void TransactionSystem::ReleaseQueued(Transaction* txn) {
  ALC_CHECK(config_.arrivals == ArrivalMode::kExternal);
  ALC_CHECK(txn->state == TxnState::kQueued);
  ++metrics_.counters.retracted;
  if (trace_ != nullptr) {
    trace_->Instant("retract", trace_pid_, sim_->Now());
  }
  txn->state = TxnState::kThinking;
  txn->displaced = false;
  free_pool_.push_back(txn);
}

void TransactionSystem::CollectActive(std::vector<Transaction*>* out) {
  out->clear();
  for (Transaction& txn : transactions_) {
    if (txn.state == TxnState::kRunning || txn.state == TxnState::kBlocked ||
        txn.state == TxnState::kRestartWait) {
      if (!txn.doomed) out->push_back(&txn);
    }
  }
}

int TransactionSystem::CountThinking() const {
  int thinking = 0;
  for (const Transaction& txn : transactions_) {
    if (txn.state == TxnState::kThinking) ++thinking;
  }
  return thinking;
}

}  // namespace alc::db
