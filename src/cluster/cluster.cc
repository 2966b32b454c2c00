#include "cluster/cluster.h"

#include <algorithm>
#include <climits>
#include <string>
#include <utility>

#include "telemetry/audit.h"
#include "telemetry/registry.h"
#include "util/check.h"
#include "util/logging.h"

namespace alc::cluster {

namespace {

db::SystemConfig Externalize(db::SystemConfig config) {
  config.arrivals = db::ArrivalMode::kExternal;
  return config;
}

}  // namespace

ClusterNode::ClusterNode(sim::Simulator* sim, const NodeConfig& config)
    : system_(sim, Externalize(config.system)),
      gate_(&system_, config.initial_limit) {
  gate_.EnableDisplacement(config.displacement);
}

NodeView ClusterNode::View() const {
  NodeView view;
  view.active = system_.active();
  view.gate_queue = gate_.queue_length();
  // During elasticity slow-start the ramp cap is the bound that actually
  // admits, so it is what the router (and the retraction scanner) should
  // see as n*. Identical to limit() outside a ramp.
  view.limit = gate_.effective_limit();
  return view;
}

void ClusterNode::PublishTo(NodeView* slot) {
  published_ = slot;
  *published_ = View();
  system_.SetLoadObserver(
      [](void* self) {
        const auto* node = static_cast<const ClusterNode*>(self);
        *node->published_ = node->View();
      },
      this);
}

Cluster::Cluster(sim::Simulator* sim, const std::vector<NodeConfig>& nodes,
                 std::unique_ptr<RoutingPolicy> policy, uint64_t seed)
    : sim_(sim),
      configs_(nodes),
      policy_(std::move(policy)),
      seed_(seed),
      views_(nodes.size()),
      routed_(nodes.size(), 0),
      truth_down_(nodes.size(), 0),
      truth_down_since_(nodes.size(), 0.0),
      retry_rng_(seed ^ 0x9b05688c2b3e6c1fULL),
      shed_rng_(seed ^ 0x510e527fade682d1ULL),
      crash_kills_(nodes.size(), 0),
      retracted_(nodes.size(), 0),
      lost_(nodes.size(), 0),
      plan_class_rng_(seed ^ 0x6a09e667f3bcc909ULL) {
  ALC_CHECK(sim != nullptr);
  ALC_CHECK(policy_ != nullptr);
  ALC_CHECK(!nodes.empty());
  nodes_.reserve(nodes.size());
  states_.reserve(nodes.size());
  for (const NodeConfig& node : nodes) {
    nodes_.push_back(std::make_unique<ClusterNode>(sim, node));
    nodes_.back()->PublishTo(&views_[nodes_.size() - 1]);
    states_.push_back(node.availability.initial_state());
    if (!node.availability.always_up()) lifecycle_active_ = true;
  }
  RebuildLive();
}

void Cluster::SetArrivalRateSchedule(db::Schedule schedule) {
  ALC_CHECK(!started_);
  arrival_rate_ = std::move(schedule);
}

void Cluster::SetWorkloadSource(
    std::unique_ptr<workload::WorkloadSource> source) {
  ALC_CHECK(!started_);
  ALC_CHECK(source != nullptr);
  source_ = std::move(source);
}

uint32_t Cluster::keyspace() const {
  return catalog_ != nullptr ? placement_spec_.workload.db_size : 0;
}

void Cluster::SetRetraction(const RetractionConfig& config) {
  ALC_CHECK(!started_);
  ALC_CHECK_GE(config.queue_factor, 0.0);
  if (config.queue_factor > 0.0) ALC_CHECK_GT(config.check_interval, 0.0);
  retraction_ = config;
}

void Cluster::SetRetry(const RetryConfig& config) {
  ALC_CHECK(!started_);
  if (config.enabled) {
    ALC_CHECK_GE(config.budget, 0);
    ALC_CHECK_GT(config.backoff_base, 0.0);
    ALC_CHECK_GE(config.backoff_factor, 1.0);
    ALC_CHECK_GE(config.backoff_max, config.backoff_base);
    ALC_CHECK_GE(config.jitter, 0.0);
    ALC_CHECK_LE(config.jitter, 1.0);
  }
  retry_ = config;
}

void Cluster::SetDegrade(const DegradeConfig& config) {
  ALC_CHECK(!started_);
  if (config.enabled) {
    ALC_CHECK_GT(config.interval, 0.0);
    ALC_CHECK_GT(config.shed_query, 0.0);
    ALC_CHECK_GE(config.shed_update, config.shed_query);
    ALC_CHECK_GT(config.restore_hysteresis, 0.0);
    ALC_CHECK_LE(config.restore_hysteresis, 1.0);
  }
  degrade_ = config;
}

void Cluster::SetLifecycleListener(LifecycleListener listener) {
  ALC_CHECK(!started_);
  listener_ = std::move(listener);
}

void Cluster::SetManagedMembership(bool managed) {
  ALC_CHECK(!started_);
  managed_ = managed;
}

void Cluster::SetNodeStandby(int node) {
  ALC_CHECK(!started_);
  ALC_CHECK_GE(node, 0);
  ALC_CHECK_LT(node, size());
  states_[node] = NodeState::kStandby;
  lifecycle_active_ = true;
  RebuildLive();
}

void Cluster::ForceTransition(int node, NodeState to) {
  ALC_CHECK_GE(node, 0);
  ALC_CHECK_LT(node, size());
  ApplyTransition(node, to);
}

void Cluster::InjectTruth(int node, NodeState to) {
  ALC_CHECK(managed_);
  switch (to) {
    case NodeState::kDown: {
      if (truth_down_[node] != 0) return;
      // The node is dead as of now — but only ground truth knows. Its gate
      // freezes (arrivals keep piling up behind a dead connection), its
      // in-flight work dies, and the membership stays put until the
      // failure detector declares it.
      truth_down_[node] = 1;
      truth_down_since_[node] = sim_->Now();
      nodes_[node]->gate().SetFrozen(true);
      const int killed = KillInFlight(node);
      if (trace_ != nullptr) trace_->Instant("node_fault", node, sim_->Now());
      if (util::Logger::level() <= util::LogLevel::kInfo) {
        ALC_LOG(kInfo, "node_fault node=" + std::to_string(node) +
                           " killed=" + std::to_string(killed));
      }
      break;
    }
    case NodeState::kUp: {
      if (truth_down_[node] != 0) {
        // Repair: the node answers heartbeats again. The membership still
        // believes whatever the detector last declared; recovery flows
        // through the detector's clear path, not through the oracle.
        truth_down_[node] = 0;
        nodes_[node]->gate().SetFrozen(false);
        if (trace_ != nullptr) {
          trace_->Instant("node_repair", node, sim_->Now());
        }
      } else if (states_[node] == NodeState::kDrain) {
        // Un-drain is an announced administrative action, not a fault.
        ApplyTransition(node, NodeState::kUp);
      }
      break;
    }
    case NodeState::kDrain:
    case NodeState::kStandby:
      // Announced transitions go straight to the membership.
      ApplyTransition(node, to);
      break;
  }
}

void Cluster::SetTraceRecorder(telemetry::TraceRecorder* recorder) {
  trace_ = recorder;
  for (int i = 0; i < size(); ++i) {
    nodes_[i]->system().SetTraceRecorder(recorder, i);
  }
}

void Cluster::RegisterMetrics(telemetry::MetricRegistry* registry) const {
  registry->LinkCounter("cluster.total_routed", &total_routed_);
  registry->LinkCounter("cluster.arrivals_dropped", &arrivals_dropped_);
  registry->LinkCounter("cluster.epoch", &epoch_);
  registry->LinkCounter("cluster.misroutes", &misroutes_);
  registry->LinkCounter("cluster.retries", &retries_);
  registry->LinkCounter("cluster.dead_letters", &dead_letters_);
  registry->LinkCounter("cluster.shed_query", &shed_query_);
  registry->LinkCounter("cluster.shed_update", &shed_update_);
  registry->LinkGauge("cluster.degrade_level", &degrade_level_gauge_);
  for (int i = 0; i < size(); ++i) {
    const std::string prefix = "node" + std::to_string(i) + ".";
    registry->LinkCounter(prefix + "routed", &routed_[i]);
    registry->LinkCounter(prefix + "lifecycle_crash_kills", &crash_kills_[i]);
    registry->LinkCounter(prefix + "lifecycle_retracted", &retracted_[i]);
    registry->LinkCounter(prefix + "lifecycle_lost", &lost_[i]);
  }
}

void Cluster::EnablePlacement(const PlacementSpec& spec) {
  ALC_CHECK(!started_);
  ALC_CHECK(catalog_ == nullptr);
  placement_spec_ = spec;
  catalog_ = std::make_unique<placement::PlacementCatalog>(
      spec.placement, static_cast<int>(nodes_.size()),
      spec.workload.db_size);
  // The generator borrows the stored workload config (stable member), and
  // its stream is private to the front-end: enabling placement never
  // perturbs node-internal variates.
  plan_gen_ = std::make_unique<db::AccessPatternGenerator>(
      &placement_spec_.workload,
      sim::RandomStream(seed_ ^ 0xbb67ae8584caa73bULL));
  for (const auto& node : nodes_) {
    // Every node must be able to execute any global key (see PlacementSpec).
    ALC_CHECK_GE(node->system().database().size(), spec.workload.db_size);
  }
}

void Cluster::Start() {
  ALC_CHECK(!started_);
  started_ = true;
  if (source_ == nullptr) {
    // Historical default: the open Poisson stream the inline driver ran,
    // with its exact seed salt, so pre-[workload] configurations replay
    // byte-identically.
    source_ = std::make_unique<workload::OpenArrivalSource>(
        arrival_rate_, seed_ ^ workload::kOpenArrivalSeedSalt);
  }
  if (trace_ != nullptr) source_->SetTraceRecorder(trace_);
  for (auto& node : nodes_) {
    node->system().SetSessionHook(
        [this](int32_t session, double response, bool ok) {
          source_->OnComplete(session, response, ok);
        });
  }
  for (auto& node : nodes_) node->system().Start();
  if (lifecycle_active_) {
    // Sync the catalog with nodes that begin outside the membership, then
    // schedule every availability transition. Nothing here runs for
    // always-up fleets, keeping their event streams byte-identical to the
    // pre-lifecycle ones.
    if (catalog_ != nullptr) {
      for (int i = 0; i < size(); ++i) {
        if (states_[i] != NodeState::kUp) catalog_->SetNodeLive(i, false);
      }
    }
    for (int i = 0; i < size(); ++i) {
      for (const auto& [time, state] : configs_[i].availability.transitions()) {
        const NodeState to = state;
        if (managed_) {
          // Measured mode: the schedule injects ground-truth faults; the
          // membership follows only when the detector acts.
          sim_->ScheduleAt(time, [this, i, to] { InjectTruth(i, to); });
        } else {
          sim_->ScheduleAt(time, [this, i, to] { ApplyTransition(i, to); });
        }
      }
    }
  }
  source_->Start(sim_, this);
  if (catalog_ != nullptr &&
      placement_spec_.placement.rebalance_interval > 0.0) {
    ScheduleRebalance();
  }
  if (retraction_.enabled && retraction_.queue_factor > 0.0) {
    ScheduleRetractionScan();
  }
  if (degrade_.enabled) ScheduleDegradeTick();
}

MembershipView Cluster::Snapshot(const std::vector<int>& live) const {
  MembershipView membership;
  membership.nodes = &views_;
  membership.live = &live;
  membership.epoch = epoch_;
  return membership;
}

void Cluster::RebuildLive() {
  live_.clear();
  for (int i = 0; i < size(); ++i) {
    if (states_[i] == NodeState::kUp) live_.push_back(i);
  }
}

double Cluster::MeanQueueFactor() const {
  if (live_.empty()) return 0.0;
  double sum = 0.0;
  for (const int i : live_) {
    const NodeView& view = views_[i];
    sum += static_cast<double>(view.gate_queue) / std::max(view.limit, 1.0);
  }
  return sum / static_cast<double>(live_.size());
}

int Cluster::KillInFlight(int node) {
  const int killed = nodes_[node]->system().CrashActive();
  crash_kills_[node] += static_cast<uint64_t>(killed);
  if (retraction_.enabled) {
    for (int k = 0; k < killed; ++k) RetryElsewhere(node);
  } else {
    lost_[node] += static_cast<uint64_t>(killed);
  }
  return killed;
}

void Cluster::ReportFailed(int32_t session) {
  if (session >= 0) source_->OnComplete(session, 0.0, false);
}

void Cluster::ApplyTransition(int node, NodeState to) {
  const NodeState from = states_[node];
  if (from == to) return;
  states_[node] = to;
  RebuildLive();
  ++epoch_;
  const char* transition_name = to == NodeState::kDown      ? "node_down"
                                : to == NodeState::kDrain   ? "node_drain"
                                : to == NodeState::kStandby ? "node_standby"
                                                            : "node_up";
  if (trace_ != nullptr) {
    const double now = sim_->Now();
    trace_->Instant(transition_name, node, now);
    trace_->Counter("epoch", telemetry::TraceRecorder::kClusterPid, now,
                    static_cast<double>(epoch_));
    trace_->Counter("members", telemetry::TraceRecorder::kClusterPid, now,
                    static_cast<double>(live_.size()));
  }
  if (util::Logger::level() <= util::LogLevel::kInfo) {
    ALC_LOG(kInfo, std::string(transition_name) + " node=" +
                       std::to_string(node) + " epoch=" +
                       std::to_string(epoch_) + " live=" +
                       std::to_string(live_.size()));
  }
  if (catalog_ != nullptr) {
    // Placement subscribes to membership: replica filtering excludes the
    // node through the MembershipView, and orphaned homes move now.
    catalog_->SetNodeLive(node, to == NodeState::kUp);
  }

  switch (to) {
    case NodeState::kDown: {
      // Crash declaration: queued admissions are retracted and re-routed
      // (or dropped without retraction). In oracle mode the crash itself
      // happens here too; in managed mode the data plane already died at
      // InjectTruth — what moves now is the queue that piled up during the
      // detection window. A falsely declared node keeps its admitted work
      // running, like a drain.
      RetractAndReroute(node, INT_MAX, /*drop=*/!retraction_.enabled);
      if (!managed_) KillInFlight(node);
      break;
    }
    case NodeState::kDrain:
      // The node leaves the routing set but keeps admitting its queue and
      // finishing admitted work; with retraction the front-end moves the
      // queue to live nodes immediately instead of waiting it out.
      if (retraction_.enabled) {
        RetractAndReroute(node, INT_MAX, /*drop=*/false);
      }
      break;
    case NodeState::kStandby:
      // Back to the provisionable pool: whatever is still queued moves
      // elsewhere (the autoscaler drains before standby, so this is
      // usually empty), admitted stragglers finish on their own.
      RetractAndReroute(node, INT_MAX, /*drop=*/!retraction_.enabled);
      break;
    case NodeState::kUp:
      // (Re)join. After a crash the control plane either restarts fresh
      // (gate back to the initial limit here, controller rebuilt by the
      // lifecycle listener) or keeps what it had learned; a node leaving
      // the standby pool always starts fresh.
      if ((from == NodeState::kDown &&
           configs_[node].rejoin == RejoinPolicy::kFresh) ||
          from == NodeState::kStandby) {
        nodes_[node]->gate().SetLimit(configs_[node].initial_limit);
      }
      break;
  }
  if (listener_) listener_(node, from, to);
}

void Cluster::RetractAndReroute(int node, int max_count, bool drop) {
  retract_scratch_.clear();
  nodes_[node]->gate().RetractQueued(max_count, &retract_scratch_);
  if (retract_scratch_.empty()) return;
  if (util::Logger::level() <= util::LogLevel::kInfo) {
    ALC_LOG(kInfo, "retract node=" + std::to_string(node) + " count=" +
                       std::to_string(retract_scratch_.size()) +
                       (drop ? " (drop)" : " (reroute)"));
  }
  // A still-live origin (degradation-triggered retraction) is excluded
  // from the re-route targets: the point is to shed its backlog.
  live_scratch_.clear();
  for (const int i : live_) {
    if (i != node) live_scratch_.push_back(i);
  }
  const MembershipView members = Snapshot(live_scratch_);
  db::TransactionSystem& origin = nodes_[node]->system();
  // Bounded retry defers the re-route by a backoff delay and charges it
  // against the work unit's budget. An empty live set is then no longer
  // terminal: the resubmit re-checks membership after the backoff, so
  // short total outages are ridden out instead of dropping the queue.
  const bool deferred = !drop && retry_.enabled;
  for (db::Transaction* txn : retract_scratch_) {
    // Retraction bypasses the node's terminal paths, so the session tag
    // travels with the front-end: re-routes keep it, drops report it.
    const int32_t session = txn->session;
    const int prior = txn->retry_count;
    const bool lost = deferred ? prior >= retry_.budget
                               : drop || live_scratch_.empty();
    if (lost) {
      origin.ReleaseQueued(txn);
      if (deferred) ++dead_letters_;
      ++lost_[node];
      ReportFailed(session);
      continue;
    }
    ++retracted_[node];
    const bool preplanned = txn->preplanned;
    // Copy the plan out before the slot is released: the re-routed request
    // keeps its exact key set, so the remote/local split stays honest.
    if (preplanned) StagePlan(txn->cls, txn->planned_items, txn->planned_modes);
    origin.ReleaseQueued(txn);
    if (deferred) {
      ScheduleRetry(node, session, prior, preplanned);
    } else {
      Dispatch(members, /*retraction=*/true, session, /*retry_count=*/0);
    }
  }
}

void Cluster::RetryElsewhere(int origin) {
  if (retry_.enabled) {
    // Crash replays ride the same deferred backoff path as retractions.
    // The in-flight execution state (and its retry stamp) died with the
    // node, so the replay starts a fresh budget; what the budget guards —
    // queued work bouncing across a sick fleet — cannot happen here
    // because each hop of the replay is itself crash-killed first.
    ScheduleRetry(origin, /*session=*/-1, /*prior=*/0, /*preplanned=*/false);
    return;
  }
  if (live_.empty()) {
    ++lost_[origin];
    return;
  }
  // The client re-issues the lost request: a fresh submission through the
  // normal routing path (placement runs re-draw the plan — the in-flight
  // execution state is unrecoverable, re-stamping models the retry). The
  // retry is untagged: the crash kill already reported the session's
  // request as failed, so the replay runs as background repair traffic.
  if (catalog_ != nullptr) StampPlan(workload::Arrival{});
  Dispatch(Snapshot(live_), /*retraction=*/false, /*session=*/-1,
           /*retry_count=*/0);
}

double Cluster::BackoffDelay(int prior_attempts) {
  double delay = retry_.backoff_base;
  for (int i = 0; i < prior_attempts; ++i) delay *= retry_.backoff_factor;
  delay = std::min(delay, retry_.backoff_max);
  if (retry_.jitter > 0.0) {
    // Deterministic jitter: de-synchronizes retry herds without breaking
    // bit-reproducibility — the stream is seeded, and it is only drawn
    // when the retry path is active, so retry-off runs never see it.
    delay *= 1.0 + retry_.jitter * (retry_rng_.NextDouble() - 0.5);
  }
  return delay;
}

void Cluster::ScheduleRetry(int origin, int32_t session, int prior,
                            bool preplanned) {
  int slot;
  if (!retry_free_.empty()) {
    slot = retry_free_.back();
    retry_free_.pop_back();
  } else {
    slot = static_cast<int>(retry_slots_.size());
    retry_slots_.emplace_back();
  }
  PendingRetry& pending = retry_slots_[slot];
  pending.session = session;
  pending.attempts = prior + 1;
  pending.origin = origin;
  pending.preplanned = preplanned;
  if (preplanned) {
    // The caller staged the plan in plan_; copy-assignment into the
    // recycled slot reuses its vector capacity (no steady-state
    // allocation).
    pending.cls = plan_.cls;
    pending.items = plan_.access_items;
    pending.modes = plan_.access_modes;
  } else {
    pending.items.clear();
    pending.modes.clear();
  }
  sim_->Schedule(BackoffDelay(prior), [this, slot] { ResubmitRetry(slot); });
}

void Cluster::ResubmitRetry(int slot) {
  PendingRetry& pending = retry_slots_[slot];
  const int32_t session = pending.session;
  if (live_.empty()) {
    // Still nowhere to go after the backoff: the work is lost. The budget
    // is not re-charged — a dead fleet is not the bouncing the budget
    // guards against.
    ++lost_[pending.origin];
    ReportFailed(session);
    retry_free_.push_back(slot);
    return;
  }
  ++retries_;
  if (pending.preplanned) {
    // The retried request keeps its exact key set.
    StagePlan(pending.cls, pending.items, pending.modes);
  } else if (catalog_ != nullptr) {
    // Crash replay under placement: the original plan died with the node,
    // so the client re-draws (models a re-issued request).
    StampPlan(workload::Arrival{});
  }
  Dispatch(Snapshot(live_), /*retraction=*/true, session, pending.attempts);
  retry_free_.push_back(slot);
}

void Cluster::ScheduleDegradeTick() {
  sim_->Schedule(degrade_.interval, [this] {
    DegradeTick();
    ScheduleDegradeTick();
  });
}

void Cluster::DegradeTick() {
  if (live_.empty()) return;  // nothing to measure; hold the level
  const double queue_factor = MeanQueueFactor();
  const int old_level = degrade_level_;
  // One rung per tick, in either direction: shedding escalates query-first,
  // restoration retraces in reverse below hysteresis-scaled thresholds.
  if (degrade_level_ < 2 && queue_factor >= degrade_.shed_update) {
    ++degrade_level_;
  } else if (degrade_level_ < 1 && queue_factor >= degrade_.shed_query) {
    degrade_level_ = 1;
  } else if (degrade_level_ == 2 &&
             queue_factor <
                 degrade_.shed_update * degrade_.restore_hysteresis) {
    degrade_level_ = 1;
  } else if (degrade_level_ == 1 &&
             queue_factor <
                 degrade_.shed_query * degrade_.restore_hysteresis) {
    degrade_level_ = 0;
  }
  if (degrade_level_ == old_level) return;
  degrade_level_gauge_ = static_cast<double>(degrade_level_);
  const bool escalating = degrade_level_ > old_level;
  const char* reason = degrade_level_ == 2   ? "shed-update"
                       : degrade_level_ == 0 ? "restore-query"
                       : escalating          ? "shed-query"
                                             : "restore-update";
  if (audit_ != nullptr) {
    telemetry::DecisionRecord record;
    record.time = sim_->Now();
    record.node = -1;  // fleet-scope decision
    record.controller = "degrade-ladder";
    record.reason = reason;
    record.old_limit = static_cast<double>(old_level);
    record.new_limit = static_cast<double>(degrade_level_);
    record.gate_queue = queue_factor;
    audit_->Record(record);
  }
  if (trace_ != nullptr) {
    trace_->Counter("degrade_level", telemetry::TraceRecorder::kClusterPid,
                    sim_->Now(), static_cast<double>(degrade_level_));
  }
  if (util::Logger::level() <= util::LogLevel::kInfo) {
    ALC_LOG(kInfo, std::string(reason) + " queue_factor=" +
                       std::to_string(queue_factor) + " level=" +
                       std::to_string(degrade_level_));
  }
}

void Cluster::ScheduleRebalance() {
  sim_->Schedule(placement_spec_.placement.rebalance_interval, [this] {
    load_scratch_.clear();
    for (const NodeView& view : views_) {
      load_scratch_.push_back(Occupancy(view));
    }
    catalog_->Rebalance(load_scratch_);
    ScheduleRebalance();
  });
}

void Cluster::ScheduleRetractionScan() {
  sim_->Schedule(retraction_.check_interval, [this] {
    // Degradation trigger: any live node whose gate queue grew past
    // queue_factor * n* sheds the excess back through the router. The live
    // list is copied first — retraction itself never changes membership,
    // but iteration order must not depend on re-route targets.
    scan_scratch_ = live_;
    for (const int i : scan_scratch_) {
      const control::AdmissionGate& gate = nodes_[i]->gate();
      const int allowed = static_cast<int>(
          retraction_.queue_factor * gate.limit());
      const int excess = gate.queue_length() - allowed;
      if (excess > 0) RetractAndReroute(i, excess, /*drop=*/false);
    }
    ScheduleRetractionScan();
  });
}

void Cluster::SubmitArrival(const workload::Arrival& arrival) {
  if (live_.empty()) {
    // Whole fleet down or draining: the front door has nowhere to send
    // work and sheds the arrival. A tracked session hears about the loss
    // immediately so its think/issue loop keeps turning.
    ++arrivals_dropped_;
    ReportFailed(arrival.session);
    return;
  }
  if (catalog_ != nullptr) {
    StampPlan(arrival);
    // The ladder sees the stamped class, so placement runs shed exactly by
    // class. The shed plan's heat was already recorded by StampPlan — a
    // deliberate simplification (the rebalancer sees offered, not
    // admitted, demand).
    if (ShedArrival(plan_.cls, arrival.session)) return;
  } else if (degrade_level_ > 0) {
    // Class unknown at the front door (the node stamps the class after
    // routing): level 2 sheds everything, counted as updates; level 1
    // sheds the query-fraction share statistically from the seeded shed
    // stream (drawn only at level 1, so undegraded runs see no variates).
    const bool query =
        degrade_level_ == 1 &&
        shed_rng_.NextBernoulli(
            configs_[0].system.dynamics.QueryFractionAt(sim_->Now()));
    if (ShedArrival(query ? db::TxnClass::kQuery : db::TxnClass::kUpdater,
                    arrival.session)) {
      return;
    }
  }
  Dispatch(Snapshot(live_), /*retraction=*/false, arrival.session,
           /*retry_count=*/0);
}

void Cluster::StampPlan(const workload::Arrival& arrival) {
  const double now = sim_->Now();
  const uint32_t db_size = placement_spec_.workload.db_size;
  const db::WorkloadDynamics& mix = placement_spec_.dynamics;

  // Stamp the work unit at the front-end: class, access count, and the
  // concrete key plan from the global keyspace — the router needs the keys
  // before a node is chosen.
  plan_.cls = plan_class_rng_.NextBernoulli(mix.QueryFractionAt(now))
                  ? db::TxnClass::kQuery
                  : db::TxnClass::kUpdater;
  const int k = mix.KAt(now, db_size);
  if (arrival.affinity_size > 0) {
    plan_gen_->PlanAccessesWithAffinity(
        &plan_, db_size, k, mix.WriteFractionAt(now),
        arrival.affinity, arrival.affinity_start, arrival.affinity_size);
  } else {
    plan_gen_->PlanAccesses(&plan_, db_size, k,
                            mix.WriteFractionAt(now));
  }

  // Map each key to its partition once; heat accounting feeds the
  // rebalancer.
  plan_partitions_.clear();
  for (const db::ItemId key : plan_.access_items) {
    const int partition = catalog_->PartitionOf(key);
    plan_partitions_.push_back(partition);
    catalog_->RecordAccess(partition);
  }
}

void Cluster::StagePlan(db::TxnClass cls,
                        const std::vector<db::ItemId>& items,
                        const std::vector<db::AccessMode>& modes) {
  // No heat re-recording: the original submission already counted these
  // accesses for the rebalancer. Copy-assignment reuses plan_'s capacity.
  ALC_CHECK(catalog_ != nullptr);
  plan_.cls = cls;
  plan_.access_items = items;
  plan_.access_modes = modes;
  catalog_->MapToPartitions(plan_.access_items, &plan_partitions_);
}

bool Cluster::ShedArrival(db::TxnClass cls, int32_t session) {
  if (degrade_level_ == 0) return false;
  if (degrade_level_ == 1 && cls != db::TxnClass::kQuery) return false;
  if (cls == db::TxnClass::kQuery) {
    ++shed_query_;
  } else {
    ++shed_update_;
  }
  ReportFailed(session);
  return true;
}

void Cluster::Dispatch(const MembershipView& members, bool retraction,
                       int32_t session, int retry_count) {
  RouteContext context;
  context.is_retraction = retraction;
  if (catalog_ != nullptr) {
    context.keys = &plan_.access_items;
    context.catalog = catalog_.get();
    context.partitions = &plan_partitions_;
  }
  const int target = policy_->Route(members, context);
  ALC_CHECK_GE(target, 0);
  ALC_CHECK_LT(target, size());
  ALC_CHECK(states_[target] == NodeState::kUp);
  ++routed_[target];
  ++total_routed_;
  // A routed arrival landing on an in-truth-dead member is a misroute: the
  // cost of measured (rather than oracle) failure detection.
  if (managed_ && truth_down_[target] != 0) ++misroutes_;
  db::TransactionSystem& system = nodes_[target]->system();
  if (catalog_ == nullptr) {
    // Placement-blind: the node stamps the work from its own dynamics.
    system.SubmitExternal(session, retry_count);
    return;
  }

  // Keys whose partition has no copy on the target execute remotely there.
  // Each remote access is served by the partition's home node (primary-
  // serves model): the home pays serve_cpu per request, so shipping hot
  // work away from its replicas does not relieve the data holders. The
  // serve demand is charged at submission — a deliberate simplification
  // (restart replays are not re-served; capacity coupling is what counts).
  remote_flags_.clear();
  for (const int partition : plan_partitions_) {
    const bool local = catalog_->IsReplica(partition, target);
    remote_flags_.push_back(local ? 0 : 1);
    if (!local) {
      const int serving = catalog_->HomeNode(partition);
      if (serving >= 0 && serving < static_cast<int>(nodes_.size())) {
        const double serve =
            nodes_[serving]->system().config().remote.serve_cpu;
        if (serve > 0.0) nodes_[serving]->system().cpu().Request(serve, [] {});
      }
    }
  }
  system.SubmitExternalPlanned(plan_.cls, plan_.access_items,
                               plan_.access_modes, remote_flags_, session,
                               retry_count);
}

}  // namespace alc::cluster
