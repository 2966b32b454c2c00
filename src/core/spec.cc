#include "core/spec.h"

#include <cctype>
#include <climits>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "cluster/registry.h"
#include "control/registry.h"
#include "elasticity/autoscaler.h"
#include "fault/fault.h"
#include "util/check.h"
#include "workload/registry.h"

namespace alc::core {

namespace {

using util::TrimWhitespace;

bool HasPrefix(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

/// Registry membership check shared by the routing / controller keys:
/// unknown names fail at assign time with the registered names listed,
/// instead of aborting deep inside the run. Names must therefore be
/// registered before specs referencing them are parsed.
template <typename Registry>
bool CheckRegistered(const Registry& registry, const char* what,
                     const std::string& name, std::string* error) {
  if (registry.Contains(name)) return true;
  *error = std::string("unknown ") + what + " '" + name + "'; registered:";
  for (const std::string& known : registry.Names()) *error += " " + known;
  return false;
}

// ------------------------------------------------------------ enum names --

const char* CcSchemeName(db::CcScheme cc) {
  switch (cc) {
    case db::CcScheme::kOptimisticCertification:
      return "occ";
    case db::CcScheme::kTwoPhaseLocking:
      return "2pl";
  }
  return "?";
}

bool ParseCcScheme(const std::string& name, db::CcScheme* out) {
  if (name == "occ") {
    *out = db::CcScheme::kOptimisticCertification;
  } else if (name == "2pl") {
    *out = db::CcScheme::kTwoPhaseLocking;
  } else {
    return false;
  }
  return true;
}

const char* ArrivalModeName(db::ArrivalMode mode) {
  switch (mode) {
    case db::ArrivalMode::kClosed:
      return "closed";
    case db::ArrivalMode::kOpen:
      return "open";
    case db::ArrivalMode::kExternal:
      return "external";
  }
  return "?";
}

bool ParseArrivalMode(const std::string& name, db::ArrivalMode* out) {
  if (name == "closed") {
    *out = db::ArrivalMode::kClosed;
  } else if (name == "open") {
    *out = db::ArrivalMode::kOpen;
  } else if (name == "external") {
    *out = db::ArrivalMode::kExternal;
  } else {
    return false;
  }
  return true;
}

const char* DistributionName(db::ServiceDistribution distribution) {
  switch (distribution) {
    case db::ServiceDistribution::kExponential:
      return "exponential";
    case db::ServiceDistribution::kDeterministic:
      return "deterministic";
    case db::ServiceDistribution::kErlang2:
      return "erlang2";
  }
  return "?";
}

bool ParseDistribution(const std::string& name, db::ServiceDistribution* out) {
  if (name == "exponential") {
    *out = db::ServiceDistribution::kExponential;
  } else if (name == "deterministic") {
    *out = db::ServiceDistribution::kDeterministic;
  } else if (name == "erlang2") {
    *out = db::ServiceDistribution::kErlang2;
  } else {
    return false;
  }
  return true;
}

bool ParsePlacementKind(const std::string& name, placement::PlacementKind* out) {
  if (name == "hash") {
    *out = placement::PlacementKind::kHash;
  } else if (name == "range") {
    *out = placement::PlacementKind::kRange;
  } else if (name == "replicated") {
    *out = placement::PlacementKind::kReplicated;
  } else {
    return false;
  }
  return true;
}

// --------------------------------------------------------- typed setters --

bool SetDoubleField(const std::string& key, const std::string& value,
                    double* out, std::string* error) {
  if (!util::ParseDouble(value, out)) {
    *error = "key '" + key + "': malformed number '" + value + "'";
    return false;
  }
  return true;
}

bool SetIntField(const std::string& key, const std::string& value, int* out,
                 std::string* error) {
  long long parsed = 0;
  if (!util::ParseInt(value, &parsed) || parsed < INT_MIN ||
      parsed > INT_MAX) {
    *error = "key '" + key + "': malformed or out-of-range integer '" +
             value + "'";
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

bool SetBoolField(const std::string& key, const std::string& value, bool* out,
                  std::string* error) {
  if (!util::ParseBool(value, out)) {
    *error = "key '" + key + "': expected true/false, got '" + value + "'";
    return false;
  }
  return true;
}

bool SetUint64Field(const std::string& key, const std::string& value,
                    uint64_t* out, std::string* error) {
  if (!util::ParseUint64(value, out)) {
    *error = "key '" + key + "': malformed unsigned integer '" + value + "'";
    return false;
  }
  return true;
}

using ScheduleMap = std::map<std::string, db::Schedule>;
using AvailabilityMap = std::map<std::string, cluster::AvailabilitySchedule>;

/// The named-schedule context of a parse: numeric schedules and
/// availability schedules share the [schedules] section (disambiguated by
/// the avail(...) literal head) and the `$name` reference syntax.
struct NamedSchedules {
  ScheduleMap schedules;
  AvailabilityMap availabilities;
};

/// A schedule value is either a literal ("steps(...)") or a `$name`
/// reference into the spec's [schedules] section.
bool SetScheduleField(const std::string& key, const std::string& value,
                      const NamedSchedules& named, db::Schedule* out,
                      std::string* error) {
  if (!value.empty() && value[0] == '$') {
    const std::string name = value.substr(1);
    auto it = named.schedules.find(name);
    if (it == named.schedules.end()) {
      *error = "key '" + key + "': unknown schedule reference '$" + name +
               "' (define it in [schedules] first)";
      return false;
    }
    *out = it->second;
    return true;
  }
  if (!db::Schedule::Parse(value, out)) {
    *error = "key '" + key + "': malformed schedule literal '" + value + "'";
    return false;
  }
  return true;
}

/// An availability value is either an avail(...) literal or a `$name`
/// reference to a [schedules] entry that parsed as one.
bool SetAvailabilityField(const std::string& key, const std::string& value,
                          const NamedSchedules& named,
                          cluster::AvailabilitySchedule* out,
                          std::string* error) {
  if (!value.empty() && value[0] == '$') {
    const std::string name = value.substr(1);
    auto it = named.availabilities.find(name);
    if (it == named.availabilities.end()) {
      *error = "key '" + key + "': unknown availability reference '$" + name +
               "' (define it in [schedules] as an avail(...) literal first)";
      return false;
    }
    *out = it->second;
    return true;
  }
  std::string message;
  if (!cluster::AvailabilitySchedule::Parse(value, out, &message)) {
    *error = "key '" + key + "': " + message;
    return false;
  }
  return true;
}

// --------------------------------------------------------- key assigners --

bool AssignExperimentKey(ExperimentSpec* spec, const std::string& key,
                         const std::string& value,
                         const NamedSchedules& named, std::string* error) {
  if (key == "name") {
    spec->name = value;
    return true;
  }
  if (key == "cluster") return SetBoolField(key, value, &spec->cluster, error);
  if (key == "seed") return SetUint64Field(key, value, &spec->seed, error);
  if (key == "duration") {
    if (!SetDoubleField(key, value, &spec->duration, error)) return false;
    if (!(spec->duration > 0.0)) {
      *error = "key 'duration': must be > 0";
      return false;
    }
    return true;
  }
  if (key == "warmup") {
    if (!SetDoubleField(key, value, &spec->warmup, error)) return false;
    if (!(spec->warmup >= 0.0)) {
      *error = "key 'warmup': must be >= 0";
      return false;
    }
    return true;
  }
  if (key == "active_terminals") {
    return SetScheduleField(key, value, named, &spec->active_terminals,
                            error);
  }
  if (key == "arrival_rate") {
    return SetScheduleField(key, value, named, &spec->arrival_rate, error);
  }
  if (key == "routing") {
    if (!CheckRegistered(cluster::RoutingPolicyRegistry::Global(),
                         "routing policy", value, error)) {
      return false;
    }
    spec->routing = value;
    return true;
  }
  if (HasPrefix(key, "routing.")) {
    spec->routing_params.Set(key.substr(8), value);
    return true;
  }
  if (key == "trace") {
    // Empty re-disables tracing (the PrintSpec default round-trips).
    spec->trace_path = value;
    return true;
  }
  if (key == "decisions") {
    // Empty re-disables the decision audit, like "trace".
    spec->decisions_path = value;
    return true;
  }
  if (key == "retraction") {
    return SetBoolField(key, value, &spec->retraction, error);
  }
  if (key == "retraction_queue_factor") {
    if (!SetDoubleField(key, value, &spec->retraction_queue_factor, error)) {
      return false;
    }
    if (spec->retraction_queue_factor < 0.0) {
      *error = "key 'retraction_queue_factor': must be >= 0";
      return false;
    }
    return true;
  }
  if (key == "retraction_interval") {
    if (!SetDoubleField(key, value, &spec->retraction_interval, error)) {
      return false;
    }
    if (spec->retraction_interval <= 0.0) {
      *error = "key 'retraction_interval': must be > 0";
      return false;
    }
    return true;
  }
  cluster::RetryConfig* retry = &spec->retry;
  if (key == "retry.enabled") {
    return SetBoolField(key, value, &retry->enabled, error);
  }
  if (key == "retry.budget") {
    if (!SetIntField(key, value, &retry->budget, error)) return false;
    if (retry->budget < 0) {
      *error = "key 'retry.budget': must be >= 0";
      return false;
    }
    return true;
  }
  if (key == "retry.backoff_base") {
    if (!SetDoubleField(key, value, &retry->backoff_base, error)) return false;
    if (retry->backoff_base <= 0.0) {
      *error = "key 'retry.backoff_base': must be > 0";
      return false;
    }
    return true;
  }
  if (key == "retry.backoff_factor") {
    if (!SetDoubleField(key, value, &retry->backoff_factor, error)) {
      return false;
    }
    if (retry->backoff_factor < 1.0) {
      *error = "key 'retry.backoff_factor': must be >= 1";
      return false;
    }
    return true;
  }
  if (key == "retry.backoff_max") {
    if (!SetDoubleField(key, value, &retry->backoff_max, error)) return false;
    if (retry->backoff_max <= 0.0) {
      *error = "key 'retry.backoff_max': must be > 0";
      return false;
    }
    return true;
  }
  if (key == "retry.jitter") {
    if (!SetDoubleField(key, value, &retry->jitter, error)) return false;
    if (retry->jitter < 0.0 || retry->jitter > 1.0) {
      *error = "key 'retry.jitter': must be in [0, 1]";
      return false;
    }
    return true;
  }
  cluster::DegradeConfig* degrade = &spec->degrade;
  if (key == "degrade.enabled") {
    return SetBoolField(key, value, &degrade->enabled, error);
  }
  if (key == "degrade.interval") {
    if (!SetDoubleField(key, value, &degrade->interval, error)) return false;
    if (degrade->interval <= 0.0) {
      *error = "key 'degrade.interval': must be > 0";
      return false;
    }
    return true;
  }
  if (key == "degrade.shed_query") {
    if (!SetDoubleField(key, value, &degrade->shed_query, error)) {
      return false;
    }
    if (degrade->shed_query <= 0.0) {
      *error = "key 'degrade.shed_query': must be > 0";
      return false;
    }
    return true;
  }
  if (key == "degrade.shed_update") {
    if (!SetDoubleField(key, value, &degrade->shed_update, error)) {
      return false;
    }
    if (degrade->shed_update <= 0.0) {
      *error = "key 'degrade.shed_update': must be > 0";
      return false;
    }
    return true;
  }
  if (key == "degrade.restore_hysteresis") {
    if (!SetDoubleField(key, value, &degrade->restore_hysteresis, error)) {
      return false;
    }
    if (degrade->restore_hysteresis <= 0.0 ||
        degrade->restore_hysteresis > 1.0) {
      *error = "key 'degrade.restore_hysteresis': must be in (0, 1]";
      return false;
    }
    return true;
  }
  *error = "unknown experiment key '" + key + "'";
  return false;
}

bool AssignFaultKey(ExperimentSpec* spec, const std::string& key,
                    const std::string& value, std::string* error) {
  if (key == "enabled") {
    return SetBoolField(key, value, &spec->fault.enabled, error);
  }
  if (key == "inject") {
    fault::FaultSpec parsed;
    std::string message;
    if (!fault::ParseFaultSpec(value, &parsed, &message)) {
      *error = "key 'inject': " + message;
      return false;
    }
    if (!CheckRegistered(fault::FaultRegistry::Global(), "fault kind",
                         parsed.kind, error)) {
      return false;
    }
    // Each inject line appends; a spec lists one fault window per line.
    spec->fault.faults.push_back(std::move(parsed));
    return true;
  }
  *error = "unknown fault key '" + key + "'";
  return false;
}

/// A distribution value is always a literal; there is no named-distribution
/// section (distributions are small enough to inline).
bool SetDistributionField(const std::string& key, const std::string& value,
                          workload::Distribution* out, std::string* error) {
  if (!workload::Distribution::Parse(value, out)) {
    *error = "key '" + key + "': malformed distribution literal '" + value +
             "' (expected constant(v), exp(mean), lognormal(mu, sigma), or "
             "pareto(alpha, lo, hi))";
    return false;
  }
  return true;
}

bool AssignWorkloadKey(ExperimentSpec* spec, const std::string& key,
                       const std::string& value, const NamedSchedules& named,
                       std::string* error) {
  workload::WorkloadSpec* w = &spec->workload;
  if (key == "source") {
    if (!CheckRegistered(workload::WorkloadRegistry::Global(),
                         "workload source", value, error)) {
      return false;
    }
    w->source = value;
    return true;
  }
  if (key == "population") {
    if (!SetUint64Field(key, value, &w->population, error)) return false;
    if (w->population < 1) {
      *error = "key 'population': must be >= 1";
      return false;
    }
    return true;
  }
  if (key == "session_rate") {
    return SetScheduleField(key, value, named, &w->session_rate, error);
  }
  if (key == "sessions") {
    if (!SetIntField(key, value, &w->sessions, error)) return false;
    if (w->sessions < 1) {
      *error = "key 'sessions': must be >= 1";
      return false;
    }
    return true;
  }
  if (key == "txns_per_session") {
    return SetDistributionField(key, value, &w->txns_per_session, error);
  }
  if (key == "think_time") {
    return SetDistributionField(key, value, &w->think_time, error);
  }
  if (key == "affinity") {
    if (!SetDoubleField(key, value, &w->affinity, error)) return false;
    if (w->affinity < 0.0 || w->affinity > 1.0) {
      *error = "key 'affinity': must be in [0, 1]";
      return false;
    }
    return true;
  }
  if (key == "affinity_keys") {
    if (!SetIntField(key, value, &w->affinity_keys, error)) return false;
    if (w->affinity_keys < 1) {
      *error = "key 'affinity_keys': must be >= 1";
      return false;
    }
    return true;
  }
  if (key.find('.') != std::string::npos) {
    // Dotted keys pass through to the source factory's ParamMap, so
    // externally registered sources can define their own namespace
    // (mirrors routing.* and control.*).
    w->params.Set(key, value);
    return true;
  }
  *error = "unknown workload key '" + key + "'";
  return false;
}

bool AssignPlacementKey(ExperimentSpec* spec, const std::string& key,
                        const std::string& value,
                        const NamedSchedules& named, std::string* error) {
  if (key == "enabled") {
    return SetBoolField(key, value, &spec->placement_enabled, error);
  }
  if (key == "kind") {
    if (!ParsePlacementKind(value, &spec->placement.kind)) {
      *error = "key 'kind': expected hash/range/replicated, got '" + value +
               "'";
      return false;
    }
    return true;
  }
  if (key == "num_partitions") {
    return SetIntField(key, value, &spec->placement.num_partitions, error);
  }
  if (key == "replication_factor") {
    return SetIntField(key, value, &spec->placement.replication_factor, error);
  }
  if (key == "rebalance_interval") {
    return SetDoubleField(key, value, &spec->placement.rebalance_interval,
                          error);
  }
  if (key == "rebalance_moves") {
    return SetIntField(key, value, &spec->placement.rebalance_moves, error);
  }
  db::LogicalConfig* workload = &spec->placement_workload;
  if (key == "workload.db_size") {
    uint64_t db_size = 0;
    if (!SetUint64Field(key, value, &db_size, error)) return false;
    workload->db_size = static_cast<uint32_t>(db_size);
    return true;
  }
  if (key == "workload.accesses_per_txn") {
    return SetIntField(key, value, &workload->accesses_per_txn, error);
  }
  if (key == "workload.query_fraction") {
    return SetDoubleField(key, value, &workload->query_fraction, error);
  }
  if (key == "workload.write_fraction") {
    return SetDoubleField(key, value, &workload->write_fraction, error);
  }
  if (key == "workload.resample_on_restart") {
    return SetBoolField(key, value, &workload->resample_on_restart, error);
  }
  if (key == "workload.hotspot_access_prob") {
    return SetDoubleField(key, value, &workload->hotspot_access_prob, error);
  }
  if (key == "workload.hotspot_size_fraction") {
    return SetDoubleField(key, value, &workload->hotspot_size_fraction, error);
  }
  if (key == "dynamics.k" || key == "dynamics.query_fraction" ||
      key == "dynamics.write_fraction") {
    // Parse into a scratch schedule first: a malformed value must not leave
    // the optional engaged as a side effect.
    db::Schedule schedule;
    if (!SetScheduleField(key, value, named, &schedule, error)) {
      return false;
    }
    if (!spec->placement_dynamics.has_value()) {
      spec->placement_dynamics = db::WorkloadDynamics{};
    }
    db::WorkloadDynamics* dynamics = &spec->placement_dynamics.value();
    if (key == "dynamics.k") {
      dynamics->k = schedule;
    } else if (key == "dynamics.query_fraction") {
      dynamics->query_fraction = schedule;
    } else {
      dynamics->write_fraction = schedule;
    }
    return true;
  }
  if (key == "remote.cpu_penalty") {
    return SetDoubleField(key, value, &spec->remote_access.cpu_penalty, error);
  }
  if (key == "remote.latency") {
    return SetDoubleField(key, value, &spec->remote_access.latency, error);
  }
  if (key == "remote.serve_cpu") {
    return SetDoubleField(key, value, &spec->remote_access.serve_cpu, error);
  }
  *error = "unknown placement key '" + key + "'";
  return false;
}

bool AssignElasticityKey(ExperimentSpec* spec, const std::string& key,
                         const std::string& value, std::string* error) {
  elasticity::ElasticityConfig* e = &spec->elasticity;
  if (key == "enabled") return SetBoolField(key, value, &e->enabled, error);
  if (key == "detector") return SetBoolField(key, value, &e->detector, error);
  elasticity::HeartbeatConfig* hb = &e->heartbeat;
  if (key == "hb.interval") {
    if (!SetDoubleField(key, value, &hb->interval, error)) return false;
    if (hb->interval <= 0.0) {
      *error = "key 'hb.interval': must be > 0";
      return false;
    }
    return true;
  }
  if (key == "hb.timeout") {
    if (!SetDoubleField(key, value, &hb->timeout, error)) return false;
    if (hb->timeout <= 0.0) {
      *error = "key 'hb.timeout': must be > 0";
      return false;
    }
    return true;
  }
  if (key == "hb.suspect_after") {
    if (!SetIntField(key, value, &hb->suspect_after, error)) return false;
    if (hb->suspect_after < 1) {
      *error = "key 'hb.suspect_after': must be >= 1";
      return false;
    }
    return true;
  }
  if (key == "hb.down_after") {
    if (!SetIntField(key, value, &hb->down_after, error)) return false;
    if (hb->down_after < 1) {
      *error = "key 'hb.down_after': must be >= 1";
      return false;
    }
    return true;
  }
  if (key == "hb.clear_after") {
    if (!SetIntField(key, value, &hb->clear_after, error)) return false;
    if (hb->clear_after < 1) {
      *error = "key 'hb.clear_after': must be >= 1";
      return false;
    }
    return true;
  }
  if (key == "hb.delay_base") {
    if (!SetDoubleField(key, value, &hb->delay_base, error)) return false;
    if (hb->delay_base < 0.0) {
      *error = "key 'hb.delay_base': must be >= 0";
      return false;
    }
    return true;
  }
  if (key == "hb.delay_load") {
    if (!SetDoubleField(key, value, &hb->delay_load, error)) return false;
    if (hb->delay_load < 0.0) {
      *error = "key 'hb.delay_load': must be >= 0";
      return false;
    }
    return true;
  }
  if (key == "hb.kind") {
    if (value != "consecutive" && value != "phi") {
      *error = "key 'hb.kind': expected consecutive/phi, got '" + value + "'";
      return false;
    }
    hb->kind = value;
    return true;
  }
  if (key == "hb.phi_suspect") {
    if (!SetDoubleField(key, value, &hb->phi_suspect, error)) return false;
    if (hb->phi_suspect <= 0.0) {
      *error = "key 'hb.phi_suspect': must be > 0";
      return false;
    }
    return true;
  }
  if (key == "hb.phi_down") {
    if (!SetDoubleField(key, value, &hb->phi_down, error)) return false;
    if (hb->phi_down <= 0.0) {
      *error = "key 'hb.phi_down': must be > 0";
      return false;
    }
    return true;
  }
  if (key == "hb.phi_window") {
    if (!SetIntField(key, value, &hb->phi_window, error)) return false;
    if (hb->phi_window < 1) {
      *error = "key 'hb.phi_window': must be >= 1";
      return false;
    }
    return true;
  }
  if (key == "hb.observers") {
    if (!SetIntField(key, value, &hb->observers, error)) return false;
    if (hb->observers < 1) {
      *error = "key 'hb.observers': must be >= 1";
      return false;
    }
    return true;
  }
  if (key == "hb.quorum") {
    if (!SetIntField(key, value, &hb->quorum, error)) return false;
    if (hb->quorum < 1) {
      *error = "key 'hb.quorum': must be >= 1";
      return false;
    }
    return true;
  }
  if (key == "hb.observer_jitter") {
    if (!SetDoubleField(key, value, &hb->observer_jitter, error)) {
      return false;
    }
    if (hb->observer_jitter < 0.0) {
      *error = "key 'hb.observer_jitter': must be >= 0";
      return false;
    }
    return true;
  }
  if (key == "hb.delay_source") {
    if (value != "occupancy" && value != "response") {
      *error = "key 'hb.delay_source': expected occupancy/response, got '" +
               value + "'";
      return false;
    }
    hb->delay_source = value;
    return true;
  }
  if (key == "hb.delay_response") {
    if (!SetDoubleField(key, value, &hb->delay_response, error)) return false;
    if (hb->delay_response < 0.0) {
      *error = "key 'hb.delay_response': must be >= 0";
      return false;
    }
    return true;
  }
  if (key == "scaler") {
    if (!CheckRegistered(elasticity::AutoscalerRegistry::Global(),
                         "autoscaler", value, error)) {
      return false;
    }
    e->scaler = value;
    return true;
  }
  if (key == "scaler_interval") {
    if (!SetDoubleField(key, value, &e->scaler_interval, error)) return false;
    if (e->scaler_interval <= 0.0) {
      *error = "key 'scaler_interval': must be > 0";
      return false;
    }
    return true;
  }
  if (key == "standby") {
    if (!SetIntField(key, value, &e->standby, error)) return false;
    if (e->standby < 0) {
      *error = "key 'standby': must be >= 0";
      return false;
    }
    return true;
  }
  if (key == "min_live") {
    if (!SetIntField(key, value, &e->min_live, error)) return false;
    if (e->min_live < 1) {
      *error = "key 'min_live': must be >= 1";
      return false;
    }
    return true;
  }
  if (key == "slow_start_initial") {
    if (!SetDoubleField(key, value, &e->slow_start_initial, error)) {
      return false;
    }
    if (e->slow_start_initial <= 0.0) {
      *error = "key 'slow_start_initial': must be > 0";
      return false;
    }
    return true;
  }
  if (key == "slow_start_duration") {
    if (!SetDoubleField(key, value, &e->slow_start_duration, error)) {
      return false;
    }
    if (e->slow_start_duration <= 0.0) {
      *error = "key 'slow_start_duration': must be > 0";
      return false;
    }
    return true;
  }
  if (key == "drain_delay") {
    if (!SetDoubleField(key, value, &e->drain_delay, error)) return false;
    if (e->drain_delay < 0.0) {
      *error = "key 'drain_delay': must be >= 0";
      return false;
    }
    return true;
  }
  if (HasPrefix(key, "scaler.")) {
    // Autoscaler parameters flow through as strings, e.g. scaler.pi.kp ->
    // scaler_params["pi.kp"]; unknown keys belong to externally registered
    // policies and are validated by the consuming factory.
    e->scaler_params.Set(key.substr(7), value);
    return true;
  }
  *error = "unknown elasticity key '" + key + "'";
  return false;
}

/// Parse-time-only per-node state: `count` cloning and whether the node
/// declared its own seed (both drive the expansion pass). Null in override
/// mode, where `count` is rejected.
struct NodeParseState {
  bool seed_set = false;
  int count = 1;
};

bool AssignNodeKey(NodeSpec* node, const std::string& key,
                   const std::string& value, const NamedSchedules& named,
                   NodeParseState* parse_state, std::string* error) {
  if (key == "count") {
    if (parse_state == nullptr) {
      *error = "'count' is only valid inside a spec file's [node] section";
      return false;
    }
    if (!SetIntField(key, value, &parse_state->count, error)) return false;
    if (parse_state->count < 1) {
      *error = "key 'count': must be >= 1";
      return false;
    }
    return true;
  }
  if (key == "seed") {
    if (!SetUint64Field(key, value, &node->system.seed, error)) return false;
    if (parse_state != nullptr) parse_state->seed_set = true;
    return true;
  }
  if (key == "cc") {
    if (!ParseCcScheme(value, &node->system.cc)) {
      *error = "key 'cc': expected occ/2pl, got '" + value + "'";
      return false;
    }
    return true;
  }
  if (key == "arrivals") {
    if (!ParseArrivalMode(value, &node->system.arrivals)) {
      *error = "key 'arrivals': expected closed/open/external, got '" + value +
               "'";
      return false;
    }
    return true;
  }
  if (key == "open_arrival_rate") {
    return SetDoubleField(key, value, &node->system.open_arrival_rate, error);
  }
  if (key == "record_history") {
    return SetBoolField(key, value, &node->system.record_history, error);
  }
  if (key == "telemetry.per_phase") {
    return SetBoolField(key, value, &node->system.telemetry.per_phase, error);
  }

  db::PhysicalConfig* physical = &node->system.physical;
  if (key == "physical.num_terminals") {
    return SetIntField(key, value, &physical->num_terminals, error);
  }
  if (key == "physical.think_time_mean") {
    return SetDoubleField(key, value, &physical->think_time_mean, error);
  }
  if (key == "physical.num_cpus") {
    return SetIntField(key, value, &physical->num_cpus, error);
  }
  if (key == "physical.cpu_init_mean") {
    return SetDoubleField(key, value, &physical->cpu_init_mean, error);
  }
  if (key == "physical.cpu_access_mean") {
    return SetDoubleField(key, value, &physical->cpu_access_mean, error);
  }
  if (key == "physical.cpu_commit_mean") {
    return SetDoubleField(key, value, &physical->cpu_commit_mean, error);
  }
  if (key == "physical.cpu_write_commit_mean") {
    return SetDoubleField(key, value, &physical->cpu_write_commit_mean, error);
  }
  if (key == "physical.io_time") {
    return SetDoubleField(key, value, &physical->io_time, error);
  }
  if (key == "physical.restart_delay_mean") {
    return SetDoubleField(key, value, &physical->restart_delay_mean, error);
  }
  if (key == "physical.cpu_distribution") {
    if (!ParseDistribution(value, &physical->cpu_distribution)) {
      *error =
          "key 'physical.cpu_distribution': expected "
          "exponential/deterministic/erlang2, got '" +
          value + "'";
      return false;
    }
    return true;
  }

  db::LogicalConfig* logical = &node->system.logical;
  if (key == "logical.db_size") {
    uint64_t db_size = 0;
    if (!SetUint64Field(key, value, &db_size, error)) return false;
    logical->db_size = static_cast<uint32_t>(db_size);
    return true;
  }
  if (key == "logical.accesses_per_txn") {
    return SetIntField(key, value, &logical->accesses_per_txn, error);
  }
  if (key == "logical.query_fraction") {
    return SetDoubleField(key, value, &logical->query_fraction, error);
  }
  if (key == "logical.write_fraction") {
    return SetDoubleField(key, value, &logical->write_fraction, error);
  }
  if (key == "logical.resample_on_restart") {
    return SetBoolField(key, value, &logical->resample_on_restart, error);
  }
  if (key == "logical.hotspot_access_prob") {
    return SetDoubleField(key, value, &logical->hotspot_access_prob, error);
  }
  if (key == "logical.hotspot_size_fraction") {
    return SetDoubleField(key, value, &logical->hotspot_size_fraction, error);
  }

  if (key == "remote.cpu_penalty") {
    return SetDoubleField(key, value, &node->system.remote.cpu_penalty, error);
  }
  if (key == "remote.latency") {
    return SetDoubleField(key, value, &node->system.remote.latency, error);
  }
  if (key == "remote.serve_cpu") {
    return SetDoubleField(key, value, &node->system.remote.serve_cpu, error);
  }

  if (key == "dynamics.k") {
    return SetScheduleField(key, value, named, &node->dynamics.k, error);
  }
  if (key == "dynamics.query_fraction") {
    return SetScheduleField(key, value, named,
                            &node->dynamics.query_fraction, error);
  }
  if (key == "dynamics.write_fraction") {
    return SetScheduleField(key, value, named,
                            &node->dynamics.write_fraction, error);
  }
  if (key == "cpu_speed") {
    return SetScheduleField(key, value, named, &node->cpu_speed, error);
  }
  if (key == "availability") {
    return SetAvailabilityField(key, value, named, &node->availability,
                                error);
  }
  if (key == "rejoin") {
    if (!cluster::ParseRejoinPolicy(value, &node->rejoin)) {
      *error = "key 'rejoin': expected fresh/retained, got '" + value + "'";
      return false;
    }
    return true;
  }

  if (key == "control.controller") {
    if (!CheckRegistered(control::ControllerRegistry::Global(), "controller",
                         value, error)) {
      return false;
    }
    node->control.controller = value;
    return true;
  }
  if (key == "control.measurement_interval") {
    return SetDoubleField(key, value, &node->control.measurement_interval,
                          error);
  }
  if (key == "control.initial_limit") {
    return SetDoubleField(key, value, &node->control.initial_limit, error);
  }
  if (key == "control.displacement") {
    return SetBoolField(key, value, &node->control.displacement, error);
  }
  if (key == "control.outer_tuner") {
    return SetBoolField(key, value, &node->control.outer_tuner, error);
  }
  if (HasPrefix(key, "control.")) {
    // Anything else under control. is a controller parameter, e.g.
    // control.pa.dither -> params["pa.dither"]. Values of the keys the
    // built-in controllers read are type-checked here; unknown keys flow
    // through so externally registered controllers can define their own.
    const std::string param = key.substr(8);
    if (!control::ValidateControllerParam(param, value, error)) return false;
    node->control.params.Set(param, value);
    return true;
  }

  *error = "unknown node key '" + key + "'";
  return false;
}

// ---------------------------------------------------------------- printer --

void Emit(std::string* out, const std::string& key, const std::string& value) {
  *out += key;
  *out += " = ";
  *out += value;
  *out += "\n";
}

void EmitDouble(std::string* out, const std::string& key, double value) {
  Emit(out, key, util::FormatDouble(value));
}

void EmitInt(std::string* out, const std::string& key, long long value) {
  Emit(out, key, std::to_string(value));
}

void EmitBool(std::string* out, const std::string& key, bool value) {
  Emit(out, key, value ? "true" : "false");
}

void EmitDynamics(std::string* out, const db::WorkloadDynamics& dynamics) {
  Emit(out, "dynamics.k", dynamics.k.ToString());
  Emit(out, "dynamics.query_fraction", dynamics.query_fraction.ToString());
  Emit(out, "dynamics.write_fraction", dynamics.write_fraction.ToString());
}

void EmitNode(std::string* out, const NodeSpec& node) {
  *out += "\n[node]\n";
  Emit(out, "seed", std::to_string(node.system.seed));
  Emit(out, "cc", CcSchemeName(node.system.cc));
  Emit(out, "arrivals", ArrivalModeName(node.system.arrivals));
  EmitDouble(out, "open_arrival_rate", node.system.open_arrival_rate);
  EmitBool(out, "record_history", node.system.record_history);
  EmitBool(out, "telemetry.per_phase", node.system.telemetry.per_phase);

  const db::PhysicalConfig& physical = node.system.physical;
  EmitInt(out, "physical.num_terminals", physical.num_terminals);
  EmitDouble(out, "physical.think_time_mean", physical.think_time_mean);
  EmitInt(out, "physical.num_cpus", physical.num_cpus);
  EmitDouble(out, "physical.cpu_init_mean", physical.cpu_init_mean);
  EmitDouble(out, "physical.cpu_access_mean", physical.cpu_access_mean);
  EmitDouble(out, "physical.cpu_commit_mean", physical.cpu_commit_mean);
  EmitDouble(out, "physical.cpu_write_commit_mean",
             physical.cpu_write_commit_mean);
  EmitDouble(out, "physical.io_time", physical.io_time);
  EmitDouble(out, "physical.restart_delay_mean", physical.restart_delay_mean);
  Emit(out, "physical.cpu_distribution",
       DistributionName(physical.cpu_distribution));

  const db::LogicalConfig& logical = node.system.logical;
  EmitInt(out, "logical.db_size", logical.db_size);
  EmitInt(out, "logical.accesses_per_txn", logical.accesses_per_txn);
  EmitDouble(out, "logical.query_fraction", logical.query_fraction);
  EmitDouble(out, "logical.write_fraction", logical.write_fraction);
  EmitBool(out, "logical.resample_on_restart", logical.resample_on_restart);
  EmitDouble(out, "logical.hotspot_access_prob", logical.hotspot_access_prob);
  EmitDouble(out, "logical.hotspot_size_fraction",
             logical.hotspot_size_fraction);

  EmitDouble(out, "remote.cpu_penalty", node.system.remote.cpu_penalty);
  EmitDouble(out, "remote.latency", node.system.remote.latency);
  EmitDouble(out, "remote.serve_cpu", node.system.remote.serve_cpu);

  EmitDynamics(out, node.dynamics);
  Emit(out, "cpu_speed", node.cpu_speed.ToString());
  Emit(out, "availability", node.availability.ToString());
  Emit(out, "rejoin", cluster::RejoinPolicyName(node.rejoin));

  Emit(out, "control.controller", node.control.controller);
  EmitDouble(out, "control.measurement_interval",
             node.control.measurement_interval);
  EmitDouble(out, "control.initial_limit", node.control.initial_limit);
  EmitBool(out, "control.displacement", node.control.displacement);
  EmitBool(out, "control.outer_tuner", node.control.outer_tuner);
  for (const auto& [key, value] : node.control.params.entries()) {
    Emit(out, "control." + key, value);
  }
}

// ------------------------------------------------------ control bridging --

ControlConfig ToControlConfig(const ControlSpec& spec) {
  ControlConfig control;
  control.name = spec.controller;
  control.params = spec.params;
  control.measurement_interval = spec.measurement_interval;
  control.initial_limit = spec.initial_limit;
  control.displacement = spec.displacement;
  control.outer_tuner = spec.outer_tuner;
  return control;
}

ControlSpec FromControlConfig(const ControlConfig& control) {
  ControlSpec spec;
  spec.controller = control.resolved_name();
  // Embed the typed structs as canonical params; explicit params win, which
  // mirrors the MakeController merge order exactly.
  spec.params = ControlStructParams(control);
  spec.params.Merge(control.params);
  spec.measurement_interval = control.measurement_interval;
  spec.initial_limit = control.initial_limit;
  spec.displacement = control.displacement;
  spec.outer_tuner = control.outer_tuner;
  return spec;
}

}  // namespace

std::string PrintSpec(const ExperimentSpec& spec) {
  std::string out;
  out += "# Canonical ExperimentSpec (core/spec.h); run with: alc_run <file>\n";
  out += "[experiment]\n";
  Emit(&out, "name", spec.name);
  EmitBool(&out, "cluster", spec.cluster);
  Emit(&out, "seed", std::to_string(spec.seed));
  EmitDouble(&out, "duration", spec.duration);
  EmitDouble(&out, "warmup", spec.warmup);
  Emit(&out, "active_terminals", spec.active_terminals.ToString());
  Emit(&out, "arrival_rate", spec.arrival_rate.ToString());
  Emit(&out, "routing", spec.routing);
  for (const auto& [key, value] : spec.routing_params.entries()) {
    Emit(&out, "routing." + key, value);
  }
  Emit(&out, "trace", spec.trace_path);
  Emit(&out, "decisions", spec.decisions_path);
  EmitBool(&out, "retraction", spec.retraction);
  EmitDouble(&out, "retraction_queue_factor", spec.retraction_queue_factor);
  EmitDouble(&out, "retraction_interval", spec.retraction_interval);
  EmitBool(&out, "retry.enabled", spec.retry.enabled);
  EmitInt(&out, "retry.budget", spec.retry.budget);
  EmitDouble(&out, "retry.backoff_base", spec.retry.backoff_base);
  EmitDouble(&out, "retry.backoff_factor", spec.retry.backoff_factor);
  EmitDouble(&out, "retry.backoff_max", spec.retry.backoff_max);
  EmitDouble(&out, "retry.jitter", spec.retry.jitter);
  EmitBool(&out, "degrade.enabled", spec.degrade.enabled);
  EmitDouble(&out, "degrade.interval", spec.degrade.interval);
  EmitDouble(&out, "degrade.shed_query", spec.degrade.shed_query);
  EmitDouble(&out, "degrade.shed_update", spec.degrade.shed_update);
  EmitDouble(&out, "degrade.restore_hysteresis",
             spec.degrade.restore_hysteresis);

  out += "\n[workload]\n";
  Emit(&out, "source", spec.workload.source);
  Emit(&out, "population", std::to_string(spec.workload.population));
  Emit(&out, "session_rate", spec.workload.session_rate.ToString());
  EmitInt(&out, "sessions", spec.workload.sessions);
  Emit(&out, "txns_per_session", spec.workload.txns_per_session.ToString());
  Emit(&out, "think_time", spec.workload.think_time.ToString());
  EmitDouble(&out, "affinity", spec.workload.affinity);
  EmitInt(&out, "affinity_keys", spec.workload.affinity_keys);
  for (const auto& [key, value] : spec.workload.params.entries()) {
    Emit(&out, key, value);
  }

  out += "\n[placement]\n";
  EmitBool(&out, "enabled", spec.placement_enabled);
  Emit(&out, "kind", placement::PlacementKindName(spec.placement.kind));
  EmitInt(&out, "num_partitions", spec.placement.num_partitions);
  EmitInt(&out, "replication_factor", spec.placement.replication_factor);
  EmitDouble(&out, "rebalance_interval", spec.placement.rebalance_interval);
  EmitInt(&out, "rebalance_moves", spec.placement.rebalance_moves);
  const db::LogicalConfig& workload = spec.placement_workload;
  EmitInt(&out, "workload.db_size", workload.db_size);
  EmitInt(&out, "workload.accesses_per_txn", workload.accesses_per_txn);
  EmitDouble(&out, "workload.query_fraction", workload.query_fraction);
  EmitDouble(&out, "workload.write_fraction", workload.write_fraction);
  EmitBool(&out, "workload.resample_on_restart", workload.resample_on_restart);
  EmitDouble(&out, "workload.hotspot_access_prob",
             workload.hotspot_access_prob);
  EmitDouble(&out, "workload.hotspot_size_fraction",
             workload.hotspot_size_fraction);
  if (spec.placement_dynamics.has_value()) {
    EmitDynamics(&out, *spec.placement_dynamics);
  }
  EmitDouble(&out, "remote.cpu_penalty", spec.remote_access.cpu_penalty);
  EmitDouble(&out, "remote.latency", spec.remote_access.latency);
  EmitDouble(&out, "remote.serve_cpu", spec.remote_access.serve_cpu);

  out += "\n[elasticity]\n";
  const elasticity::ElasticityConfig& elastic = spec.elasticity;
  EmitBool(&out, "enabled", elastic.enabled);
  EmitBool(&out, "detector", elastic.detector);
  const elasticity::HeartbeatConfig& heartbeat = elastic.heartbeat;
  EmitDouble(&out, "hb.interval", heartbeat.interval);
  EmitDouble(&out, "hb.timeout", heartbeat.timeout);
  EmitInt(&out, "hb.suspect_after", heartbeat.suspect_after);
  EmitInt(&out, "hb.down_after", heartbeat.down_after);
  EmitInt(&out, "hb.clear_after", heartbeat.clear_after);
  EmitDouble(&out, "hb.delay_base", heartbeat.delay_base);
  EmitDouble(&out, "hb.delay_load", heartbeat.delay_load);
  Emit(&out, "hb.kind", heartbeat.kind);
  EmitDouble(&out, "hb.phi_suspect", heartbeat.phi_suspect);
  EmitDouble(&out, "hb.phi_down", heartbeat.phi_down);
  EmitInt(&out, "hb.phi_window", heartbeat.phi_window);
  EmitInt(&out, "hb.observers", heartbeat.observers);
  EmitInt(&out, "hb.quorum", heartbeat.quorum);
  EmitDouble(&out, "hb.observer_jitter", heartbeat.observer_jitter);
  Emit(&out, "hb.delay_source", heartbeat.delay_source);
  EmitDouble(&out, "hb.delay_response", heartbeat.delay_response);
  Emit(&out, "scaler", elastic.scaler);
  EmitDouble(&out, "scaler_interval", elastic.scaler_interval);
  EmitInt(&out, "standby", elastic.standby);
  EmitInt(&out, "min_live", elastic.min_live);
  EmitDouble(&out, "slow_start_initial", elastic.slow_start_initial);
  EmitDouble(&out, "slow_start_duration", elastic.slow_start_duration);
  EmitDouble(&out, "drain_delay", elastic.drain_delay);
  for (const auto& [key, value] : elastic.scaler_params.entries()) {
    Emit(&out, "scaler." + key, value);
  }

  out += "\n[fault]\n";
  EmitBool(&out, "enabled", spec.fault.enabled);
  for (const fault::FaultSpec& injected : spec.fault.faults) {
    Emit(&out, "inject", injected.ToString());
  }

  for (const NodeSpec& node : spec.nodes) {
    EmitNode(&out, node);
  }
  return out;
}

namespace {

/// Empty when warmup < duration, else the message. Each key is range-checked
/// on its own when assigned; only the pair can be out of order.
std::string RunWindowError(const ExperimentSpec& spec) {
  if (spec.warmup < spec.duration) return std::string();
  return "warmup (" + util::FormatDouble(spec.warmup) +
         ") must be < duration (" + util::FormatDouble(spec.duration) + ")";
}

/// ValidateSpec's rules apart from the run window.
bool CheckCrossFieldRules(const ExperimentSpec& spec, std::string* error) {
  // Mode/fleet-shape validation here, with a message, rather than as a
  // CHECK abort inside ToScenario/ToClusterScenario.
  if (spec.nodes.empty()) {
    if (error != nullptr) *error = "spec declares no [node] section";
    return false;
  }
  if (!spec.cluster && spec.nodes.size() != 1) {
    if (error != nullptr) {
      *error = "single-node mode (cluster = false) requires exactly one "
               "node, got " +
               std::to_string(spec.nodes.size());
    }
    return false;
  }
  if (!spec.cluster) {
    // Lifecycle is a routed-fleet feature: the single-node closed/open
    // model has no front-end to crash away from.
    if (!spec.nodes[0].availability.always_up()) {
      if (error != nullptr) {
        *error = "node availability schedules require cluster mode "
                 "(cluster = true)";
      }
      return false;
    }
    if (spec.retraction || spec.retraction_queue_factor > 0.0) {
      if (error != nullptr) {
        *error = "retraction requires cluster mode (cluster = true)";
      }
      return false;
    }
    if (spec.workload.source != "open") {
      // The single-node model drives itself (terminals / its own open
      // stream); workload sources feed the routed front-end only.
      if (error != nullptr) {
        *error = "workload source '" + spec.workload.source +
                 "' requires cluster mode (cluster = true)";
      }
      return false;
    }
    if (spec.elasticity.enabled) {
      // Elasticity is fleet machinery: heartbeats probe routed members and
      // the autoscaler moves nodes in and out of the membership.
      if (error != nullptr) {
        *error = "elasticity requires cluster mode (cluster = true)";
      }
      return false;
    }
    if (spec.retry.enabled) {
      if (error != nullptr) {
        *error = "retry requires cluster mode (cluster = true)";
      }
      return false;
    }
    if (spec.degrade.enabled) {
      if (error != nullptr) {
        *error = "degrade requires cluster mode (cluster = true)";
      }
      return false;
    }
    if (spec.fault.enabled) {
      if (error != nullptr) {
        *error = "fault injection requires cluster mode (cluster = true)";
      }
      return false;
    }
  }
  if (spec.retry.enabled && spec.retry.backoff_max < spec.retry.backoff_base) {
    if (error != nullptr) {
      *error = "retry.backoff_max must be >= retry.backoff_base";
    }
    return false;
  }
  if (spec.degrade.enabled &&
      spec.degrade.shed_update < spec.degrade.shed_query) {
    if (error != nullptr) {
      *error = "degrade.shed_update must be >= degrade.shed_query";
    }
    return false;
  }
  for (const fault::FaultSpec& injected : spec.fault.faults) {
    // Window and target validation a per-key validator cannot see (the
    // node list is only final after [node] expansion).
    if (injected.start < 0.0 || injected.end <= injected.start) {
      if (error != nullptr) {
        *error = "fault '" + injected.ToString() +
                 "': window must satisfy 0 <= start < end";
      }
      return false;
    }
    for (int node : injected.nodes) {
      if (node < 0 || node >= static_cast<int>(spec.nodes.size())) {
        if (error != nullptr) {
          *error = "fault '" + injected.ToString() + "': node " +
                   std::to_string(node) + " out of range (fleet has " +
                   std::to_string(spec.nodes.size()) + " nodes)";
        }
        return false;
      }
    }
  }
  if (spec.elasticity.enabled) {
    // Cross-field checks a per-key validator cannot see. Matching aborts
    // exist at run time (HeartbeatDetector / ElasticityController CHECKs);
    // failing here names the line instead.
    if (spec.elasticity.heartbeat.down_after <
        spec.elasticity.heartbeat.suspect_after) {
      if (error != nullptr) {
        *error = "elasticity hb.down_after must be >= hb.suspect_after";
      }
      return false;
    }
    if (spec.elasticity.heartbeat.phi_down <
        spec.elasticity.heartbeat.phi_suspect) {
      if (error != nullptr) {
        *error = "elasticity hb.phi_down must be >= hb.phi_suspect";
      }
      return false;
    }
    if (spec.elasticity.heartbeat.quorum >
        spec.elasticity.heartbeat.observers) {
      if (error != nullptr) {
        *error = "elasticity hb.quorum must be <= hb.observers";
      }
      return false;
    }
    if (spec.elasticity.standby >= static_cast<int>(spec.nodes.size())) {
      if (error != nullptr) {
        *error = "elasticity standby pool (" +
                 std::to_string(spec.elasticity.standby) +
                 ") must leave at least one live node (" +
                 std::to_string(spec.nodes.size()) + " nodes)";
      }
      return false;
    }
  }

  return true;
}

}  // namespace

bool ValidateSpec(const ExperimentSpec& spec, std::string* error) {
  const std::string window_error = RunWindowError(spec);
  if (!window_error.empty()) {
    if (error != nullptr) *error = window_error;
    return false;
  }
  return CheckCrossFieldRules(spec, error);
}

bool ParseSpec(const std::string& text, ExperimentSpec* out,
               std::string* error) {
  ExperimentSpec spec;
  NamedSchedules named;
  std::vector<NodeParseState> node_states;

  enum class Section {
    kExperiment,
    kSchedules,
    kWorkload,
    kPlacement,
    kElasticity,
    kFault,
    kNode
  };
  Section section = Section::kExperiment;

  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  // Line that set warmup explicitly (0: the default applies). A file that
  // sets a warmup not before its duration is wrong at that line or the
  // later duration line; one that only shortens duration below the default
  // warmup may be a fragment completed by overrides, so its window is left
  // to ValidateSpec once those are in.
  int warmup_line = 0;
  int window_line = 0;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_number) + ": " + message;
    }
    return false;
  };

  while (std::getline(stream, line)) {
    ++line_number;
    // A '#' opens a comment only at line start or after whitespace, so
    // values containing '#' (a name, a registered policy) survive the
    // print/parse round trip.
    for (size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '#' &&
          (i == 0 ||
           std::isspace(static_cast<unsigned char>(line[i - 1])))) {
        line.resize(i);
        break;
      }
    }
    line = TrimWhitespace(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') return fail("malformed section header");
      const std::string name = TrimWhitespace(line.substr(1, line.size() - 2));
      if (name == "experiment") {
        section = Section::kExperiment;
      } else if (name == "schedules") {
        section = Section::kSchedules;
      } else if (name == "workload") {
        section = Section::kWorkload;
      } else if (name == "placement") {
        section = Section::kPlacement;
      } else if (name == "elasticity") {
        section = Section::kElasticity;
      } else if (name == "fault") {
        section = Section::kFault;
      } else if (name == "node") {
        spec.nodes.emplace_back();
        node_states.emplace_back();
        section = Section::kNode;
      } else {
        return fail("unknown section [" + name + "]");
      }
      continue;
    }

    const size_t equals = line.find('=');
    if (equals == std::string::npos) return fail("expected 'key = value'");
    const std::string key = TrimWhitespace(line.substr(0, equals));
    const std::string value = TrimWhitespace(line.substr(equals + 1));
    if (key.empty()) return fail("empty key");

    std::string message;
    bool ok = true;
    switch (section) {
      case Section::kExperiment:
        ok = AssignExperimentKey(&spec, key, value, named, &message);
        if (key == "warmup") warmup_line = line_number;
        if (key == "duration" || key == "warmup") window_line = line_number;
        break;
      case Section::kSchedules: {
        // avail(...) literals live in the availability namespace; every
        // other literal is a numeric schedule. One name can only mean one
        // thing, so the maps never hold the same key.
        if (HasPrefix(value, "avail(")) {
          cluster::AvailabilitySchedule availability;
          ok = cluster::AvailabilitySchedule::Parse(value, &availability,
                                                    &message);
          if (ok) named.availabilities[key] = availability;
          break;
        }
        db::Schedule schedule;
        ok = db::Schedule::Parse(value, &schedule);
        if (!ok) {
          message = "malformed schedule literal '" + value + "'";
        } else {
          named.schedules[key] = schedule;
        }
        break;
      }
      case Section::kWorkload:
        ok = AssignWorkloadKey(&spec, key, value, named, &message);
        break;
      case Section::kPlacement:
        ok = AssignPlacementKey(&spec, key, value, named, &message);
        break;
      case Section::kElasticity:
        ok = AssignElasticityKey(&spec, key, value, &message);
        break;
      case Section::kFault:
        ok = AssignFaultKey(&spec, key, value, &message);
        break;
      case Section::kNode:
        ok = AssignNodeKey(&spec.nodes.back(), key, value, named,
                           &node_states.back(), &message);
        break;
    }
    if (!ok) return fail(message);
  }

  // Expansion pass: clone counted nodes; resolve seed inheritance. A node
  // cloned from a declared seed decorrelates over its clone index; every
  // other undeclared seed decorrelates over the node's final fleet index —
  // two bare [node] sections must not share a random stream. The
  // single-node case inherits the experiment seed directly (and matches
  // what an ApplySpecOverride of "seed" produces).
  std::vector<NodeSpec> expanded;
  std::vector<bool> inherited;
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    const NodeSpec& node = spec.nodes[i];
    const NodeParseState& state = node_states[i];
    if (state.count == 1) {
      expanded.push_back(node);
      inherited.push_back(!state.seed_set);
    } else {
      for (int clone = 0; clone < state.count; ++clone) {
        expanded.push_back(node);
        if (state.seed_set) {
          expanded.back().system.seed =
              DecorrelatedNodeSeed(node.system.seed, clone);
        }
        inherited.push_back(!state.seed_set);
      }
    }
  }
  for (size_t i = 0; i < expanded.size(); ++i) {
    if (!inherited[i]) continue;
    expanded[i].system.seed =
        expanded.size() == 1
            ? spec.seed
            : DecorrelatedNodeSeed(spec.seed, static_cast<int>(i));
  }
  spec.nodes = std::move(expanded);

  if (warmup_line != 0) {
    const std::string window_error = RunWindowError(spec);
    if (!window_error.empty()) {
      line_number = window_line;
      return fail(window_error);
    }
  }
  if (!CheckCrossFieldRules(spec, error)) return false;

  *out = std::move(spec);
  return true;
}

bool LoadSpecFile(const std::string& path, ExperimentSpec* out,
                  std::string* error) {
  std::ifstream file(path);
  if (!file) {
    if (error != nullptr) *error = "cannot open spec file '" + path + "'";
    return false;
  }
  std::ostringstream text;
  text << file.rdbuf();
  if (!ParseSpec(text.str(), out, error)) {
    if (error != nullptr) *error = path + ": " + *error;
    return false;
  }
  return true;
}

bool ApplySpecOverride(ExperimentSpec* spec, const std::string& key,
                       const std::string& value, std::string* error) {
  std::string message;
  static const NamedSchedules kNoSchedules;

  // Mirror ParseSpec's cluster-only validation: a lifecycle/retraction
  // override on a single-node spec would be silently unused (ToScenario
  // never reads those fields), so reject it with the same message a spec
  // file would get instead of sweeping bit-identical points.
  if (!spec->cluster) {
    const size_t dot = key.find('.');
    const std::string subkey =
        dot == std::string::npos ? std::string() : key.substr(dot + 1);
    if (key == "retraction" || key == "retraction_queue_factor") {
      if (error != nullptr) {
        *error = "override '" + key +
                 "': retraction requires cluster mode (cluster = true)";
      }
      return false;
    }
    if (HasPrefix(key, "node") &&
        (subkey == "availability" || subkey == "rejoin")) {
      if (error != nullptr) {
        *error = "override '" + key +
                 "': node availability schedules require cluster mode "
                 "(cluster = true)";
      }
      return false;
    }
    if (HasPrefix(key, "workload.")) {
      // Single-node runs never construct a workload source; accepting the
      // override would sweep bit-identical points.
      if (error != nullptr) {
        *error = "override '" + key +
                 "': workload sources require cluster mode (cluster = true)";
      }
      return false;
    }
    if (HasPrefix(key, "elasticity.")) {
      if (error != nullptr) {
        *error = "override '" + key +
                 "': elasticity requires cluster mode (cluster = true)";
      }
      return false;
    }
    if (HasPrefix(key, "retry.") || HasPrefix(key, "degrade.") ||
        HasPrefix(key, "fault.")) {
      if (error != nullptr) {
        *error = "override '" + key +
                 "': robustness features require cluster mode "
                 "(cluster = true)";
      }
      return false;
    }
  }

  if (key == "seed") {
    // Parse-time seed inheritance has already stamped every node, so an
    // experiment-seed override must re-derive the node seeds too —
    // otherwise a replication sweep ("--sweep seed=1,2,3") would rerun
    // identical simulations. Nodes that need a pinned seed under an
    // experiment-seed sweep can be re-pinned with a later node<i>.seed
    // override.
    if (!SetUint64Field(key, value, &spec->seed, error ? error : &message)) {
      return false;
    }
    if (spec->nodes.size() == 1) {
      spec->nodes[0].system.seed = spec->seed;
    } else {
      for (size_t i = 0; i < spec->nodes.size(); ++i) {
        spec->nodes[i].system.seed =
            DecorrelatedNodeSeed(spec->seed, static_cast<int>(i));
      }
    }
    return true;
  }

  if (HasPrefix(key, "placement.")) {
    if (!AssignPlacementKey(spec, key.substr(10), value, kNoSchedules,
                            &message)) {
      if (error != nullptr) *error = message;
      return false;
    }
    return true;
  }
  if (HasPrefix(key, "workload.")) {
    if (!AssignWorkloadKey(spec, key.substr(9), value, kNoSchedules,
                           &message)) {
      if (error != nullptr) *error = message;
      return false;
    }
    return true;
  }
  if (HasPrefix(key, "elasticity.")) {
    if (!AssignElasticityKey(spec, key.substr(11), value, &message)) {
      if (error != nullptr) *error = message;
      return false;
    }
    return true;
  }
  if (HasPrefix(key, "fault.")) {
    if (!AssignFaultKey(spec, key.substr(6), value, &message)) {
      if (error != nullptr) *error = message;
      return false;
    }
    return true;
  }
  if (HasPrefix(key, "node")) {
    // "node.<key>" applies to every node, "node<i>.<key>" to node i.
    const size_t dot = key.find('.');
    if (dot != std::string::npos) {
      const std::string selector = key.substr(4, dot - 4);
      const std::string subkey = key.substr(dot + 1);
      if (selector.empty()) {
        if (spec->nodes.empty()) {
          if (error != nullptr) *error = "override '" + key + "': no nodes";
          return false;
        }
        if (subkey == "seed") {
          // Broadcasting one literal seed to the whole fleet would run
          // every node on the same random stream; decorrelate per index
          // like the experiment-level "seed" override. Pin one node with
          // node<i>.seed when an exact value is wanted.
          uint64_t base = 0;
          if (!SetUint64Field(key, value, &base,
                              error != nullptr ? error : &message)) {
            return false;
          }
          for (size_t i = 0; i < spec->nodes.size(); ++i) {
            spec->nodes[i].system.seed =
                spec->nodes.size() == 1
                    ? base
                    : DecorrelatedNodeSeed(base, static_cast<int>(i));
          }
          return true;
        }
        for (NodeSpec& node : spec->nodes) {
          if (!AssignNodeKey(&node, subkey, value, kNoSchedules, nullptr,
                             &message)) {
            if (error != nullptr) *error = message;
            return false;
          }
        }
        return true;
      }
      long long index = 0;
      if (util::ParseInt(selector, &index)) {
        if (index < 0 || index >= static_cast<long long>(spec->nodes.size())) {
          if (error != nullptr) {
            *error = "override '" + key + "': node index out of range (" +
                     std::to_string(spec->nodes.size()) + " nodes)";
          }
          return false;
        }
        if (!AssignNodeKey(&spec->nodes[static_cast<size_t>(index)], subkey,
                           value, kNoSchedules, nullptr, &message)) {
          if (error != nullptr) *error = message;
          return false;
        }
        return true;
      }
      // Not a node selector after all (no such key exists today, but fall
      // through to the experiment namespace for forward compatibility).
    }
  }
  if (!AssignExperimentKey(spec, key, value, kNoSchedules, &message)) {
    if (error != nullptr) *error = message;
    return false;
  }
  return true;
}

ExperimentSpec SpecFromScenario(const ScenarioConfig& scenario) {
  ExperimentSpec spec;
  spec.cluster = false;
  spec.seed = scenario.system.seed;
  spec.duration = scenario.duration;
  spec.warmup = scenario.warmup;
  spec.active_terminals = scenario.active_terminals;
  NodeSpec node;
  node.system = scenario.system;
  node.dynamics = scenario.dynamics;
  node.control = FromControlConfig(scenario.control);
  spec.nodes.push_back(std::move(node));
  return spec;
}

ExperimentSpec SpecFromCluster(const ClusterScenarioConfig& scenario) {
  ExperimentSpec spec;
  spec.cluster = true;
  spec.seed = scenario.seed;
  spec.duration = scenario.duration;
  spec.warmup = scenario.warmup;
  spec.routing = scenario.resolved_routing_name();
  cluster::AppendThresholdParams(scenario.threshold, &spec.routing_params);
  cluster::AppendPowerOfDParams(scenario.power_of_d, &spec.routing_params);
  spec.routing_params.Merge(scenario.routing_params);
  spec.arrival_rate = scenario.arrival_rate;
  spec.workload = scenario.workload;
  spec.retraction = scenario.retraction.enabled;
  spec.retraction_queue_factor = scenario.retraction.queue_factor;
  spec.retraction_interval = scenario.retraction.check_interval;
  spec.retry = scenario.retry;
  spec.degrade = scenario.degrade;
  spec.fault = scenario.fault;
  spec.placement_enabled = scenario.placement_enabled;
  spec.placement = scenario.placement.placement;
  spec.placement_workload = scenario.placement.workload;
  spec.placement_dynamics = scenario.placement.dynamics;
  spec.remote_access = scenario.remote_access;
  spec.elasticity = scenario.elasticity;
  spec.nodes.reserve(scenario.nodes.size());
  for (const ClusterNodeScenario& node : scenario.nodes) {
    NodeSpec node_spec;
    node_spec.system = node.system;
    node_spec.dynamics = node.dynamics;
    node_spec.control = FromControlConfig(node.control);
    node_spec.cpu_speed = node.cpu_speed;
    node_spec.availability = node.availability;
    node_spec.rejoin = node.rejoin;
    spec.nodes.push_back(std::move(node_spec));
  }
  return spec;
}

ScenarioConfig ToScenario(const ExperimentSpec& spec) {
  ALC_CHECK(!spec.cluster);
  ALC_CHECK_EQ(spec.nodes.size(), 1u);
  ScenarioConfig scenario;
  scenario.system = spec.nodes[0].system;
  scenario.dynamics = spec.nodes[0].dynamics;
  scenario.active_terminals = spec.active_terminals;
  scenario.control = ToControlConfig(spec.nodes[0].control);
  scenario.duration = spec.duration;
  scenario.warmup = spec.warmup;
  return scenario;
}

ClusterScenarioConfig ToClusterScenario(const ExperimentSpec& spec) {
  ALC_CHECK(spec.cluster);
  ALC_CHECK(!spec.nodes.empty());
  ClusterScenarioConfig scenario;
  scenario.routing_name = spec.routing;
  scenario.routing_params = spec.routing_params;
  scenario.arrival_rate = spec.arrival_rate;
  scenario.workload = spec.workload;
  scenario.retraction.enabled = spec.retraction;
  scenario.retraction.queue_factor = spec.retraction_queue_factor;
  scenario.retraction.check_interval = spec.retraction_interval;
  scenario.retry = spec.retry;
  scenario.degrade = spec.degrade;
  scenario.fault = spec.fault;
  scenario.placement_enabled = spec.placement_enabled;
  scenario.placement.placement = spec.placement;
  scenario.placement.workload = spec.placement_workload;
  scenario.placement.dynamics = spec.placement_dynamics;
  scenario.remote_access = spec.remote_access;
  scenario.elasticity = spec.elasticity;
  scenario.seed = spec.seed;
  scenario.duration = spec.duration;
  scenario.warmup = spec.warmup;
  scenario.nodes.reserve(spec.nodes.size());
  for (const NodeSpec& node : spec.nodes) {
    ClusterNodeScenario node_scenario;
    node_scenario.system = node.system;
    node_scenario.dynamics = node.dynamics;
    node_scenario.control = ToControlConfig(node.control);
    node_scenario.cpu_speed = node.cpu_speed;
    node_scenario.availability = node.availability;
    node_scenario.rejoin = node.rejoin;
    scenario.nodes.push_back(std::move(node_scenario));
  }
  return scenario;
}

SpecRunResult RunSpec(const ExperimentSpec& spec) {
  SpecRunResult result;
  result.cluster = spec.cluster;
  // The recorder outlives the run only long enough to flush; it observes
  // the simulation (no RNG draws, no scheduled events), so attaching it
  // cannot change any result.
  std::unique_ptr<telemetry::TraceRecorder> trace;
  if (!spec.trace_path.empty()) {
    trace = std::make_unique<telemetry::TraceRecorder>();
  }
  // The decision audit observes exactly like the recorder: controller
  // state is read const-ly after each step and appended as PODs.
  std::unique_ptr<telemetry::DecisionAudit> audit;
  if (!spec.decisions_path.empty()) {
    audit = std::make_unique<telemetry::DecisionAudit>();
  }
  if (spec.cluster) {
    ClusterExperiment experiment(ToClusterScenario(spec));
    if (trace) experiment.SetTraceRecorder(trace.get());
    if (audit) experiment.SetDecisionAudit(audit.get());
    result.cluster_result = experiment.Run();
  } else {
    Experiment experiment(ToScenario(spec));
    if (trace) experiment.SetTraceRecorder(trace.get());
    if (audit) experiment.SetDecisionAudit(audit.get());
    result.single = experiment.Run();
  }
  if (trace) {
    ALC_CHECK(trace->WriteFile(spec.trace_path));
  }
  if (audit) {
    result.decisions = audit->InOrder();
    result.decisions_dropped = audit->dropped();
    ALC_CHECK(telemetry::ExportDecisions(spec.decisions_path,
                                         result.decisions));
  }
  return result;
}

}  // namespace alc::core
