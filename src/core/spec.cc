#include "core/spec.h"

#include <cctype>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "cluster/registry.h"
#include "control/registry.h"
#include "core/expect.h"
#include "elasticity/autoscaler.h"
#include "fault/fault.h"
#include "util/check.h"
#include "workload/registry.h"

namespace alc::core {

namespace {

using util::TrimWhitespace;

bool HasPrefix(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

/// The named-schedule context of a parse: numeric schedules and
/// availability schedules share the [schedules] section (disambiguated by
/// the avail(...) literal head) and the `$name` reference syntax.
struct NamedSchedules {
  std::map<std::string, db::Schedule> schedules;
  std::map<std::string, cluster::AvailabilitySchedule> availabilities;
};

/// Keys the hand-written special cases (node cloning, seed re-derivation,
/// the run-window line) name besides their table rows.
constexpr std::string_view kSeedKey = "seed";
constexpr std::string_view kDurationKey = "duration";
constexpr std::string_view kWarmupKey = "warmup";
constexpr std::string_view kCountKey = "count";

// ---------------------------------------------------------------- codecs --
//
// ReadText parses a value's text into a field of its type (false with the
// reason) and WriteText prints it back; overloads on the field type pick
// them, and print/parse round trips rest on each pair. A row whose text
// says more than its type (an enum's names, a registered name) names a
// codec instead.

bool ReadText(const std::string& text, const NamedSchedules&, double* out,
              std::string* error) {
  if (util::ParseDouble(text, out)) return true;
  *error = "malformed number '" + text + "'";
  return false;
}
std::string WriteText(double value) { return util::FormatDouble(value); }

/// Integers are read at full width and rejected, not truncated, when they
/// do not fit the field.
template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
bool ReadText(const std::string& text, const NamedSchedules&, T* out,
              std::string* error) {
  long long as_signed = 0;
  uint64_t as_unsigned = 0;
  const bool ok = std::is_signed_v<T>
                      ? util::ParseInt(text, &as_signed) &&
                            as_signed >= std::numeric_limits<T>::min() &&
                            as_signed <= std::numeric_limits<T>::max()
                      : util::ParseUint64(text, &as_unsigned) &&
                            as_unsigned <= std::numeric_limits<T>::max();
  if (!ok) {
    *error = "malformed or out-of-range integer '" + text + "'";
    return false;
  }
  *out = std::is_signed_v<T> ? static_cast<T>(as_signed)
                             : static_cast<T>(as_unsigned);
  return true;
}
template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
std::string WriteText(T value) { return std::to_string(value); }

bool ReadText(const std::string& text, const NamedSchedules&, bool* out,
              std::string* error) {
  if (util::ParseBool(text, out)) return true;
  *error = "expected true/false, got '" + text + "'";
  return false;
}
std::string WriteText(bool value) { return value ? "true" : "false"; }

bool ReadText(const std::string& text, const NamedSchedules&,
              std::string* out, std::string*) {
  *out = text;
  return true;
}
const std::string& WriteText(const std::string& value) { return value; }

/// A `$name` value: the [schedules] entry of that name and kind.
template <typename T>
bool ReadReference(const std::string& text,
                   const std::map<std::string, T>& named,
                   const char* unknown, T* out, std::string* error) {
  auto it = named.find(text.substr(1));
  if (it == named.end()) {
    *error = std::string(unknown) + " '" + text +
             "' (define it in [schedules] first)";
    return false;
  }
  *out = it->second;
  return true;
}

bool ReadText(const std::string& text, const NamedSchedules& named,
              db::Schedule* out, std::string* error) {
  if (HasPrefix(text, "$")) {
    return ReadReference(text, named.schedules, "unknown schedule reference",
                         out, error);
  }
  if (db::Schedule::Parse(text, out)) return true;
  *error = "malformed schedule literal '" + text + "'";
  return false;
}

bool ReadText(const std::string& text, const NamedSchedules& named,
              cluster::AvailabilitySchedule* out, std::string* error) {
  if (HasPrefix(text, "$")) {
    return ReadReference(text, named.availabilities,
                         "unknown availability reference", out, error);
  }
  return cluster::AvailabilitySchedule::Parse(text, out, error);
}

/// A distribution value is always a literal; there is no named-distribution
/// section (distributions are small enough to inline).
bool ReadText(const std::string& text, const NamedSchedules&,
              workload::Distribution* out, std::string* error) {
  if (workload::Distribution::Parse(text, out)) return true;
  *error = "malformed distribution literal '" + text +
           "' (expected constant(v), exp(mean), lognormal(mu, sigma), or "
           "pareto(alpha, lo, hi))";
  return false;
}

/// Schedules, availability schedules and distributions print themselves.
template <typename T>
auto WriteText(const T& value) -> decltype(value.ToString()) {
  return value.ToString();
}

using util::Name;

constexpr Name<db::CcScheme> kCcSchemes[] = {
    {"occ", db::CcScheme::kOptimisticCertification},
    {"2pl", db::CcScheme::kTwoPhaseLocking}};
constexpr Name<db::ArrivalMode> kArrivalModes[] = {
    {"closed", db::ArrivalMode::kClosed},
    {"open", db::ArrivalMode::kOpen},
    {"external", db::ArrivalMode::kExternal}};
constexpr Name<db::ServiceDistribution> kDistributions[] = {
    {"exponential", db::ServiceDistribution::kExponential},
    {"deterministic", db::ServiceDistribution::kDeterministic},
    {"erlang2", db::ServiceDistribution::kErlang2}};
constexpr Name<placement::PlacementKind> kPlacementKinds[] = {
    {"hash", placement::PlacementKind::kHash},
    {"range", placement::PlacementKind::kRange},
    {"replicated", placement::PlacementKind::kReplicated}};
constexpr Name<cluster::RejoinPolicy> kRejoinPolicies[] = {
    {"fresh", cluster::RejoinPolicy::kFresh},
    {"retained", cluster::RejoinPolicy::kRetained}};
constexpr Name<std::string_view> kDetectorKinds[] = {
    {"consecutive", "consecutive"}, {"phi", "phi"}};
constexpr Name<std::string_view> kDelaySources[] = {
    {"occupancy", "occupancy"}, {"response", "response"}};

/// A value spelled by name: an enum, or a string with a closed set of
/// choices (then each name is its own value).
template <const auto& kNames>
struct NamedCodec {
  template <typename T>
  static bool Read(const std::string& text, const NamedSchedules&, T* out,
                   std::string* error) {
    if (util::Named<kNames>::Read(text, out)) return true;
    *error = "expected ";
    for (const auto& name : kNames) {
      if (&name != &kNames[0]) *error += "/";
      *error += name.text;
    }
    *error += ", got '" + text + "'";
    return false;
  }
  template <typename T>
  static const char* Write(const T& value) {
    return util::Named<kNames>::Write(value);
  }
};

/// The codec of every row that names none: the field type's overloads.
struct TypeCodec {
  template <typename T>
  static bool Read(const std::string& text, const NamedSchedules& named,
                   T* out, std::string* error) {
    return ReadText(text, named, out, error);
  }
  template <typename T>
  static decltype(auto) Write(const T& value) { return WriteText(value); }
};

/// A policy name, checked against its registry when assigned: unknown names
/// fail with the registered names listed, instead of aborting deep inside
/// the run. Names must therefore be registered before specs referencing
/// them are parsed.
template <typename Registry>
struct RegisteredCodec {
  static bool Read(const std::string& text, const NamedSchedules&,
                   std::string* out, std::string* error) {
    if (!Registry::Global().Check(text, error)) return false;
    *out = text;
    return true;
  }
  static const std::string& Write(const std::string& value) { return value; }
};
using RoutingName = RegisteredCodec<cluster::RoutingPolicyRegistry>;
using SourceName = RegisteredCodec<workload::WorkloadRegistry>;
using ScalerName = RegisteredCodec<elasticity::AutoscalerRegistry>;
using ControllerName = RegisteredCodec<control::ControllerRegistry>;

// ------------------------------------------------------------ range checks --
//
// Null when a parsed number is accepted, else why not. Each bound mirrors
// the check of the code that consumes the field, so a value that would
// abort the run fails when the spec is parsed or overridden instead.

using Check = const char* (*)(double value);

const char* Positive(double x) { return x > 0 ? nullptr : "must be > 0"; }
const char* NonNegative(double x) { return x >= 0 ? nullptr : "must be >= 0"; }
const char* AtLeastOne(double x) { return x >= 1 ? nullptr : "must be >= 1"; }
const char* Fraction(double x) {
  return x >= 0 && x <= 1 ? nullptr : "must be in [0, 1]";
}
const char* PositiveFraction(double x) {
  return x > 0 && x <= 1 ? nullptr : "must be in (0, 1]";
}

// ------------------------------------------------------------ field tables --
//
// Every key is one row of its section's table: the key, the member it
// sets, the codec its value reads and prints through, and an optional range
// check. ParseSpec, PrintSpec, ApplySpecOverride and spec equality all walk
// the tables, so a new key is one new row. A struct shared by several
// sections has one table, mounted under a key prefix wherever it appears.

/// One `key = value` being assigned.
struct Assignment {
  const std::string& key;  // section-relative, as messages name it
  const std::string& value;
  const NamedSchedules& named;
  /// The whole override key when overriding a single-node spec, where a
  /// cluster-only row refuses it by name; null otherwise.
  const std::string* single_node_override;
  std::string* error;
};

enum class Assigned { kUnknownKey, kOk, kError };

template <typename Owner>
struct Field {
  /// The key; for a mount or a param map, the prefix its keys share.
  std::string_view key;
  bool prefix = false;
  /// Names the feature when a single-node override is refused ("retraction
  /// requires"); null when the key applies in either mode.
  const char* cluster_only = nullptr;
  Check check = nullptr;
  const void* table = nullptr;  // a mount's rows, typed by its functions
  /// `rest` is what remains of the key below this row's prefix.
  Assigned (*assign)(const Field& field, Owner* owner, std::string_view rest,
                     const Assignment& in);
  void (*print)(const Field& field, const Owner& owner,
                const std::string& prefix, std::string* out);
  bool (*equal)(const Field& field, const Owner& a, const Owner& b);
};

template <typename Owner>
using Table = std::vector<Field<Owner>>;

template <typename Owner>
Assigned AssignKey(const Table<Owner>& table, Owner* owner,
                   std::string_view rest, const Assignment& in) {
  for (const Field<Owner>& field : table) {
    if (field.prefix ? !HasPrefix(rest, field.key) : rest != field.key) {
      continue;
    }
    if (field.cluster_only != nullptr && in.single_node_override != nullptr) {
      // A single-node run never reads the field, so accepting the override
      // would sweep bit-identical points.
      *in.error = "override '" + *in.single_node_override + "': " +
                  field.cluster_only + " cluster mode (cluster = true)";
      return Assigned::kError;
    }
    const Assigned assigned =
        field.assign(field, owner, rest.substr(field.key.size()), in);
    if (assigned != Assigned::kUnknownKey) return assigned;
  }
  return Assigned::kUnknownKey;
}

/// AssignKey from the top of a table, an unknown key being an error of
/// `section`.
template <typename Owner>
bool Assign(const Table<Owner>& table, Owner* owner, const std::string& key,
            const std::string& value, const NamedSchedules& named,
            const std::string* single_node_override, std::string_view section,
            std::string* error) {
  std::string message;
  const Assignment in{key, value, named, single_node_override, &message};
  const Assigned assigned = AssignKey(table, owner, key, in);
  if (assigned == Assigned::kOk) return true;
  if (assigned == Assigned::kUnknownKey) {
    message = "unknown " + std::string(section) + " key '" + key + "'";
  }
  if (error != nullptr) *error = std::move(message);
  return false;
}

void Emit(std::string* out, std::initializer_list<std::string_view> key,
          std::string_view value) {
  for (std::string_view piece : key) *out += piece;
  *out += " = ";
  *out += value;
  *out += '\n';
}

template <typename Owner>
void PrintFields(const Table<Owner>& table, const Owner& owner,
                 const std::string& prefix, std::string* out) {
  for (const Field<Owner>& field : table) {
    field.print(field, owner, prefix, out);
  }
}

template <typename Owner>
bool EqualFields(const Table<Owner>& table, const Owner& a, const Owner& b) {
  for (const Field<Owner>& field : table) {
    if (!field.equal(field, a, b)) return false;
  }
  return true;
}

// Declared only, to deduce a member pointer's class and type in decltype.
template <typename O, typename T>
O OwnerOfMember(T O::*);
template <typename O, typename T>
T TypeOfMember(T O::*);
template <auto kMember>
using OwnerOf = decltype(OwnerOfMember(kMember));
template <auto kMember>
using TypeOf = decltype(TypeOfMember(kMember));

/// A key holding one value of `kMember`.
template <auto kMember, typename Codec = TypeCodec>
Field<OwnerOf<kMember>> Leaf(std::string_view key, Check check = nullptr,
                             const char* cluster_only = nullptr) {
  using Owner = OwnerOf<kMember>;
  return {
      key, false, cluster_only, check, nullptr,
      [](const Field<Owner>& self, Owner* owner, std::string_view,
         const Assignment& in) {
        // A rejected value leaves the field as it was.
        TypeOf<kMember> parsed{};
        std::string reason;
        const char* why = nullptr;
        if (!Codec::Read(in.value, in.named, &parsed, &reason)) {
          why = reason.c_str();
        } else if constexpr (std::is_arithmetic_v<TypeOf<kMember>>) {
          if (self.check != nullptr) why = self.check(parsed);
        }
        if (why != nullptr) {
          *in.error = "key '" + in.key + "': " + why;
          return Assigned::kError;
        }
        owner->*kMember = std::move(parsed);
        return Assigned::kOk;
      },
      [](const Field<Owner>& self, const Owner& owner,
         const std::string& prefix, std::string* out) {
        Emit(out, {prefix, self.key}, Codec::Write(owner.*kMember));
      },
      [](const Field<Owner>&, const Owner& a, const Owner& b) {
        return a.*kMember == b.*kMember;
      }};
}

template <typename Sub, typename Owner>
const Table<Sub>& RowsOf(const Field<Owner>& mount) {
  return *static_cast<const Table<Sub>*>(mount.table);
}

/// The keys of `table` under `prefix`, addressing the struct at `kMember`.
template <auto kMember, typename Sub = TypeOf<kMember>>
Field<OwnerOf<kMember>> Mount(std::string_view prefix, const Table<Sub>& table,
                              const char* cluster_only = nullptr) {
  using Owner = OwnerOf<kMember>;
  return {
      prefix, true, cluster_only, nullptr, &table,
      [](const Field<Owner>& self, Owner* owner, std::string_view rest,
         const Assignment& in) {
        return AssignKey(RowsOf<Sub>(self), &(owner->*kMember), rest, in);
      },
      [](const Field<Owner>& self, const Owner& owner,
         const std::string& prefix, std::string* out) {
        PrintFields(RowsOf<Sub>(self), owner.*kMember,
                    prefix + std::string(self.key), out);
      },
      [](const Field<Owner>& self, const Owner& a, const Owner& b) {
        return EqualFields(RowsOf<Sub>(self), a.*kMember, b.*kMember);
      }};
}

/// Input spellings of the WorkloadDynamics schedules, each read as a plain
/// value: an integer for k (`integer`), a number for a fraction.
struct MixAlias {
  std::string_view key;
  db::Schedule db::WorkloadDynamics::*schedule;
  bool integer;
};
constexpr MixAlias kMixAliases[] = {
    {"accesses_per_txn", &db::WorkloadDynamics::k, true},
    {"query_fraction", &db::WorkloadDynamics::query_fraction, false},
    {"write_fraction", &db::WorkloadDynamics::write_fraction, false},
};

/// `<prefix><alias> = v` (a node's `logical.`, [placement]'s `workload.`)
/// sets the matching schedule of the WorkloadDynamics at `kDynamics` to
/// constant(v), so a later line still wins. Input only: prints and compares
/// nothing, as the dynamics rows print what it set.
template <auto kDynamics>
Field<OwnerOf<kDynamics>> MixAliases(std::string_view prefix) {
  using Owner = OwnerOf<kDynamics>;
  return {
      prefix, true, nullptr, nullptr, nullptr,
      [](const Field<Owner>&, Owner* owner, std::string_view rest,
         const Assignment& in) {
        for (const MixAlias& alias : kMixAliases) {
          if (rest != alias.key) continue;
          double value = 0.0;
          int k = 0;
          std::string reason;
          const bool read = alias.integer
                                ? ReadText(in.value, in.named, &k, &reason)
                                : ReadText(in.value, in.named, &value, &reason);
          if (!read) {
            *in.error = "key '" + in.key + "': " + reason;
            return Assigned::kError;
          }
          (owner->*kDynamics).*alias.schedule =
              db::Schedule::Constant(alias.integer ? k : value);
          return Assigned::kOk;
        }
        return Assigned::kUnknownKey;
      },
      [](const Field<Owner>&, const Owner&, const std::string&,
         std::string*) {},
      [](const Field<Owner>&, const Owner&, const Owner&) { return true; }};
}

using ParamCheck = bool (*)(const std::string& key, const std::string& value,
                            std::string* error);

bool AnyParam(const std::string&, const std::string&, std::string*) {
  return true;
}

/// Keys under `prefix` pass through as strings to a policy factory's
/// ParamMap, so externally registered policies can define their own.
/// `kCheck` type-checks the keys the built-in policies read;
/// `kDottedOnly` passes only keys containing a '.'.
template <auto kMember, ParamCheck kCheck = AnyParam, bool kDottedOnly = false>
Field<OwnerOf<kMember>> Params(std::string_view prefix) {
  using Owner = OwnerOf<kMember>;
  return {
      prefix, true, nullptr, nullptr, nullptr,
      [](const Field<Owner>&, Owner* owner, std::string_view rest,
         const Assignment& in) {
        const std::string param(rest);
        if (kDottedOnly && param.find('.') == std::string::npos) {
          return Assigned::kUnknownKey;
        }
        if (!kCheck(param, in.value, in.error)) return Assigned::kError;
        (owner->*kMember).Set(param, in.value);
        return Assigned::kOk;
      },
      [](const Field<Owner>& self, const Owner& owner,
         const std::string& prefix, std::string* out) {
        for (const auto& [param, value] : (owner.*kMember).entries()) {
          Emit(out, {prefix, self.key, param}, value);
        }
      },
      [](const Field<Owner>&, const Owner& a, const Owner& b) {
        return a.*kMember == b.*kMember;
      }};
}

/// `inject = kind(start:end; ...)`: each line appends one fault window.
Field<fault::FaultConfig> FaultInjects() {
  using Owner = fault::FaultConfig;
  return {
      "inject", false, nullptr, nullptr, nullptr,
      [](const Field<Owner>&, Owner* owner, std::string_view,
         const Assignment& in) {
        fault::FaultSpec parsed;
        std::string message;
        if (!fault::ParseFaultSpec(in.value, &parsed, &message)) {
          *in.error = "key '" + in.key + "': " + message;
          return Assigned::kError;
        }
        if (!fault::FaultRegistry::Global().Check(parsed.kind, &message)) {
          *in.error = "key '" + in.key + "': " + message;
          return Assigned::kError;
        }
        owner->faults.push_back(std::move(parsed));
        return Assigned::kOk;
      },
      [](const Field<Owner>& self, const Owner& owner,
         const std::string& prefix, std::string* out) {
        for (const fault::FaultSpec& injected : owner.faults) {
          Emit(out, {prefix, self.key}, injected.ToString());
        }
      },
      [](const Field<Owner>&, const Owner& a, const Owner& b) {
        return a.faults == b.faults;
      }};
}

// What a cluster-only row belongs to, as its refusal names it ("... require
// cluster mode").
constexpr char kRetraction[] = "retraction requires";
constexpr char kRobustness[] = "robustness features require";
constexpr char kAvailability[] = "node availability schedules require";

/// A top-level section of the spec text: its [name] header (also the
/// prefix its keys take in an override, except [experiment]'s bare keys)
/// and its rows. The [node] sections, one per node, are the exception: see
/// node_fields.
struct Section {
  std::string_view name;
  /// Names the feature when a single-node override is refused; null when
  /// the section applies in either mode.
  const char* cluster_only;
  Table<ExperimentSpec> fields;
};

// ------------------------------------------------------------- the tables --

using Degrade = cluster::DegradeConfig;
using Dynamics = db::WorkloadDynamics;
using Elasticity = elasticity::ElasticityConfig;
using Heartbeat = elasticity::HeartbeatConfig;
using Logical = db::LogicalConfig;
using Physical = db::PhysicalConfig;
using Partitions = placement::PlacementConfig;
using Placement = cluster::PlacementSpec;
using Remote = db::RemoteAccessConfig;
using Spec = ExperimentSpec;
using Retraction = cluster::RetractionConfig;
using Retry = cluster::RetryConfig;
using System = db::SystemConfig;
using Workload = workload::WorkloadSpec;

/// Parse-time-only per-node state: `count` cloning and whether the node
/// declared its own seed (both drive ParseSpec's expansion pass).
struct NodeParseState {
  bool seed_set = false;
  int count = 1;
};

/// Every table, built once in dependency order (a mount holds the address
/// of its sub-table) and never destroyed, like the policy registries.
struct SpecTables {
  const Table<Logical> logical_fields = {
      Leaf<&Logical::db_size>("db_size", AtLeastOne),
      Leaf<&Logical::resample_on_restart>("resample_on_restart"),
      Leaf<&Logical::hotspot_access_prob>("hotspot_access_prob"),
      Leaf<&Logical::hotspot_size_fraction>("hotspot_size_fraction"),
  };

  const Table<Remote> remote_fields = {
      Leaf<&Remote::cpu_penalty>("cpu_penalty"),
      Leaf<&Remote::latency>("latency"),
      Leaf<&Remote::serve_cpu>("serve_cpu"),
  };

  const Table<Dynamics> dynamics_fields = {
      Leaf<&Dynamics::k>("k"),
      Leaf<&Dynamics::query_fraction>("query_fraction"),
      Leaf<&Dynamics::write_fraction>("write_fraction"),
  };

  /// Mounted under "retraction", so the keys are "retraction",
  /// "retraction_queue_factor" and "retraction_interval".
  const Table<Retraction> retraction_fields = {
      Leaf<&Retraction::enabled>("", nullptr, kRetraction),
      Leaf<&Retraction::queue_factor>("_queue_factor", NonNegative,
                                      kRetraction),
      Leaf<&Retraction::check_interval>("_interval", Positive),
  };

  const Table<Retry> retry_fields = {
      Leaf<&Retry::enabled>("enabled"),
      Leaf<&Retry::budget>("budget", NonNegative),
      Leaf<&Retry::backoff_base>("backoff_base", Positive),
      Leaf<&Retry::backoff_factor>("backoff_factor", AtLeastOne),
      Leaf<&Retry::backoff_max>("backoff_max", Positive),
      Leaf<&Retry::jitter>("jitter", Fraction),
  };

  const Table<Degrade> degrade_fields = {
      Leaf<&Degrade::enabled>("enabled"),
      Leaf<&Degrade::interval>("interval", Positive),
      Leaf<&Degrade::shed_query>("shed_query", Positive),
      Leaf<&Degrade::shed_update>("shed_update", Positive),
      Leaf<&Degrade::restore_hysteresis>("restore_hysteresis",
                                         PositiveFraction),
  };

  const Table<Spec> experiment_fields = {
      Leaf<&Spec::name>("name"),
      Leaf<&Spec::cluster>("cluster"),
      Leaf<&Spec::seed>(kSeedKey),
      Leaf<&Spec::duration>(kDurationKey, Positive),
      Leaf<&Spec::warmup>(kWarmupKey, NonNegative),
      Leaf<&Spec::active_terminals>("active_terminals"),
      Leaf<&Spec::arrival_rate>("arrival_rate"),
      Leaf<&Spec::routing, RoutingName>("routing"),
      Params<&Spec::routing_params, cluster::ValidateRoutingParam>("routing."),
      // Empty disables tracing / the decision audit (and round-trips).
      Leaf<&Spec::trace_path>("trace"),
      Leaf<&Spec::decisions_path>("decisions"),
      Mount<&Spec::retraction>("retraction", retraction_fields),
      Mount<&Spec::retry>("retry.", retry_fields, kRobustness),
      Mount<&Spec::degrade>("degrade.", degrade_fields, kRobustness),
  };

  const Table<Workload> workload_fields = {
      Leaf<&Workload::source, SourceName>("source"),
      Leaf<&Workload::population>("population", AtLeastOne),
      Leaf<&Workload::session_rate>("session_rate"),
      Leaf<&Workload::sessions>("sessions", AtLeastOne),
      Leaf<&Workload::txns_per_session>("txns_per_session"),
      Leaf<&Workload::think_time>("think_time"),
      Leaf<&Workload::affinity>("affinity", Fraction),
      Leaf<&Workload::affinity_keys>("affinity_keys", AtLeastOne),
      // Dotted keys go to the source factory (mirrors routing.*/control.*).
      Params<&Workload::params, AnyParam, true>(""),
  };

  const Table<Partitions> partition_fields = {
      Leaf<&Partitions::kind, NamedCodec<kPlacementKinds>>("kind"),
      Leaf<&Partitions::num_partitions>("num_partitions", AtLeastOne),
      Leaf<&Partitions::replication_factor>("replication_factor", AtLeastOne),
      Leaf<&Partitions::rebalance_interval>("rebalance_interval", NonNegative),
      Leaf<&Partitions::rebalance_moves>("rebalance_moves"),
  };

  const Table<Placement> placement_spec_fields = {
      Mount<&Placement::placement>("", partition_fields),
      MixAliases<&Placement::dynamics>("workload."),
      Mount<&Placement::workload>("workload.", logical_fields),
      Mount<&Placement::dynamics>("dynamics.", dynamics_fields),
  };

  const Table<Spec> placement_fields = {
      Leaf<&Spec::placement_enabled>("enabled"),
      Mount<&Spec::placement>("", placement_spec_fields),
      Mount<&Spec::remote_access>("remote.", remote_fields),
  };

  const Table<Heartbeat> heartbeat_fields = {
      Leaf<&Heartbeat::interval>("interval", Positive),
      Leaf<&Heartbeat::timeout>("timeout", Positive),
      Leaf<&Heartbeat::suspect_after>("suspect_after", AtLeastOne),
      Leaf<&Heartbeat::down_after>("down_after", AtLeastOne),
      Leaf<&Heartbeat::clear_after>("clear_after", AtLeastOne),
      Leaf<&Heartbeat::delay_base>("delay_base", NonNegative),
      Leaf<&Heartbeat::delay_load>("delay_load", NonNegative),
      Leaf<&Heartbeat::kind, NamedCodec<kDetectorKinds>>("kind"),
      Leaf<&Heartbeat::phi_suspect>("phi_suspect", Positive),
      Leaf<&Heartbeat::phi_down>("phi_down", Positive),
      Leaf<&Heartbeat::phi_window>("phi_window", AtLeastOne),
      Leaf<&Heartbeat::observers>("observers", AtLeastOne),
      Leaf<&Heartbeat::quorum>("quorum", AtLeastOne),
      Leaf<&Heartbeat::observer_jitter>("observer_jitter", NonNegative),
      Leaf<&Heartbeat::delay_source, NamedCodec<kDelaySources>>("delay_source"),
      Leaf<&Heartbeat::delay_response>("delay_response", NonNegative),
  };

  const Table<Elasticity> elasticity_fields = {
      Leaf<&Elasticity::enabled>("enabled"),
      Leaf<&Elasticity::detector>("detector"),
      Mount<&Elasticity::heartbeat>("hb.", heartbeat_fields),
      Leaf<&Elasticity::scaler, ScalerName>("scaler"),
      Leaf<&Elasticity::scaler_interval>("scaler_interval", Positive),
      Leaf<&Elasticity::standby>("standby", NonNegative),
      Leaf<&Elasticity::min_live>("min_live", AtLeastOne),
      Leaf<&Elasticity::slow_start_initial>("slow_start_initial", Positive),
      Leaf<&Elasticity::slow_start_duration>("slow_start_duration", Positive),
      Leaf<&Elasticity::drain_delay>("drain_delay", NonNegative),
      Params<&Elasticity::scaler_params, elasticity::ValidateAutoscalerParam>(
          "scaler."),
  };

  const Table<fault::FaultConfig> fault_fields = {
      Leaf<&fault::FaultConfig::enabled>("enabled"),
      FaultInjects(),
  };

  const Table<Physical> physical_fields = {
      Leaf<&Physical::num_terminals>("num_terminals", AtLeastOne),
      Leaf<&Physical::think_time_mean>("think_time_mean", Positive),
      Leaf<&Physical::num_cpus>("num_cpus", AtLeastOne),
      // Exponential and Erlang draws need a positive mean.
      Leaf<&Physical::cpu_init_mean>("cpu_init_mean", Positive),
      Leaf<&Physical::cpu_access_mean>("cpu_access_mean", Positive),
      Leaf<&Physical::cpu_commit_mean>("cpu_commit_mean", Positive),
      Leaf<&Physical::cpu_write_commit_mean>("cpu_write_commit_mean",
                                             Positive),
      Leaf<&Physical::io_time>("io_time", NonNegative),
      Leaf<&Physical::restart_delay_mean>("restart_delay_mean", Positive),
      Leaf<&Physical::cpu_distribution, NamedCodec<kDistributions>>(
          "cpu_distribution"),
  };

  const Table<db::TelemetryConfig> telemetry_fields = {
      Leaf<&db::TelemetryConfig::per_phase>("per_phase"),
  };

  const Table<System> system_fields = {
      Leaf<&System::seed>(kSeedKey),
      Leaf<&System::cc, NamedCodec<kCcSchemes>>("cc"),
      Leaf<&System::arrivals, NamedCodec<kArrivalModes>>("arrivals"),
      Leaf<&System::open_arrival_rate>("open_arrival_rate"),
      Leaf<&System::record_history>("record_history"),
      Mount<&System::telemetry>("telemetry.", telemetry_fields),
      Mount<&System::physical>("physical.", physical_fields),
      MixAliases<&System::dynamics>("logical."),
      Mount<&System::logical>("logical.", logical_fields),
      Mount<&System::remote>("remote.", remote_fields),
      Mount<&System::dynamics>("dynamics.", dynamics_fields),
      Leaf<&System::cpu_speed>("cpu_speed"),
  };

  const Table<ControlSpec> control_fields = {
      Leaf<&ControlSpec::controller, ControllerName>("controller"),
      Leaf<&ControlSpec::measurement_interval>("measurement_interval",
                                               Positive),
      Leaf<&ControlSpec::initial_limit>("initial_limit", Positive),
      Leaf<&ControlSpec::displacement>("displacement"),
      Leaf<&ControlSpec::outer_tuner>("outer_tuner"),
      // Any other key under control. is a controller parameter, e.g.
      // control.pa.dither -> params["pa.dither"].
      Params<&ControlSpec::params, control::ValidateControllerParam>(""),
  };

  const Table<NodeSpec> node_fields = {
      Mount<&NodeSpec::system>("", system_fields),
      Leaf<&NodeSpec::availability>("availability", nullptr, kAvailability),
      Leaf<&NodeSpec::rejoin, NamedCodec<kRejoinPolicies>>("rejoin", nullptr,
                                                           kAvailability),
      Mount<&NodeSpec::control>("control.", control_fields),
  };

  const Table<NodeParseState> count_fields = {
      Leaf<&NodeParseState::count>(kCountKey, AtLeastOne),
  };

  /// In print order.
  const Section sections[5] = {
      {"experiment", nullptr, experiment_fields},
      {"workload", "workload sources require",
       {Mount<&Spec::workload>("", workload_fields)}},
      {"placement", nullptr, placement_fields},
      {"elasticity", "elasticity requires",
       {Mount<&Spec::elasticity>("", elasticity_fields)}},
      {"fault", kRobustness,
       {Mount<&Spec::fault>("", fault_fields)}},
  };
};

const SpecTables& Tables() {
  static const SpecTables* tables = new SpecTables();
  return *tables;
}

}  // namespace

bool ControlSpec::operator==(const ControlSpec& other) const {
  return EqualFields(Tables().control_fields, *this, other);
}

bool NodeSpec::operator==(const NodeSpec& other) const {
  return EqualFields(Tables().node_fields, *this, other);
}

bool ExperimentSpec::operator==(const ExperimentSpec& other) const {
  for (const Section& section : Tables().sections) {
    if (!EqualFields(section.fields, *this, other)) return false;
  }
  return nodes == other.nodes && expect == other.expect;
}

std::string PrintSpec(const ExperimentSpec& spec) {
  std::string out =
      "# Canonical ExperimentSpec (core/spec.h); run with: alc_run <file>\n";
  const std::string no_prefix;
  for (const Section& section : Tables().sections) {
    if (&section != &Tables().sections[0]) out += "\n";
    out += "[";
    out += section.name;
    out += "]\n";
    PrintFields(section.fields, spec, no_prefix, &out);
  }
  for (const NodeSpec& node : spec.nodes) {
    out += "\n[node]\n";
    PrintFields(Tables().node_fields, node, no_prefix, &out);
  }
  if (!spec.expect.empty()) out += "\n[expect]\n";
  for (const ExpectRow& row : spec.expect) {
    out += row.name + " = " + row.check + "\n";
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

/// Empty when `low` < `high` (or == when not `strict`), else the message
/// naming both params under `prefix`: an ordering between two of a policy's
/// params that its constructor checks and no single param row can.
std::string OrderError(const std::string& prefix, const char* low_name,
                       double low, const char* high_name, double high,
                       bool strict) {
  if (low < high || (!strict && low == high)) return std::string();
  return prefix + low_name + " (" + util::FormatDouble(low) + ") must be " +
         (strict ? "< " : "<= ") + prefix + high_name + " (" +
         util::FormatDouble(high) + ")";
}

/// Empty when a controller's min_bound < max_bound, else the message
/// (following "node <i>").
template <typename Config>
std::string BoundOrderError(const std::string& family, const Config& config) {
  const std::string error =
      OrderError("control." + family + ".", "min_bound", config.min_bound,
                 "max_bound", config.max_bound, /*strict=*/true);
  return error.empty() ? error : " " + error;
}

/// ValidateSpec's rules apart from the run window.
bool CheckCrossFieldRules(const ExperimentSpec& spec, std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  // Mode/fleet-shape validation here, with a message, rather than as a
  // CHECK abort inside the Experiment/ClusterExperiment constructors.
  if (spec.nodes.empty()) return fail("spec declares no [node] section");
  if (!spec.cluster && spec.nodes.size() != 1) {
    return fail("single-node mode (cluster = false) requires exactly one "
                "node, got " +
                std::to_string(spec.nodes.size()));
  }
  if (!spec.cluster) {
    // Fleet features: the single-node closed/open model drives itself
    // (terminals / its own open stream), with no routed front-end to feed,
    // crash away from, probe, or scale.
    const std::pair<bool, std::string> fleet_features[] = {
        {!spec.nodes[0].availability.always_up(),
         "node availability schedules require"},
        {spec.retraction.enabled || spec.retraction.queue_factor > 0.0,
         "retraction requires"},
        {spec.workload.source != "open",
         "workload source '" + spec.workload.source + "' requires"},
        {spec.elasticity.enabled, "elasticity requires"},
        {spec.retry.enabled, "retry requires"},
        {spec.degrade.enabled, "degrade requires"},
        {spec.fault.enabled, "fault injection requires"},
    };
    for (const auto& [used, what] : fleet_features) {
      if (used) return fail(what + " cluster mode (cluster = true)");
    }
  }
  if (spec.retry.enabled && spec.retry.backoff_max < spec.retry.backoff_base) {
    return fail("retry.backoff_max must be >= retry.backoff_base");
  }
  if (spec.degrade.enabled &&
      spec.degrade.shed_update < spec.degrade.shed_query) {
    return fail("degrade.shed_update must be >= degrade.shed_query");
  }
  if (spec.cluster && spec.routing == "threshold") {
    const cluster::ThresholdPolicy::Config threshold =
        cluster::ThresholdFromParams(spec.routing_params);
    std::string problem =
        OrderError("routing.threshold.", "min_threshold",
                   threshold.min_threshold, "initial_threshold",
                   threshold.initial_threshold, /*strict=*/false);
    if (problem.empty()) {
      problem = OrderError("routing.threshold.", "initial_threshold",
                           threshold.initial_threshold, "max_threshold",
                           threshold.max_threshold, /*strict=*/false);
    }
    if (!problem.empty()) return fail(problem);
  }
  for (const fault::FaultSpec& injected : spec.fault.faults) {
    // Window and target validation a per-key validator cannot see (the
    // node list is only final after [node] expansion).
    if (injected.start < 0.0 || injected.end <= injected.start) {
      return fail("fault '" + injected.ToString() +
                  "': window must satisfy 0 <= start < end");
    }
    for (int node : injected.nodes) {
      if (node < 0 || node >= static_cast<int>(spec.nodes.size())) {
        return fail("fault '" + injected.ToString() + "': node " +
                    std::to_string(node) + " out of range (fleet has " +
                    std::to_string(spec.nodes.size()) + " nodes)");
      }
    }
  }
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    // What the node's controller constructor checks beyond each param's
    // sign (the per-key param check): the bound ordering, and for the Tay
    // rule the declared k(t) its Update divides by.
    const NodeSpec& node = spec.nodes[i];
    const std::string& controller = node.control.controller;
    const util::ParamMap& params = node.control.params;
    std::string problem;
    if (controller == "parabola-approximation") {
      problem = BoundOrderError("pa", control::PaFromParams(params));
    } else if (controller == "incremental-steps") {
      problem = BoundOrderError("is", control::IsFromParams(params));
    } else if (controller == "golden-section") {
      problem = BoundOrderError("gs", control::GsFromParams(params));
    } else if (controller == "iyer-rule") {
      problem = BoundOrderError("iyer", control::IyerFromParams(params));
    } else if (controller == "tay-rule") {
      const double k_min = node.system.dynamics.k.Range(spec.duration).first;
      if (k_min <= 0.0) {
        problem = " dynamics.k reaches " + util::FormatDouble(k_min) +
                  " within the run; the tay-rule needs k > 0";
      }
    }
    if (!problem.empty()) return fail("node " + std::to_string(i) + problem);
  }
  if (spec.cluster && spec.placement_enabled) {
    // The partition catalog's shape.
    const placement::PlacementConfig& placement = spec.placement.placement;
    const uint32_t db_size = spec.placement.workload.db_size;
    if (db_size < static_cast<uint32_t>(placement.num_partitions)) {
      return fail("placement num_partitions (" +
                  std::to_string(placement.num_partitions) +
                  ") must be <= workload.db_size (" +
                  std::to_string(db_size) + ")");
    }
    if (placement.rebalance_interval > 0.0 && placement.rebalance_moves < 1) {
      return fail(
          "placement rebalance_moves must be >= 1 when rebalance_interval > 0");
    }
  }
  for (size_t i = 0; spec.cluster && i < spec.nodes.size(); ++i) {
    // ClusterMetrics pairs node samples index-wise, so every monitor must
    // tick on one grid (an outer tuner retunes its own node's interval);
    // with placement, every node must be able to execute any key of the
    // global key space.
    const NodeSpec& node = spec.nodes[i];
    const char* problem = nullptr;
    if (node.control.measurement_interval !=
        spec.nodes[0].control.measurement_interval) {
      problem = " control.measurement_interval must equal node 0's";
    } else if (node.control.outer_tuner && spec.nodes.size() > 1) {
      problem =
          " control.outer_tuner would move its monitor off the fleet's "
          "shared tick grid (allowed only on a one-node cluster)";
    } else if (spec.placement_enabled &&
               node.system.logical.db_size < spec.placement.workload.db_size) {
      problem = " logical.db_size must be >= placement workload.db_size";
    }
    if (problem != nullptr) return fail("node " + std::to_string(i) + problem);
  }
  if (spec.elasticity.enabled) {
    // Cross-field checks a per-key validator cannot see. Matching aborts
    // exist at run time (HeartbeatDetector / ElasticityController CHECKs);
    // failing here names the line instead.
    const elasticity::HeartbeatConfig& heartbeat = spec.elasticity.heartbeat;
    if (heartbeat.down_after < heartbeat.suspect_after) {
      return fail("elasticity hb.down_after must be >= hb.suspect_after");
    }
    if (heartbeat.phi_down < heartbeat.phi_suspect) {
      return fail("elasticity hb.phi_down must be >= hb.phi_suspect");
    }
    if (heartbeat.quorum > heartbeat.observers) {
      return fail("elasticity hb.quorum must be <= hb.observers");
    }
    if (spec.elasticity.scaler == "hysteresis") {
      const elasticity::HysteresisAutoscaler::Config hysteresis =
          elasticity::HysteresisFromParams(spec.elasticity.scaler_params);
      const std::string problem = OrderError(
          "elasticity.scaler.hysteresis.", "down_queue_factor",
          hysteresis.down_queue_factor, "up_queue_factor",
          hysteresis.up_queue_factor, /*strict=*/true);
      if (!problem.empty()) return fail(problem);
    }
    if (spec.elasticity.standby >= static_cast<int>(spec.nodes.size())) {
      return fail("elasticity standby pool (" +
                  std::to_string(spec.elasticity.standby) +
                  ") must leave at least one live node (" +
                  std::to_string(spec.nodes.size()) + " nodes)");
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

  // The section the next key belongs to: one of Tables().sections, else a
  // [node] when `in_node`, an [expect] row when `in_expect`, else
  // [schedules].
  const Section* section = &Tables().sections[0];
  bool in_node = false;
  bool in_expect = false;

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
      section = nullptr;
      in_node = name == "node";
      in_expect = name == "expect";
      for (const Section& candidate : Tables().sections) {
        if (candidate.name == name) section = &candidate;
      }
      if (in_node) {
        spec.nodes.emplace_back();
        node_states.emplace_back();
      } else if (section == nullptr && !in_expect && name != "schedules") {
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
    if (in_node) {
      NodeParseState& state = node_states.back();
      if (key == kCountKey) {
        ok = Assign(Tables().count_fields, &state, key, value, named, nullptr,
                    "node", &message);
      } else {
        ok = Assign(Tables().node_fields, &spec.nodes.back(), key, value,
                    named, nullptr, "node", &message);
        if (ok && key == kSeedKey) state.seed_set = true;
      }
    } else if (in_expect) {
      // Rows are checked once the whole file is in (CheckExpect below): a
      // row's variant cells are overrides of the finished spec.
      for (const ExpectRow& row : spec.expect) {
        if (row.name == key) return fail("duplicate expect row '" + key + "'");
      }
      spec.expect.push_back({key, value, line_number});
    } else if (section != nullptr) {
      ok = Assign(section->fields, &spec, key, value, named, nullptr,
                  section->name, &message);
      if (section == &Tables().sections[0]) {
        if (key == kWarmupKey) warmup_line = line_number;
        if (key == kDurationKey || key == kWarmupKey) {
          window_line = line_number;
        }
      }
    } else {
      // [schedules]: avail(...) literals live in the availability
      // namespace; every other literal is a numeric schedule.
      // Entries are literals: a `$name` here is an unknown reference.
      ok = HasPrefix(value, "avail(")
               ? ReadText(value, NamedSchedules(), &named.availabilities[key],
                          &message)
               : ReadText(value, NamedSchedules(), &named.schedules[key],
                          &message);
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
    const NodeParseState& state = node_states[i];
    for (int clone = 0; clone < state.count; ++clone) {
      expanded.push_back(spec.nodes[i]);
      if (state.seed_set && state.count > 1) {
        expanded.back().system.seed =
            DecorrelatedNodeSeed(spec.nodes[i].system.seed, clone);
      }
      inherited.push_back(!state.seed_set);
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
  if (!CheckCrossFieldRules(spec, error) || !CheckExpect(spec, error)) {
    return false;
  }

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

namespace {

/// Seeds every node from `base`: directly for a single node, else
/// decorrelated per fleet index so no two nodes share a random stream.
void DeriveNodeSeeds(uint64_t base, std::vector<NodeSpec>* nodes) {
  for (size_t i = 0; i < nodes->size(); ++i) {
    (*nodes)[i].system.seed =
        nodes->size() == 1 ? base
                           : DecorrelatedNodeSeed(base, static_cast<int>(i));
  }
}

}  // namespace

bool ApplySpecOverride(ExperimentSpec* spec, const std::string& key,
                       const std::string& value, std::string* error) {
  static const NamedSchedules kNoSchedules;
  // On a single-node spec, cluster-only keys are refused with the message a
  // spec file would get, instead of sweeping bit-identical points.
  const std::string* single_node = spec->cluster ? nullptr : &key;
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  const Table<NodeSpec>& node_fields = Tables().node_fields;

  // "node.<key>" applies to every node, "node<i>.<key>" to node i.
  const size_t dot = key.find('.');
  long long index = -1;
  if (HasPrefix(key, "node") && dot != std::string::npos &&
      (dot == 4 || util::ParseInt(key.substr(4, dot - 4), &index))) {
    const std::string subkey = key.substr(dot + 1);
    if (subkey == kCountKey) {
      return fail("'count' is only valid inside a spec file's [node] section");
    }
    if (dot != 4) {
      if (index < 0 || index >= static_cast<long long>(spec->nodes.size())) {
        return fail("override '" + key + "': node index out of range (" +
                    std::to_string(spec->nodes.size()) + " nodes)");
      }
      return Assign(node_fields, &spec->nodes[static_cast<size_t>(index)],
                    subkey, value, kNoSchedules, single_node, "node", error);
    }
    if (spec->nodes.empty()) return fail("override '" + key + "': no nodes");
    if (subkey == kSeedKey) {
      // Broadcasting one literal seed to the whole fleet would run every
      // node on the same random stream; decorrelate per index like the
      // experiment-level "seed" override. Pin one node with node<i>.seed
      // when an exact value is wanted.
      NodeSpec parsed;
      if (!Assign(node_fields, &parsed, subkey, value, kNoSchedules,
                  single_node, "node", error)) {
        return false;
      }
      DeriveNodeSeeds(parsed.system.seed, &spec->nodes);
      return true;
    }
    for (NodeSpec& node : spec->nodes) {
      if (!Assign(node_fields, &node, subkey, value, kNoSchedules,
                  single_node, "node", error)) {
        return false;
      }
    }
    return true;
  }

  const Section* experiment = &Tables().sections[0];  // takes bare keys
  const Section* section = experiment;
  std::string section_key = key;
  for (const Section& candidate : Tables().sections) {
    const std::string prefix = std::string(candidate.name) + ".";
    if (&candidate == experiment || !HasPrefix(key, prefix)) continue;
    if (candidate.cluster_only != nullptr && !spec->cluster) {
      return fail("override '" + key + "': " + candidate.cluster_only +
                  " cluster mode (cluster = true)");
    }
    section = &candidate;
    section_key = key.substr(prefix.size());
    break;
  }
  if (!Assign(section->fields, spec, section_key, value, kNoSchedules,
              single_node, section->name, error)) {
    return false;
  }
  if (section == experiment && key == kSeedKey) {
    // Parse-time seed inheritance has already stamped every node, so an
    // experiment-seed override must re-derive the node seeds too —
    // otherwise a replication sweep ("--sweep seed=1,2,3") would rerun
    // identical simulations. A later node<i>.seed override re-pins a node.
    DeriveNodeSeeds(spec->seed, &spec->nodes);
  }
  return true;
}

uint64_t DecorrelatedNodeSeed(uint64_t base, int node_index) {
  // splitmix64 finalizer over a strided input: scrambles the additive
  // structure so no arithmetic relation survives between node seeds.
  uint64_t z = base + (static_cast<uint64_t>(node_index) + 1) *
                          0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

db::Schedule FlashCrowdSchedule(double base_rate, double crowd_rate,
                                double start, double end) {
  ALC_CHECK_LT(start, end);
  return db::Schedule::Steps(base_rate,
                             {{start, crowd_rate}, {end, base_rate}});
}

db::Schedule NodeSlowdownSchedule(double degraded_speed, double start,
                                  double end) {
  ALC_CHECK_LT(start, end);
  ALC_CHECK_GT(degraded_speed, 0.0);
  return db::Schedule::Steps(1.0, {{start, degraded_speed}, {end, 1.0}});
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
    ClusterExperiment experiment(spec);
    if (trace) experiment.SetTraceRecorder(trace.get());
    if (audit) experiment.SetDecisionAudit(audit.get());
    result.cluster_result = experiment.Run();
  } else {
    Experiment experiment(spec);
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
