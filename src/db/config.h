#ifndef ALC_DB_CONFIG_H_
#define ALC_DB_CONFIG_H_

#include <cstdint>

#include "db/schedule.h"
#include "db/types.h"
#include "db/workload.h"

namespace alc::db {

/// CPU burst length distribution. The disk is always constant-time (paper
/// fig. 11); CPU bursts default to exponential, with deterministic and
/// Erlang-2 variants for sensitivity studies (service variability shifts
/// the congestion knee).
enum class ServiceDistribution { kExponential, kDeterministic, kErlang2 };

/// Physical (closed) model of paper figure 11: N terminals -> admission gate
/// -> homogeneous multiprocessor with one shared FCFS queue -> disk subsystem
/// with constant service time and no contention.
///
/// The paper takes its parameters "roughly the same as in [Yu et al., 1987]"
/// (customer workload traces we do not have). These defaults are calibrated
/// so the uncontrolled stationary throughput curve reproduces figure 12's
/// shape: near-linear rise, peak at a load in the low hundreds, pronounced
/// thrashing drop within the 100-800 load range (see DESIGN.md,
/// "Reconstructions / substitutions").
struct PhysicalConfig {
  int num_terminals = 850;
  double think_time_mean = 1.0;    // s, exponential
  int num_cpus = 16;               // homogeneous multiprocessor
  double cpu_init_mean = 0.0015;   // s, exponential, initialization phase
  double cpu_access_mean = 0.0015; // s, exponential, per access phase
  double cpu_commit_mean = 0.002;  // s, exponential, commit bookkeeping
  /// Commit processing per *written* item (install + log), s, exponential.
  /// This is what couples the workload mix to the resource bottleneck: the
  /// CPU-saturation knee — and with it the optimum MPL — moves when the
  /// write volume changes, which is how varying the query/write fractions
  /// relocates the optimum (paper section 7: "significant impact on both
  /// height and position of the optimum").
  double cpu_write_commit_mean = 0.010;
  double io_time = 0.030;          // s, constant, no contention (inf. server)
  double restart_delay_mean = 0.050;  // s, exponential backoff before rerun
  ServiceDistribution cpu_distribution = ServiceDistribution::kExponential;
};

/// Field-wise equality for the config structs below: the declarative
/// ExperimentSpec layer (core/spec.h) round-trips configs through text and
/// asserts Parse(Print(spec)) == spec.
inline bool operator==(const PhysicalConfig& a, const PhysicalConfig& b) {
  return a.num_terminals == b.num_terminals &&
         a.think_time_mean == b.think_time_mean && a.num_cpus == b.num_cpus &&
         a.cpu_init_mean == b.cpu_init_mean &&
         a.cpu_access_mean == b.cpu_access_mean &&
         a.cpu_commit_mean == b.cpu_commit_mean &&
         a.cpu_write_commit_mean == b.cpu_write_commit_mean &&
         a.io_time == b.io_time &&
         a.restart_delay_mean == b.restart_delay_mean &&
         a.cpu_distribution == b.cpu_distribution;
}
inline bool operator!=(const PhysicalConfig& a, const PhysicalConfig& b) {
  return !(a == b);
}

/// Logical model of paper section 7: each transaction accesses k uniformly
/// selected data items (no hot spots); execution has k+2 phases. The mix
/// itself (k, the query fraction, the updaters' write fraction) varies over
/// time and lives in SystemConfig::dynamics.
struct LogicalConfig {
  uint32_t db_size = 16000;      // D, number of granules
  /// Whether a restarted transaction draws a fresh access set. True matches
  /// the common simulation assumption (Agrawal et al. 1987) and avoids
  /// restart livelock.
  bool resample_on_restart = true;
  /// Optional hot spot: fraction `hotspot_access_prob` of accesses go to the
  /// first `hotspot_size_fraction * db_size` items ("b-c rule"). Disabled by
  /// default to match the paper ("no hot spots"); available as an extension.
  double hotspot_access_prob = 0.0;
  double hotspot_size_fraction = 0.0;
};

inline bool operator==(const LogicalConfig& a, const LogicalConfig& b) {
  return a.db_size == b.db_size &&
         a.resample_on_restart == b.resample_on_restart &&
         a.hotspot_access_prob == b.hotspot_access_prob &&
         a.hotspot_size_fraction == b.hotspot_size_fraction;
}
inline bool operator!=(const LogicalConfig& a, const LogicalConfig& b) {
  return !(a == b);
}

/// How work enters the system. The paper's model is closed (N circulating
/// transactions with think times, fig. 11); the open mode replaces the
/// terminals with a Poisson arrival stream — an extension that shows load
/// control is even more critical when the population is unbounded (an
/// overloaded open system grows its queue without limit instead of
/// self-capping at N). External mode disables the system's own arrival
/// generation entirely: work enters only through SubmitExternal(), which is
/// how a cluster front-end routes transactions onto individual nodes.
enum class ArrivalMode { kClosed, kOpen, kExternal };

/// Cost of touching a granule this node does not store locally (cluster
/// placement scenarios). A remote access pays extra CPU (marshalling,
/// protocol work) and extra fixed latency (one network round trip to the
/// granule's replica) on top of the normal access phase. Both default to
/// zero, so single-node systems and placement-free clusters are unaffected.
struct RemoteAccessConfig {
  double cpu_penalty = 0.0;  // extra CPU seconds per remote access
  double latency = 0.0;      // extra fixed seconds per remote access
  /// CPU seconds the granule's home node spends serving each remote access
  /// (the request is an RPC someone must answer). Charged by the cluster
  /// front-end at submission time — shipping work away from the data does
  /// not relieve the data holder. Read from the serving node's config.
  double serve_cpu = 0.0;
};

inline bool operator==(const RemoteAccessConfig& a,
                       const RemoteAccessConfig& b) {
  return a.cpu_penalty == b.cpu_penalty && a.latency == b.latency &&
         a.serve_cpu == b.serve_cpu;
}
inline bool operator!=(const RemoteAccessConfig& a,
                       const RemoteAccessConfig& b) {
  return !(a == b);
}

/// Telemetry recording knobs. The response-time LogHistogram is always
/// recorded — it is the canonical latency statistic, O(1) memory and free
/// of side effects — so this only gates the optional extras. Telemetry
/// never draws random numbers or schedules events: toggling it cannot
/// change simulation results (pinned by tests/telemetry_perturbation_test).
struct TelemetryConfig {
  /// Record the five per-phase histograms (gate/lock/cpu/disk/commit wall
  /// clock, see telemetry::Phase) on every commit.
  bool per_phase = true;
};

inline bool operator==(const TelemetryConfig& a, const TelemetryConfig& b) {
  return a.per_phase == b.per_phase;
}
inline bool operator!=(const TelemetryConfig& a, const TelemetryConfig& b) {
  return !(a == b);
}

/// Everything needed to build a TransactionSystem.
struct SystemConfig {
  PhysicalConfig physical;
  LogicalConfig logical;
  /// The workload mix over time: k, the query fraction and the updaters'
  /// write fraction (paper section 7).
  WorkloadDynamics dynamics;
  /// Processor speed factor over time (degraded-node scenarios; see
  /// CpuSubsystem).
  Schedule cpu_speed = Schedule::Constant(1.0);
  CcScheme cc = CcScheme::kOptimisticCertification;
  ArrivalMode arrivals = ArrivalMode::kClosed;
  /// Open mode only: mean arrivals per second (Poisson). A time-varying
  /// rate can be installed via TransactionSystem::SetArrivalRateSchedule.
  double open_arrival_rate = 100.0;
  /// Remote-access penalty for externally planned transactions whose keys
  /// live on other nodes (see RemoteAccessConfig).
  RemoteAccessConfig remote;
  uint64_t seed = 1;
  /// Record (start_seq, commit_seq, read/write sets) of committed
  /// transactions for serializability verification in tests. Costs memory;
  /// off by default.
  bool record_history = false;
  /// Observability knobs (per-phase histograms); see TelemetryConfig.
  TelemetryConfig telemetry;
};

inline bool operator==(const SystemConfig& a, const SystemConfig& b) {
  return a.physical == b.physical && a.logical == b.logical &&
         a.dynamics == b.dynamics && a.cpu_speed == b.cpu_speed &&
         a.cc == b.cc &&
         a.arrivals == b.arrivals &&
         a.open_arrival_rate == b.open_arrival_rate && a.remote == b.remote &&
         a.seed == b.seed && a.record_history == b.record_history &&
         a.telemetry == b.telemetry;
}
inline bool operator!=(const SystemConfig& a, const SystemConfig& b) {
  return !(a == b);
}

}  // namespace alc::db

#endif  // ALC_DB_CONFIG_H_
