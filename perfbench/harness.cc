// perfbench harness: runs one workload spec through the simulator again and
// again for a fixed stretch of host time and reports host-time measurements
// as one JSON object on the last line of stdout. perfbench/run.py builds
// and drives it; perfbench/README.md defines the metrics.
//
//   $ perfbench_harness --spec perfbench/workloads/storm.spec
//         --seed 1 --seconds 15 --trace 0
//
// Every measurement is taken from outside the simulator, through its public
// surface only: the spec API (LoadSpecFile/RunSpec), a pass-through
// controller registered in the controller registry that timestamps each
// control tick, a counting allocator, and (with --trace 1) a SIGPROF
// sampling profiler that splits host time across the simulator's layers.
// Host times are scaled to a reference host speed measured alongside (see
// calibration.h).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "calibration.h"
#include "control/registry.h"
#include "core/spec.h"
#include "profiler.h"

namespace perfbench {
namespace {

using alc::core::ExperimentSpec;
using alc::core::SpecRunResult;
using Clock = std::chrono::steady_clock;

constexpr const char* kTickController = "perfbench.tick";
constexpr const char* kInnerParam = "perfbench.inner";
// Set-up is measured as a run whose horizon ends right after t = 0.
constexpr double kSetupHorizon = 1e-3;
constexpr int kSetupReps = 51;
constexpr int kSetupProbeSlices = 5;
constexpr int kProfilePeriodUs = 1000;
// Room for the tick samples of one repetition, the tick samples of a whole
// 60 s run and the profile samples of one (about 250 a second).
constexpr size_t kRepTickCapacity = size_t{1} << 16;
constexpr size_t kTickCapacity = size_t{1} << 18;
constexpr size_t kProfileCapacity = size_t{1} << 16;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Millis(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

uint64_t SplitMix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Nearest-rank quantile; reorders `values`.
double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(values->size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values->begin(), values->begin() + index, values->end());
  return (*values)[index];
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

// ------------------------------------------------------------ tick clock --
// Host time per control tick: the first controller Update at a new
// simulated time marks a tick, and the host time between two marks, scaled
// to one measurement interval, is what the simulator took to advance one
// interval. (A tick goes unmarked when no node's control loop runs, e.g.
// while every live node is declared down; the scaling covers that gap.)
// Each mark also runs one speed-probe slice, kept out of the tick times, so
// a repetition's ticks are scaled by the host speed measured during it.
class TickLog {
 public:
  TickLog() {
    rep_ms_.reserve(kRepTickCapacity);
    rep_slices_ms_.reserve(kRepTickCapacity);
    scaled_ms_.reserve(kTickCapacity);
  }

  void BeginRep(double interval) {
    interval_ = interval;
    last_sim_ = -1.0;
    marks_ = 0;
    probe_ms_ = 0.0;
    rep_ms_.clear();
    rep_slices_ms_.clear();
  }

  void Mark(double sim_time) {
    if (sim_time <= last_sim_) return;
    const Clock::time_point now = Clock::now();
    if (last_sim_ >= 0.0 && rep_ms_.size() < kRepTickCapacity) {
      rep_ms_.push_back(Millis(last_, now) * interval_ /
                        (sim_time - last_sim_));
    }
    last_sim_ = sim_time;
    ++marks_;
    if (rep_slices_ms_.size() < kRepTickCapacity) {
      rep_slices_ms_.push_back(probe_.SliceMs());
    }
    last_ = Clock::now();
    probe_ms_ += Millis(now, last_);
  }

  // Closes the repetition: returns its host-speed scale (reference slice
  // time over the median slice time measured during it) and adds its
  // scaled tick times to the pool.
  double EndRep() {
    if (rep_slices_ms_.empty()) return 1.0;
    const double scale =
        SpeedProbe::kReferenceSliceMs / Median(rep_slices_ms_);
    for (double ms : rep_ms_) {
      if (scaled_ms_.size() < kTickCapacity) scaled_ms_.push_back(ms * scale);
    }
    return scale;
  }

  size_t marks() const { return marks_; }
  // Host time spent in probe slices during the repetition.
  double probe_ms() const { return probe_ms_; }
  std::vector<double>* scaled_ms() { return &scaled_ms_; }
  SpeedProbe* probe() { return &probe_; }

 private:
  SpeedProbe probe_;
  double interval_ = 1.0;
  double last_sim_ = -1.0;
  Clock::time_point last_;
  size_t marks_ = 0;
  double probe_ms_ = 0.0;
  std::vector<double> rep_ms_;
  std::vector<double> rep_slices_ms_;
  std::vector<double> scaled_ms_;
};

TickLog& Ticks() {
  static TickLog log;
  return log;
}

// Pass-through controller: forwards everything to the configured controller
// and marks the tick. It draws no random numbers and changes no bound, so a
// wrapped run is bit-identical to the plain one (checked every run).
class TickingController : public alc::control::LoadController {
 public:
  explicit TickingController(
      std::unique_ptr<alc::control::LoadController> inner)
      : inner_(std::move(inner)) {}

  double Update(const alc::control::Sample& sample) override {
    Ticks().Mark(sample.time);
    return inner_->Update(sample);
  }
  void Reset(double initial_bound) override { inner_->Reset(initial_bound); }
  double bound() const override { return inner_->bound(); }
  std::string_view name() const override { return inner_->name(); }
  void DescribeDecision(alc::control::DecisionState* state) const override {
    inner_->DescribeDecision(state);
  }

 private:
  std::unique_ptr<alc::control::LoadController> inner_;
};

void RegisterTickingController() {
  alc::control::ControllerRegistry::Global().Register(
      kTickController, [](const alc::control::ControllerContext& context)
                           -> std::unique_ptr<alc::control::LoadController> {
        const std::string* inner = context.params->Find(kInnerParam);
        if (inner == nullptr) return nullptr;
        return std::make_unique<TickingController>(
            alc::control::ControllerRegistry::Global().Make(*inner, context));
      });
}

// Routes every node's controller through the tick controller.
void WrapControllers(ExperimentSpec* spec) {
  for (alc::core::NodeSpec& node : spec->nodes) {
    node.control.params.Set(kInnerParam, node.control.controller);
    node.control.controller = kTickController;
  }
}

// Keeps the process on the CPU it starts on, so the speed probe measures
// the core the simulator runs on.
void PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// ------------------------------------------------------------ a run's data --
// Sums a per-node metric ("node<i>.<suffix>") over the fleet.
double SumNodeMetric(const SpecRunResult& result, const std::string& suffix) {
  double sum = 0.0;
  for (const alc::telemetry::MetricSample& m : result.metrics()) {
    if (m.name.rfind("node", 0) == 0 && m.name.size() > suffix.size() &&
        m.name.compare(m.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      sum += m.value;
    }
  }
  return sum;
}

double Metric(const SpecRunResult& result, const std::string& name) {
  for (const alc::telemetry::MetricSample& m : result.metrics()) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

// FNV-1a over every registered metric of the run: any change to what the
// simulator computed changes the fingerprint.
uint64_t Fingerprint(const SpecRunResult& result) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const alc::telemetry::MetricSample& m : result.metrics()) {
    mix(m.name.data(), m.name.size());
    const double values[] = {m.value, m.mean, m.p50, m.p95, m.p99, m.p999};
    mix(values, sizeof(values));
    mix(&m.count, sizeof(m.count));
  }
  return h;
}

// Invariants every finished run must satisfy; one message per violation.
std::vector<std::string> CheckRun(const ExperimentSpec& spec,
                                  const SpecRunResult& result,
                                  uint64_t commits) {
  std::vector<std::string> errors;
  auto fail = [&errors](const std::string& what) { errors.push_back(what); };
  if (commits == 0) fail("no transaction committed");
  if (SumNodeMetric(result, ".submitted") < static_cast<double>(commits)) {
    fail("more commits than submissions");
  }
  const double abort_ratio = result.abort_ratio();
  if (!(abort_ratio >= 0.0 && abort_ratio < 1.0)) {
    fail("abort ratio out of range");
  }
  const double response = result.mean_response();
  if (!(response > 0.0 && std::isfinite(response))) {
    fail("mean response not positive");
  }
  if (result.cluster) {
    const alc::core::ClusterResult& c = result.cluster_result;
    uint64_t routed = 0;
    uint64_t node_commits = 0;
    for (const alc::core::ClusterNodeResult& node : c.nodes) {
      routed += node.routed;
      node_commits += node.commits;
    }
    if (routed != c.routed) fail("per-node routed does not sum to routed");
    if (node_commits != c.commits) fail("per-node commits do not sum");
    if (spec.fault.enabled) {
      uint64_t opened = 0;
      uint64_t closed = 0;
      for (const alc::fault::FaultSpec& f : spec.fault.faults) {
        opened += f.start < spec.duration ? 1 : 0;
        closed += f.end < spec.duration ? 1 : 0;
      }
      if (c.faults_started != opened || c.faults_ended != closed) {
        fail("fault windows opened/closed do not match the spec");
      }
    }
  }
  return errors;
}

struct Rep {
  double wall_s = 0.0;  // host time of the run, probe slices excluded
  double scale = 1.0;   // host-speed scale measured during the run
  uint64_t commits = 0;  // whole run, every node
  uint64_t allocs = 0;
  uint64_t fingerprint = 0;
  std::map<std::string, double> counts;  // fleet-wide counters

  double scaled_s() const { return wall_s * scale; }
};

struct Options {
  std::string spec_path;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

class Harness {
 public:
  explicit Harness(const Options& options) : options_(options) {}

  int Run() {
    std::string error;
    if (!alc::core::LoadSpecFile(options_.spec_path, &plain_, &error)) {
      std::fprintf(stderr, "perfbench_harness: %s\n", error.c_str());
      return 1;
    }
    wrapped_ = plain_;
    WrapControllers(&wrapped_);
    interval_ = plain_.nodes.front().control.measurement_interval;

    const double setup_s = MeasureSetup();

    // Warm-up on the unwrapped spec; the first timed repetition repeats its
    // seed through the tick controller (and the profiler, when tracing), so
    // every run checks that the simulator is deterministic and that
    // measuring it changes nothing it computes.
    const Rep reference = RunRep(plain_, RepSeed(0));

    std::unique_ptr<LayerProfiler> profiler;
    if (options_.trace) {
      profiler = std::make_unique<LayerProfiler>(kProfileCapacity);
      profiler->Start(kProfilePeriodUs);
    }
    std::vector<Rep> reps;
    const Clock::time_point start = Clock::now();
    do {
      reps.push_back(RunRep(wrapped_, RepSeed(reps.size())));
    } while (Seconds(start, Clock::now()) < options_.seconds);
    if (profiler) profiler->Stop();
    if (reps.front().fingerprint != reference.fingerprint) {
      Fail(options_.trace
               ? "the profiled run differs from the plain run with its seed"
               : "the measured run differs from the plain run with its seed");
      ++failed_;
    }

    std::vector<double> rates;
    std::vector<double> scales;
    double scaled_s = 0.0;
    double commits = 0.0;
    double allocs = 0.0;
    std::map<std::string, double> counts;
    for (const Rep& rep : reps) {
      rates.push_back(static_cast<double>(rep.commits) / rep.scaled_s());
      scales.push_back(rep.scale);
      scaled_s += rep.scaled_s();
      commits += static_cast<double>(rep.commits);
      allocs += static_cast<double>(rep.allocs);
      for (const auto& [name, value] : rep.counts) counts[name] += value;
    }
    std::vector<double>* ticks = Ticks().scaled_ms();
    if (options_.trace) {
      Add("traced_commits_per_s", Median(rates), "1/s");
      const std::map<std::string, uint64_t> layers = profiler->Layers();
      // The harness's own samples (probe slices, bookkeeping) are not the
      // simulator's time.
      double samples = 0.0;
      for (const auto& [layer, count] : layers) {
        if (layer != "harness") samples += static_cast<double>(count);
      }
      const double ns_per_commit = 1e9 * scaled_s / commits;
      for (const char* layer :
           {"engine", "db", "control", "cluster", "placement", "workload",
            "elasticity", "fault", "telemetry", "alloc", "other"}) {
        const auto it = layers.find(layer);
        const double share = it == layers.end() || samples == 0.0
                                 ? 0.0
                                 : static_cast<double>(it->second) / samples;
        Add(std::string(layer) + "_ns_per_commit", share * ns_per_commit,
            "ns");
      }
      Add("profile_samples", samples, "count");
      Add("allocs_per_commit", allocs / commits, "count");
      for (const auto& [name, value] : counts) {
        Add(name + "_per_commit", value / commits, "count");
      }
      Add("probe_slowdown", 1.0 / Median(scales), "ratio");
    } else {
      Add("commits_per_s", Median(rates), "1/s");
      Add("tick_ms_p50", Quantile(ticks, 0.50), "ms");
      Add("tick_ms_p99", Quantile(ticks, 0.99), "ms");
      Add("peak_rss_mib", PeakRssMib(), "MiB");
      Add("setup_s", setup_s, "s");
    }

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"reps\": %zu, \"ticks\": %zu, "
                "\"errors\": [",
                errors_.empty() ? "true" : "false", attempted_, failed_,
                reps.size(), ticks->size());
    for (size_t i = 0; i < errors_.size() && i < 8; ++i) {
      std::printf("%s\"%s\"", i > 0 ? ", " : "", errors_[i].c_str());
    }
    std::printf("], \"metrics\": {");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      // A run with no commits has no rates; -1 marks them as missing.
      const double value =
          std::isfinite(metrics_[i].value) ? metrics_[i].value : -1.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i > 0 ? ", " : "", metrics_[i].name.c_str(), value,
                  metrics_[i].unit);
    }
    std::printf("}}\n");
    return 0;
  }

 private:
  struct Measurement {
    std::string name;
    double value;
    const char* unit;
  };

  // Set-up: load and parse the spec, build the whole simulated system, run
  // it to just past t = 0 and tear it down; scaled by a probe reading taken
  // just before. Median of kSetupReps.
  double MeasureSetup() {
    std::vector<double> times;
    for (int i = 0; i < kSetupReps; ++i) {
      const double slice_ms =
          Ticks().probe()->MedianSliceMs(kSetupProbeSlices);
      ++attempted_;
      const Clock::time_point start = Clock::now();
      ExperimentSpec spec;
      std::string error;
      if (!alc::core::LoadSpecFile(options_.spec_path, &spec, &error)) {
        Fail("setup: " + error);
        ++failed_;
        return 0.0;
      }
      WrapControllers(&spec);
      Reseed(&spec, RepSeed(i));
      spec.warmup = 0.0;
      spec.duration = kSetupHorizon;
      const SpecRunResult result = alc::core::RunSpec(spec);
      times.push_back(Seconds(start, Clock::now()) *
                      SpeedProbe::kReferenceSliceMs / slice_ms);
      if (result.metrics().empty()) {
        Fail("setup: the run reported no metrics");
        ++failed_;
      }
    }
    return Median(times);
  }

  // One full run of the spec with the given seed.
  Rep RunRep(const ExperimentSpec& base, uint64_t seed) {
    ExperimentSpec spec = base;
    Reseed(&spec, seed);
    Ticks().BeginRep(interval_);
    const uint64_t allocs_before = AllocationCount();
    const Clock::time_point start = Clock::now();
    const SpecRunResult result = alc::core::RunSpec(spec);
    Rep rep;
    rep.wall_s = Seconds(start, Clock::now()) - 1e-3 * Ticks().probe_ms();
    rep.allocs = AllocationCount() - allocs_before;
    rep.scale = Ticks().EndRep();
    rep.commits = static_cast<uint64_t>(SumNodeMetric(result, ".commits"));
    rep.fingerprint = Fingerprint(result);
    rep.counts["aborts"] = SumNodeMetric(result, ".aborts_certification") +
                           SumNodeMetric(result, ".aborts_deadlock") +
                           SumNodeMetric(result, ".aborts_displacement");
    rep.counts["remote_accesses"] = SumNodeMetric(result, ".remote_accesses");
    rep.counts["routed"] = Metric(result, "cluster.total_routed");
    ++attempted_;
    const size_t errors_before = errors_.size();
    for (const std::string& e : CheckRun(spec, result, rep.commits)) Fail(e);
    if (&base == &wrapped_) {
      // Monitors tick at every multiple of the interval up to the horizon;
      // a few may go unmarked (see TickLog).
      const size_t expected = static_cast<size_t>(
          std::floor(spec.duration / interval_ + 1e-9));
      const size_t marks = Ticks().marks();
      if (marks > expected || 10 * marks < 9 * expected) {
        Fail("saw " + std::to_string(marks) + " control ticks, expected " +
             std::to_string(expected));
      }
    }
    if (errors_.size() != errors_before) ++failed_;
    return rep;
  }

  uint64_t RepSeed(size_t i) const {
    return SplitMix64(options_.seed * 0x100000001b3ULL + i) >> 1;
  }

  void Reseed(ExperimentSpec* spec, uint64_t seed) {
    std::string error;
    if (!alc::core::ApplySpecOverride(spec, "seed", std::to_string(seed),
                                      &error)) {
      Fail("seed override: " + error);
    }
  }

  void Fail(const std::string& what) {
    std::string escaped;
    for (const char c : what) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += (c == '\n' || c == '\t') ? ' ' : c;
    }
    errors_.push_back(escaped);
  }

  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }

  static double PeakRssMib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  }

  Options options_;
  ExperimentSpec plain_;
  ExperimentSpec wrapped_;
  double interval_ = 1.0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<Measurement> metrics_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --spec FILE --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--spec") {
      options.spec_path = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else {
      return perfbench::Usage();
    }
    if (end != nullptr && *end != '\0') return perfbench::Usage();
  }
  if (argc % 2 == 0 || options.spec_path.empty() ||
      !(options.seconds > 0.0)) {
    return perfbench::Usage();
  }
  perfbench::PinToCurrentCpu();
  perfbench::RegisterTickingController();
  return perfbench::Harness(options).Run();
}
