// alc_run — run a declarative ExperimentSpec file (single-node or cluster)
// and export the standard CSV artifacts, with optional command-line
// overrides and parameter sweeps. New workloads need a text file, not a new
// binary:
//
//   $ ./build/tools/alc_run specs/smoke.spec --out /tmp/smoke
//   $ ./build/tools/alc_run specs/cluster_routing_flash.spec
//       --sweep routing=random,join-shortest-queue
//       --sweep node.control.controller=none,parabola-approximation
//       --threads 4
//   (one line; broken here for readability)
//
// A spec's [expect] rows are checked after a single run: one verdict line
// per row, an `expect` leaf in run.json, and exit status 1 when a row
// fails. See README.md ("Spec files") for the file format.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/expect.h"
#include "core/export.h"
#include "core/manifest.h"
#include "core/spec.h"
#include "core/sweep.h"
#include "telemetry/audit.h"
#include "telemetry/histogram.h"
#include "util/logging.h"
#include "util/params.h"
#include "util/strformat.h"
#include "util/table.h"

namespace {

using namespace alc;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <spec-file> [options]\n"
      "  --print                 print the canonical spec and exit\n"
      "  --set key=value         apply one override (repeatable)\n"
      "  --sweep key=v1,v2,...   add a sweep axis (repeatable)\n"
      "  --repeat N              run every point N times on strided seeds\n"
      "                          and report mean +/- stderr per point\n"
      "  --seed-stride K         seed spacing for --repeat (default 1)\n"
      "  --threads N             sweep and [expect] variant parallelism\n"
      "                          (default 1; 0 = all cores)\n"
      "  --out DIR               write CSV exports into DIR\n"
      "  --trace FILE            record a Chrome trace-event JSON of the run\n"
      "                          (open in chrome://tracing or Perfetto; with\n"
      "                          --sweep/--repeat each point writes\n"
      "                          FILE-stem.<cell>.<rep>.json)\n"
      "  --decisions FILE        export the controller decision audit trail\n"
      "                          as CSV (same per-point naming under sweeps)\n"
      "  --log-level LEVEL       debug|info|warning|error|off (default\n"
      "                          warning); lines carry the simulated time\n"
      "\nOverride keys use spec-file syntax: experiment keys bare\n"
      "(duration, routing, arrival_rate, ...), placement.<key>,\n"
      "node.<key> for every node or node<i>.<key> for one.\n",
      argv0);
  return 2;
}

bool SplitKeyValue(const std::string& text, char sep, std::string* key,
                   std::string* value) {
  const size_t pos = text.find(sep);
  if (pos == std::string::npos || pos == 0) return false;
  *key = text.substr(0, pos);
  *value = text.substr(pos + 1);
  return true;
}

bool WriteFileOrComplain(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "alc_run: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

/// Writes the run's CSV artifacts under `dir` with the given file prefix:
/// single runs produce <prefix>trajectory.csv; cluster runs produce
/// <prefix>cluster.csv, <prefix>aggregate.csv and, for placement runs,
/// <prefix>placement.csv.
bool ExportResult(const std::string& dir, const std::string& prefix,
                  const core::SpecRunResult& result) {
  namespace fs = std::filesystem;
  std::error_code error;
  fs::create_directories(dir, error);
  if (error) {
    std::fprintf(stderr, "alc_run: cannot create %s: %s\n", dir.c_str(),
                 error.message().c_str());
    return false;
  }
  const std::string base = dir + "/" + prefix;
  if (!result.cluster) {
    std::ostringstream csv;
    core::WriteTrajectoryCsv(csv, result.single.trajectory, {});
    return WriteFileOrComplain(base + "trajectory.csv", csv.str());
  }
  const core::ClusterResult& cluster = result.cluster_result;
  std::vector<std::vector<core::TrajectoryPoint>> trajectories;
  std::vector<core::ClusterNodePlacementInfo> placement_info;
  trajectories.reserve(cluster.nodes.size());
  for (const core::ClusterNodeResult& node : cluster.nodes) {
    trajectories.push_back(node.trajectory);
    placement_info.push_back({node.remote_frac, node.partitions_owned});
  }
  std::ostringstream cluster_csv;
  core::WriteClusterTrajectoryCsv(cluster_csv, trajectories, placement_info,
                                  cluster.membership);
  if (!WriteFileOrComplain(base + "cluster.csv", cluster_csv.str())) {
    return false;
  }
  std::ostringstream aggregate_csv;
  core::WriteTrajectoryCsv(aggregate_csv, cluster.aggregate, {});
  if (!WriteFileOrComplain(base + "aggregate.csv", aggregate_csv.str())) {
    return false;
  }
  if (!cluster.partitions.empty()) {
    std::ostringstream placement_csv;
    core::WritePlacementCsv(placement_csv, cluster.partitions);
    if (!WriteFileOrComplain(base + "placement.csv", placement_csv.str())) {
      return false;
    }
  }
  return true;
}

/// Response-time percentiles and the per-phase timing breakdown, from the
/// run's merged log histograms (O(1) memory regardless of commit count).
void PrintTelemetry(const core::SpecRunResult& result) {
  const telemetry::LogHistogram& response = result.response_hist();
  if (response.count() == 0) return;
  util::Table table({"response", "seconds"});
  table.AddRow({"p50", util::StrFormat("%.4f", response.Quantile(0.50))});
  table.AddRow({"p95", util::StrFormat("%.4f", response.Quantile(0.95))});
  table.AddRow({"p99", util::StrFormat("%.4f", response.Quantile(0.99))});
  table.AddRow({"p99.9", util::StrFormat("%.4f", response.Quantile(0.999))});
  table.Print(std::cout);

  const std::array<telemetry::LogHistogram, telemetry::kNumPhases>& phases =
      result.phase_hists();
  bool any = false;
  for (const telemetry::LogHistogram& hist : phases) {
    if (hist.count() > 0) any = true;
  }
  if (!any) return;  // telemetry.per_phase = false on every node
  util::Table phase_table({"phase", "count", "mean", "p50", "p99"});
  for (int p = 0; p < telemetry::kNumPhases; ++p) {
    const telemetry::LogHistogram& hist = phases[static_cast<size_t>(p)];
    phase_table.AddRow(
        {telemetry::PhaseName(static_cast<telemetry::Phase>(p)),
         util::StrFormat("%llu",
                         static_cast<unsigned long long>(hist.count())),
         util::StrFormat("%.4f", hist.mean()),
         util::StrFormat("%.4f", hist.Quantile(0.50)),
         util::StrFormat("%.4f", hist.Quantile(0.99))});
  }
  phase_table.Print(std::cout);
}

void PrintSummary(const core::ExperimentSpec& spec,
                  const core::SpecRunResult& result) {
  std::printf("%s: %s, %d node%s, %.0fs (+%.0fs warmup)\n", spec.name.c_str(),
              spec.cluster ? "cluster" : "single-node",
              static_cast<int>(spec.nodes.size()),
              spec.nodes.size() == 1 ? "" : "s", spec.duration, spec.warmup);
  util::Table table({"metric", "value"});
  table.AddRow({"throughput", util::StrFormat("%.1f commits/s",
                                              result.total_throughput())});
  table.AddRow({"mean response", util::StrFormat("%.3f s",
                                                 result.mean_response())});
  table.AddRow({"abort ratio", util::StrFormat("%.3f", result.abort_ratio())});
  table.AddRow({"commits", util::StrFormat("%llu",
                                           static_cast<unsigned long long>(
                                               result.commits()))});
  if (result.cluster) {
    const core::ClusterResult& cluster = result.cluster_result;
    table.AddRow({"routed", util::StrFormat("%llu",
                                            static_cast<unsigned long long>(
                                                cluster.routed))});
    if (spec.placement_enabled) {
      table.AddRow(
          {"remote frac", util::StrFormat("%.3f", cluster.remote_frac)});
      table.AddRow({"migrations", util::StrFormat("%llu",
                                                  static_cast<unsigned long long>(
                                                      cluster.migrations))});
    }
    // Lifecycle rows appear whenever the run had lifecycle activity —
    // including degradation-only retraction, which sheds queue without
    // ever changing membership.
    if (cluster.final_epoch > 0 || cluster.retracted > 0 ||
        cluster.lost > 0 || cluster.arrivals_dropped > 0) {
      table.AddRow({"membership epochs",
                    util::StrFormat("%llu", static_cast<unsigned long long>(
                                                cluster.final_epoch))});
      table.AddRow({"crash kills",
                    util::StrFormat("%llu", static_cast<unsigned long long>(
                                                cluster.crash_kills))});
      table.AddRow({"retracted",
                    util::StrFormat("%llu", static_cast<unsigned long long>(
                                                cluster.retracted))});
      table.AddRow({"lost",
                    util::StrFormat("%llu", static_cast<unsigned long long>(
                                                cluster.lost))});
      table.AddRow({"arrivals dropped",
                    util::StrFormat("%llu", static_cast<unsigned long long>(
                                                cluster.arrivals_dropped))});
    }
  }
  table.Print(std::cout);
  PrintTelemetry(result);
}

/// One-line-per-controller digest of the decision audit trail: how many
/// steps each controller took, how often it reversed direction, and the
/// mean magnitude of its limit moves.
void PrintDecisionSummary(const std::vector<telemetry::DecisionRecord>& records,
                          size_t dropped) {
  if (records.empty()) return;
  const std::vector<telemetry::DecisionSummary> summaries =
      telemetry::SummarizeDecisions(records);
  util::Table table(
      {"controller", "decisions", "direction changes", "mean |step|"});
  for (const telemetry::DecisionSummary& s : summaries) {
    table.AddRow({s.controller,
                  util::StrFormat("%llu",
                                  static_cast<unsigned long long>(s.decisions)),
                  util::StrFormat("%llu", static_cast<unsigned long long>(
                                              s.direction_changes)),
                  util::StrFormat("%.4f", s.mean_abs_step)});
  }
  table.Print(std::cout);
  if (dropped > 0) {
    std::printf("(decision ring overflowed: %llu oldest records dropped)\n",
                static_cast<unsigned long long>(dropped));
  }
}

/// "/tmp/out.json" -> {"/tmp/out", ".json"} for per-sweep-point file names.
std::pair<std::string, std::string> SplitExtension(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return {path, ""};
  }
  return {path.substr(0, dot), path.substr(dot)};
}

/// Sample mean and standard error of `values` (stderr 0 for n < 2).
std::pair<double, double> MeanStderr(const std::vector<double>& values) {
  const double n = static_cast<double>(values.size());
  double sum = 0.0;
  for (const double v : values) sum += v;
  const double mean = sum / n;
  if (values.size() < 2) return {mean, 0.0};
  double ss = 0.0;
  for (const double v : values) ss += (v - mean) * (v - mean);
  return {mean, std::sqrt(ss / (n - 1.0) / n)};
}

std::string FormatMeanStderr(const std::vector<double>& values,
                             const char* format) {
  const auto [mean, se] = MeanStderr(values);
  return util::StrFormat(format, mean) + " +/- " +
         util::StrFormat("%.2g", se);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string spec_path = argv[1];
  if (spec_path == "--help" || spec_path == "-h") return Usage(argv[0]);

  bool print_only = false;
  int threads = 1;
  int repeat = 1;
  uint64_t seed_stride = 1;
  std::string out_dir;
  std::string trace_path;
  std::string decisions_path;
  std::vector<std::pair<std::string, std::string>> overrides;
  std::vector<core::SweepAxis> axes;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print") {
      print_only = true;
    } else if (arg == "--set" && i + 1 < argc) {
      std::string key, value;
      if (!SplitKeyValue(argv[++i], '=', &key, &value)) {
        std::fprintf(stderr, "alc_run: --set expects key=value, got '%s'\n",
                     argv[i]);
        return 2;
      }
      overrides.emplace_back(key, value);
    } else if (arg == "--sweep" && i + 1 < argc) {
      std::string key, values;
      if (!SplitKeyValue(argv[++i], '=', &key, &values)) {
        std::fprintf(stderr,
                     "alc_run: --sweep expects key=v1,v2,..., got '%s'\n",
                     argv[i]);
        return 2;
      }
      core::SweepAxis axis{key, util::SplitTrimmed(values, ',')};
      if (axis.values.empty()) {
        std::fprintf(stderr, "alc_run: --sweep %s has no values\n",
                     key.c_str());
        return 2;
      }
      for (const std::string& v : axis.values) {
        if (v.empty()) {
          std::fprintf(stderr,
                       "alc_run: --sweep %s has an empty value "
                       "(trailing or doubled comma?)\n",
                       key.c_str());
          return 2;
        }
      }
      axes.push_back(std::move(axis));
    } else if (arg == "--repeat" && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
      if (repeat < 1) {
        std::fprintf(stderr, "alc_run: --repeat expects a count >= 1\n");
        return 2;
      }
    } else if (arg == "--seed-stride" && i + 1 < argc) {
      if (!util::ParseUint64(argv[++i], &seed_stride) || seed_stride == 0) {
        std::fprintf(stderr,
                     "alc_run: --seed-stride expects a positive integer\n");
        return 2;
      }
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
      if (trace_path.empty()) {
        std::fprintf(stderr, "alc_run: --trace expects a file path\n");
        return 2;
      }
    } else if (arg == "--decisions" && i + 1 < argc) {
      decisions_path = argv[++i];
      if (decisions_path.empty()) {
        std::fprintf(stderr, "alc_run: --decisions expects a file path\n");
        return 2;
      }
    } else if (arg == "--log-level" && i + 1 < argc) {
      util::LogLevel level = util::LogLevel::kWarning;
      if (!util::Logger::ParseLevel(argv[++i], &level)) {
        std::fprintf(stderr,
                     "alc_run: --log-level expects "
                     "debug|info|warning|error|off, got '%s'\n",
                     argv[i]);
        return 2;
      }
      util::Logger::SetLevel(level);
    } else {
      std::fprintf(stderr, "alc_run: unknown argument '%s'\n", arg.c_str());
      return Usage(argv[0]);
    }
  }

  core::ExperimentSpec spec;
  std::string error;
  if (!core::LoadSpecFile(spec_path, &spec, &error)) {
    std::fprintf(stderr, "alc_run: %s\n", error.c_str());
    return 1;
  }
  for (const auto& [key, value] : overrides) {
    if (!core::ApplySpecOverride(&spec, key, value, &error)) {
      std::fprintf(stderr, "alc_run: --set %s: %s\n", key.c_str(),
                   error.c_str());
      return 1;
    }
  }
  if (!core::ValidateSpec(spec, &error)) {
    std::fprintf(stderr, "alc_run: %s%s: %s\n", spec_path.c_str(),
                 overrides.empty() ? "" : " with --set overrides",
                 error.c_str());
    return 1;
  }

  if (!trace_path.empty()) spec.trace_path = trace_path;
  if (!decisions_path.empty()) spec.decisions_path = decisions_path;

  if (print_only) {
    std::fputs(core::PrintSpec(spec).c_str(), stdout);
    return 0;
  }

  if (axes.empty() && repeat == 1) {
    const core::SpecRunResult result = core::RunSpec(spec);
    PrintSummary(spec, result);
    PrintDecisionSummary(result.decisions, result.decisions_dropped);
    std::vector<core::ExpectVerdict> verdicts;
    if (!core::EvaluateExpect(spec, result, threads, &verdicts, &error)) {
      std::fprintf(stderr, "alc_run: %s: %s\n", spec_path.c_str(),
                   error.c_str());
      return 1;
    }
    int failed = 0;
    for (const core::ExpectVerdict& verdict : verdicts) {
      std::printf("%s\n", core::FormatVerdict(verdict).c_str());
      if (!verdict.pass) {
        // Also on stderr, so a gate that drops stdout still names it.
        std::fprintf(stderr, "alc_run: %s\n",
                     core::FormatVerdict(verdict).c_str());
        ++failed;
      }
    }
    if (!spec.trace_path.empty()) {
      std::printf("trace written to %s\n", spec.trace_path.c_str());
    }
    if (!spec.decisions_path.empty()) {
      std::printf("decision audit written to %s\n",
                  spec.decisions_path.c_str());
    }
    if (!out_dir.empty()) {
      if (!ExportResult(out_dir, "", result)) return 1;
      if (!core::WriteRunManifest(out_dir + "/run.json", spec, result,
                                  overrides, verdicts)) {
        std::fprintf(stderr, "alc_run: cannot write %s/run.json\n",
                     out_dir.c_str());
        return 1;
      }
      std::printf("CSV exports written to %s/\n", out_dir.c_str());
    }
    return failed == 0 ? 0 : 1;
  }

  // Replication: "seed" is just another SweepRunner axis. It is appended
  // last (fastest-varying), so the results of one logical sweep point land
  // in `repeat` consecutive entries and fold into mean +/- stderr below.
  // ApplySpecOverride("seed", ...) re-derives every node seed, making each
  // repetition an independent replication of the same configuration.
  const size_t user_axes = axes.size();
  if (repeat > 1) {
    core::SweepAxis seed_axis;
    seed_axis.key = "seed";
    for (int r = 0; r < repeat; ++r) {
      seed_axis.values.push_back(std::to_string(
          spec.seed + static_cast<uint64_t>(r) * seed_stride));
    }
    axes.push_back(std::move(seed_axis));
  }

  core::SweepRunner runner(spec, axes);
  // Every grid point, not each axis value alone: values valid on their own
  // may combine into a point that would abort its run.
  if (!runner.Validate(&error)) {
    std::fprintf(stderr, "alc_run: --sweep %s\n", error.c_str());
    return 1;
  }
  // Per-point artifact files: every grid point writes its own trace /
  // decision CSV as <stem>.<cell>.<rep><ext> (cell = logical sweep point,
  // rep = repetition index), so parallel points never race on one path.
  // The hook only renames outputs — specs stay bit-identical otherwise.
  if (!spec.trace_path.empty() || !spec.decisions_path.empty()) {
    const auto [trace_stem, trace_ext] = SplitExtension(spec.trace_path);
    const auto [dec_stem, dec_ext] = SplitExtension(spec.decisions_path);
    const int reps = repeat;
    runner.SetSpecHook([trace_stem = trace_stem, trace_ext = trace_ext,
                        dec_stem = dec_stem, dec_ext = dec_ext,
                        reps](int index, core::ExperimentSpec* point_spec) {
      const std::string suffix = "." + std::to_string(index / reps) + "." +
                                 std::to_string(index % reps);
      if (!point_spec->trace_path.empty()) {
        point_spec->trace_path = trace_stem + suffix + trace_ext;
      }
      if (!point_spec->decisions_path.empty()) {
        point_spec->decisions_path = dec_stem + suffix + dec_ext;
      }
    });
  }
  if (repeat > 1) {
    std::printf("%s: sweeping %d point%s x %d seed%s on %s\n",
                spec.name.c_str(), runner.num_points() / repeat,
                runner.num_points() / repeat == 1 ? "" : "s", repeat,
                repeat == 1 ? "" : "s",
                threads == 1 ? "1 thread" : "multiple threads");
  } else {
    std::printf("%s: sweeping %d point%s on %s\n", spec.name.c_str(),
                runner.num_points(), runner.num_points() == 1 ? "" : "s",
                threads == 1 ? "1 thread" : "multiple threads");
  }
  if (!spec.expect.empty()) {
    std::printf("(the [expect] rows are checked on single runs only)\n");
  }
  const std::vector<core::SweepPointResult> results = runner.Run(threads);

  if (!out_dir.empty()) {
    for (const core::SweepPointResult& point : results) {
      const std::string prefix = "point" + std::to_string(point.index) + "_";
      if (!ExportResult(out_dir, prefix, point.result)) return 1;
      // Each cell's manifest records the full override chain: the --set
      // flags first, then this cell's sweep assignment.
      std::vector<std::pair<std::string, std::string>> cell_overrides =
          overrides;
      cell_overrides.insert(cell_overrides.end(), point.assignment.begin(),
                            point.assignment.end());
      if (!core::WriteRunManifest(out_dir + "/" + prefix + "run.json",
                                  point.spec, point.result, cell_overrides)) {
        std::fprintf(stderr, "alc_run: cannot write %srun.json\n",
                     prefix.c_str());
        return 1;
      }
    }
  }

  if (!spec.decisions_path.empty()) {
    std::vector<telemetry::DecisionRecord> all_decisions;
    size_t all_dropped = 0;
    for (const core::SweepPointResult& point : results) {
      all_decisions.insert(all_decisions.end(), point.result.decisions.begin(),
                           point.result.decisions.end());
      all_dropped += point.result.decisions_dropped;
    }
    PrintDecisionSummary(all_decisions, all_dropped);
  }

  std::vector<std::string> header;
  for (size_t a = 0; a < user_axes; ++a) header.push_back(axes[a].key);
  if (repeat == 1) {
    header.insert(header.end(),
                  {"throughput", "mean response", "abort ratio", "commits"});
    util::Table table(header);
    for (const core::SweepPointResult& point : results) {
      std::vector<std::string> row;
      for (const auto& [key, value] : point.assignment) row.push_back(value);
      row.push_back(
          util::StrFormat("%.1f/s", point.result.total_throughput()));
      row.push_back(util::StrFormat("%.3fs", point.result.mean_response()));
      row.push_back(util::StrFormat("%.3f", point.result.abort_ratio()));
      row.push_back(util::StrFormat(
          "%llu", static_cast<unsigned long long>(point.result.commits())));
      table.AddRow(row);
    }
    table.Print(std::cout);
  } else {
    header.insert(header.end(), {"throughput", "mean response",
                                 "abort ratio", "mean commits"});
    util::Table table(header);
    for (size_t base = 0; base < results.size();
         base += static_cast<size_t>(repeat)) {
      std::vector<double> throughputs, responses, aborts, commits;
      for (int r = 0; r < repeat; ++r) {
        const core::SpecRunResult& run = results[base + r].result;
        throughputs.push_back(run.total_throughput());
        responses.push_back(run.mean_response());
        aborts.push_back(run.abort_ratio());
        commits.push_back(static_cast<double>(run.commits()));
      }
      std::vector<std::string> row;
      // The non-seed assignment is shared by the whole block.
      for (size_t a = 0; a < user_axes; ++a) {
        row.push_back(results[base].assignment[a].second);
      }
      row.push_back(FormatMeanStderr(throughputs, "%.1f/s"));
      row.push_back(FormatMeanStderr(responses, "%.4fs"));
      row.push_back(FormatMeanStderr(aborts, "%.4f"));
      row.push_back(FormatMeanStderr(commits, "%.0f"));
      table.AddRow(row);
    }
    table.Print(std::cout);
  }
  if (!out_dir.empty()) {
    std::printf("CSV exports written to %s/\n", out_dir.c_str());
  }
  return 0;
}
