// Fault-storm robustness bake-off over specs/fault_storm.spec: the
// elasticity-flash fleet takes its 780/s surge while the [fault] injector
// throws a correlated storm at the measured path (45% probe loss fleet-
// wide, probe-delay spikes, a 10 s asymmetric partition, a 4x disk stall,
// a half-speed CPU window, and a real crash of node 0 at t=60).
//
// Two claims under test:
//
//  - detection: the phi-accrual 2-of-3 quorum detector false-declares
//    strictly fewer live nodes down than the PR 9 consecutive-miss
//    machine under the same storm, while still detecting the real crash;
//  - response: bounded retry/backoff + the class-tiered degradation
//    ladder beat the no-retry/no-shed baseline on surge-window commits;
//
// plus the standing determinism bar: the storm run is bit-exact run to
// run (decisions-CSV FNV fingerprint) and attaching the decision audit +
// trace does not change a single commit.
//
//   $ ./build/bench/fault_storm
//   $ ./build/tools/alc_run specs/fault_storm.spec

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/export.h"
#include "telemetry/audit.h"
#include "util/hash.h"
#include "util/strformat.h"
#include "util/table.h"

namespace {

using namespace alc;

constexpr double kSurgeStart = 40.0;
constexpr double kSurgeEnd = 100.0;

std::string DecisionsCsv(const core::SpecRunResult& result) {
  std::ostringstream out;
  telemetry::WriteDecisionsCsv(out, result.decisions);
  return out.str();
}

void AddRow(util::Table* table, const char* name,
            const core::ClusterResult& r) {
  table->AddRow(
      {name,
       util::StrFormat("%.1f/s",
                       bench::SurgeThroughput(r, kSurgeStart, kSurgeEnd)),
       util::StrFormat("%llu", static_cast<unsigned long long>(r.commits)),
       util::StrFormat("%llu",
                       static_cast<unsigned long long>(r.false_declarations)),
       util::StrFormat("%llu",
                       static_cast<unsigned long long>(r.declared_down)),
       util::StrFormat("%.2fs", r.detection_latency_mean),
       util::StrFormat("%llu", static_cast<unsigned long long>(r.retries)),
       util::StrFormat("%llu",
                       static_cast<unsigned long long>(r.dead_letters)),
       util::StrFormat("%llu", static_cast<unsigned long long>(
                                   r.shed_query + r.shed_update))});
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = bench::OutputDir(argc, argv);
  const std::string decisions_csv = out_dir + "/fault_storm.decisions.csv";
  bench::PrintHeader(
      "Fault storm: hardened detection + response vs PR 9 baselines",
      "under injected probe loss/delay, partition, gray degradation and a "
      "real crash, phi-accrual quorum detection false-declares strictly "
      "less than consecutive-miss counting, and bounded retry + tiered "
      "shedding recover surge-window commits the baseline loses");

  // The four variants share the spec (same storm, same seed); only the
  // subsystem under test is swapped out.
  core::ExperimentSpec hardened = bench::LoadBenchSpec("fault_storm.spec");

  core::ExperimentSpec consecutive = bench::LoadBenchSpec("fault_storm.spec");
  bench::Override(&consecutive, "elasticity.hb.kind", "consecutive");
  bench::Override(&consecutive, "elasticity.hb.observers", "1");
  bench::Override(&consecutive, "elasticity.hb.quorum", "1");

  core::ExperimentSpec no_response = bench::LoadBenchSpec("fault_storm.spec");
  bench::Override(&no_response, "retry.enabled", "false");
  bench::Override(&no_response, "degrade.enabled", "false");

  const core::SpecRunResult hardened_run = core::RunSpec(hardened);
  const core::SpecRunResult consecutive_run = core::RunSpec(consecutive);
  const core::SpecRunResult no_response_run = core::RunSpec(no_response);
  const core::ClusterResult& hard = hardened_run.cluster_result;
  const core::ClusterResult& cons = consecutive_run.cluster_result;
  const core::ClusterResult& bare = no_response_run.cluster_result;

  util::Table table({"variant", "surge tput", "commits", "false down",
                     "declared", "detect lat", "retries", "dead", "shed"});
  AddRow(&table, "hardened (phi+quorum, retry+shed)", hard);
  AddRow(&table, "consecutive-miss detector", cons);
  AddRow(&table, "no retry / no shed", bare);
  table.Print(std::cout);

  // Determinism: the hardened storm run twice with the decision audit
  // attached must produce byte-identical decision logs, and attaching the
  // audit + trace must not move a single commit (observation only).
  core::ExperimentSpec audited = bench::LoadBenchSpec("fault_storm.spec");
  audited.decisions_path = decisions_csv;
  audited.trace_path = out_dir + "/fault_storm.trace.json";
  const core::SpecRunResult first = core::RunSpec(audited);
  const core::SpecRunResult second = core::RunSpec(audited);
  const uint64_t fingerprint = util::Fnv1a(DecisionsCsv(first));
  const bool bit_exact = DecisionsCsv(first) == DecisionsCsv(second);
  const bool audit_inert = first.cluster_result.commits == hard.commits;

  const bool fewer_false = hard.false_declarations < cons.false_declarations &&
                           cons.false_declarations > 0;
  const bool still_detects =
      hard.detection_latency_mean > 0.0 && hard.declared_down > 0;
  const bool response_wins =
      bench::SurgeThroughput(hard, kSurgeStart, kSurgeEnd) >
      bench::SurgeThroughput(bare, kSurgeStart, kSurgeEnd);
  const bool faults_ran = hard.faults_started == hard.faults_ended &&
                          hard.faults_started > 0 && hard.probes_lost > 0;

  std::printf(
      "\nverdict:\n"
      "  storm executed (windows=%llu, probes lost=%llu, delayed=%llu): %s\n"
      "  false down-declarations, phi+quorum vs consecutive: %llu < %llu: "
      "%s\n"
      "  real crash still detected (declared=%llu, latency=%.2fs): %s\n"
      "  surge commits, retry+shed vs bare: %.1f/s > %.1f/s: %s\n"
      "  run-to-run decisions bit-exact (fnv %llu): %s\n"
      "  audit+trace observation-only (commits %llu == %llu): %s\n"
      "  decisions.csv: %s\n",
      static_cast<unsigned long long>(hard.faults_started),
      static_cast<unsigned long long>(hard.probes_lost),
      static_cast<unsigned long long>(hard.probes_delayed),
      faults_ran ? "YES" : "NO",
      static_cast<unsigned long long>(hard.false_declarations),
      static_cast<unsigned long long>(cons.false_declarations),
      fewer_false ? "YES" : "NO",
      static_cast<unsigned long long>(hard.declared_down),
      hard.detection_latency_mean, still_detects ? "YES" : "NO",
      bench::SurgeThroughput(hard, kSurgeStart, kSurgeEnd),
      bench::SurgeThroughput(bare, kSurgeStart, kSurgeEnd),
      response_wins ? "YES" : "NO",
      static_cast<unsigned long long>(fingerprint), bit_exact ? "YES" : "NO",
      static_cast<unsigned long long>(first.cluster_result.commits),
      static_cast<unsigned long long>(hard.commits),
      audit_inert ? "YES" : "NO", decisions_csv.c_str());
  return faults_ran && fewer_false && still_detects && response_wins &&
                 bit_exact && audit_inert
             ? 0
             : 1;
}
