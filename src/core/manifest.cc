#include "core/manifest.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "telemetry/registry.h"
#include "util/params.h"

#ifndef ALC_BUILD_TYPE
#define ALC_BUILD_TYPE "unknown"
#endif

namespace alc::core {

namespace {

/// The summary and response leaves, in manifest order; the section is the
/// name's first component.
struct RunLeaf {
  const char* name;
  double (*read)(const SpecRunResult& result);
};

constexpr RunLeaf kRunLeaves[] = {
    {"summary.throughput",
     [](const SpecRunResult& r) { return r.total_throughput(); }},
    {"summary.mean_response",
     [](const SpecRunResult& r) { return r.mean_response(); }},
    {"summary.abort_ratio",
     [](const SpecRunResult& r) { return r.abort_ratio(); }},
    {"summary.commits",
     [](const SpecRunResult& r) { return static_cast<double>(r.commits()); }},
    {"response.p50",
     [](const SpecRunResult& r) { return r.response_hist().Quantile(0.50); }},
    {"response.p95",
     [](const SpecRunResult& r) { return r.response_hist().Quantile(0.95); }},
    {"response.p99",
     [](const SpecRunResult& r) { return r.response_hist().Quantile(0.99); }},
    {"response.p999",
     [](const SpecRunResult& r) { return r.response_hist().Quantile(0.999); }},
};

constexpr char kMetricsPrefix[] = "metrics.";

/// A number as JSON: null when it is not finite.
std::string JsonNumber(double value) {
  return std::isfinite(value) ? util::FormatDouble(value) : "null";
}

/// The `expect` leaf: one object per row.
void WriteExpectJson(std::ostream& out,
                     const std::vector<ExpectVerdict>& verdicts) {
  out << '[';
  for (size_t i = 0; i < verdicts.size(); ++i) {
    const ExpectVerdict& verdict = verdicts[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
        << JsonEscape(verdict.name) << "\", \"check\": \""
        << JsonEscape(verdict.check) << "\", \"reads\": {";
    for (size_t j = 0; j < verdict.reads.size(); ++j) {
      out << (j == 0 ? "\"" : ", \"") << JsonEscape(verdict.reads[j].first)
          << "\": " << JsonNumber(verdict.reads[j].second);
    }
    out << "}, \"value\": " << JsonNumber(verdict.value)
        << ", \"pass\": " << (verdict.pass ? "true" : "false") << '}';
  }
  out << "\n  ]";
}

}  // namespace

bool IsRunLeaf(const std::string& name) {
  for (const RunLeaf& leaf : kRunLeaves) {
    if (name == leaf.name) return true;
  }
  return name.size() > sizeof(kMetricsPrefix) - 1 &&
         name.compare(0, sizeof(kMetricsPrefix) - 1, kMetricsPrefix) == 0;
}

bool ReadRunLeaf(const SpecRunResult& result, const std::string& name,
                 double* value) {
  for (const RunLeaf& leaf : kRunLeaves) {
    if (name == leaf.name) {
      *value = leaf.read(result);
      return true;
    }
  }
  if (!IsRunLeaf(name)) return false;
  const std::string metric = name.substr(sizeof(kMetricsPrefix) - 1);
  // The fields WriteSnapshotJson writes for each kind.
  for (const telemetry::MetricSample& sample : result.metrics()) {
    if (sample.kind != telemetry::MetricKind::kHistogram) {
      if (metric != sample.name) continue;
      *value = sample.kind == telemetry::MetricKind::kCounter
                   ? static_cast<double>(sample.count)
                   : sample.value;
      return true;
    }
    const std::pair<const char*, double> fields[] = {
        {"count", static_cast<double>(sample.count)},
        {"mean", sample.mean},
        {"p50", sample.p50},
        {"p95", sample.p95},
        {"p99", sample.p99},
        {"p999", sample.p999}};
    for (const auto& [field, field_value] : fields) {
      if (metric != sample.name + "." + field) continue;
      *value = field_value;
      return true;
    }
  }
  return false;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

void WriteRunManifestJson(
    std::ostream& out, const ExperimentSpec& spec, const SpecRunResult& result,
    const std::vector<std::pair<std::string, std::string>>& overrides,
    const std::vector<ExpectVerdict>& expect) {
  out << "{\n";
  out << "  \"schema\": \"alc-run-manifest-v1\",\n";
  out << "  \"name\": \"" << JsonEscape(spec.name) << "\",\n";
  out << "  \"mode\": \"" << (spec.cluster ? "cluster" : "single") << "\",\n";
  out << "  \"seed\": " << spec.seed << ",\n";
  out << "  \"node_seeds\": [";
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    if (i > 0) out << ',';
    out << spec.nodes[i].system.seed;
  }
  out << "],\n";
  out << "  \"overrides\": [";
  for (size_t i = 0; i < overrides.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"key\":\"" << JsonEscape(overrides[i].first) << "\",\"value\":\""
        << JsonEscape(overrides[i].second) << "\"}";
  }
  out << "],\n";
  out << "  \"build\": {\"compiler\": \"" << JsonEscape(__VERSION__)
      << "\", \"build_type\": \"" << JsonEscape(ALC_BUILD_TYPE) << "\"},\n";
  // Output paths say where this copy of the run was written, not what was
  // run: cleared, so one run exported to two places compares equal.
  ExperimentSpec run_spec = spec;
  run_spec.trace_path.clear();
  run_spec.decisions_path.clear();
  out << "  \"spec\": \"" << JsonEscape(PrintSpec(run_spec)) << "\",\n";
  for (const std::string section : {"summary", "response"}) {
    out << "  \"" << section << "\": {";
    const char* separator = "";
    for (const RunLeaf& leaf : kRunLeaves) {
      const std::string name = leaf.name;
      if (name.compare(0, section.size() + 1, section + ".") != 0) continue;
      out << separator << '"' << name.substr(section.size() + 1)
          << "\": " << util::FormatDouble(leaf.read(result));
      separator = ", ";
    }
    out << "},\n";
  }
  out << "  \"metrics\": ";
  telemetry::MetricRegistry::WriteSnapshotJson(out, result.metrics());
  if (!expect.empty()) {
    out << ",\n  \"expect\": ";
    WriteExpectJson(out, expect);
  }
  out << "\n}\n";
}

bool WriteRunManifest(
    const std::string& path, const ExperimentSpec& spec,
    const SpecRunResult& result,
    const std::vector<std::pair<std::string, std::string>>& overrides,
    const std::vector<ExpectVerdict>& expect) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  WriteRunManifestJson(out, spec, result, overrides, expect);
  return out.good();
}

}  // namespace alc::core
