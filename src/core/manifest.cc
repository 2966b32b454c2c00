#include "core/manifest.h"

#include <cstdio>
#include <fstream>

#include "telemetry/registry.h"
#include "util/params.h"

#ifndef ALC_BUILD_TYPE
#define ALC_BUILD_TYPE "unknown"
#endif

namespace alc::core {

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
    const std::vector<std::pair<std::string, std::string>>& overrides) {
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
  out << "  \"summary\": {\"throughput\": "
      << util::FormatDouble(result.total_throughput())
      << ", \"mean_response\": " << util::FormatDouble(result.mean_response())
      << ", \"abort_ratio\": " << util::FormatDouble(result.abort_ratio())
      << ", \"commits\": " << result.commits() << "},\n";
  const telemetry::LogHistogram& hist = result.response_hist();
  out << "  \"response\": {\"p50\": " << util::FormatDouble(hist.Quantile(0.50))
      << ", \"p95\": " << util::FormatDouble(hist.Quantile(0.95))
      << ", \"p99\": " << util::FormatDouble(hist.Quantile(0.99))
      << ", \"p999\": " << util::FormatDouble(hist.Quantile(0.999)) << "},\n";
  out << "  \"metrics\": ";
  telemetry::MetricRegistry::WriteSnapshotJson(out, result.metrics());
  out << "\n}\n";
}

bool WriteRunManifest(
    const std::string& path, const ExperimentSpec& spec,
    const SpecRunResult& result,
    const std::vector<std::pair<std::string, std::string>>& overrides) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  WriteRunManifestJson(out, spec, result, overrides);
  return out.good();
}

}  // namespace alc::core
