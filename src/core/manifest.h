#ifndef ALC_CORE_MANIFEST_H_
#define ALC_CORE_MANIFEST_H_

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/expect.h"
#include "core/spec.h"

namespace alc::core {

/// Writes the run manifest (`run.json`): one self-contained JSON ledger of
/// what ran and what came out —
///
///   schema      "alc-run-manifest-v1"
///   name/mode   spec name, "single" or "cluster"
///   seed/node_seeds  the experiment seed and each node's resolved seed
///   overrides   the (key, value) list applied on top of the spec file
///               (--set flags and sweep-cell assignments, in order)
///   build       compiler + build type (informational; alc_compare
///               ignores this section when diffing)
///   spec        the exact PrintSpec round-trip text, so the manifest
///               alone reproduces the run; the trace and decisions
///               output paths are cleared (they name where this copy
///               was written, not what ran)
///   summary     throughput / mean_response / abort_ratio / commits over
///               [warmup, duration]
///   response    post-warmup p50/p95/p99/p999 response percentiles
///   metrics     the full end-of-run metric-registry snapshot
///   expect      the `[expect]` verdicts (core/expect.h), one object per
///               row: name, check, the leaves it read, value (null when
///               not finite) and pass; only when `expect` is non-empty
///
/// All doubles use the shortest exact round-trip form (util::FormatDouble),
/// so two manifests of the same run are byte-identical and regressions
/// diff cleanly under alc_compare.
void WriteRunManifestJson(
    std::ostream& out, const ExperimentSpec& spec, const SpecRunResult& result,
    const std::vector<std::pair<std::string, std::string>>& overrides = {},
    const std::vector<ExpectVerdict>& expect = {});

/// Same artifact to `path` (truncating). Returns false on I/O failure.
bool WriteRunManifest(
    const std::string& path, const ExperimentSpec& spec,
    const SpecRunResult& result,
    const std::vector<std::pair<std::string, std::string>>& overrides = {},
    const std::vector<ExpectVerdict>& expect = {});

/// True when `name` names a numeric manifest leaf: a summary or response
/// leaf, or "metrics.<name>" (which a given run may still lack).
bool IsRunLeaf(const std::string& name);

/// Reads `result`'s manifest leaf by its dotted run.json path
/// ("summary.commits", "response.p99", "metrics.node0.commits",
/// "metrics.node0.response.p99"), through the table the manifest writer
/// writes from. False when the run has no such leaf.
bool ReadRunLeaf(const SpecRunResult& result, const std::string& name,
                 double* value);

/// JSON string escaping shared with the manifest writer (quotes,
/// backslashes, control characters, newlines).
std::string JsonEscape(const std::string& text);

}  // namespace alc::core

#endif  // ALC_CORE_MANIFEST_H_
