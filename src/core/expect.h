#ifndef ALC_CORE_EXPECT_H_
#define ALC_CORE_EXPECT_H_

#include <string>
#include <utility>
#include <vector>

#include "core/spec.h"

namespace alc::core {

// The `[expect]` section of a spec file: named checks that turn a run into
// a verdict. A row is `name = <expr> <op> <number>` (op: < <= > >=) or
// `name = <expr> in [lo, hi]`, where <expr> is a run.json leaf
// (summary.throughput, response.p99, metrics.<registry name>, ...), the
// same leaf of a variant run (`leaf[k=v, ...]`, ApplySpecOverride
// assignments on top of the spec), `max(leaf, k = v1 | v2 | ...)`,
// `argmax(...)` (the numeric vi at that max), or the ratio `a / b` of two
// of these (README.md, "Spec files", has the full grammar). A NaN value,
// from a zero denominator or a NaN read, fails its row.

/// The outcome of one row.
struct ExpectVerdict {
  std::string name;
  std::string check;
  /// Every leaf the row read, labelled as the row names it (a max or
  /// argmax expands into one label per axis value), with its value.
  std::vector<std::pair<std::string, double>> reads;
  double value = 0.0;
  bool pass = false;
};

/// Checks every row of `spec`: syntax, leaf names, bounds, and that each
/// variant's overrides apply and pass ValidateSpec. False with a message
/// naming the row (and its spec-file line when it has one).
bool CheckExpect(const ExperimentSpec& spec, std::string* error);

/// Evaluates every row against `base`, the result of RunSpec(spec). Each
/// distinct variant runs once, on up to `threads` workers (RunParallel's
/// convention) and without output paths; a variant equal to `spec` reuses
/// `base`. False with a message when a row fails CheckExpect or names a
/// leaf its run does not have.
bool EvaluateExpect(const ExperimentSpec& spec, const SpecRunResult& base,
                    int threads, std::vector<ExpectVerdict>* verdicts,
                    std::string* error);

/// "expect <name>: PASS|FAIL  <check>  (value <v>)", one line per row.
std::string FormatVerdict(const ExpectVerdict& verdict);

}  // namespace alc::core

#endif  // ALC_CORE_EXPECT_H_
