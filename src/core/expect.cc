#include "core/expect.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/manifest.h"
#include "core/sweep.h"
#include "util/params.h"

namespace alc::core {

namespace {

using Overrides = std::vector<std::pair<std::string, std::string>>;
using util::TrimWhitespace;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A leaf of one variant run, or the max or argmax of a leaf over an axis
/// of variants.
struct Term {
  enum class Kind { kLeaf, kMax, kArgmax };
  Kind kind = Kind::kLeaf;
  std::string leaf;
  Overrides cell;  // the `leaf[k=v, ...]` overrides
  std::string axis_key;
  std::vector<std::string> axis_values;

  /// The overrides of each run the term reads.
  std::vector<Overrides> Cells() const {
    if (kind == Kind::kLeaf) return {cell};
    std::vector<Overrides> cells(axis_values.size(), cell);
    for (size_t i = 0; i < cells.size(); ++i) {
      cells[i].emplace_back(axis_key, axis_values[i]);
    }
    return cells;
  }
};

/// terms[0], or terms[0] / terms[1], checked against the range [lo, hi]
/// (each end open for a strict comparison).
struct Row {
  std::vector<Term> terms;
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;
};

/// The row's own spelling of a read: "leaf" or "leaf[k=v, ...]".
std::string Label(const std::string& leaf, const Overrides& cell) {
  std::string label = leaf;
  for (size_t i = 0; i < cell.size(); ++i) {
    label += (i == 0 ? "[" : ", ") + cell[i].first + "=" + cell[i].second;
  }
  return cell.empty() ? label : label + "]";
}

bool Fail(std::string* error, const std::string& message) {
  *error = message;
  return false;
}

/// `text` split at each `sep` outside parentheses and brackets, each piece
/// trimmed.
std::vector<std::string> SplitTopLevel(std::string_view text, char sep) {
  std::vector<std::string> pieces(1);
  int depth = 0;
  for (const char c : text) {
    depth += (c == '(' || c == '[') - (c == ')' || c == ']');
    if (depth == 0 && c == sep) {
      pieces.emplace_back();
    } else {
      pieces.back() += c;
    }
  }
  for (std::string& piece : pieces) piece = TrimWhitespace(piece);
  return pieces;
}

bool ParseBound(const std::string& text, double* out, std::string* error) {
  if (util::ParseDouble(text, out) && std::isfinite(*out)) return true;
  return Fail(error, "bound '" + text + "' is not a number");
}

/// "leaf", "leaf[k=v, ...]", "max(leaf, k = v1 | ...)" or "argmax(...)".
bool ParseTerm(std::string text, Term* term, std::string* error) {
  for (const auto& [name, kind] : {std::pair{"max(", Term::Kind::kMax},
                                   std::pair{"argmax(", Term::Kind::kArgmax}}) {
    const size_t n = std::string_view(name).size();
    if (text.compare(0, n, name) != 0) continue;
    const std::vector<std::string> args =
        SplitTopLevel(text.substr(n, text.size() - n - 1), ',');
    const size_t equals =
        args.size() == 2 ? args[1].find('=') : std::string::npos;
    if (text.back() != ')' || equals == std::string::npos) {
      return Fail(error, "expected '" + std::string(name) +
                             "leaf, key = v1 | v2 | ...)', got '" + text +
                             "'");
    }
    term->kind = kind;
    term->axis_key = TrimWhitespace(args[1].substr(0, equals));
    term->axis_values = SplitTopLevel(args[1].substr(equals + 1), '|');
    for (const std::string& value : term->axis_values) {
      double number = 0.0;
      if (value.empty() || (kind == Term::Kind::kArgmax &&
                            !util::ParseDouble(value, &number))) {
        return Fail(error, "axis value '" + value + "' is " +
                               (value.empty() ? "empty" : "not a number"));
      }
    }
    text = args[0];
  }
  const size_t open = text.find('[');
  term->leaf = TrimWhitespace(text.substr(0, open));
  if (!IsRunLeaf(term->leaf)) {
    return Fail(error, "unknown leaf '" + term->leaf +
                           "' (summary.<throughput|mean_response|abort_ratio|"
                           "commits>, response.<p50|p95|p99|p999> or "
                           "metrics.<name>)");
  }
  if (open == std::string::npos) return true;
  for (const std::string& piece :
       SplitTopLevel(text.substr(open + 1, text.size() - open - 2), ',')) {
    const size_t equals = piece.find('=');
    if (text.back() != ']' || equals == 0 || equals + 1 >= piece.size()) {
      return Fail(error, "expected 'leaf[key=value, ...]', got '" + text + "'");
    }
    term->cell.emplace_back(TrimWhitespace(piece.substr(0, equals)),
                            TrimWhitespace(piece.substr(equals + 1)));
  }
  return true;
}

/// "<expr> <op> <bound>" or "<expr> in [lo, hi]".
bool ParseRow(const std::string& check, Row* row, std::string* error) {
  std::string expr;
  const size_t in = check.rfind(" in [");
  const std::vector<std::string> below = SplitTopLevel(check, '<');
  const std::vector<std::string> above = SplitTopLevel(check, '>');
  if (in != std::string::npos && check.back() == ']') {
    expr = check.substr(0, in);
    const std::vector<std::string> bounds = util::SplitTrimmed(
        check.substr(in + 5, check.size() - in - 6), ',');
    if (bounds.size() != 2) return Fail(error, "expected 'in [lo, hi]'");
    if (!ParseBound(bounds[0], &row->lo, error) ||
        !ParseBound(bounds[1], &row->hi, error)) {
      return false;
    }
    if (row->lo > row->hi) {
      return Fail(error, "in [" + bounds[0] + ", " + bounds[1] +
                             "]: the lower bound exceeds the upper bound");
    }
  } else if (below.size() + above.size() == 3) {
    const bool less = below.size() == 2;
    expr = less ? below[0] : above[0];
    std::string bound = less ? below[1] : above[1];
    const bool or_equal = !bound.empty() && bound[0] == '=';
    if (or_equal) bound = TrimWhitespace(bound.substr(1));
    if (!ParseBound(bound, less ? &row->hi : &row->lo, error)) return false;
    (less ? row->hi_open : row->lo_open) = !or_equal;
  } else {
    return Fail(error,
                "expected '<expr> <op> <number>' (op: < <= > >=) or "
                "'<expr> in [lo, hi]'");
  }
  const std::vector<std::string> parts = SplitTopLevel(expr, '/');
  if (parts.size() > 2) return Fail(error, "at most one '/' per row");
  row->terms.resize(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].empty()) {
      return Fail(error, "missing operand in '" + expr + "'");
    }
    if (!ParseTerm(parts[i], &row->terms[i], error)) return false;
  }
  return true;
}

/// `spec` as every variant starts from: no rows, no output paths.
ExperimentSpec VariantBase(const ExperimentSpec& spec) {
  ExperimentSpec base = spec;
  base.expect.clear();
  base.trace_path.clear();
  base.decisions_path.clear();
  return base;
}

/// `base` with the overrides of one cell, validated as a run.
bool VariantSpec(const ExperimentSpec& base, const std::string& leaf,
                 const Overrides& cell, ExperimentSpec* out,
                 std::string* error) {
  *out = base;
  for (const auto& [key, value] : cell) {
    if (!ApplySpecOverride(out, key, value, error)) {
      return Fail(error, Label(leaf, cell) + ": " + *error);
    }
  }
  return ValidateSpec(*out, error) ||
         Fail(error, Label(leaf, cell) + ": " + *error);
}

/// "line N: expect row 'name': " (the line only when known).
std::string RowPrefix(const ExpectRow& row) {
  return (row.line > 0 ? "line " + std::to_string(row.line) + ": " : "") +
         "expect row '" + row.name + "': ";
}

bool ParseRows(const ExperimentSpec& spec, std::vector<Row>* rows,
               std::string* error) {
  // ParseSpec checks every file: a spec without rows skips the copy.
  if (spec.expect.empty()) return true;
  const ExperimentSpec base = VariantBase(spec);
  ExperimentSpec variant;
  for (const ExpectRow& source : spec.expect) {
    std::string message;
    bool ok = ParseRow(source.check, &rows->emplace_back(), &message);
    for (const Term& term : rows->back().terms) {
      for (const Overrides& cell : term.Cells()) {
        ok = ok && VariantSpec(base, term.leaf, cell, &variant, &message);
      }
    }
    if (!ok) return Fail(error, RowPrefix(source) + message);
  }
  return true;
}

}  // namespace

bool CheckExpect(const ExperimentSpec& spec, std::string* error) {
  std::vector<Row> rows;
  return ParseRows(spec, &rows, error);
}

bool EvaluateExpect(const ExperimentSpec& spec, const SpecRunResult& base,
                    int threads, std::vector<ExpectVerdict>* verdicts,
                    std::string* error) {
  verdicts->clear();
  std::vector<Row> rows;
  if (!ParseRows(spec, &rows, error)) return false;
  if (rows.empty()) return true;

  // The distinct runs, the spec's own first. `slots` names each cell's run,
  // in row, term and cell order.
  std::vector<ExperimentSpec> specs = {VariantBase(spec)};
  std::vector<size_t> slots;
  for (const Row& row : rows) {
    for (const Term& term : row.terms) {
      for (const Overrides& cell : term.Cells()) {
        ExperimentSpec variant;
        VariantSpec(specs[0], term.leaf, cell, &variant, error);
        size_t slot = 0;
        while (slot < specs.size() && !(specs[slot] == variant)) ++slot;
        if (slot == specs.size()) specs.push_back(std::move(variant));
        slots.push_back(slot);
      }
    }
  }
  std::vector<SpecRunResult> results(specs.size());
  RunParallel(static_cast<int>(specs.size()) - 1, threads,
              [&](int i) { results[i + 1] = RunSpec(specs[i + 1]); });

  size_t next = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    ExpectVerdict verdict;
    verdict.name = spec.expect[r].name;
    verdict.check = spec.expect[r].check;
    double values[2] = {0.0, 1.0};
    for (size_t t = 0; t < rows[r].terms.size(); ++t) {
      const Term& term = rows[r].terms[t];
      const std::vector<Overrides> cells = term.Cells();
      double best = -kInf;
      size_t best_at = 0;
      for (size_t c = 0; c < cells.size(); ++c) {
        const size_t slot = slots[next++];
        const std::string label = Label(term.leaf, cells[c]);
        double value = 0.0;
        if (!ReadRunLeaf(slot == 0 ? base : results[slot], term.leaf,
                         &value)) {
          return Fail(error, RowPrefix(spec.expect[r]) +
                                 (cells[c].empty() ? "the run"
                                                   : "the run of " + label) +
                                 " has no leaf '" + term.leaf + "'");
        }
        if (std::none_of(
                verdict.reads.begin(), verdict.reads.end(),
                [&label](const auto& read) { return read.first == label; })) {
          verdict.reads.emplace_back(label, value);
        }
        // A NaN read makes the max NaN, which fails the row.
        if (std::isnan(value) || value > best) {
          best = value;
          best_at = c;
        }
      }
      values[t] = best;
      if (term.kind == Term::Kind::kArgmax && !std::isnan(best)) {
        util::ParseDouble(term.axis_values[best_at], &values[t]);
      }
    }
    // A zero or non-finite denominator gives NaN, never a passing infinity.
    const Row& row = rows[r];
    const double value = std::isfinite(values[1]) && values[1] != 0.0
                             ? values[0] / values[1]
                             : kNaN;
    verdict.value = value;
    verdict.pass = std::isfinite(value) &&
                   (row.lo_open ? value > row.lo : value >= row.lo) &&
                   (row.hi_open ? value < row.hi : value <= row.hi);
    verdicts->push_back(std::move(verdict));
  }
  return true;
}

std::string FormatVerdict(const ExpectVerdict& verdict) {
  char value[32];
  std::snprintf(value, sizeof(value), "%.6g", verdict.value);
  return "expect " + verdict.name + ": " + (verdict.pass ? "PASS" : "FAIL") +
         "  " + verdict.check + "  (value " + value + ")";
}

}  // namespace alc::core
