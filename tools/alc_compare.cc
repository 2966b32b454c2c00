// alc_compare: machine-checkable diff of run artifacts, for CI regression
// gates and manual A/B investigations.
//
//   alc_compare A.json B.json [flags]     two manifests or BENCH_perf.json
//   alc_compare dirA dirB [flags]         two alc_run --out directories:
//                                         every *.csv and *.json present in
//                                         A is compared against B
//
// JSON files are flattened to dotted paths (array elements keyed by their
// "name" member when present, else by index) and every numeric leaf is
// compared under a relative tolerance; string/bool leaves must match
// exactly (a multi-line string that differs, such as a manifest's `spec`
// text, is reported as a line diff); paths present in A but missing in B
// (or vice versa) fail. CSV files are compared cell-wise under the same
// tolerance.
//
// Flags:
//   --tol R          default relative tolerance (default 1e-9)
//   --tol KEY=R      tolerance for paths containing KEY (longest match wins)
//   --ignore TOKEN   skip paths containing TOKEN (repeatable). Defaults
//                    skip wall-clock and build-environment facts:
//                    build, wall_sec, items_per_sec, items, allocs, smoke
//   --no-default-ignores   compare those too
//
// Exit: 0 all within tolerance, 1 regression/mismatch, 2 usage or I/O.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ------------------------------------------------------------------ JSON --

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;  // string value, or the raw number literal
  std::vector<std::unique_ptr<JsonValue>> items;
  std::vector<std::pair<std::string, std::unique_ptr<JsonValue>>> members;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::unique_ptr<JsonValue> Parse(std::string* error) {
    std::unique_ptr<JsonValue> value = ParseValue();
    if (value == nullptr) {
      *error = error_;
      return nullptr;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      *error = "trailing content at offset " + std::to_string(pos_);
      return nullptr;
    }
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return Fail(std::string("expected '") + c + "'");
  }

  bool ParseString(std::string* out) {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("truncated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
            const std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            const long code = std::strtol(hex.c_str(), nullptr, 16);
            // Manifests only escape control characters; anything else is
            // preserved as a literal byte (sufficient for our artifacts).
            *out += static_cast<char>(code & 0x7f);
            break;
          }
          default:
            return Fail("bad escape");
        }
      } else {
        *out += c;
      }
    }
    return Fail("unterminated string");
  }

  std::unique_ptr<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return nullptr;
    }
    const char c = text_[pos_];
    auto value = std::make_unique<JsonValue>();
    if (c == '{') {
      ++pos_;
      value->kind = JsonValue::Kind::kObject;
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return value;
      }
      while (true) {
        std::string key;
        if (!ParseString(&key)) return nullptr;
        if (!Consume(':')) return nullptr;
        std::unique_ptr<JsonValue> member = ParseValue();
        if (member == nullptr) return nullptr;
        value->members.emplace_back(std::move(key), std::move(member));
        SkipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (!Consume('}')) return nullptr;
        return value;
      }
    }
    if (c == '[') {
      ++pos_;
      value->kind = JsonValue::Kind::kArray;
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return value;
      }
      while (true) {
        std::unique_ptr<JsonValue> item = ParseValue();
        if (item == nullptr) return nullptr;
        value->items.push_back(std::move(item));
        SkipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (!Consume(']')) return nullptr;
        return value;
      }
    }
    if (c == '"') {
      value->kind = JsonValue::Kind::kString;
      if (!ParseString(&value->text)) return nullptr;
      return value;
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      value->kind = JsonValue::Kind::kBool;
      value->boolean = true;
      pos_ += 4;
      return value;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      value->kind = JsonValue::Kind::kBool;
      pos_ += 5;
      return value;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return value;
    }
    // Number.
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::strchr("+-.eE", text_[pos_]) != nullptr)) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail("unexpected character");
      return nullptr;
    }
    value->kind = JsonValue::Kind::kNumber;
    value->text = text_.substr(start, pos_ - start);
    char* end = nullptr;
    value->number = std::strtod(value->text.c_str(), &end);
    if (end != value->text.c_str() + value->text.size()) {
      Fail("malformed number");
      return nullptr;
    }
    return value;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

// ------------------------------------------------------------- flattening --

struct Leaf {
  bool numeric = false;
  double number = 0.0;
  std::string text;  // non-numeric comparison form
};

void Flatten(const JsonValue& value, const std::string& path,
             std::map<std::string, Leaf>* out) {
  switch (value.kind) {
    case JsonValue::Kind::kObject:
      for (const auto& [key, member] : value.members) {
        Flatten(*member, path.empty() ? key : path + "." + key, out);
      }
      break;
    case JsonValue::Kind::kArray: {
      for (size_t i = 0; i < value.items.size(); ++i) {
        const JsonValue& item = *value.items[i];
        std::string key = std::to_string(i);
        // Arrays of named records (BENCH_perf.json results, manifest
        // overrides) key by name so reordering or insertion does not
        // misalign the comparison.
        if (item.kind == JsonValue::Kind::kObject) {
          for (const auto& [k, member] : item.members) {
            if (k == "name" && member->kind == JsonValue::Kind::kString) {
              key = member->text;
              break;
            }
            if (k == "key" && member->kind == JsonValue::Kind::kString) {
              key = member->text;
              break;
            }
          }
        }
        Flatten(item, path.empty() ? key : path + "." + key, out);
      }
      break;
    }
    case JsonValue::Kind::kNumber: {
      Leaf leaf;
      leaf.numeric = true;
      leaf.number = value.number;
      leaf.text = value.text;
      (*out)[path] = leaf;
      break;
    }
    case JsonValue::Kind::kString: {
      Leaf leaf;
      leaf.text = value.text;
      (*out)[path] = leaf;
      break;
    }
    case JsonValue::Kind::kBool: {
      Leaf leaf;
      leaf.text = value.boolean ? "true" : "false";
      (*out)[path] = leaf;
      break;
    }
    case JsonValue::Kind::kNull: {
      Leaf leaf;
      leaf.text = "null";
      (*out)[path] = leaf;
      break;
    }
  }
}

// ---------------------------------------------------------------- options --

struct Options {
  double default_tol = 1e-9;
  std::vector<std::pair<std::string, double>> keyed_tols;
  std::vector<std::string> ignores;

  bool Ignored(const std::string& path) const {
    for (const std::string& token : ignores) {
      if (path.find(token) != std::string::npos) return true;
    }
    return false;
  }

  double TolFor(const std::string& path) const {
    double tol = default_tol;
    size_t best = 0;
    for (const auto& [token, value] : keyed_tols) {
      if (token.size() >= best && path.find(token) != std::string::npos) {
        best = token.size();
        tol = value;
      }
    }
    return tol;
  }
};

bool WithinTolerance(double a, double b, double tol) {
  if (a == b) return true;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= tol * scale;
}

// -------------------------------------------------------------- comparing --

int g_failures = 0;

void Report(const std::string& label, const std::string& path,
            const std::string& a, const std::string& b) {
  std::fprintf(stderr, "FAIL %s %s: %s vs %s\n", label.c_str(), path.c_str(),
               a.c_str(), b.c_str());
  ++g_failures;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines(1);
  for (const char c : text) {
    if (c == '\n') {
      lines.emplace_back();
    } else {
      lines.back() += c;
    }
  }
  return lines;
}

/// Marks the lines of a[a0, a1) and b[b0, b1) outside one longest common
/// subsequence: Myers' linear-space diff (Algorithmica 1, 1986). Two
/// greedy searches cross the N x M box, one from each corner; each round
/// extends every diagonal k = x - y by one edit and then along equal lines
/// (a "snake"). Where the searches first overlap lies a snake of a
/// shortest edit script, and the boxes before and after it are diffed the
/// same way: time O((N + M) * D) for D changed lines, memory O(N + M).
void MarkChanges(const std::vector<int>& a, size_t a0, size_t a1,
                 const std::vector<int>& b, size_t b0, size_t b1,
                 std::vector<bool>* removed, std::vector<bool>* added) {
  while (a0 < a1 && b0 < b1 && a[a0] == b[b0]) ++a0, ++b0;
  while (a0 < a1 && b0 < b1 && a[a1 - 1] == b[b1 - 1]) --a1, --b1;
  if (a0 == a1 || b0 == b1) {
    for (size_t i = a0; i < a1; ++i) (*removed)[i] = true;
    for (size_t j = b0; j < b1; ++j) (*added)[j] = true;
    return;
  }
  using Index = std::ptrdiff_t;
  const Index n = static_cast<Index>(a1 - a0);
  const Index m = static_cast<Index>(b1 - b0);
  const Index delta = n - m;
  const Index off = n + m + 1;
  // reach[s][off + k]: the furthest x, counted from search s's corner
  // (0 forward, 1 backward), on diagonal k after the rounds so far; -1
  // where no path inside the box gets.
  std::vector<Index> reach[2] = {std::vector<Index>(2 * off + 1, -1),
                                 std::vector<Index>(2 * off + 1, -1)};
  const auto equal = [&](int s, Index x, Index y) {
    return s == 0 ? a[a0 + x] == b[b0 + y] : a[a1 - 1 - x] == b[b1 - 1 - y];
  };
  for (Index d = 0;; ++d) {
    for (int s = 0; s < 2; ++s) {
      std::vector<Index>& here = reach[s];
      for (Index k = -d; k <= d; k += 2) {
        // One step down from diagonal k + 1 or right from k - 1, whichever
        // stays in the box and gets further.
        Index x = d == 0 ? 0 : -1;
        const Index down = here[off + k + 1];
        if (d > 0 && down >= 0 && down - k <= m) x = down;
        const Index right = here[off + k - 1] + 1;
        if (d > 0 && right > 0 && right <= n && right > x) x = right;
        const Index start = x;
        while (x >= 0 && x < n && x - k < m && equal(s, x, x - k)) ++x;
        here[off + k] = x;
        // The searches can first meet in the forward round when delta is
        // odd and in the backward round when it is even; the other
        // search's diagonal through these cells is delta - k.
        const Index other = delta - k;
        if (x < 0 || (delta % 2 != 0) != (s == 0) || other < -d ||
            other > d) {
          continue;
        }
        const Index met = reach[1 - s][off + other];
        if (met < 0 || x + met < n) continue;
        // The snake from (start, start - k) to (x, x - k), in forward
        // coordinates.
        Index x0 = start, y0 = start - k, x1 = x, y1 = x - k;
        if (s == 1) {
          x0 = n - x, y0 = m - (x - k), x1 = n - start, y1 = m - (start - k);
        }
        MarkChanges(a, a0, a0 + x0, b, b0, b0 + y0, removed, added);
        MarkChanges(a, a0 + x1, a1, b, b0 + y1, b1, removed, added);
        return;
      }
    }
  }
}

/// Reports two differing multi-line strings as a line diff: each run of
/// lines only A has ("-") or only B has ("+") under the line numbers where
/// it starts, instead of both texts whole.
void ReportLineDiff(const std::string& label, const std::string& path,
                    const std::string& a, const std::string& b) {
  const std::vector<std::string> lines_a = SplitLines(a);
  const std::vector<std::string> lines_b = SplitLines(b);
  std::fprintf(stderr, "FAIL %s %s: text differs (%zu vs %zu lines)\n",
               label.c_str(), path.c_str(), lines_a.size(), lines_b.size());
  ++g_failures;
  // Each distinct line as a small integer, so the search compares ints.
  std::map<std::string, int> ids;
  const auto intern = [&ids](const std::vector<std::string>& lines) {
    std::vector<int> out;
    for (const std::string& line : lines) {
      const int next = static_cast<int>(ids.size());
      out.push_back(ids.emplace(line, next).first->second);
    }
    return out;
  };
  const std::vector<int> id_a = intern(lines_a);
  const std::vector<int> id_b = intern(lines_b);
  std::vector<bool> removed(lines_a.size()), added(lines_b.size());
  MarkChanges(id_a, 0, id_a.size(), id_b, 0, id_b.size(), &removed, &added);
  size_t i = 0;
  size_t j = 0;
  while (i < lines_a.size() || j < lines_b.size()) {
    if (i < lines_a.size() && j < lines_b.size() && !removed[i] &&
        !added[j]) {
      ++i;
      ++j;
      continue;
    }
    std::fprintf(stderr, "  @@ line %zu vs line %zu\n", i + 1, j + 1);
    for (; i < lines_a.size() && removed[i]; ++i) {
      std::fprintf(stderr, "  - %s\n", lines_a[i].c_str());
    }
    for (; j < lines_b.size() && added[j]; ++j) {
      std::fprintf(stderr, "  + %s\n", lines_b[j].c_str());
    }
  }
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool CompareJsonFiles(const std::string& path_a, const std::string& path_b,
                      const std::string& label, const Options& options) {
  std::string text_a, text_b;
  if (!ReadFile(path_a, &text_a)) {
    std::fprintf(stderr, "cannot read %s\n", path_a.c_str());
    return false;
  }
  if (!ReadFile(path_b, &text_b)) {
    std::fprintf(stderr, "cannot read %s\n", path_b.c_str());
    return false;
  }
  std::string error;
  std::unique_ptr<JsonValue> a = JsonParser(text_a).Parse(&error);
  if (a == nullptr) {
    std::fprintf(stderr, "%s: JSON parse error: %s\n", path_a.c_str(),
                 error.c_str());
    return false;
  }
  std::unique_ptr<JsonValue> b = JsonParser(text_b).Parse(&error);
  if (b == nullptr) {
    std::fprintf(stderr, "%s: JSON parse error: %s\n", path_b.c_str(),
                 error.c_str());
    return false;
  }
  std::map<std::string, Leaf> flat_a, flat_b;
  Flatten(*a, "", &flat_a);
  Flatten(*b, "", &flat_b);

  for (const auto& [path, leaf_a] : flat_a) {
    if (options.Ignored(path)) continue;
    const auto it = flat_b.find(path);
    if (it == flat_b.end()) {
      Report(label, path, leaf_a.numeric ? leaf_a.text : leaf_a.text,
             "<missing>");
      continue;
    }
    const Leaf& leaf_b = it->second;
    if (leaf_a.numeric && leaf_b.numeric) {
      if (!WithinTolerance(leaf_a.number, leaf_b.number,
                           options.TolFor(path))) {
        Report(label, path, leaf_a.text, leaf_b.text);
      }
    } else if (leaf_a.text != leaf_b.text) {
      if (leaf_a.text.find('\n') != std::string::npos ||
          leaf_b.text.find('\n') != std::string::npos) {
        ReportLineDiff(label, path, leaf_a.text, leaf_b.text);
      } else {
        Report(label, path, leaf_a.text, leaf_b.text);
      }
    }
  }
  for (const auto& [path, leaf_b] : flat_b) {
    if (options.Ignored(path)) continue;
    if (flat_a.find(path) == flat_a.end()) {
      Report(label, path, "<missing>", leaf_b.text);
    }
  }
  return true;
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (const char c : line) {
    if (c == ',') {
      cells.push_back(cell);
      cell.clear();
    } else if (c != '\r') {
      cell += c;
    }
  }
  cells.push_back(cell);
  return cells;
}

bool CompareCsvFiles(const std::string& path_a, const std::string& path_b,
                     const std::string& label, const Options& options) {
  std::string text_a, text_b;
  if (!ReadFile(path_a, &text_a) || !ReadFile(path_b, &text_b)) {
    std::fprintf(stderr, "cannot read %s or %s\n", path_a.c_str(),
                 path_b.c_str());
    return false;
  }
  std::istringstream in_a(text_a), in_b(text_b);
  std::string line_a, line_b;
  std::vector<std::string> header;
  int row = 0;
  while (true) {
    const bool has_a = static_cast<bool>(std::getline(in_a, line_a));
    const bool has_b = static_cast<bool>(std::getline(in_b, line_b));
    if (!has_a && !has_b) break;
    if (has_a != has_b) {
      Report(label, "row " + std::to_string(row),
             has_a ? line_a : "<missing>", has_b ? line_b : "<missing>");
      break;
    }
    const std::vector<std::string> cells_a = SplitCsvLine(line_a);
    const std::vector<std::string> cells_b = SplitCsvLine(line_b);
    if (row == 0) {
      header = cells_a;
      if (line_a != line_b) {
        Report(label, "header", line_a, line_b);
        return true;  // column drift: cell comparison would be meaningless
      }
      ++row;
      continue;
    }
    if (cells_a.size() != cells_b.size()) {
      Report(label, "row " + std::to_string(row), line_a, line_b);
      ++row;
      continue;
    }
    for (size_t col = 0; col < cells_a.size(); ++col) {
      const std::string column_name =
          col < header.size() ? header[col] : std::to_string(col);
      const std::string path =
          column_name + " (row " + std::to_string(row) + ")";
      if (options.Ignored(column_name)) continue;
      char* end_a = nullptr;
      char* end_b = nullptr;
      const double value_a = std::strtod(cells_a[col].c_str(), &end_a);
      const double value_b = std::strtod(cells_b[col].c_str(), &end_b);
      const bool numeric_a = !cells_a[col].empty() &&
                             end_a == cells_a[col].c_str() + cells_a[col].size();
      const bool numeric_b = !cells_b[col].empty() &&
                             end_b == cells_b[col].c_str() + cells_b[col].size();
      if (numeric_a && numeric_b) {
        if (!WithinTolerance(value_a, value_b, options.TolFor(column_name))) {
          Report(label, path, cells_a[col], cells_b[col]);
        }
      } else if (cells_a[col] != cells_b[col]) {
        Report(label, path, cells_a[col], cells_b[col]);
      }
    }
    ++row;
  }
  return true;
}

bool IsDirectory(const std::string& path) {
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) return false;
  closedir(dir);
  return true;
}

bool HasSuffix(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool CompareDirectories(const std::string& dir_a, const std::string& dir_b,
                        const Options& options) {
  DIR* dir = opendir(dir_a.c_str());
  if (dir == nullptr) {
    std::fprintf(stderr, "cannot open directory %s\n", dir_a.c_str());
    return false;
  }
  std::vector<std::string> names;
  while (dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (HasSuffix(name, ".csv") || HasSuffix(name, ".json")) {
      names.push_back(name);
    }
  }
  closedir(dir);
  std::sort(names.begin(), names.end());
  if (names.empty()) {
    std::fprintf(stderr, "no .csv/.json artifacts in %s\n", dir_a.c_str());
    return false;
  }
  bool ok = true;
  for (const std::string& name : names) {
    const std::string a = dir_a + "/" + name;
    const std::string b = dir_b + "/" + name;
    if (HasSuffix(name, ".json")) {
      ok = CompareJsonFiles(a, b, name, options) && ok;
    } else {
      ok = CompareCsvFiles(a, b, name, options) && ok;
    }
  }
  return ok;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: alc_compare A B [--tol R] [--tol KEY=R] [--ignore TOKEN]\n"
      "       [--no-default-ignores]\n"
      "A and B are two JSON files (run.json manifests, BENCH_perf.json)\n"
      "or two alc_run --out directories (all *.csv/*.json compared).\n"
      "Exit 0 when within tolerance, 1 on regression, 2 on usage/IO.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  Options options;
  bool default_ignores = true;
  std::vector<std::string> extra_ignores;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tol") {
      if (++i >= argc) return Usage();
      const std::string value = argv[i];
      const size_t eq = value.find('=');
      if (eq == std::string::npos) {
        options.default_tol = std::strtod(value.c_str(), nullptr);
      } else {
        options.keyed_tols.emplace_back(
            value.substr(0, eq), std::strtod(value.c_str() + eq + 1, nullptr));
      }
    } else if (arg == "--ignore") {
      if (++i >= argc) return Usage();
      extra_ignores.push_back(argv[i]);
    } else if (arg == "--no-default-ignores") {
      default_ignores = false;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) return Usage();

  if (default_ignores) {
    // Wall-clock and build-environment facts vary run to run by design;
    // comparing them would make every gate flaky. allocs/items stay
    // guarded by bench/perf_suite --check, which owns those budgets.
    options.ignores = {"build",  "wall_sec", "items_per_sec",
                       "items",  "allocs",   "smoke"};
  }
  options.ignores.insert(options.ignores.end(), extra_ignores.begin(),
                         extra_ignores.end());

  const std::string& a = positional[0];
  const std::string& b = positional[1];
  bool io_ok;
  if (IsDirectory(a)) {
    if (!IsDirectory(b)) {
      std::fprintf(stderr, "%s is a directory but %s is not\n", a.c_str(),
                   b.c_str());
      return 2;
    }
    io_ok = CompareDirectories(a, b, options);
  } else if (HasSuffix(a, ".json")) {
    io_ok = CompareJsonFiles(a, b, a, options);
  } else {
    io_ok = CompareCsvFiles(a, b, a, options);
  }
  if (!io_ok) return 2;
  if (g_failures > 0) {
    std::fprintf(stderr, "alc_compare: %d mismatch(es)\n", g_failures);
    return 1;
  }
  std::printf("alc_compare: OK\n");
  return 0;
}
