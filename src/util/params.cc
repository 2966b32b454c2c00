#include "util/params.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.h"

namespace alc::util {

std::string FormatDouble(double value) {
  char buffer[64];
  // Integer-valued doubles print as plain integers ("160", not "1.6e+02");
  // %g would switch to exponent notation past 6 significant digits. The
  // range guard keeps the long long cast defined.
  if (std::isfinite(value) && std::fabs(value) < 9.0e15) {
    const long long integral = static_cast<long long>(value);
    if (value == static_cast<double>(integral)) {
      std::snprintf(buffer, sizeof(buffer), "%lld", integral);
      return buffer;
    }
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    double parsed = 0.0;
    if (ParseDouble(buffer, &parsed) && parsed == value) {
      return buffer;
    }
  }
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE) return false;
  *out = value;
  return true;
}

bool ParseInt(const std::string& text, long long* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) return false;
  *out = value;
  return true;
}

bool ParseUint64(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) return false;
  *out = value;
  return true;
}

bool ParseBool(const std::string& text, bool* out) {
  std::string lower = text;
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "true" || lower == "1") {
    *out = true;
    return true;
  }
  if (lower == "false" || lower == "0") {
    *out = false;
    return true;
  }
  return false;
}

bool IsDoubleText(const std::string& text) {
  double parsed = 0.0;
  return ParseDouble(text, &parsed);
}

bool IsIntText(const std::string& text) {
  long long parsed = 0;
  return ParseInt(text, &parsed) && parsed >= INT_MIN && parsed <= INT_MAX;
}

bool IsPositiveDoubleText(const std::string& text) {
  double parsed = 0.0;
  return ParseDouble(text, &parsed) && parsed > 0.0;
}

bool IsNonNegativeDoubleText(const std::string& text) {
  double parsed = 0.0;
  return ParseDouble(text, &parsed) && parsed >= 0.0;
}

bool IsNonNegativeIntText(const std::string& text) {
  long long parsed = 0;
  return ParseInt(text, &parsed) && parsed >= 0 && parsed <= INT_MAX;
}

bool IsPositiveIntText(const std::string& text) {
  long long parsed = 0;
  return ParseInt(text, &parsed) && parsed >= 1 && parsed <= INT_MAX;
}

bool CheckTypedParam(const TypedParam* params, size_t count, const char* what,
                     const std::string& key, const std::string& value,
                     std::string* error) {
  for (size_t i = 0; i < count; ++i) {
    if (params[i].key != key) continue;
    if (params[i].type.accepts(value)) return true;
    *error = std::string(what) + " '" + key + "': expected " +
             params[i].type.expected + ", got '" + value + "'";
    return false;
  }
  return true;
}

std::string TrimWhitespace(std::string_view text) {
  size_t begin = 0, end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

std::vector<std::string> SplitTrimmed(std::string_view text, char sep) {
  std::vector<std::string> pieces;
  if (TrimWhitespace(text).empty()) return pieces;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      pieces.push_back(TrimWhitespace(text.substr(start)));
      break;
    }
    pieces.push_back(TrimWhitespace(text.substr(start, pos - start)));
    start = pos + 1;
  }
  return pieces;
}

void ParamMap::Set(const std::string& key, std::string value) {
  entries_[key] = std::move(value);
}

void ParamMap::SetDouble(const std::string& key, double value) {
  Set(key, FormatDouble(value));
}

void ParamMap::SetInt(const std::string& key, long long value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%lld", value);
  Set(key, buffer);
}

void ParamMap::SetBool(const std::string& key, bool value) {
  Set(key, value ? "true" : "false");
}

bool ParamMap::Has(const std::string& key) const {
  return entries_.count(key) > 0;
}

const std::string* ParamMap::Find(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

std::string ParamMap::GetString(const std::string& key,
                                const std::string& fallback) const {
  const std::string* value = Find(key);
  return value != nullptr ? *value : fallback;
}

double ParamMap::GetDouble(const std::string& key, double fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  double parsed = 0.0;
  if (!ParseDouble(*value, &parsed)) {
    std::fprintf(stderr, "ParamMap: key '%s' holds non-numeric value '%s'\n",
                 key.c_str(), value->c_str());
    ALC_CHECK(false);
  }
  return parsed;
}

int ParamMap::GetInt(const std::string& key, int fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  long long parsed = 0;
  if (!ParseInt(*value, &parsed) || parsed < INT_MIN || parsed > INT_MAX) {
    std::fprintf(stderr,
                 "ParamMap: key '%s' holds non-integer or out-of-range "
                 "value '%s'\n",
                 key.c_str(), value->c_str());
    ALC_CHECK(false);
  }
  return static_cast<int>(parsed);
}

bool ParamMap::GetBool(const std::string& key, bool fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  bool parsed = false;
  if (!ParseBool(*value, &parsed)) {
    std::fprintf(stderr, "ParamMap: key '%s' holds non-boolean value '%s'\n",
                 key.c_str(), value->c_str());
    ALC_CHECK(false);
  }
  return parsed;
}

void ParamMap::Merge(const ParamMap& other) {
  for (const auto& [key, value] : other.entries_) {
    entries_[key] = value;
  }
}

}  // namespace alc::util
