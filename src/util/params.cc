#include "util/params.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

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

bool ParseInt(const std::string& text, int* out) {
  long long parsed = 0;
  if (!ParseInt(text, &parsed) || parsed < INT_MIN || parsed > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(parsed);
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

void MalformedParam(std::string_view key, const std::string& value) {
  std::fprintf(stderr, "ParamMap: key '%.*s' holds malformed value '%s'\n",
               static_cast<int>(key.size()), key.data(), value.c_str());
  std::abort();
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
  if (!ParseDouble(*value, &parsed)) MalformedParam(key, *value);
  return parsed;
}

int ParamMap::GetInt(const std::string& key, int fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  int parsed = 0;
  if (!ParseInt(*value, &parsed)) MalformedParam(key, *value);
  return parsed;
}

}  // namespace alc::util
