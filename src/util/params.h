#ifndef ALC_UTIL_PARAMS_H_
#define ALC_UTIL_PARAMS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace alc::util {

/// Shortest decimal representation that parses back to exactly `value`
/// (tries %.1g .. %.17g). Keeps printed specs readable ("0.1", not
/// "0.10000000000000001") while making every print/parse round trip exact.
std::string FormatDouble(double value);

/// Parses a floating-point literal; the whole string must be consumed.
bool ParseDouble(const std::string& text, double* out);
bool ParseInt(const std::string& text, long long* out);
bool ParseUint64(const std::string& text, uint64_t* out);
/// Accepts true/false/1/0 (case-insensitive on the words).
bool ParseBool(const std::string& text, bool* out);

/// The text form a policy factory reads one of its params as: a predicate,
/// and how an error names the form ("a number").
struct ParamType {
  bool (*accepts)(const std::string& value);
  const char* expected;
};

bool IsDoubleText(const std::string& text);
/// True when `text` is an integer that fits an int (what GetInt reads).
bool IsIntText(const std::string& text);
/// Range-checked forms, for params whose consumer checks the sign.
bool IsPositiveDoubleText(const std::string& text);
bool IsNonNegativeDoubleText(const std::string& text);
bool IsNonNegativeIntText(const std::string& text);
bool IsPositiveIntText(const std::string& text);
inline constexpr ParamType kDoubleParam{IsDoubleText, "a number"};
inline constexpr ParamType kIntParam{IsIntText, "an integer"};
inline constexpr ParamType kPositiveDoubleParam{IsPositiveDoubleText,
                                                "a number > 0"};
inline constexpr ParamType kNonNegativeDoubleParam{IsNonNegativeDoubleText,
                                                   "a number >= 0"};
inline constexpr ParamType kNonNegativeIntParam{IsNonNegativeIntText,
                                                "an integer >= 0"};
inline constexpr ParamType kPositiveIntParam{IsPositiveIntText,
                                             "an integer >= 1"};

/// One key a built-in policy factory reads, with the form it parses.
struct TypedParam {
  std::string_view key;
  ParamType type;
};

/// Checks `value` against the form `params` gives `key`, so a malformed
/// value is an error when a spec is parsed or overridden instead of an
/// abort in ParamMap's typed getters when the run builds the policy. Keys
/// absent from `params` pass: they belong to externally registered
/// policies. `what` names the family in the message ("routing param").
bool CheckTypedParam(const TypedParam* params, size_t count, const char* what,
                     const std::string& key, const std::string& value,
                     std::string* error);
template <size_t N>
bool CheckTypedParam(const TypedParam (&params)[N], const char* what,
                     const std::string& key, const std::string& value,
                     std::string* error) {
  return CheckTypedParam(params, N, what, key, value, error);
}

/// Copy of `text` without leading/trailing whitespace.
std::string TrimWhitespace(std::string_view text);

/// Splits on `sep`, trimming each piece. An all-whitespace input yields no
/// pieces; interior empty pieces are preserved (callers reject them).
std::vector<std::string> SplitTrimmed(std::string_view text, char sep);

/// An ordered string-keyed parameter bag: the lingua franca between
/// declarative spec files, the controller / routing-policy registries, and
/// the sweep runner. Values are stored as strings; typed getters parse on
/// access and fall back to the caller's default when the key is absent.
/// A present-but-malformed value is a configuration error and aborts.
class ParamMap {
 public:
  void Set(const std::string& key, std::string value);
  void SetDouble(const std::string& key, double value);
  void SetInt(const std::string& key, long long value);
  void SetBool(const std::string& key, bool value);

  bool Has(const std::string& key) const;
  /// Null when absent.
  const std::string* Find(const std::string& key) const;

  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  int GetInt(const std::string& key, int fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// Copies every entry of `other` into this map; `other` wins on clashes.
  void Merge(const ParamMap& other);

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  /// Sorted by key; iteration order is deterministic.
  const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

  bool operator==(const ParamMap& other) const {
    return entries_ == other.entries_;
  }
  bool operator!=(const ParamMap& other) const { return !(*this == other); }

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace alc::util

#endif  // ALC_UTIL_PARAMS_H_
