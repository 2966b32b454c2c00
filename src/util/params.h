#ifndef ALC_UTIL_PARAMS_H_
#define ALC_UTIL_PARAMS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace alc::util {

/// Shortest decimal representation that parses back to exactly `value`
/// (tries %.1g .. %.17g). Keeps printed specs readable ("0.1", not
/// "0.10000000000000001") while making every print/parse round trip exact.
std::string FormatDouble(double value);

/// Parses a floating-point literal; the whole string must be consumed.
bool ParseDouble(const std::string& text, double* out);
bool ParseInt(const std::string& text, long long* out);
/// ParseInt narrowed to int: false when the value does not fit.
bool ParseInt(const std::string& text, int* out);
bool ParseUint64(const std::string& text, uint64_t* out);
/// Accepts true/false/1/0 (case-insensitive on the words).
bool ParseBool(const std::string& text, bool* out);

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

  /// Null when absent.
  const std::string* Find(const std::string& key) const;

  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  int GetInt(const std::string& key, int fallback) const;

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

/// The text form a policy config reads one of its params as: a predicate,
/// and how an error names the form ("a number"). A bound in the predicate
/// is the check of the code consuming the param, so a value that would
/// abort the run is an error when a spec is parsed or overridden instead.
struct ParamType {
  bool (*accepts)(const std::string& value);
  const char* expected;
};

/// Text that parses as a T (ParseDouble, or ParseInt narrowed to int)
/// whose value passes `kInRange`.
template <typename T, bool (*kInRange)(double)>
bool IsNumberText(const std::string& text) {
  T parsed{};
  if constexpr (std::is_same_v<T, int>) {
    return ParseInt(text, &parsed) && kInRange(parsed);
  } else {
    return ParseDouble(text, &parsed) && kInRange(parsed);
  }
}
constexpr bool AnyValue(double) { return true; }
constexpr bool Positive(double x) { return x > 0.0; }
constexpr bool NonNegative(double x) { return x >= 0.0; }
constexpr bool AtLeastOne(double x) { return x >= 1.0; }
constexpr bool PositiveFraction(double x) { return x > 0.0 && x <= 1.0; }

inline constexpr ParamType kDoubleParam{IsNumberText<double, AnyValue>,
                                        "a number"};
inline constexpr ParamType kPositiveDoubleParam{
    IsNumberText<double, Positive>, "a number > 0"};
inline constexpr ParamType kNonNegativeDoubleParam{
    IsNumberText<double, NonNegative>, "a number >= 0"};
inline constexpr ParamType kAtLeastOneDoubleParam{
    IsNumberText<double, AtLeastOne>, "a number >= 1"};
inline constexpr ParamType kPositiveFractionParam{
    IsNumberText<double, PositiveFraction>, "a number in (0, 1]"};
inline constexpr ParamType kIntParam{IsNumberText<int, AnyValue>,
                                     "an integer"};
inline constexpr ParamType kNonNegativeIntParam{IsNumberText<int, NonNegative>,
                                                "an integer >= 0"};
inline constexpr ParamType kPositiveIntParam{IsNumberText<int, Positive>,
                                             "an integer >= 1"};

/// How an enum value is spelled in params.
template <typename T>
struct Name {
  std::string_view text;
  T value;
};

/// Param text <-> member: numbers by their own parsers and formatters,
/// enums through a name table (Named<kNames>).
struct NumberText {
  static bool Read(const std::string& text, double* out) {
    return ParseDouble(text, out);
  }
  static bool Read(const std::string& text, int* out) {
    return ParseInt(text, out);
  }
  static std::string Write(double value) { return FormatDouble(value); }
  static std::string Write(int value) { return std::to_string(value); }
};

template <const auto& kNames>
struct Named {
  template <typename T>
  static bool Read(std::string_view text, T* out) {
    for (const auto& name : kNames) {
      if (text != name.text) continue;
      *out = name.value;
      return true;
    }
    return false;
  }
  /// The name of `value` ("?" when it has none); null-terminated, as
  /// every table spells its names with literals.
  template <typename T>
  static const char* Write(T value) {
    for (const auto& name : kNames) {
      if (name.value == value) return name.text.data();
    }
    return "?";
  }
  static bool Accepts(const std::string& text) {
    decltype(kNames[0].value) parsed{};
    return Read(text, &parsed);
  }
};

/// One key of a built-in policy config: the key, its text form, and how
/// the text reaches the member and back. A config's rows are its whole
/// param codec: ReadParams, WriteParams and CheckParam derive from them.
template <typename Config>
struct ParamField {
  std::string_view key;
  ParamType type;
  bool (*read)(const std::string& text, Config* config);
  std::string (*write)(const Config& config);
};

template <typename Member>
struct MemberOf;
template <typename Owner, typename T>
struct MemberOf<T Owner::*> {
  using Config = Owner;
};

/// The row of member `kMember`, its text converted by `Text`.
template <auto kMember, typename Text = NumberText>
constexpr auto Param(std::string_view key, ParamType type) {
  using Config = typename MemberOf<decltype(kMember)>::Config;
  return ParamField<Config>{
      key, type,
      [](const std::string& text, Config* config) {
        return Text::Read(text, &(config->*kMember));
      },
      [](const Config& config) {
        return std::string(Text::Write(config.*kMember));
      }};
}

/// Aborts naming the key: a malformed value reached a config reader.
[[noreturn]] void MalformedParam(std::string_view key,
                                 const std::string& value);

/// The config the rows read from `params`, defaults where a key is absent.
/// A malformed value aborts (CheckParam rejects it first on spec paths).
template <typename Config, size_t N>
Config ReadParams(const ParamField<Config> (&fields)[N],
                  const ParamMap& params) {
  Config config;
  for (const ParamField<Config>& field : fields) {
    const std::string* text = params.Find(std::string(field.key));
    if (text != nullptr && !field.read(*text, &config)) {
      MalformedParam(field.key, *text);
    }
  }
  return config;
}

/// Writes every row's key from `config`; ReadParams reads it back as is.
template <typename Config, size_t N>
void WriteParams(const ParamField<Config> (&fields)[N], const Config& config,
                 ParamMap* params) {
  for (const ParamField<Config>& field : fields) {
    params->Set(std::string(field.key), field.write(config));
  }
}

template <typename Config, size_t N>
const ParamType* FindParamType(const ParamField<Config> (&fields)[N],
                               const std::string& key) {
  for (const ParamField<Config>& field : fields) {
    if (key == field.key) return &field.type;
  }
  return nullptr;
}

/// Checks `value` against the form the row of `key` in `tables` gives it.
/// Keys in no table pass: they belong to externally registered policies.
/// `what` names the family in the message ("routing param").
template <typename... Tables>
bool CheckParam(const char* what, const std::string& key,
                const std::string& value, std::string* error,
                const Tables&... tables) {
  const ParamType* type = nullptr;
  ((type = type != nullptr ? type : FindParamType(tables, key)), ...);
  if (type == nullptr || type->accepts(value)) return true;
  *error = std::string(what) + " '" + key + "': expected " + type->expected +
           ", got '" + value + "'";
  return false;
}

}  // namespace alc::util

#endif  // ALC_UTIL_PARAMS_H_
