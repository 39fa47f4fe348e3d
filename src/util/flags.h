// Minimal command-line flag parser for the bench and example binaries.
// Supports --name=value and --name value forms plus boolean switches.
#ifndef TIMPP_UTIL_FLAGS_H_
#define TIMPP_UTIL_FLAGS_H_

#include <charconv>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace timpp {

/// Parses `text` as a whole base-10 integer that fits T: an optional '-'
/// (signed T only, so every negative value is refused for an unsigned T)
/// and digits, nothing else. Returns false, leaving `*out` untouched, on
/// any other text or a value out of T's range.
template <typename T>
bool ParseInteger(std::string_view text, T* out) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

/// Parsed command line. Typical bench usage:
///
///   Flags flags(argc, argv);
///   int k = flags.GetInt("k", 50);
///   double eps = flags.GetDouble("eps", 0.1);
///   double scale = flags.GetDouble("scale", 0.1);
class Flags {
 public:
  Flags(int argc, char** argv);

  /// True if --name was present (with or without a value).
  bool Has(const std::string& name) const;

  int64_t GetInt(const std::string& name, int64_t def) const;
  /// Checked integer flag: `*out` = def when --name is absent, else the
  /// value through ParseInteger. Returns false (with `*out` untouched)
  /// when the value is not a whole base-10 integer that fits T — an
  /// empty value included — where GetInt would truncate or wrap.
  template <typename T>
  bool GetCheckedInt(const std::string& name, T def, T* out) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      *out = def;
      return true;
    }
    return ParseInteger(it->second, out);
  }
  double GetDouble(const std::string& name, double def) const;
  std::string GetString(const std::string& name, const std::string& def) const;
  bool GetBool(const std::string& name, bool def) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Every --name given, sorted — lets a binary reject names it never
  /// reads instead of running at their defaults.
  std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace timpp

#endif  // TIMPP_UTIL_FLAGS_H_
