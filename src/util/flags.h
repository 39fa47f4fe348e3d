// Minimal command-line flag parser for the bench and example binaries.
// Supports --name=value and --name value forms plus boolean switches.
#ifndef TIMPP_UTIL_FLAGS_H_
#define TIMPP_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace timpp {

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
