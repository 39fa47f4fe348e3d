#include "util/flags.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

namespace timpp {

bool ParseDouble(std::string_view text, double* out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    std::string body(arg + 2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "";  // boolean switch
    }
  }
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) names.push_back(name);
  return names;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return def;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return def;
  return std::strtod(it->second.c_str(), nullptr);
}

bool Flags::GetCheckedDouble(const std::string& name, double def,
                             double* out) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    *out = def;
    return true;
  }
  return ParseDouble(it->second, out);
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  if (it->second.empty()) return true;
  return it->second == "1" || it->second == "true" || it->second == "yes";
}

}  // namespace timpp
