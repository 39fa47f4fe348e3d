// One-line JSON objects: how every benchmark process reports to run.py.
// Doubles keep all 17 significant digits: run-to-run comparisons need the
// raw measurements, so nothing is rounded on the way out.
#ifndef TIMPP_E2EBENCH_JSON_LINE_H_
#define TIMPP_E2EBENCH_JSON_LINE_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>

#include "util/types.h"

namespace timpp::e2e {

class JsonLine {
 public:
  JsonLine& Add(const std::string& key, double value) {
    return Raw(key, Number(value));
  }
  JsonLine& Add(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonLine& Add(const std::string& key, int value) {
    return Raw(key, std::to_string(value));
  }
  JsonLine& Add(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonLine& Add(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  JsonLine& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonLine& Add(const std::string& key, std::span<const NodeId> nodes) {
    std::string list = "[";
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (i != 0) list += ",";
      list += std::to_string(nodes[i]);
    }
    return Raw(key, list + "]");
  }
  JsonLine& Add(const std::string& key, std::span<const double> values) {
    std::string list = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i != 0) list += ",";
      list += Number(values[i]);
    }
    return Raw(key, list + "]");
  }
  /// Nested object or array, already serialized.
  JsonLine& Raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += Quote(key) + ": " + json;
    return *this;
  }

  std::string str() const { return "{" + body_ + "}"; }

  /// Prints the object as one stdout line and flushes.
  void Print() const {
    std::printf("%s\n", str().c_str());
    std::fflush(stdout);
  }

  static std::string Number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

}  // namespace timpp::e2e

#endif  // TIMPP_E2EBENCH_JSON_LINE_H_
