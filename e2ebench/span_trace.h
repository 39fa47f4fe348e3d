// Spans of the traced replay, recorded from outside the library.
//
// Every public layer call the replay makes runs inside Tracer::Span, which
// takes two steady_clock stamps around it and links it to the enclosing
// span. Spans stay in memory and are serialized once, when the traced
// process ends, so recording costs two clock reads and one vector push —
// nothing the library does is instrumented or altered.
#ifndef TIMPP_E2EBENCH_SPAN_TRACE_H_
#define TIMPP_E2EBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "json_line.h"

namespace timpp::e2e {

class Tracer {
 public:
  struct Record {
    std::string name;   // "<layer>.<call>", e.g. "engine.sample"
    std::string layer;  // module under src/ ("spill" = rr_spill + async_io)
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;    // index of the enclosing span, -1 at the root
  };

  /// Runs `fn` inside a span and returns what it returns.
  template <typename Fn>
  decltype(auto) Span(const char* name, const char* layer, Fn&& fn) {
    struct Closer {
      Tracer* tracer;
      int id;
      ~Closer() { tracer->Close(id); }
    } closer{this, Open(name, layer)};
    return fn();
  }

  /// Summed duration of every span called `name`.
  double Sum(std::string_view name) const {
    double total = 0.0;
    for (const Record& r : spans_) {
      if (r.name == name) total += r.end_s - r.start_s;
    }
    return total;
  }

  uint64_t Count(std::string_view name) const {
    uint64_t count = 0;
    for (const Record& r : spans_) count += r.name == name;
    return count;
  }

  const std::vector<Record>& spans() const { return spans_; }

  /// The spans as a JSON array of {name, layer, start_s, end_s, parent}.
  std::string ToJson() const {
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      JsonLine line;
      line.Add("name", r.name)
          .Add("layer", r.layer)
          .Add("start_s", r.start_s)
          .Add("end_s", r.end_s)
          .Add("parent", r.parent);
      out += (i == 0 ? "\n  " : ",\n  ") + line.str();
    }
    return out + "\n]\n";
  }

 private:
  using Clock = std::chrono::steady_clock;

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  int Open(const char* name, const char* layer) {
    Record r;
    r.name = name;
    r.layer = layer;
    r.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(r));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    spans_[id].start_s = Now();  // stamped last: bookkeeping stays outside
    return id;
  }

  void Close(int id) {
    spans_[id].end_s = Now();
    open_.pop_back();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Record> spans_;
  std::vector<int> open_;
};

}  // namespace timpp::e2e

#endif  // TIMPP_E2EBENCH_SPAN_TRACE_H_
