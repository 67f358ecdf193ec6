#ifndef XMARK_E2EBENCH_TRACE_H_
#define XMARK_E2EBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own code, around each call
// it makes into a layer of the engine (generator, SAX parser, store load,
// catalog, query parse/prepare/execute, serializer). The recorder keeps
// every span in a vector and writes them out once, when the run ends, so
// the traced run pays one clock read per span edge and no I/O. A disabled
// recorder costs one branch per span edge.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/timer.h"

namespace xmark::e2e {

/// One call into a layer. `name` is a string literal ("query.execute").
struct Span {
  const char* name = "";
  char system = 0;       // 'A'..'E' for calls into one system, else 0
  int query = 0;         // XMark query number 1..20, else 0
  uint64_t request = 0;  // shared by every span of one request
  int32_t parent = -1;   // index of the enclosing span, -1 at top level
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t bytes = 0;  // bytes the call consumed or produced

  double millis() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Later spans belong to request `id` until the next call.
  void set_request(uint64_t id) { request_ = id; }

  int32_t Begin(const char* name, char system, int query) {
    Span span;
    span.name = name;
    span.system = system;
    span.query = query;
    span.request = request_;
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(span);
    const int32_t id = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(id);
    spans_[id].start_ns = WallTimeNanos();
    return id;
  }

  void End(int32_t id, uint64_t bytes) {
    spans_[id].end_ns = WallTimeNanos();
    spans_[id].bytes = bytes;
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span in milliseconds: its duration minus the part
  /// its direct children cover (spans nest, one thread).
  std::vector<double> SelfMillis() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].millis();
    for (const Span& span : spans_) {
      if (span.parent >= 0) self[span.parent] -= span.millis();
    }
    return self;
  }

  /// Writes the first `max_spans` spans as a Chrome trace-event file
  /// (chrome://tracing, Perfetto). Returns false when the file cannot be
  /// written.
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size() && i < max_spans; ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                   "\"system\":\"%c\",\"query\":%d,\"bytes\":%llu,"
                   "\"parent\":%d}}\n",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns - base) / 1e3,
                   s.millis() * 1e3, static_cast<unsigned long long>(s.request),
                   s.system == 0 ? '-' : s.system, s.query,
                   static_cast<unsigned long long>(s.bytes), s.parent);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span: records [construction, destruction) when the tracer is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, char system = 0, int query = 0)
      : tracer_(tracer),
        id_(tracer->enabled() ? tracer->Begin(name, system, query) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_, bytes_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_bytes(uint64_t bytes) { bytes_ = bytes; }

 private:
  Tracer* tracer_;
  int32_t id_;
  uint64_t bytes_ = 0;
};

}  // namespace xmark::e2e

#endif  // XMARK_E2EBENCH_TRACE_H_
