#ifndef T3_PERFBENCH_TRACE_H_
#define T3_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace t3::perfbench {

/// Monotonic nanoseconds since an arbitrary process-wide origin; the clock
/// of every span, schedule and latency in the benchmark.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer's public function.
struct Span {
  const char* name = "";  ///< Static string, e.g. "plan.parse".
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< Index of the enclosing open span, -1 = root.
  uint64_t request = 0;   ///< Spans of one request share this id.
};

/// In-memory span recorder for the traced run. Single-threaded: spans are
/// opened and closed on the benchmark's own thread, around calls into
/// src/ libraries; nothing inside the libraries is instrumented. A
/// disabled tracer records nothing, so untraced runs pay one branch per
/// span site. Spans beyond `max_spans` are counted and dropped.
class Tracer {
 public:
  Tracer(bool enabled, size_t max_spans)
      : enabled_(enabled), max_spans_(max_spans) {}

  bool enabled() const { return enabled_ && !paused_; }
  /// A paused tracer records nothing; the traced run pauses it around the
  /// untraced passes it measures the tracing overhead against.
  void set_paused(bool paused) { paused_ = paused; }

  /// Opens a span as a child of the innermost open span; returns its
  /// index, or -1 when disabled or full.
  int Begin(const char* name, uint64_t request);
  void End(int index);

  /// Per span name: self times in ns (duration minus the time covered by
  /// direct children), in recording order.
  std::map<std::string, std::vector<double>> SelfTimesNs() const;

  /// Writes every span as one JSON document; false on an I/O error.
  bool WriteJson(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  bool paused_ = false;
  size_t max_spans_;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_.End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace t3::perfbench

#endif  // T3_PERFBENCH_TRACE_H_
