// The benchmark's own span recorder.
//
// In a traced run every call the benchmark makes into a library's public
// function is wrapped in a span: name, start, end, parent span and request
// id. Per-layer metrics are medians over these spans, and the spans are
// written out as a Chrome trace-event file when the run ends. Recording is
// off in untraced runs, where a span costs one relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace milrbench {

struct SpanRecord {
  const char* name = nullptr;  // static string: the function called
  std::string detail;          // layer or model the call was made on
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;    // 0 = no enclosing benchmark span
  std::uint64_t request = 0;   // request id, 0 when not a request
  std::uint32_t thread = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Every span recorded so far, from all threads, in no particular order.
  std::vector<SpanRecord> Collect() const;
  /// Durations in ms of the spans called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Chrome trace-event JSON of every span; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  // Used by Span.
  std::uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Push(SpanRecord record);

 private:
  SpanRecorder() = default;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
};

/// RAII span on the calling thread; nests under the thread's open span.
class Span {
 public:
  explicit Span(const char* name, std::string detail = {},
                std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool armed_;
  SpanRecord record_;
};

}  // namespace milrbench
