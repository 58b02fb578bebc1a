#include "spans.h"

#include <fstream>
#include <memory>
#include <mutex>

#include "common.h"

namespace milrbench {
namespace {

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
};

std::mutex buffers_mutex;
std::vector<std::shared_ptr<ThreadBuffer>> buffers;  // guarded by the mutex

// Each thread appends to its own buffer; the mutex is only taken once per
// thread (registration) and by Collect after the measured phases end.
ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> local;
  if (!local) {
    local = std::make_shared<ThreadBuffer>();
    local->spans.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(buffers_mutex);
    local->thread = static_cast<std::uint32_t>(buffers.size());
    buffers.push_back(local);
  }
  return *local;
}

thread_local std::uint64_t open_span = 0;

}  // namespace

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::Push(SpanRecord record) {
  ThreadBuffer& buffer = LocalBuffer();
  record.thread = buffer.thread;
  buffer.spans.push_back(std::move(record));
}

std::vector<SpanRecord> SpanRecorder::Collect() const {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(buffers_mutex);
  for (const auto& buffer : buffers) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& span : Collect()) {
    if (name == span.name) {
      out.push_back(span.ms());
    }
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  file << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : Collect()) {
    if (!first) file << ",";
    first = false;
    file << "{\"name\":\"" << span.name << "\",\"ph\":\"X\",\"pid\":1,"
         << "\"tid\":" << span.thread << ",\"ts\":"
         << JsonNumber(static_cast<double>(span.start_ns) * 1e-3)
         << ",\"dur\":"
         << JsonNumber(static_cast<double>(span.end_ns - span.start_ns) *
                       1e-3)
         << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
         << ",\"request\":" << span.request << ",\"detail\":\""
         << JsonEscape(span.detail) << "\"}}";
  }
  file << "]}\n";
  return static_cast<bool>(file);
}

Span::Span(const char* name, std::string detail, std::uint64_t request)
    : armed_(SpanRecorder::Get().enabled()) {
  if (!armed_) return;
  record_.name = name;
  record_.detail = std::move(detail);
  record_.request = request;
  record_.id = SpanRecorder::Get().NextId();
  record_.parent = open_span;
  open_span = record_.id;
  record_.start_ns = NowNanos();
}

Span::~Span() {
  if (!armed_) return;
  record_.end_ns = NowNanos();
  open_span = record_.parent;
  SpanRecorder::Get().Push(std::move(record_));
}

}  // namespace milrbench
