#include "common.h"

#include <cstdio>
#include <sstream>

namespace milrbench {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string RunRecord::ToJson() const {
  std::ostringstream out;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& [kind, count] : ops) {
    attempted += count.attempted;
    failed += count.failed;
  }
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{";
  const char* sep = "";
  for (const auto& [name, metric] : metrics) {
    out << sep << "\"" << JsonEscape(name) << "\":{\"value\":"
        << JsonNumber(metric.value) << ",\"unit\":\""
        << JsonEscape(metric.unit) << "\"}";
    sep = ",";
  }
  out << "},\"operations\":{";
  sep = "";
  for (const auto& [kind, count] : ops) {
    out << sep << "\"" << JsonEscape(kind) << "\":{\"attempted\":"
        << count.attempted << ",\"failed\":" << count.failed << "}";
    sep = ",";
  }
  out << "},\"diagnostics\":{";
  sep = "";
  for (const auto& [name, value] : diagnostics) {
    out << sep << "\"" << JsonEscape(name) << "\":" << JsonNumber(value);
    sep = ",";
  }
  out << "},\"labels\":{";
  sep = "";
  for (const auto& [name, value] : labels) {
    out << sep << "\"" << JsonEscape(name) << "\":\"" << JsonEscape(value)
        << "\"";
    sep = ",";
  }
  out << "},\"notes\":[";
  sep = "";
  for (const auto& note : notes) {
    out << sep << "\"" << JsonEscape(note) << "\"";
    sep = ",";
  }
  out << "]}";
  return out.str();
}

}  // namespace milrbench
