#include "obs/incident.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "obs/trace.h"

namespace milr::obs {
namespace {

std::uint64_t WallMillis() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

void AppendEscaped(std::string& out, const std::string& value) {
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

void AppendString(std::string& out, const char* key,
                  const std::string& value, bool last = false) {
  out += "\"";
  out += key;
  out += "\": \"";
  AppendEscaped(out, value);
  out += last ? "\"" : "\", ";
}

void AppendU64(std::string& out, const char* key, std::uint64_t value,
               bool last = false) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "\"%s\": %llu%s", key,
                static_cast<unsigned long long>(value), last ? "" : ", ");
  out += buffer;
}

void AppendDouble(std::string& out, const char* key, double value,
                  bool last = false) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "\"%s\": %.6f%s", key, value,
                last ? "" : ", ");
  out += buffer;
}

void AppendBool(std::string& out, const char* key, bool value,
                bool last = false) {
  out += "\"";
  out += key;
  out += "\": ";
  out += value ? "true" : "false";
  out += last ? "" : ", ";
}

void AppendLayers(std::string& out, const std::vector<std::size_t>& layers,
                  bool last = false) {
  out += "\"layers\": [";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(layers[i]);
  }
  out += last ? "]" : "], ";
}

void AppendEvent(std::string& out, const IncidentEvent& event) {
  out += "{";
  AppendString(out, "kind", ToString(event.kind));
  AppendString(out, "model", event.model);
  AppendU64(out, "wall_ms", event.wall_ms);
  AppendString(out, "detail", event.detail);
  AppendLayers(out, event.layers);
  AppendU64(out, "weights_touched", event.weights_touched);
  AppendDouble(out, "downtime_seconds", event.downtime_seconds, true);
  out += "}";
}

}  // namespace

const char* ToString(IncidentKind kind) {
  switch (kind) {
    case IncidentKind::kQuarantine:
      return "quarantine";
    case IncidentKind::kSloFastBurn:
      return "slo_fast_burn";
  }
  return "unknown";
}

const char* ToString(IncidentEventKind kind) {
  switch (kind) {
    case IncidentEventKind::kFaultInjection:
      return "fault_injection";
    case IncidentEventKind::kDetection:
      return "detection";
    case IncidentEventKind::kQuarantine:
      return "quarantine";
    case IncidentEventKind::kRecovery:
      return "recovery";
    case IncidentEventKind::kFailedRecovery:
      return "failed_recovery";
    case IncidentEventKind::kSloFastBurn:
      return "slo_fast_burn";
  }
  return "unknown";
}

IncidentJournal::IncidentJournal(Config config)
    : config_(std::move(config)) {}

void IncidentJournal::RecordEvent(IncidentEvent event) {
  if (event.wall_ms == 0) event.wall_ms = WallMillis();
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
  while (events_.size() > config_.event_capacity) {
    events_.pop_front();
    ++dropped_events_;
  }
}

std::uint64_t IncidentJournal::OpenIncident(IncidentKind kind,
                                            const std::string& model,
                                            std::string cause,
                                            std::vector<std::size_t> layers) {
  Incident incident;
  incident.kind = kind;
  incident.model = model;
  incident.cause = std::move(cause);
  incident.opened_wall_ms = WallMillis();
  incident.layers_flagged = layers.size();

  IncidentEvent opening;
  opening.kind = kind == IncidentKind::kSloFastBurn
                     ? IncidentEventKind::kSloFastBurn
                     : IncidentEventKind::kQuarantine;
  opening.model = model;
  opening.wall_ms = incident.opened_wall_ms;
  opening.detail = incident.cause;
  opening.layers = std::move(layers);
  incident.events.push_back(std::move(opening));

  std::lock_guard<std::mutex> lock(mutex_);
  incident.id = next_id_++;
  WriteTraceLocked(incident.id, model, incident.trace_path);
  incidents_.push_back(std::move(incident));
  while (incidents_.size() > config_.incident_capacity) {
    incidents_.pop_front();
    ++dropped_incidents_;
  }
  return incidents_.back().id;
}

std::uint64_t IncidentJournal::WriteTraceLocked(std::uint64_t id,
                                                const std::string& model,
                                                std::string& path_out) {
  path_out.clear();
  if (config_.trace_dir.empty() || !TracingEnabled()) return 0;
  std::error_code ec;
  std::filesystem::create_directories(config_.trace_dir, ec);
  // Model names come from user config; keep the file name shell-safe.
  std::string safe;
  for (const char c : model) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    safe += ok ? c : '_';
  }
  std::string path = config_.trace_dir + "/incident_" + std::to_string(id) +
                     "_" + safe + ".json";
  if (Tracer::Get().WriteChromeTrace(path)) path_out = std::move(path);
  return 1;
}

void IncidentJournal::CloseIncident(std::uint64_t id, bool recovered,
                                    double downtime_seconds,
                                    std::vector<std::size_t> recovered_layers,
                                    std::uint64_t weights_touched,
                                    std::string detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = incidents_.rbegin(); it != incidents_.rend(); ++it) {
    if (it->id != id) continue;
    it->open = false;
    it->recovered = recovered;
    it->closed_wall_ms = WallMillis();
    it->downtime_seconds = downtime_seconds;
    it->layers_recovered = recovered_layers.size();
    IncidentEvent closing;
    closing.kind = recovered ? IncidentEventKind::kRecovery
                             : IncidentEventKind::kFailedRecovery;
    closing.model = it->model;
    closing.wall_ms = it->closed_wall_ms;
    closing.detail = std::move(detail);
    closing.layers = std::move(recovered_layers);
    closing.weights_touched = weights_touched;
    closing.downtime_seconds = downtime_seconds;
    it->events.push_back(std::move(closing));
    return;
  }
}

void IncidentJournal::AppendToIncident(std::uint64_t id,
                                       IncidentEvent event) {
  if (event.wall_ms == 0) event.wall_ms = WallMillis();
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = incidents_.rbegin(); it != incidents_.rend(); ++it) {
    if (it->id != id) continue;
    it->events.push_back(std::move(event));
    return;
  }
}

std::uint64_t IncidentJournal::open_incidents() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t open = 0;
  for (const Incident& incident : incidents_) open += incident.open ? 1 : 0;
  return open;
}

std::vector<Incident> IncidentJournal::Incidents() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {incidents_.begin(), incidents_.end()};
}

std::vector<IncidentEvent> IncidentJournal::Events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {events_.begin(), events_.end()};
}

std::string IncidentJournal::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"incidents\": [";
  bool first = true;
  for (const Incident& incident : incidents_) {
    if (!first) out += ", ";
    first = false;
    out += "{";
    AppendU64(out, "id", incident.id);
    AppendString(out, "kind", ToString(incident.kind));
    AppendString(out, "model", incident.model);
    AppendString(out, "cause", incident.cause);
    AppendU64(out, "opened_wall_ms", incident.opened_wall_ms);
    AppendU64(out, "closed_wall_ms", incident.closed_wall_ms);
    AppendBool(out, "open", incident.open);
    AppendBool(out, "recovered", incident.recovered);
    AppendDouble(out, "downtime_seconds", incident.downtime_seconds);
    AppendU64(out, "layers_flagged", incident.layers_flagged);
    AppendU64(out, "layers_recovered", incident.layers_recovered);
    AppendString(out, "trace_path", incident.trace_path);
    out += "\"events\": [";
    for (std::size_t i = 0; i < incident.events.size(); ++i) {
      if (i) out += ", ";
      AppendEvent(out, incident.events[i]);
    }
    out += "]}";
  }
  out += "], \"events\": [";
  first = true;
  for (const IncidentEvent& event : events_) {
    if (!first) out += ", ";
    first = false;
    AppendEvent(out, event);
  }
  out += "], ";
  AppendU64(out, "dropped_incidents", dropped_incidents_);
  AppendU64(out, "dropped_events", dropped_events_, true);
  out += "}";
  return out;
}

}  // namespace milr::obs
