// Structured incident journal: what happened, to which model, and when.
//
// Counters say *how often* faults were detected and repaired; they cannot
// answer "what happened at 14:32" after the fact. The journal records the
// fault → detect → quarantine → recover lifecycle as structured,
// timestamped entries:
//
//   * Standalone events (fault injections, detections) append to a
//     bounded event log.
//   * A quarantine — or an SLO fast-burn trip — OPENS an incident: a
//     first-class record with the model, cause, flagged layers and an
//     optional auto-captured flight-recorder trace. Recovery (or failed
//     recovery) CLOSES it with the measured downtime and repaired-layer
//     count. Open incidents with no close are visible as such — a crash
//     mid-quarantine leaves the evidence behind.
//
// Auto trace capture: when a trace directory is configured and the flight
// recorder is enabled, opening an incident snapshots the recorder to
// `<dir>/incident_<id>_<model>.json` (Chrome trace format). The recorder
// keeps the most recent events per thread, so the capture is precisely
// the window leading up to the incident — the forensics the paper's
// recovery story needs.
//
// Everything here is rare-path (incidents, not requests), so a plain
// mutex guards the journal; the bounded logs drop oldest-first and count
// what they dropped.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace milr::obs {

enum class IncidentKind : std::uint8_t {
  kQuarantine,   // scrub detection forced an exclusive repair window
  kSloFastBurn,  // the fast-window burn rate crossed 1.0
};

enum class IncidentEventKind : std::uint8_t {
  kFaultInjection,
  kDetection,
  kQuarantine,
  kRecovery,
  kFailedRecovery,
  kSloFastBurn,
};

const char* ToString(IncidentKind kind);
const char* ToString(IncidentEventKind kind);

/// One timestamped journal entry. Standalone entries live in the event
/// log; lifecycle entries are folded into their incident.
struct IncidentEvent {
  IncidentEventKind kind{};
  std::string model;
  /// Wall-clock milliseconds since the Unix epoch (for humans/dashboards).
  std::uint64_t wall_ms = 0;
  std::string detail;               // free-form cause / context
  std::vector<std::size_t> layers;  // layers involved, when known
  std::uint64_t weights_touched = 0;
  double downtime_seconds = 0.0;
};

struct Incident {
  std::uint64_t id = 0;
  IncidentKind kind{};
  std::string model;
  std::string cause;
  std::uint64_t opened_wall_ms = 0;
  std::uint64_t closed_wall_ms = 0;  // 0 while open
  bool open = true;
  bool recovered = false;  // close verdict: did repair succeed
  double downtime_seconds = 0.0;
  std::size_t layers_flagged = 0;
  std::size_t layers_recovered = 0;
  /// Auto-captured Chrome trace file, empty when capture was off or the
  /// flight recorder was not running at open time.
  std::string trace_path;
  std::vector<IncidentEvent> events;
};

class IncidentJournal {
 public:
  struct Config {
    /// Most recent incidents / standalone events retained.
    std::size_t incident_capacity = 256;
    std::size_t event_capacity = 1024;
    /// Directory for auto-captured incident traces; empty disables
    /// capture. Created on first use.
    std::string trace_dir;
  };

  IncidentJournal() : IncidentJournal(Config{}) {}
  explicit IncidentJournal(Config config);

  /// Appends a standalone event (fault injection, detection).
  void RecordEvent(IncidentEvent event);

  /// Opens an incident and returns its id. Captures the flight recorder
  /// to `<trace_dir>/incident_<id>_<model>.json` when configured and the
  /// tracer is enabled — the recorder's rings hold the window leading up
  /// to this call.
  std::uint64_t OpenIncident(IncidentKind kind, const std::string& model,
                             std::string cause,
                             std::vector<std::size_t> layers = {});

  /// Closes incident `id` with the repair verdict, the layers repaired and
  /// the parameter values the repair rewrote; both land on the closing
  /// recovery event. Unknown ids (already evicted from the bounded ring)
  /// are ignored.
  void CloseIncident(std::uint64_t id, bool recovered,
                     double downtime_seconds,
                     std::vector<std::size_t> recovered_layers,
                     std::uint64_t weights_touched, std::string detail = {});

  /// Appends an event to an open incident (no-op for unknown ids).
  void AppendToIncident(std::uint64_t id, IncidentEvent event);

  std::uint64_t incidents_opened() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return next_id_ - 1;
  }
  std::uint64_t open_incidents() const;

  /// Copies of the retained records, newest last.
  std::vector<Incident> Incidents() const;
  std::vector<IncidentEvent> Events() const;

  /// The whole journal as one JSON object: {"incidents": [...],
  /// "events": [...], "dropped_incidents": n, "dropped_events": n}.
  std::string ToJson() const;

 private:
  std::uint64_t WriteTraceLocked(std::uint64_t id, const std::string& model,
                                 std::string& path_out);

  Config config_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::deque<Incident> incidents_;
  std::deque<IncidentEvent> events_;
  std::uint64_t dropped_incidents_ = 0;
  std::uint64_t dropped_events_ = 0;
};

}  // namespace milr::obs
