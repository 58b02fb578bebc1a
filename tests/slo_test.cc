// Tests for the SLO tracker (obs/slo.h), the incident journal
// (obs/incident.h), and the Prometheus HELP-text escaping satellite
// (obs/exposition.h). Time is injected everywhere, so the burn-rate
// windows are driven deterministically.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>

#include "obs/exposition.h"
#include "obs/incident.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace milr::obs {
namespace {

constexpr std::uint64_t kMs = 1'000'000;  // nanos per millisecond

SloConfig TestConfig() {
  SloConfig config;
  config.objective_ms = 10.0;  // 10 ms objective
  config.target = 0.9;         // error budget = 0.1
  config.fast_window = std::chrono::seconds(16);   // 1 s slices
  config.slow_window = std::chrono::seconds(160);  // 10 s slices
  return config;
}

// ------------------------------------------------------------ SloTracker

TEST(SloTrackerTest, DisabledByDefaultAndByNonPositiveObjective) {
  SloTracker tracker;
  EXPECT_FALSE(tracker.enabled());
  const SloSnapshot snap = tracker.Snapshot(0);
  EXPECT_FALSE(snap.enabled);
  EXPECT_DOUBLE_EQ(snap.goodput, 1.0);

  SloConfig off;
  off.objective_ms = 0.0;
  SloTracker explicit_off(off);
  EXPECT_FALSE(explicit_off.enabled());
}

TEST(SloTrackerTest, CountsWithinAndViolationsAndGoodput) {
  SloTracker tracker(TestConfig());
  ASSERT_TRUE(tracker.enabled());
  const std::uint64_t now = 1000 * kMs;
  for (int i = 0; i < 9; ++i) tracker.Record(5 * kMs, now);  // within
  tracker.Record(50 * kMs, now);                             // violation
  const SloSnapshot snap = tracker.Snapshot(now);
  EXPECT_TRUE(snap.enabled);
  EXPECT_DOUBLE_EQ(snap.objective_ms, 10.0);
  EXPECT_EQ(snap.within, 9u);
  EXPECT_EQ(snap.violations, 1u);
  EXPECT_DOUBLE_EQ(snap.goodput, 0.9);
  // Boundary: exactly-at-objective counts as within.
  tracker.Record(10 * kMs, now);
  EXPECT_EQ(tracker.Snapshot(now).within, 10u);
}

TEST(SloTrackerTest, BurnRateIsViolationFractionOverBudget) {
  SloTracker tracker(TestConfig());
  const std::uint64_t now = 5000 * kMs;
  // 20% violations against a 10% budget → burn rate 2.0 in both windows.
  for (int i = 0; i < 80; ++i) tracker.Record(1 * kMs, now);
  for (int i = 0; i < 20; ++i) tracker.Record(99 * kMs, now);
  const SloSnapshot snap = tracker.Snapshot(now);
  EXPECT_NEAR(snap.fast_burn_rate, 2.0, 1e-9);
  EXPECT_NEAR(snap.slow_burn_rate, 2.0, 1e-9);
  EXPECT_TRUE(snap.fast_burn_alert);
}

TEST(SloTrackerTest, FastWindowForgetsOldViolationsSlowWindowRemembers) {
  SloTracker tracker(TestConfig());
  std::uint64_t now = 1000 * kMs;
  // Burn the whole budget in one burst...
  for (int i = 0; i < 50; ++i) tracker.Record(99 * kMs, now);
  EXPECT_GT(tracker.Snapshot(now).fast_burn_rate, 1.0);
  // ...then advance past the 16 s fast window with clean traffic spread
  // over the slices. The fast rate must recover; the 160 s slow window
  // still sees the burst.
  for (int step = 0; step < 20; ++step) {
    now += 1000 * kMs;  // one fast slice per step
    for (int i = 0; i < 10; ++i) tracker.Record(1 * kMs, now);
  }
  const SloSnapshot snap = tracker.Snapshot(now);
  EXPECT_DOUBLE_EQ(snap.fast_burn_rate, 0.0)
      << "violations older than the fast window still burning";
  EXPECT_GT(snap.slow_burn_rate, 0.5)
      << "the slow window should still remember the burst";
  EXPECT_FALSE(snap.fast_burn_alert);
}

TEST(SloTrackerTest, FastBurnTripIsEdgeTriggeredAndRearms) {
  SloTracker tracker(TestConfig());
  std::uint64_t now = 1000 * kMs;
  EXPECT_FALSE(tracker.FastBurnTripped(now)) << "no traffic, no trip";
  for (int i = 0; i < 50; ++i) tracker.Record(99 * kMs, now);
  EXPECT_TRUE(tracker.FastBurnTripped(now)) << "first crossing must trip";
  EXPECT_FALSE(tracker.FastBurnTripped(now))
      << "latched: one incident per excursion";
  // Clean traffic pushes the excursion out of the window → re-arm.
  for (int step = 0; step < 20; ++step) {
    now += 1000 * kMs;
    for (int i = 0; i < 10; ++i) tracker.Record(1 * kMs, now);
  }
  EXPECT_FALSE(tracker.FastBurnTripped(now)) << "alert cleared, no trip";
  for (int i = 0; i < 50; ++i) tracker.Record(99 * kMs, now);
  EXPECT_TRUE(tracker.FastBurnTripped(now)) << "new excursion must re-trip";
}

// -------------------------------------------------------- IncidentJournal

TEST(IncidentJournalTest, LifecycleOpenCloseRoundTrips) {
  IncidentJournal journal;
  IncidentEvent detect;
  detect.kind = IncidentEventKind::kDetection;
  detect.model = "resnet";
  detect.layers = {2, 5};
  journal.RecordEvent(detect);

  const std::uint64_t id = journal.OpenIncident(
      IncidentKind::kQuarantine, "resnet", "scrub flagged 2 layer(s)",
      {2, 5});
  EXPECT_EQ(id, 1u);
  EXPECT_EQ(journal.incidents_opened(), 1u);
  EXPECT_EQ(journal.open_incidents(), 1u);

  journal.CloseIncident(id, /*recovered=*/true, /*downtime_seconds=*/0.25,
                        /*recovered_layers=*/{2, 5}, /*weights_touched=*/17,
                        "milr recovery ok");
  EXPECT_EQ(journal.open_incidents(), 0u);

  const auto incidents = journal.Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  const Incident& incident = incidents.front();
  EXPECT_EQ(incident.id, 1u);
  EXPECT_EQ(incident.kind, IncidentKind::kQuarantine);
  EXPECT_EQ(incident.model, "resnet");
  EXPECT_FALSE(incident.open);
  EXPECT_TRUE(incident.recovered);
  EXPECT_DOUBLE_EQ(incident.downtime_seconds, 0.25);
  EXPECT_EQ(incident.layers_flagged, 2u);
  EXPECT_EQ(incident.layers_recovered, 2u);
  EXPECT_GE(incident.closed_wall_ms, incident.opened_wall_ms);
  // Opening + closing lifecycle events folded into the incident.
  ASSERT_EQ(incident.events.size(), 2u);
  EXPECT_EQ(incident.events.front().kind, IncidentEventKind::kQuarantine);
  EXPECT_EQ(incident.events.back().kind, IncidentEventKind::kRecovery);
  EXPECT_EQ(incident.events.back().layers, (std::vector<std::size_t>{2, 5}));
  EXPECT_EQ(incident.events.back().weights_touched, 17u);

  EXPECT_EQ(journal.Events().size(), 1u);  // the standalone detection
}

TEST(IncidentJournalTest, FailedRecoveryClosesAsUnrecovered) {
  IncidentJournal journal;
  const std::uint64_t id =
      journal.OpenIncident(IncidentKind::kQuarantine, "m", "bad day");
  journal.CloseIncident(id, /*recovered=*/false, 1.5, {}, 0);
  const auto incidents = journal.Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_FALSE(incidents.front().open);
  EXPECT_FALSE(incidents.front().recovered);
  EXPECT_EQ(incidents.front().events.back().kind,
            IncidentEventKind::kFailedRecovery);
}

TEST(IncidentJournalTest, BoundedCapacityDropsOldestAndCounts) {
  IncidentJournal::Config config;
  config.incident_capacity = 2;
  config.event_capacity = 3;
  IncidentJournal journal(config);
  for (int i = 0; i < 5; ++i) {
    journal.OpenIncident(IncidentKind::kQuarantine, "m", "c");
    IncidentEvent event;
    event.kind = IncidentEventKind::kFaultInjection;
    journal.RecordEvent(event);
  }
  EXPECT_EQ(journal.incidents_opened(), 5u);
  const auto incidents = journal.Incidents();
  ASSERT_EQ(incidents.size(), 2u);
  EXPECT_EQ(incidents.front().id, 4u) << "oldest must be evicted first";
  EXPECT_EQ(incidents.back().id, 5u);
  EXPECT_EQ(journal.Events().size(), 3u);
  // CloseIncident on an evicted id must be a harmless no-op.
  journal.CloseIncident(1, true, 0.1, {0}, 1);
  const std::string json = journal.ToJson();
  EXPECT_NE(json.find("\"dropped_incidents\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 2"), std::string::npos);
}

TEST(IncidentJournalTest, ToJsonEscapesAndStructures) {
  IncidentJournal journal;
  const std::uint64_t id = journal.OpenIncident(
      IncidentKind::kSloFastBurn, "model \"a\"\n", "burn\\rate");
  journal.CloseIncident(id, true, 0.0, {}, 0);
  const std::string json = journal.ToJson();
  EXPECT_NE(json.find("\"incidents\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("slo_fast_burn"), std::string::npos);
  EXPECT_NE(json.find("model \\\"a\\\"\\n"), std::string::npos)
      << "quotes and newlines must be JSON-escaped";
  EXPECT_NE(json.find("burn\\\\rate"), std::string::npos);
}

TEST(IncidentJournalTest, OpenIncidentCapturesTraceWhenEnabled) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "milr_incident_trace_test";
  fs::remove_all(dir);

  auto& tracer = Tracer::Get();
  tracer.Enable(1u << 10);
  tracer.EmitInstant("precursor", "test", 0, 0, 0);

  IncidentJournal::Config config;
  config.trace_dir = dir.string();
  IncidentJournal journal(config);
  const std::uint64_t id = journal.OpenIncident(
      IncidentKind::kQuarantine, "resnet/v2", "trace me");
  tracer.Disable();
  tracer.Clear();

  const auto incidents = journal.Incidents();
  ASSERT_EQ(incidents.size(), 1u);
  const std::string& path = incidents.front().trace_path;
  ASSERT_FALSE(path.empty()) << "capture was configured and enabled";
  EXPECT_NE(path.find("incident_1_"), std::string::npos);
  EXPECT_TRUE(fs::exists(path)) << path;
  // The slash in the model name must not escape the directory.
  EXPECT_EQ(fs::path(path).parent_path(), dir);
  journal.CloseIncident(id, true, 0.0, {}, 0);
  fs::remove_all(dir);
}

TEST(IncidentJournalTest, NoTraceWhenTracerDisabledOrDirUnset) {
  // Dir set, tracer off.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "milr_incident_trace_off_test";
  fs::remove_all(dir);
  IncidentJournal::Config config;
  config.trace_dir = dir.string();
  IncidentJournal with_dir(config);
  with_dir.OpenIncident(IncidentKind::kQuarantine, "m", "c");
  EXPECT_TRUE(with_dir.Incidents().front().trace_path.empty());

  // Tracer on, dir unset.
  auto& tracer = Tracer::Get();
  tracer.Enable(1u << 10);
  IncidentJournal no_dir;
  no_dir.OpenIncident(IncidentKind::kQuarantine, "m", "c");
  tracer.Disable();
  tracer.Clear();
  EXPECT_TRUE(no_dir.Incidents().front().trace_path.empty());
  fs::remove_all(dir);
}

// ------------------------------------------------------- HELP escaping

TEST(ExpositionTest, EscapeHelpTextEscapesBackslashAndNewline) {
  EXPECT_EQ(EscapeHelpText("plain help"), "plain help");
  EXPECT_EQ(EscapeHelpText("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(EscapeHelpText("back\\slash"), "back\\\\slash");
  // Quotes are legal in HELP text (unlike label values) — untouched.
  EXPECT_EQ(EscapeHelpText("say \"hi\""), "say \"hi\"");
}

TEST(ExpositionTest, RenderedHelpLineIsSingleLine) {
  MetricFamily family;
  family.name = "milr_test_metric";
  family.help = "first\nsecond \\ third";
  family.type = "gauge";
  family.samples.push_back(MetricSample{std::string(), 1.0});
  const std::string text = RenderPrometheusText({family});
  EXPECT_NE(text.find("# HELP milr_test_metric first\\nsecond \\\\ third"),
            std::string::npos)
      << text;
  // A raw newline inside the HELP payload would split the line and break
  // the exposition parse.
  const auto help_pos = text.find("# HELP");
  const auto line_end = text.find('\n', help_pos);
  EXPECT_EQ(text.find("second", help_pos) < line_end, true);
}

}  // namespace
}  // namespace milr::obs
