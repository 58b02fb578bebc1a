#include "faults.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "common.h"
#include "spans.h"

namespace milrbench {

namespace runtime = milr::runtime;

void FlipWholeWeights(std::span<float> params, std::size_t count,
                      milr::Prng& prng) {
  count = std::min(count, params.size());
  std::vector<std::size_t> chosen;
  while (chosen.size() < count) {
    const std::size_t i = prng.NextBelow(params.size());
    if (std::find(chosen.begin(), chosen.end(), i) == chosen.end()) {
      chosen.push_back(i);
    }
  }
  for (const std::size_t i : chosen) {
    std::uint32_t bits;
    std::memcpy(&bits, &params[i], sizeof bits);
    bits = ~bits;
    std::memcpy(&params[i], &bits, sizeof bits);
  }
}

double RepairDeviation(std::span<const float> repaired,
                       const std::vector<float>& golden) {
  double scale = 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    scale = std::max(scale, std::abs(static_cast<double>(golden[i])));
    const double diff = std::abs(static_cast<double>(repaired[i]) - golden[i]);
    worst = std::isnan(diff) ? INFINITY : std::max(worst, diff);
  }
  return scale > 0.0 ? worst / scale : worst;
}

std::vector<std::size_t> ParamLayers(const milr::nn::Model& model,
                                     bool weights_only) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < model.LayerCount(); ++i) {
    const auto& layer = model.layer(i);
    if (layer.ParamCount() == 0) continue;
    if (weights_only && layer.kind() != milr::nn::LayerKind::kConv2D &&
        layer.kind() != milr::nn::LayerKind::kDense) {
      continue;
    }
    out.push_back(i);
  }
  return out;
}

FaultEvent RunFaultEvent(runtime::ServingHost& host,
                         const runtime::ServingHost::ModelHandle& handle,
                         const std::vector<std::vector<float>>& golden,
                         std::size_t layer, milr::Prng& prng) {
  constexpr double kRepairDeadline = 20.0;  // seconds
  FaultEvent event;
  event.layer = handle->model().layer(layer).name();
  const runtime::MetricsSnapshot before = handle->Snapshot();
  const std::uint64_t incidents_before =
      host.incident_journal().incidents_opened();

  event.injected_at = NowSeconds();
  {
    Span span("runtime.InjectFault", event.layer);
    handle->InjectFault([&](milr::nn::Model& model) {
      milr::memory::InjectionReport report;
      FlipWholeWeights(model.layer(layer).Params(), kErrorsPerEvent, prng);
      report.corrupted_weights =
          std::min(kErrorsPerEvent, model.layer(layer).ParamCount());
      report.flipped_bits = 32 * report.corrupted_weights;
      report.touched_layers = {layer};
      return report;
    });
  }

  // The scrubber repairs on its own cadence; the incident closes just after
  // the metrics record the recovery, so wait for both.
  runtime::MetricsSnapshot after;
  milr::obs::Incident incident;
  bool closed = false;
  while (NowSeconds() - event.injected_at < kRepairDeadline) {
    after = handle->Snapshot();
    if (after.recoveries + after.failed_recoveries >
        before.recoveries + before.failed_recoveries) {
      const auto incidents = host.incident_journal().Incidents();
      if (!incidents.empty() && incidents.back().id > incidents_before &&
          !incidents.back().open) {
        incident = incidents.back();
        closed = true;
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  event.repaired_at = NowSeconds();
  if (!closed) {
    event.failure = "no closed incident within the deadline";
    return event;
  }
  event.quarantine_ms = incident.downtime_seconds * 1e3;

  const bool one_incident =
      host.incident_journal().incidents_opened() == incidents_before + 1;
  const bool flagged_exactly =
      !incident.events.empty() &&
      incident.events.front().layers == std::vector<std::size_t>{layer} &&
      after.layers_flagged == before.layers_flagged + 1;
  const bool recovered = incident.recovered &&
                         incident.layers_recovered == 1 &&
                         after.recoveries == before.recoveries + 1 &&
                         after.failed_recoveries == before.failed_recoveries;
  handle->WithModelExclusive([&](milr::nn::Model& model) {
    event.deviation = RepairDeviation(
        std::as_const(model).layer(layer).Params(), golden[layer]);
  });
  const bool weights_ok = event.deviation <= kRepairRelativeTolerance;
  event.ok = one_incident && flagged_exactly && recovered && weights_ok;
  if (!one_incident) event.failure = "more than one incident opened";
  if (!flagged_exactly) event.failure = "flagged layers differ from the hit";
  if (!recovered) event.failure = "incident not closed as recovered";
  if (!weights_ok) event.failure = "repaired weights off the golden copy";
  return event;
}

}  // namespace milrbench
