// Seeded whole-weight fault events against a served model, repaired online
// by the host's background scrubber, and the checks that each repair was
// right: exactly the hit layer flagged, exactly one recovered incident,
// weights back to the benchmark's own pre-fault copy.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "runtime/serving_host.h"
#include "support/prng.h"

namespace milrbench {

/// Whole-weight errors per event (all 32 bits of each chosen weight flip).
inline constexpr std::size_t kErrorsPerEvent = 8;

/// Repaired weights must satisfy max |w - golden| <= this share of the
/// layer's largest golden magnitude.
inline constexpr double kRepairRelativeTolerance = 1e-3;

/// Flips all 32 bits of `count` distinct seeded weights of `params`.
void FlipWholeWeights(std::span<float> params, std::size_t count,
                      milr::Prng& prng);

/// Largest |w - golden| over a layer, as a share of max |golden|.
double RepairDeviation(std::span<const float> repaired,
                       const std::vector<float>& golden);

struct FaultEvent {
  std::string layer;
  double injected_at = 0.0;   // NowSeconds() when InjectFault was called
  double repaired_at = 0.0;   // when the benchmark observed the recovery
  double quarantine_ms = 0.0; // downtime of the incident it closed
  double deviation = 0.0;     // RepairDeviation after the repair
  bool ok = false;
  std::string failure;        // why ok is false
};

/// Injects kErrorsPerEvent whole-weight errors into layer `layer` of the
/// model behind `handle` through ModelRuntime::InjectFault, waits for the
/// host's scrubber to repair it and checks the repair. `golden` is the
/// model's parameter snapshot taken before serving started.
FaultEvent RunFaultEvent(milr::runtime::ServingHost& host,
                         const milr::runtime::ServingHost::ModelHandle& handle,
                         const std::vector<std::vector<float>>& golden,
                         std::size_t layer, milr::Prng& prng);

/// Indices of the model's parameterized layers; `weights_only` keeps just
/// conv and dense layers.
std::vector<std::size_t> ParamLayers(const milr::nn::Model& model,
                                     bool weights_only);

}  // namespace milrbench
