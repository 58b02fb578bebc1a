// Standalone per-layer measurements for the traced run: each times calls
// into one library's public functions on a model outside any host, inside
// benchmark spans, and reports medians into the run record.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "models.h"

namespace milrbench {

/// Median PredictBatch time at batch 1 and 8.
struct PredictTimes {
  double b1_ms = 0.0;
  double b8_ms = 0.0;
};

/// nn.layer_ms.<label>.<layer>: Layer::ForwardBatch at batch 8 for every
/// conv and dense layer at `tier`, plus PredictBatch at batch 1 and 8.
PredictTimes MeasureLayers(ModelKind kind, milr::nn::KernelConfig tier,
                           const std::string& label, std::uint64_t weight_seed,
                           const ProbeSet& probes, RunRecord& record);

/// quant.rebuild_ms: extra time of the first int8 batch after a weight
/// write (all replicas rebuilt from the fp32 master) over a steady batch.
double MeasureInt8Rebuild(ModelKind kind, std::uint64_t weight_seed,
                          const ProbeSet& probes);

/// MILR on a standalone model and protector: construction time, median
/// clean Detect(), and with `sweep` set, for every parameterized layer,
/// seeded whole-weight errors, timed Detect() and Recover(), the solve mode
/// and a check of the repaired weights against the golden copy
/// (milr.recover_ms.<layer>, counted under "sweep_repairs").
struct MilrTimes {
  double init_s = 0.0;
  double detect_ms = 0.0;
};
MilrTimes MeasureMilr(ModelKind kind, std::uint64_t weight_seed, bool sweep,
                      std::uint64_t fault_seed, RunRecord& record);

}  // namespace milrbench
