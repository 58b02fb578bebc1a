// The workload models, their seeded probe inputs and the independent
// double-precision reference forward every served output is checked
// against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/kernel_config.h"
#include "nn/model.h"
#include "tensor/tensor.h"

namespace milrbench {

enum class ModelKind { kMnist, kCifarSmall };

const char* ModelName(ModelKind kind);

/// The named network with seeded He-uniform weights (no training).
milr::nn::Model BuildModel(ModelKind kind, std::uint64_t weight_seed);

/// Naive double-precision forward pass written from the layer definitions
/// (conv with valid or same padding, bias, ReLU, max-pool, flatten, dense);
/// it shares no kernel code with the library. Throws for other layers.
std::vector<double> ReferenceForward(const milr::nn::Model& model,
                                     const milr::Tensor& input);

/// How closely a served output must match the reference.
struct Tolerance {
  /// Max |served - reference| as a share of max(1, max |reference|).
  double logit = 0.0;
  /// Minimum share of probes whose served top-1 class equals the
  /// reference's (checked over the probe set, 0 = every probe must agree
  /// through the logit bound alone).
  double top1_floor = 0.0;
};

/// Tight for the fp32 tiers, quantization-sized for int8.
Tolerance ToleranceFor(milr::nn::KernelConfig tier);

/// Seeded probe inputs with their reference logits.
struct ProbeSet {
  std::vector<milr::Tensor> inputs;
  std::vector<std::vector<double>> reference;
  std::vector<std::size_t> reference_top1;
  double logit_scale = 1.0;  // max(1, max |reference logit|) over probes
  std::size_t size() const { return inputs.size(); }
};

ProbeSet MakeProbes(const milr::nn::Model& model, std::size_t count,
                    std::uint64_t seed);

/// Verdict on one served output against probe `index`.
struct OutputCheck {
  bool within_tolerance = false;
  bool top1_agrees = false;
};
OutputCheck CheckOutput(const ProbeSet& probes, std::size_t index,
                        const milr::Tensor& served, const Tolerance& tol);

/// Self-check of the reference: Model::Predict at the exact tier must match
/// it on every probe to fp32 rounding. Returns the max deviation as a share
/// of the logit scale.
double ReferenceSelfCheck(const milr::nn::Model& model,
                          const ProbeSet& probes);

}  // namespace milrbench
