#include "models.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "apps/networks.h"
#include "nn/init.h"
#include "support/prng.h"

namespace milrbench {

using milr::Tensor;
namespace nn = milr::nn;

const char* ModelName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kMnist:
      return "mnist";
    default:
      return "cifar_small";
  }
}

nn::Model BuildModel(ModelKind kind, std::uint64_t weight_seed) {
  nn::Model model = kind == ModelKind::kMnist
                         ? milr::apps::BuildMnistNetwork()
                         : milr::apps::BuildCifarSmallNetwork();
  nn::InitHeUniform(model, weight_seed);
  // He initialisation leaves biases at 0, where a served path that dropped
  // the bias would go unnoticed; seeded small biases make it visible.
  milr::Prng prng(weight_seed ^ 0xb1a5);
  for (std::size_t i = 0; i < model.LayerCount(); ++i) {
    if (model.layer(i).kind() != nn::LayerKind::kBias) continue;
    for (float& b : model.layer(i).Params()) b = prng.NextFloat(-0.1f, 0.1f);
  }
  return model;
}

namespace {

// Activations in (H, W, C) row-major order, or flat after Flatten.
struct Activation {
  std::vector<std::size_t> shape;
  std::vector<double> data;
};

Activation Conv(const nn::Conv2DLayer& conv, const Activation& in) {
  const std::size_t m = in.shape[0];
  const std::size_t z = in.shape[2];
  const std::size_t f = conv.filter_size();
  const std::size_t y = conv.out_channels();
  const std::ptrdiff_t pad =
      conv.padding() == nn::Padding::kSame ? static_cast<std::ptrdiff_t>(f / 2)
                                           : 0;
  const std::size_t g = m + 2 * static_cast<std::size_t>(pad) - f + 1;
  const float* w = conv.filters().data();  // (F, F, Z, Y)
  Activation out{{g, g, y}, std::vector<double>(g * g * y, 0.0)};
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = 0; j < g; ++j) {
      double* cell = &out.data[(i * g + j) * y];
      for (std::size_t a = 0; a < f; ++a) {
        const std::ptrdiff_t r = static_cast<std::ptrdiff_t>(i + a) - pad;
        if (r < 0 || r >= static_cast<std::ptrdiff_t>(m)) continue;
        for (std::size_t b = 0; b < f; ++b) {
          const std::ptrdiff_t c = static_cast<std::ptrdiff_t>(j + b) - pad;
          if (c < 0 || c >= static_cast<std::ptrdiff_t>(m)) continue;
          const double* src =
              &in.data[(static_cast<std::size_t>(r) * m +
                        static_cast<std::size_t>(c)) *
                       z];
          for (std::size_t ch = 0; ch < z; ++ch) {
            const float* wrow = w + ((a * f + b) * z + ch) * y;
            const double x = src[ch];
            for (std::size_t k = 0; k < y; ++k) cell[k] += x * wrow[k];
          }
        }
      }
    }
  }
  return out;
}

Activation MaxPool(std::size_t p, const Activation& in) {
  const std::size_t m = in.shape[0];
  const std::size_t z = in.shape[2];
  const std::size_t g = m / p;
  Activation out{{g, g, z}, std::vector<double>(g * g * z)};
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = 0; j < g; ++j) {
      for (std::size_t ch = 0; ch < z; ++ch) {
        double best = -INFINITY;
        for (std::size_t a = 0; a < p; ++a) {
          for (std::size_t b = 0; b < p; ++b) {
            best = std::max(best,
                            in.data[((i * p + a) * m + (j * p + b)) * z + ch]);
          }
        }
        out.data[(i * g + j) * z + ch] = best;
      }
    }
  }
  return out;
}

Activation Dense(const nn::DenseLayer& dense, const Activation& in) {
  const std::size_t n = dense.in_features();
  const std::size_t p = dense.out_features();
  const float* w = dense.weights().data();  // (N, P)
  Activation out{{p}, std::vector<double>(p, 0.0)};
  for (std::size_t r = 0; r < n; ++r) {
    const double x = in.data[r];
    for (std::size_t c = 0; c < p; ++c) out.data[c] += x * w[r * p + c];
  }
  return out;
}

}  // namespace

std::vector<double> ReferenceForward(const nn::Model& model,
                                     const Tensor& input) {
  Activation act{input.shape().dims(),
                 std::vector<double>(input.data(),
                                     input.data() + input.size())};
  for (std::size_t i = 0; i < model.LayerCount(); ++i) {
    const nn::Layer& layer = model.layer(i);
    switch (layer.kind()) {
      case nn::LayerKind::kConv2D:
        act = Conv(static_cast<const nn::Conv2DLayer&>(layer), act);
        break;
      case nn::LayerKind::kDense:
        act = Dense(static_cast<const nn::DenseLayer&>(layer), act);
        break;
      case nn::LayerKind::kBias: {
        const auto bias = layer.Params();
        for (std::size_t k = 0; k < act.data.size(); ++k) {
          act.data[k] += bias[k % bias.size()];
        }
        break;
      }
      case nn::LayerKind::kReLU:
        for (double& v : act.data) v = std::max(v, 0.0);
        break;
      case nn::LayerKind::kMaxPool2D:
        act = MaxPool(
            static_cast<const nn::MaxPool2DLayer&>(layer).pool_size(), act);
        break;
      case nn::LayerKind::kFlatten:
        act.shape = {act.data.size()};
        break;
      default:
        throw std::invalid_argument(
            std::string("reference forward: unsupported layer ") +
            nn::LayerKindName(layer.kind()));
    }
  }
  return act.data;
}

Tolerance ToleranceFor(nn::KernelConfig tier) {
  // fp32 tiers differ from the double reference only by accumulation
  // order; int8 carries 8-bit weights and 12-bit activations, so it gets a
  // logit bound of a few quantization steps plus a top-1 agreement floor.
  if (tier == nn::KernelConfig::kInt8) return Tolerance{0.05, 0.85};
  return Tolerance{1e-4, 0.0};
}

ProbeSet MakeProbes(const nn::Model& model, std::size_t count,
                    std::uint64_t seed) {
  ProbeSet probes;
  milr::Prng prng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    probes.inputs.push_back(
        milr::RandomTensor(model.input_shape(), prng, -1.0f, 1.0f));
    probes.reference.push_back(ReferenceForward(model, probes.inputs.back()));
    const auto& ref = probes.reference.back();
    probes.reference_top1.push_back(static_cast<std::size_t>(
        std::max_element(ref.begin(), ref.end()) - ref.begin()));
    for (const double v : ref) {
      probes.logit_scale = std::max(probes.logit_scale, std::abs(v));
    }
  }
  return probes;
}

OutputCheck CheckOutput(const ProbeSet& probes, std::size_t index,
                        const Tensor& served, const Tolerance& tol) {
  OutputCheck check;
  const auto& ref = probes.reference[index];
  if (served.size() != ref.size()) return check;
  double worst = 0.0;
  std::size_t top1 = 0;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    const double diff = std::abs(static_cast<double>(served[k]) - ref[k]);
    worst = std::isnan(diff) ? INFINITY : std::max(worst, diff);
    if (served[k] > served[top1]) top1 = k;
  }
  check.within_tolerance = worst <= tol.logit * probes.logit_scale;
  check.top1_agrees = top1 == probes.reference_top1[index];
  return check;
}

double ReferenceSelfCheck(const nn::Model& model, const ProbeSet& probes) {
  double worst = 0.0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const Tensor out = model.Predict(probes.inputs[i]);
    for (std::size_t k = 0; k < out.size(); ++k) {
      const double diff =
          std::abs(static_cast<double>(out[k]) - probes.reference[i][k]);
      worst = std::isnan(diff) ? INFINITY : std::max(worst, diff);
    }
  }
  return worst / probes.logit_scale;
}

}  // namespace milrbench
