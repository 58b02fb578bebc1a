#include "layers.h"

#include <algorithm>

#include "faults.h"
#include "milr/config.h"
#include "milr/protector.h"
#include "spans.h"

namespace milrbench {

namespace nn = milr::nn;
using milr::Tensor;

namespace {

Tensor StackProbes(const ProbeSet& probes, std::size_t batch,
                   const milr::Shape& sample) {
  Tensor out(milr::WithBatchAxis(batch, sample));
  const std::size_t stride = sample.NumElements();
  for (std::size_t s = 0; s < batch; ++s) {
    std::copy_n(probes.inputs[s % probes.size()].data(), stride,
                out.data() + s * stride);
  }
  return out;
}

/// Median of `reps` timed calls after two warm-up calls, each in a span.
template <typename Fn>
double TimeCalls(const char* span_name, const std::string& detail,
                 std::size_t reps, Fn&& fn) {
  fn();
  fn();
  std::vector<double> ms;
  for (std::size_t r = 0; r < reps; ++r) {
    const double t0 = NowSeconds();
    {
      Span span(span_name, detail);
      fn();
    }
    ms.push_back((NowSeconds() - t0) * 1e3);
  }
  return Median(ms);
}

}  // namespace

PredictTimes MeasureLayers(ModelKind kind, nn::KernelConfig tier,
                           const std::string& label, std::uint64_t weight_seed,
                           const ProbeSet& probes, RunRecord& record) {
  constexpr std::size_t kReps = 15;
  nn::Model model = BuildModel(kind, weight_seed);
  model.set_kernel_config(tier);
  const Tensor b1 = StackProbes(probes, 1, model.input_shape());
  const Tensor b8 = StackProbes(probes, 8, model.input_shape());

  PredictTimes times;
  times.b1_ms = TimeCalls("nn.PredictBatch", label + ".b1", kReps,
                          [&] { model.PredictBatch(b1); });
  times.b8_ms = TimeCalls("nn.PredictBatch", label + ".b8", kReps,
                          [&] { model.PredictBatch(b8); });

  const std::vector<Tensor> inputs = model.ForwardCollectBatch(b8);
  for (std::size_t i = 0; i < model.LayerCount(); ++i) {
    const nn::Layer& layer = model.layer(i);
    if (layer.kind() != nn::LayerKind::kConv2D &&
        layer.kind() != nn::LayerKind::kDense) {
      continue;
    }
    const std::string name = label + "." + layer.name();
    record.Set("nn.layer_ms." + name,
               TimeCalls("nn.ForwardBatch", name, kReps,
                         [&] { layer.ForwardBatch(inputs[i]); }),
               "ms");
  }
  return times;
}

double MeasureInt8Rebuild(ModelKind kind, std::uint64_t weight_seed,
                          const ProbeSet& probes) {
  constexpr std::size_t kReps = 7;
  nn::Model model = BuildModel(kind, weight_seed);
  model.set_kernel_config(nn::KernelConfig::kInt8);
  const auto golden = model.SnapshotParams();
  const Tensor b8 = StackProbes(probes, 8, model.input_shape());
  model.PredictBatch(b8);
  std::vector<double> steady;
  std::vector<double> first;
  for (std::size_t r = 0; r < kReps; ++r) {
    double t0 = NowSeconds();
    {
      Span span("nn.PredictBatch", "int8.steady");
      model.PredictBatch(b8);
    }
    steady.push_back((NowSeconds() - t0) * 1e3);
    // RestoreParams writes every layer through the mutable accessors, as
    // recovery does for the layer it repairs, invalidating the replicas.
    model.RestoreParams(golden);
    t0 = NowSeconds();
    {
      Span span("nn.PredictBatch", "int8.after_write");
      model.PredictBatch(b8);
    }
    first.push_back((NowSeconds() - t0) * 1e3);
  }
  return Median(first) - Median(steady);
}

MilrTimes MeasureMilr(ModelKind kind, std::uint64_t weight_seed, bool sweep,
                      std::uint64_t fault_seed, RunRecord& record) {
  constexpr std::size_t kDetectReps = 5;
  const std::string model_name = ModelName(kind);
  nn::Model model = BuildModel(kind, weight_seed);
  const auto golden = model.SnapshotParams();

  MilrTimes times;
  const double t0 = NowSeconds();
  std::unique_ptr<milr::core::MilrProtector> protector;
  {
    Span span("milr.MilrProtector", model_name);
    protector = std::make_unique<milr::core::MilrProtector>(
        model, milr::core::ExtendedMilrConfig());
  }
  times.init_s = NowSeconds() - t0;
  times.detect_ms = TimeCalls("milr.Detect", model_name + ".clean",
                              kDetectReps, [&] { protector->Detect(); });
  if (!sweep) return times;

  milr::Prng prng(fault_seed);
  for (const std::size_t index : ParamLayers(model, /*weights_only=*/false)) {
    const std::string name = model.layer(index).name();
    FlipWholeWeights(model.layer(index).Params(), kErrorsPerEvent, prng);
    milr::core::DetectionReport detection;
    {
      Span span("milr.Detect", model_name + "." + name);
      detection = protector->Detect();
    }
    milr::core::RecoveryReport recovery;
    const double r0 = NowSeconds();
    {
      Span span("milr.Recover", model_name + "." + name);
      recovery = protector->Recover(detection);
    }
    const double recover_ms = (NowSeconds() - r0) * 1e3;
    const double deviation = RepairDeviation(
        std::as_const(model).layer(index).Params(), golden[index]);
    const bool ok = detection.flagged_layers ==
                        std::vector<std::size_t>{index} &&
                    recovery.all_ok() && recovery.layers.size() == 1 &&
                    deviation <= kRepairRelativeTolerance;
    record.ops["sweep_repairs"].Add(ok);
    if (!ok) record.Fail("MILR sweep: repair of " + name + " failed");
    record.Set("milr.recover_ms." + name, recover_ms, "ms");
    record.labels["milr.solve_mode." + name] =
        recovery.layers.empty()
            ? "none"
            : milr::core::SolveModeName(recovery.layers.front().mode);
    model.RestoreParams(golden);
  }
  return times;
}

}  // namespace milrbench
