// End-to-end MILR serving benchmark.
//
//   milrbench --workload <serve_cnn|repair_under_load>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// Builds the workload's models from seeded He initialisation, serves them
// from one ServingHost (two workers, background scrubber on), drives an
// open-loop phase at the workload's fixed offered rate and a closed-loop
// saturation phase, and checks every served output against the
// double-precision reference forward. repair_under_load additionally runs a
// seeded fault campaign during the open-loop phase; the serving workloads
// run a repair drill on their own models after the measured phases. The
// last stdout line is one JSON record: end-to-end metrics from an untraced
// run, per-layer metrics from a traced one (--trace 1).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "faults.h"
#include "layers.h"
#include "load.h"
#include "models.h"
#include "nn/kernel_registry.h"
#include "obs/trace.h"
#include "runtime/serving_host.h"
#include "spans.h"

namespace milrbench {
namespace {

namespace nn = milr::nn;
namespace runtime = milr::runtime;

// Host shape shared by every workload, sized for a 4-core machine.
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMaxBatch = 8;
constexpr std::size_t kQueueCapacity = 4096;  // Submit never blocks
constexpr std::size_t kDrillRotations = 1;
constexpr std::size_t kClients = 2;
constexpr std::size_t kClientWindow = 16;
// Share of --seconds spent in the open-loop phase; the rest is closed loop.
constexpr double kOpenShare = 0.6;
// Open-loop latencies count from this long after the phase starts (s).
constexpr double kWarmup = 0.5;

struct Served {
  std::string name;
  ModelKind kind;
  nn::KernelConfig tier;
};

struct Workload {
  std::string name;
  std::vector<Served> served;
  /// Fixed offered rate of the open-loop phase, requests/s over all models.
  /// A constant of the workload, below the saturated throughput.
  double offered_rps;
  bool fault_campaign;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"serve_cnn",
       {{"cifar_small", ModelKind::kCifarSmall, nn::KernelConfig::kFast}},
       100.0,
       false},
      {"repair_under_load",
       {{"mnist", ModelKind::kMnist, nn::KernelConfig::kInt8}},
       200.0,
       true},
  };
  return workloads;
}

std::size_t ProbeCount(ModelKind kind) {
  // The reference forward is naive double arithmetic; cifar_small costs
  // ~50 ms per probe, so it gets fewer.
  return kind == ModelKind::kCifarSmall ? 16 : 32;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  // Rounds of setup + open loop + closed loop; metrics are medians over
  // them. Round numbers seed the load and fault streams, so processes
  // that each run some rounds of one run (see run.py) draw distinct ones.
  std::size_t rounds = 3;
  std::size_t first_round = 0;
};

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--spans") {
      o.spans_path = value;
    } else if (key == "--rounds") {
      o.rounds = std::stoul(value);
    } else if (key == "--first-round") {
      o.first_round = std::stoul(value);
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  if (o.rounds == 0) throw std::invalid_argument("--rounds must be > 0");
  return o;
}

void SleepSeconds(double seconds) {
  if (seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

/// The models of one workload behind one host. The host must stop before
/// the models it serves go away: Release and the destructor tear down in
/// that order (a defaulted move-assignment would free the models first).
struct Hosted {
  std::vector<std::unique_ptr<nn::Model>> models;
  std::vector<std::vector<std::vector<float>>> golden;
  std::unique_ptr<runtime::ServingHost> host;
  std::vector<runtime::ServingHost::ModelHandle> handles;

  Hosted() = default;
  Hosted(Hosted&&) = default;
  Hosted& operator=(Hosted&&) = delete;
  ~Hosted() { Release(); }
  void Release() {
    handles.clear();
    host.reset();
    models.clear();
    golden.clear();
  }
};

/// Builds the workload's host and measures setup: constructing the host,
/// AddModel (MILR init, kernel plans with autotuning, packed and int8
/// replicas) and Start, until the first result of every model is back.
Hosted SetUp(const Workload& w, std::uint64_t weight_seed,
             const std::vector<const ProbeSet*>& probes, double& seconds,
             RunRecord& record) {
  Hosted h;
  for (const Served& s : w.served) {
    h.models.push_back(
        std::make_unique<nn::Model>(BuildModel(s.kind, weight_seed)));
    h.golden.push_back(h.models.back()->SnapshotParams());
  }
  // Fresh plans, so every setup pays its own autotuning.
  nn::KernelRegistry::Get().Reset();
  const double t0 = NowSeconds();
  runtime::ServingHostConfig host_config;
  host_config.worker_threads = kWorkers;
  {
    Span span("runtime.ServingHost", w.name);
    h.host = std::make_unique<runtime::ServingHost>(host_config);
  }
  for (std::size_t i = 0; i < w.served.size(); ++i) {
    runtime::ModelRuntimeConfig config;
    config.kernel = w.served[i].tier;
    config.max_batch = kMaxBatch;
    config.queue_capacity = kQueueCapacity;
    Span span("runtime.AddModel", w.served[i].name);
    h.handles.push_back(
        h.host->AddModel(*h.models[i], config, w.served[i].name));
  }
  {
    Span span("runtime.Start", w.name);
    h.host->Start();
  }
  for (std::size_t i = 0; i < h.handles.size(); ++i) {
    const milr::Tensor out = h.handles[i]->Submit(probes[i]->inputs[0]).get();
    const bool ok = CheckOutput(*probes[i], 0, out,
                                ToleranceFor(w.served[i].tier))
                        .within_tolerance;
    record.ops["requests"].Add(ok);
    if (!ok) record.Fail("first result of " + w.served[i].name + " is wrong");
  }
  seconds = NowSeconds() - t0;
  return h;
}

std::vector<Target> Targets(const Workload& w, const Hosted& h,
                            const std::vector<const ProbeSet*>& probes) {
  std::vector<Target> targets;
  for (std::size_t i = 0; i < h.handles.size(); ++i) {
    targets.push_back({h.handles[i], probes[i], ToleranceFor(w.served[i].tier)});
  }
  return targets;
}

/// Counts every response as a request operation: served within tolerance,
/// or a failure. Responses inside an exposure window (between a fault
/// landing and its repair being observed) may legitimately be wrong: they
/// count as attempted and correct when they match, and are excluded from
/// the failure count when they do not. Returns per-target top-1 agreement
/// counts for the int8 floor.
void CountResponses(const std::vector<Response>& responses,
                    const std::vector<FaultEvent>& events,
                    std::vector<std::pair<std::size_t, std::size_t>>& top1,
                    RunRecord& record) {
  for (const Response& r : responses) {
    bool exposed = false;
    for (const FaultEvent& e : events) {
      if (r.observed >= e.injected_at && r.sent <= e.repaired_at) {
        exposed = true;
        break;
      }
    }
    const bool ok = r.served && r.check.within_tolerance;
    if (exposed) {
      record.ops["requests"].Add(true);
      if (!ok) record.diagnostics["bench.exposed_mismatches"] += 1;
      continue;
    }
    record.ops["requests"].Add(ok);
    if (!ok) record.diagnostics["bench.request_failures"] += 1;
    top1[r.target].first += r.check.top1_agrees ? 1 : 0;
    top1[r.target].second += 1;
  }
}

void CheckTop1(const Workload& w,
               const std::vector<std::pair<std::size_t, std::size_t>>& top1,
               RunRecord& record) {
  for (std::size_t i = 0; i < top1.size(); ++i) {
    const double floor = ToleranceFor(w.served[i].tier).top1_floor;
    const double share =
        top1[i].second == 0 ? 1.0
                            : static_cast<double>(top1[i].first) /
                                  static_cast<double>(top1[i].second);
    record.diagnostics["bench.top1_agreement." + w.served[i].name] = share;
    record.ops["top1_checks"].Add(share >= floor);
    if (share < floor) {
      record.Fail("top-1 agreement of " + w.served[i].name + " below floor");
    }
  }
}

/// Percentile `q` over the whole phase after the warm-up.
double PooledPercentile(const OpenLoop& load, double q) {
  std::vector<double> latencies;
  for (const Response& r : load.responses()) {
    if (r.served && r.scheduled >= load.started_at() + kWarmup) {
      latencies.push_back((r.observed - r.scheduled) * 1e3);
    }
  }
  return Quantile(latencies, q);
}

runtime::MetricsSnapshot Aggregate(const Hosted& h) {
  std::vector<runtime::MetricsSnapshot> parts;
  for (const auto& handle : h.handles) parts.push_back(handle->Snapshot());
  return runtime::AggregateSnapshots(parts);
}

/// Mean quarantine downtime per recovered incident, from the runtime.
double MttrMs(const Hosted& h) {
  double downtime = 0.0;
  double recoveries = 0.0;
  for (const auto& handle : h.handles) {
    const auto s = handle->Snapshot();
    downtime += s.recovery_downtime_seconds;
    recoveries += static_cast<double>(s.recoveries);
  }
  return recoveries > 0.0 ? downtime / recoveries * 1e3 : 0.0;
}

void CountFaultEvents(const std::vector<FaultEvent>& events,
                      RunRecord& record) {
  for (const FaultEvent& e : events) {
    record.ops["fault_repairs"].Add(e.ok);
    if (!e.ok) record.Fail("repair of " + e.layer + ": " + e.failure);
  }
}

/// Fault campaign of repair_under_load, run while the open loop serves:
/// one rotation over every parameterized layer, one event per slot. An
/// event waits for its repair and for the backlog to drain, so outages
/// never overlap; a slow repair pushes the later slots back.
std::vector<FaultEvent> RunCampaign(Hosted& h, const OpenLoop& load,
                                    double phase_seconds,
                                    std::uint64_t fault_seed) {
  const std::size_t drained = kWorkers * kMaxBatch;
  const auto layers = ParamLayers(*h.models[0], /*weights_only=*/false);
  const double slot = phase_seconds / static_cast<double>(layers.size() + 1);
  milr::Prng prng(fault_seed);
  std::vector<FaultEvent> events;
  double next = NowSeconds() + slot;
  for (const std::size_t layer : layers) {
    SleepSeconds(next - NowSeconds());
    events.push_back(
        RunFaultEvent(*h.host, h.handles[0], h.golden[0], layer, prng));
    const double deadline = NowSeconds() + 20.0;
    while (load.Backlog() > drained && NowSeconds() < deadline) {
      SleepSeconds(0.001);
    }
    next = std::max(next + slot, NowSeconds());
  }
  SleepSeconds(next + slot - NowSeconds());  // a quiet slot at the end
  return events;
}

/// Repair drill of the serving workloads, after their measured phases and
/// with no traffic: one fault event per conv and dense layer of every
/// hosted model, repaired by the host's scrubber. It gives mttr_ms and the
/// quarantine/inject spans on these models.
std::vector<FaultEvent> RunDrill(Hosted& h, std::size_t rotations,
                                 std::uint64_t fault_seed) {
  milr::Prng prng(fault_seed);
  std::vector<FaultEvent> events;
  for (std::size_t m = 0; m < h.handles.size() * rotations; ++m) {
    for (const std::size_t layer : ParamLayers(
             *h.models[m % h.handles.size()], /*weights_only=*/true)) {
      events.push_back(RunFaultEvent(*h.host, h.handles[m % h.handles.size()],
                                     h.golden[m % h.handles.size()], layer,
                                     prng));
    }
  }
  return events;
}

void SetTracing(bool on) {
  if (on) {
    SpanRecorder::Get().Enable();
    milr::obs::Tracer::Get().Enable();
  } else {
    SpanRecorder::Get().Disable();
    milr::obs::Tracer::Get().Disable();
  }
}

RunRecord RunWorkload(const Workload& w, const Options& o) {
  RunRecord record;
  const std::uint64_t weight_seed = DeriveSeed(o.seed, 1);
  const std::uint64_t probe_seed = DeriveSeed(o.seed, 2);
  const std::uint64_t load_seed = DeriveSeed(o.seed, 3);
  const std::uint64_t fault_seed = DeriveSeed(o.seed, 4);
  SetTracing(o.trace);

  // Probes and their reference logits, and the reference's self-check
  // against the exact tier (a model never configured for serving).
  std::vector<std::unique_ptr<ProbeSet>> probe_sets;
  std::vector<const ProbeSet*> probes;
  for (const Served& s : w.served) {
    const nn::Model exact = BuildModel(s.kind, weight_seed);
    probe_sets.push_back(std::make_unique<ProbeSet>(
        MakeProbes(exact, ProbeCount(s.kind), probe_seed)));
    probes.push_back(probe_sets.back().get());
    const double dev = ReferenceSelfCheck(exact, *probes.back());
    record.diagnostics["bench.reference_dev." + s.name] = dev;
    const bool ok = dev <= ToleranceFor(nn::KernelConfig::kExact).logit;
    record.ops["reference_checks"].Add(ok);
    if (!ok) record.Fail("reference forward disagrees with exact Predict");
  }

  // Rounds of setup -> open loop -> closed loop, each on a freshly set-up
  // host with freshly tuned kernel plans; every metric is a median over
  // the rounds (throughput over all their windows).
  const double round_seconds = o.seconds / static_cast<double>(o.rounds);
  const double open_seconds = round_seconds * kOpenShare;
  const double closed_seconds = round_seconds - open_seconds;
  std::vector<double> setups, p50s, p99s, cpu_ms, window_rps, mttr, overhead;
  std::vector<double> closed_cpu_ms;
  std::vector<double> lag_ms, quarantine_ms;
  std::vector<std::pair<std::size_t, std::size_t>> top1(w.served.size());
  std::size_t open_requests = 0;
  std::unique_ptr<Hosted> hosted;
  for (std::size_t round = o.first_round; round < o.first_round + o.rounds;
       ++round) {
    const bool last = round + 1 == o.first_round + o.rounds;
    hosted.reset();
    double setup_seconds = 0.0;
    hosted = std::make_unique<Hosted>(
        SetUp(w, weight_seed, probes, setup_seconds, record));
    setups.push_back(setup_seconds);
    Hosted& h = *hosted;
    const std::vector<Target> targets = Targets(w, h, probes);

    // Open-loop phase at the workload's fixed offered rate.
    const double cpu0 = ProcessCpuSeconds();
    OpenLoop load(targets, w.offered_rps, DeriveSeed(load_seed, round));
    load.Start();
    std::vector<FaultEvent> events;
    if (w.fault_campaign) {
      events = RunCampaign(h, load, open_seconds,
                           DeriveSeed(fault_seed, round));
    } else {
      SleepSeconds(open_seconds);
    }
    const std::size_t backlog = load.Stop();
    const double cpu1 = ProcessCpuSeconds();
    CountResponses(load.responses(), events, top1, record);
    CountFaultEvents(events, record);
    // Sustained load keeps the backlog near a few batches; more than a
    // second of offered load still queued means the rate is above what
    // the host can serve.
    const double backlog_cap = w.offered_rps;
    record.diagnostics["bench.backlog_at_end_max"] = std::max(
        record.diagnostics["bench.backlog_at_end_max"],
        static_cast<double>(backlog));
    record.ops["open_loop_phases"].Add(backlog <= backlog_cap);
    if (backlog > backlog_cap) record.Fail("open-loop backlog grew");
    for (const Response& r : load.responses()) {
      lag_ms.push_back((r.sent - r.scheduled) * 1e3);
    }
    open_requests += load.responses().size();
    p50s.push_back(PooledPercentile(load, 0.50));
    p99s.push_back(PooledPercentile(load, 0.99));
    if (w.fault_campaign) mttr.push_back(MttrMs(h));
    cpu_ms.push_back((cpu1 - cpu0) * 1e3 /
                     static_cast<double>(load.responses().size()));
    for (const FaultEvent& e : events) quarantine_ms.push_back(e.quarantine_ms);
    if (last) {
      record.Set("runtime.queue_wait_p99_ms", Aggregate(h).queue_wait_p99_ms,
                 "ms");
    }

    // Closed-loop saturation phase. A traced run runs it untraced, then
    // traced, for half the time each: the tracing overhead is measured in
    // one process, and the traced half gives the batching statistics.
    if (o.trace) {
      SetTracing(false);
      const auto plain =
          RunClosedLoop(targets, kClients, kClientWindow, closed_seconds / 2,
                        DeriveSeed(load_seed, 100 + round));
      CountResponses(plain.responses, {}, top1, record);
      SetTracing(true);
      const auto before = Aggregate(h);
      const auto traced =
          RunClosedLoop(targets, kClients, kClientWindow, closed_seconds / 2,
                        DeriveSeed(load_seed, 200 + round));
      const auto after = Aggregate(h);
      CountResponses(traced.responses, {}, top1, record);
      const double plain_rps = Median(plain.window_rps);
      overhead.push_back((plain_rps - Median(traced.window_rps)) / plain_rps *
                         100.0);
      if (last) {
        const double b0 = static_cast<double>(before.batches_served);
        const double b1 = static_cast<double>(after.batches_served);
        record.Set("runtime.batch_size_mean",
                   (after.batch_size_mean * b1 - before.batch_size_mean * b0) /
                       (b1 - b0),
                   "req");
        record.Set("runtime.batch_service_ms",
                   (after.batch_service_mean_ms * b1 -
                    before.batch_service_mean_ms * b0) /
                       (b1 - b0),
                   "ms");
      }
    } else {
      const double closed_cpu0 = ProcessCpuSeconds();
      const auto closed =
          RunClosedLoop(targets, kClients, kClientWindow, closed_seconds,
                        DeriveSeed(load_seed, 100 + round));
      closed_cpu_ms.push_back((ProcessCpuSeconds() - closed_cpu0) * 1e3 /
                              static_cast<double>(closed.responses.size()));
      CountResponses(closed.responses, {}, top1, record);
      window_rps.insert(window_rps.end(), closed.window_rps.begin(),
                        closed.window_rps.end());
    }
  }
  CheckTop1(w, top1, record);

  Hosted& h = *hosted;
  if (!w.fault_campaign) {
    const auto drill = RunDrill(h, kDrillRotations,
                                DeriveSeed(fault_seed, 1000 + o.first_round));
    CountFaultEvents(drill, record);
    mttr.push_back(MttrMs(h));
    for (const FaultEvent& e : drill) quarantine_ms.push_back(e.quarantine_ms);
  }
  if (o.trace) {
    std::vector<double> scrub_ms;
    double storage = 0.0;
    for (const auto& handle : h.handles) {
      for (int r = 0; r < 5; ++r) {
        const double t0 = NowSeconds();
        {
          Span span("runtime.ScrubCycle", handle->name());
          handle->ScrubCycle();
        }
        scrub_ms.push_back((NowSeconds() - t0) * 1e3);
      }
      storage += static_cast<double>(handle->protector().Storage().total());
    }
    record.Set("runtime.scrub_cycle_ms", Median(scrub_ms), "ms");
    record.Set("runtime.quarantine_ms", Median(quarantine_ms), "ms");
    record.Set("runtime.inject_ms",
               Median(SpanRecorder::Get().DurationsMs("runtime.InjectFault")),
               "ms");
    record.Set("runtime.submit_us",
               Median(SpanRecorder::Get().DurationsMs("runtime.Submit")) * 1e3,
               "us");
    record.Set("milr.storage_mb", storage / 1e6, "MB");
    record.Set("obs.trace_overhead_pct", Median(overhead), "%");
  }
  hosted.reset();

  record.Set("setup_s", Median(setups), "s");
  record.Set("nn.autotune_ms",
             nn::KernelRegistry::Get().stats().total_tune_ms, "ms");
  record.Set("latency_p50_ms", Median(p50s), "ms");
  record.Set("latency_p99_ms", Median(p99s), "ms");
  record.Set("cpu_ms_per_req", Median(cpu_ms), "ms");
  record.Set("mttr_ms", Median(mttr), "ms");
  if (!o.trace) {
    record.Set("throughput_rps", Median(window_rps), "req/s");
    record.Set("cpu_ms_per_req_saturated", Median(closed_cpu_ms), "ms");
  }
  record.diagnostics["bench.send_lag_p99_ms"] = Quantile(lag_ms, 0.99);
  record.diagnostics["bench.open_loop_requests"] =
      static_cast<double>(open_requests);

  if (o.trace) {
    // Standalone layer measurements, the same on every workload so each
    // traced run reports every per-layer metric.
    std::vector<double> b1;
    std::vector<double> b8;
    for (const Workload& other : Workloads()) {
      for (const Served& s : other.served) {
        const ProbeSet layer_probes =
            MakeProbes(BuildModel(s.kind, weight_seed), 8, probe_seed);
        const PredictTimes t = MeasureLayers(s.kind, s.tier, s.name,
                                             weight_seed, layer_probes,
                                             record);
        if (other.name == w.name) {
          b1.push_back(t.b1_ms);
          b8.push_back(t.b8_ms);
        }
      }
    }
    // With several hosted models requests split evenly over them: the
    // mean is the expected model time per request.
    record.Set("nn.predict_ms.b1", Mean(b1), "ms");
    record.Set("nn.predict_ms.b8", Mean(b8), "ms");
    record.Set("quant.rebuild_ms",
               MeasureInt8Rebuild(
                   ModelKind::kMnist, weight_seed,
                   MakeProbes(BuildModel(ModelKind::kMnist, weight_seed), 8,
                              probe_seed)),
               "ms");
    const ModelKind primary = w.served.front().kind;
    const MilrTimes own = MeasureMilr(primary, weight_seed,
                                      primary == ModelKind::kMnist,
                                      DeriveSeed(fault_seed, 98), record);
    if (primary != ModelKind::kMnist) {
      MeasureMilr(ModelKind::kMnist, weight_seed, true,
                  DeriveSeed(fault_seed, 98), record);
    }
    record.Set("milr.init_s", own.init_s, "s");
    record.Set("milr.detect_ms", own.detect_ms, "ms");
    if (!o.spans_path.empty() &&
        !SpanRecorder::Get().WriteChromeTrace(o.spans_path)) {
      record.Fail("could not write the span file");
    }
  }
  record.Set("peak_rss_mb", PeakRssMb(), "MB");
  return record;
}

}  // namespace
}  // namespace milrbench

int main(int argc, char** argv) {
  using namespace milrbench;
  try {
    const Options o = ParseOptions(argc, argv);
    for (const Workload& w : Workloads()) {
      if (w.name == o.workload) {
        const RunRecord record = RunWorkload(w, o);
        std::printf("%s\n", record.ToJson().c_str());
        return 0;
      }
    }
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "milrbench: %s\n", e.what());
  }
  return 2;
}
