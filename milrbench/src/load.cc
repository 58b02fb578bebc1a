#include "load.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>

#include "common.h"
#include "spans.h"
#include "support/prng.h"

namespace milrbench {
namespace {

void SleepUntilSeconds(double when) {
  const double now = NowSeconds();
  if (when > now) {
    std::this_thread::sleep_for(std::chrono::duration<double>(when - now));
  }
}

}  // namespace

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

OpenLoop::OpenLoop(std::vector<Target> targets, double rate,
                   std::uint64_t seed)
    : targets_(std::move(targets)), rate_(rate), seed_(seed) {}

OpenLoop::~OpenLoop() {
  if (sender_.joinable()) Stop();
}

void OpenLoop::Start() {
  started_at_ = NowSeconds();
  sender_ = std::thread([this] { SendLoop(); });
  collector_ = std::thread([this] { CollectLoop(); });
}

std::size_t OpenLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  stopped_at_ = NowSeconds();
  const std::size_t backlog = Backlog();
  sender_.join();
  collector_.join();
  return backlog;
}

void OpenLoop::SendLoop() {
  // Wake-ups within microseconds of the schedule: the default 50 us timer
  // slack would be a visible share of a tens-of-microseconds request.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  milr::Prng prng(seed_);
  double next = started_at_;
  std::uint64_t request_id = 0;
  while (true) {
    next += -std::log(1.0 - prng.NextDouble()) / rate_;
    const std::size_t target = prng.NextBelow(targets_.size());
    const std::size_t probe = prng.NextBelow(targets_[target].probes->size());
    SleepUntilSeconds(next);
    if (stop_.load(std::memory_order_acquire)) break;
    InFlight item;
    item.response.scheduled = next;
    item.response.target = static_cast<std::uint32_t>(target);
    item.probe = probe;
    item.response.sent = NowSeconds();
    {
      Span span("runtime.Submit", {}, ++request_id);
      item.result = targets_[target].handle->Submit(
          targets_[target].probes->inputs[probe]);
    }
    sent_.fetch_add(1, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_.push_back(std::move(item));
    }
    ready_.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sender_done_ = true;
  }
  ready_.notify_one();
}

void OpenLoop::CollectLoop() {
  responses_.reserve(1 << 16);
  while (true) {
    InFlight item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [&] { return !inflight_.empty() || sender_done_; });
      if (inflight_.empty()) return;
      item = std::move(inflight_.front());
      inflight_.pop_front();
    }
    Response& r = item.response;
    try {
      const milr::Tensor out = item.result.get();
      r.observed = NowSeconds();
      r.served = true;
      const Target& t = targets_[r.target];
      r.check = CheckOutput(*t.probes, item.probe, out, t.tolerance);
    } catch (...) {
      r.observed = NowSeconds();
    }
    observed_.fetch_add(1, std::memory_order_release);
    responses_.push_back(r);
  }
}

ClosedLoopResult RunClosedLoop(const std::vector<Target>& targets,
                               std::size_t clients, std::size_t window,
                               double seconds, std::uint64_t seed) {
  constexpr double kWarmup = 0.25;
  constexpr double kWindow = 1.0;  // seconds
  const double start = NowSeconds();
  const double measure_from = start + kWarmup;
  const double end = start + kWarmup + seconds;
  std::vector<std::vector<Response>> per_client(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      milr::Prng prng(seed + 7919 * c);
      struct Pending {
        Response response;
        std::size_t probe;
        std::future<milr::Tensor> result;
      };
      std::deque<Pending> pending;
      auto& out = per_client[c];
      out.reserve(1 << 16);
      const auto complete = [&] {
        Pending& p = pending.front();
        Response& r = p.response;
        try {
          const milr::Tensor result = p.result.get();
          r.observed = NowSeconds();
          r.served = true;
          const Target& t = targets[r.target];
          r.check = CheckOutput(*t.probes, p.probe, result, t.tolerance);
        } catch (...) {
          r.observed = NowSeconds();
        }
        out.push_back(r);
        pending.pop_front();
      };
      while (NowSeconds() < end) {
        Pending p;
        p.response.target =
            static_cast<std::uint32_t>(prng.NextBelow(targets.size()));
        p.probe = prng.NextBelow(targets[p.response.target].probes->size());
        p.response.sent = p.response.scheduled = NowSeconds();
        p.result = targets[p.response.target].handle->Submit(
            targets[p.response.target].probes->inputs[p.probe]);
        pending.push_back(std::move(p));
        if (pending.size() >= window) complete();
      }
      while (!pending.empty()) complete();
    });
  }
  for (auto& t : threads) t.join();

  // Completions per window: a median over window rates is robust to a
  // stall that a whole-phase average would spread over the result.
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kWindow));
  ClosedLoopResult result;
  std::vector<double>& counts = result.window_rps;
  counts.assign(windows, 0.0);
  for (auto& responses : per_client) {
    for (const Response& r : responses) {
      if (r.observed < measure_from) continue;
      const auto w = static_cast<std::size_t>((r.observed - measure_from) /
                                              kWindow);
      if (w < windows) counts[w] += 1.0;
    }
    result.responses.insert(result.responses.end(), responses.begin(),
                            responses.end());
  }
  for (double& c : counts) c /= kWindow;
  return result;
}

}  // namespace milrbench
