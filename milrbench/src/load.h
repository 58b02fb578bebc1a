// Load generators against a ServingHost: a seeded open-loop generator
// (fixed offered rate, latency timed from each request's scheduled send
// time) and a closed-loop saturation generator with a fixed client window.
// Each uses at most two threads, and every served output is checked against
// the reference forward of its probe.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "models.h"
#include "runtime/serving_host.h"

namespace milrbench {

/// One hosted model the generators send to.
struct Target {
  milr::runtime::ServingHost::ModelHandle handle;
  const ProbeSet* probes = nullptr;
  Tolerance tolerance;
};

/// One request as the client saw it. Times are NowSeconds().
struct Response {
  double scheduled = 0.0;
  double sent = 0.0;
  double observed = 0.0;
  std::uint32_t target = 0;
  bool served = false;  // false when the future carried an exception
  OutputCheck check;
};

/// Open-loop generator: one sender thread keeps a seeded Poisson schedule at
/// `rate` requests/s split uniformly over the targets, one collector thread
/// waits on the results in send order. A result is observed when the
/// collector reaches it, so a request finishing before an older one is
/// observed no earlier than that older one.
class OpenLoop {
 public:
  OpenLoop(std::vector<Target> targets, double rate, std::uint64_t seed);
  ~OpenLoop();

  void Start();
  /// Requests sent but not yet observed.
  std::size_t Backlog() const {
    return sent_.load(std::memory_order_acquire) -
           observed_.load(std::memory_order_acquire);
  }
  /// Stops sending, waits for every outstanding result and returns the
  /// backlog at the moment sending stopped.
  std::size_t Stop();

  const std::vector<Response>& responses() const { return responses_; }
  double started_at() const { return started_at_; }
  double stopped_at() const { return stopped_at_; }

 private:
  struct InFlight {
    Response response;
    std::size_t probe = 0;
    std::future<milr::Tensor> result;
  };
  void SendLoop();
  void CollectLoop();

  std::vector<Target> targets_;
  double rate_;
  std::uint64_t seed_;
  double started_at_ = 0.0;
  double stopped_at_ = 0.0;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> sent_{0};
  std::atomic<std::size_t> observed_{0};
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<InFlight> inflight_;  // guarded by mutex_
  bool sender_done_ = false;       // guarded by mutex_
  std::vector<Response> responses_;
  std::thread sender_;
  std::thread collector_;
};

struct ClosedLoopResult {
  std::vector<Response> responses;
  /// Completions per second in each full one-second window after warm-up.
  std::vector<double> window_rps;
};

/// Closed loop: `clients` threads (at most two), each keeping `window`
/// requests outstanding for `seconds`; throughput counts results observed
/// after a short warm-up, per window.
ClosedLoopResult RunClosedLoop(const std::vector<Target>& targets,
                               std::size_t clients, std::size_t window,
                               double seconds, std::uint64_t seed);

/// Process CPU time (user + system) in seconds, from getrusage.
double ProcessCpuSeconds();
/// Peak resident set of the process in MB, from getrusage.
double PeakRssMb();

}  // namespace milrbench
