// Serve phase of the benchmark: the consumer's path. An in-process
// serve::Server over a loaded export, driven open-loop by
// serve::Client connections with a seeded request mix.
//
// Latency is timed from each request's due time (not its send time), so
// a generator that falls behind charges the lateness to the server
// instead of hiding it. A sample of responses is compared byte for byte
// with in-process ServedDataset::handle on the same request.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/dataset.h"
#include "serve/protocol.h"

namespace perfbench {

/// One SCHED_IDLE busy-loop thread per CPU for the object's lifetime.
/// On a virtual machine an idle vCPU halts, and waking it again takes as
/// long as the host needs to reschedule it, which swings with the host's
/// load. Keeping every vCPU busy at the lowest priority turns each
/// wake-up of a server or client thread into a guest-local preemption,
/// so latency measures the program instead of the host. The spinners
/// yield to any normal thread at once; a spinner whose priority cannot
/// be lowered exits instead of spinning.
class IdleSpinners {
 public:
  explicit IdleSpinners(std::size_t count);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  void stop() noexcept;

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// The five query ops of the mix, in report order.
inline constexpr std::array<patchdb::serve::Op, 5> kMixOps = {
    patchdb::serve::Op::kLookup, patchdb::serve::Op::kFeatures,
    patchdb::serve::Op::kNearest, patchdb::serve::Op::kStats,
    patchdb::serve::Op::kAnalyze};

/// 40% lookup, 20% features, 20% nearest (k=10), 10% stats, 10% analyze;
/// ids drawn by a Zipf(1) law over a seeded ranking of the natural
/// patches; analyze submits a drawn patch's rendered diff.
std::vector<patchdb::serve::Request> make_mix(
    const patchdb::serve::ServedDataset& dataset, std::uint64_t seed,
    std::size_t count);

struct Sample {
  patchdb::serve::Op op = patchdb::serve::Op::kPing;
  bool ok = false;          // kOk response received
  double due_s = 0.0;       // schedule time since the run's start
  double latency_ms = 0.0;  // response time minus due time
  double late_ms = 0.0;     // send time minus due time
};

struct LoadRun {
  std::vector<Sample> samples;  // in schedule order
  std::size_t failed = 0;       // transport failures or non-kOk status
  std::size_t checked = 0;      // responses compared with handle()
  std::size_t mismatched = 0;   // ... whose bytes differed
};

struct LoadPlan {
  double rate = 1000.0;       // requests per second, all connections
  double seconds = 1.0;
  std::size_t connections = 1;
  std::size_t mix_offset = 0;  // first mix entry to send
  std::size_t check_every = 0;  // byte-check every n-th request (0 = none)
};

/// Drive `plan.rate` req/s open-loop for `plan.seconds` over
/// `plan.connections` fresh connections to 127.0.0.1:`port`.
LoadRun drive_open_loop(std::uint16_t port,
                        const patchdb::serve::ServedDataset& dataset,
                        const std::vector<patchdb::serve::Request>& mix,
                        const LoadPlan& plan);

/// A ladder step meets the limit when its windowed p99 latency is within
/// it and the generator kept its schedule: the median lateness of the
/// step's last tenth of requests (the backlog at the end) is within it
/// too. A step with a failed request never meets it.
bool step_meets_limit(const LoadRun& run, double window_s, double limit_ms);

/// Median over consecutive `window_s` windows (by due time) of the
/// per-window latency quantile q. Failed requests count as +inf.
double windowed_quantile(const std::vector<Sample>& samples, double window_s,
                         double q);

/// In-process cost of the same mix with no network: mean microseconds
/// per ServedDataset::handle call by op, and per encode_request /
/// decode_response call over the mix.
struct HandlerTimes {
  std::array<double, kMixOps.size()> handler_us{};
  double mean_handler_us = 0.0;
  double encode_us = 0.0;
  double decode_us = 0.0;
};
HandlerTimes time_handlers(const patchdb::serve::ServedDataset& dataset,
                           const std::vector<patchdb::serve::Request>& mix);

std::size_t op_slot(patchdb::serve::Op op);

}  // namespace perfbench
