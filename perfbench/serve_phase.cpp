#include "serve_phase.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "diff/render.h"
#include "serve/client.h"

namespace perfbench {

using namespace patchdb;

std::size_t op_slot(serve::Op op) {
  for (std::size_t i = 0; i < kMixOps.size(); ++i) {
    if (kMixOps[i] == op) return i;
  }
  throw std::logic_error("op outside the benchmark mix");
}

std::vector<serve::Request> make_mix(const serve::ServedDataset& dataset,
                                     std::uint64_t seed, std::size_t count) {
  const std::size_t n = dataset.natural_size();
  if (n == 0) throw std::runtime_error("dataset has no natural patches to query");
  std::mt19937_64 rng(seed ^ 0x6d69785f73656564ULL);

  // Zipf(1) over ranks; rank r maps to a seeded permutation of the rows.
  std::vector<std::size_t> ranked(n);
  std::iota(ranked.begin(), ranked.end(), std::size_t{0});
  std::shuffle(ranked.begin(), ranked.end(), rng);
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) cdf[r] = (total += 1.0 / static_cast<double>(r + 1));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto draw = [&]() -> const serve::ServedPatch& {
    const double u = unit(rng) * total;
    const std::size_t r = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return dataset.patch(ranked[std::min(r, n - 1)]);
  };

  std::vector<serve::Request> mix(count);
  for (serve::Request& request : mix) {
    const double pick = unit(rng);
    if (pick < 0.40) {
      request.op = serve::Op::kLookup;
      request.lookup.id = draw().id;
    } else if (pick < 0.60) {
      request.op = serve::Op::kFeatures;
      request.features.id = draw().id;
    } else if (pick < 0.80) {
      request.op = serve::Op::kNearest;
      request.nearest.id = draw().id;
      request.nearest.k = 10;
    } else if (pick < 0.90) {
      request.op = serve::Op::kStats;
    } else {
      request.op = serve::Op::kAnalyze;
      request.analyze.diff_text = diff::render_patch(draw().patch);
    }
  }
  return mix;
}

LoadRun drive_open_loop(std::uint16_t port, const serve::ServedDataset& dataset,
                        const std::vector<serve::Request>& mix,
                        const LoadPlan& plan) {
  const std::size_t total =
      static_cast<std::size_t>(std::llround(plan.rate * plan.seconds));
  const std::size_t conns = std::max<std::size_t>(1, plan.connections);
  std::vector<serve::Client> clients(conns);
  for (serve::Client& client : clients) client.connect("127.0.0.1", port);

  LoadRun run;
  run.samples.resize(total);
  std::vector<std::string> wire(total);  // checked responses only
  auto request_at = [&](std::size_t i) -> const serve::Request& {
    return mix[(plan.mix_offset + i) % mix.size()];
  };
  auto checked = [&](std::size_t i) {
    return plan.check_every != 0 && i % plan.check_every == 0;
  };

  // Start slightly in the future so every thread is parked at t0.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto connection = [&](std::size_t c) {
    serve::Client& client = clients[c];
    for (std::size_t i = c; i < total; i += conns) {
      const serve::Request& request = request_at(i);
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    static_cast<double>(i) / plan.rate));
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      Sample& sample = run.samples[i];
      sample.op = request.op;
      try {
        if (!client.connected()) client.connect("127.0.0.1", port);
        const serve::Response response = client.call(request);
        sample.ok = response.status == serve::Status::kOk;
        if (checked(i)) wire[i] = serve::encode_response(request.op, response);
      } catch (const std::exception&) {
        sample.ok = false;
        client.close();
      }
      const Clock::time_point done = Clock::now();
      sample.due_s = std::chrono::duration<double>(due - t0).count();
      sample.latency_ms = ms_between(due, done);
      sample.late_ms = ms_between(due, sent);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(conns);
  try {
    for (std::size_t c = 0; c < conns; ++c) threads.emplace_back(connection, c);
  } catch (...) {
    for (std::thread& t : threads) t.join();
    throw;
  }
  for (std::thread& t : threads) t.join();
  for (serve::Client& client : clients) client.close();

  for (std::size_t i = 0; i < total; ++i) {
    if (!run.samples[i].ok) ++run.failed;
    if (!checked(i) || !run.samples[i].ok) continue;
    ++run.checked;
    const serve::Request& request = request_at(i);
    if (wire[i] != serve::encode_response(request.op, dataset.handle(request))) {
      ++run.mismatched;
    }
  }
  return run;
}

IdleSpinners::IdleSpinners(std::size_t count) {
  try {
    for (std::size_t i = 0; i < count; ++i) {
      threads_.emplace_back([this] {
        // Never spin at normal priority: that would steal the CPU the
        // server and the generator are being measured on.
        sched_param param{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) return;
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  } catch (...) {
    stop();
    throw;
  }
}

IdleSpinners::~IdleSpinners() { stop(); }

void IdleSpinners::stop() noexcept {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

bool step_meets_limit(const LoadRun& run, double window_s, double limit_ms) {
  if (run.samples.empty() || run.failed != 0) return false;
  const std::size_t tail = std::max<std::size_t>(1, run.samples.size() / 10);
  std::vector<double> late;
  for (std::size_t i = run.samples.size() - tail; i < run.samples.size(); ++i) {
    late.push_back(run.samples[i].late_ms);
  }
  return windowed_quantile(run.samples, window_s, 0.99) <= limit_ms &&
         median(late) <= limit_ms;
}

double windowed_quantile(const std::vector<Sample>& samples, double window_s,
                         double q) {
  std::vector<double> per_window;
  std::vector<double> window;
  double window_end = window_s;
  auto flush = [&] {
    if (!window.empty()) per_window.push_back(quantile(window, q));
    window.clear();
  };
  for (const Sample& s : samples) {
    while (s.due_s >= window_end) {
      flush();
      window_end += window_s;
    }
    window.push_back(s.ok ? s.latency_ms : std::numeric_limits<double>::infinity());
  }
  flush();
  return median(per_window);
}

HandlerTimes time_handlers(const serve::ServedDataset& dataset,
                           const std::vector<serve::Request>& mix) {
  HandlerTimes times;
  std::array<double, kMixOps.size()> sum_us{};
  std::array<std::size_t, kMixOps.size()> calls{};
  std::vector<std::string> encoded(mix.size());
  double total_us = 0.0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const Clock::time_point start = Clock::now();
    const serve::Response response = dataset.handle(mix[i]);
    const double us = ms_between(start, Clock::now()) * 1000.0;
    const std::size_t slot = op_slot(mix[i].op);
    sum_us[slot] += us;
    ++calls[slot];
    total_us += us;
    encoded[i] = serve::encode_response(mix[i].op, response);
  }
  for (std::size_t k = 0; k < kMixOps.size(); ++k) {
    times.handler_us[k] = calls[k] == 0 ? 0.0 : sum_us[k] / static_cast<double>(calls[k]);
  }
  times.mean_handler_us = total_us / static_cast<double>(mix.size());

  std::size_t sink = 0;  // keeps the timed calls observable
  Clock::time_point start = Clock::now();
  for (const serve::Request& request : mix) sink += serve::encode_request(request).size();
  times.encode_us = ms_between(start, Clock::now()) * 1000.0 /
                    static_cast<double>(mix.size());
  start = Clock::now();
  for (std::size_t i = 0; i < mix.size(); ++i) {
    sink += serve::decode_response(mix[i].op, encoded[i]).status == serve::Status::kOk;
  }
  times.decode_us = ms_between(start, Clock::now()) * 1000.0 /
                    static_cast<double>(mix.size());
  if (sink == 0) throw std::runtime_error("protocol timing produced no output");
  return times;
}

}  // namespace perfbench
