// perfbench — end-to-end benchmark of the PatchDB pipeline.
//
//   perfbench --workload {build-link,serve-mix} --seed N
//             --seconds S --trace {0,1} --work-dir DIR [--scale {full,tiny}]
//
// Every workload runs the whole path a user sees: build + export (the
// curator's `patchdb build`), read-back + daemon start-up on that export,
// and open-loop serving of a seeded request mix. The workloads differ in
// build scale and in where the time goes (see README.md). With --trace 0
// the last stdout line carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, measured by timing calls into the
// library's public functions plus the obs counters and spans it emits.
// Any failed output check prints `"correct": false` and exits 1.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "build_phase.h"
#include "common.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "serve_phase.h"
#include "store/export.h"
#include "store/fsck.h"
#include "util/thread_pool.h"

namespace {

using namespace patchdb;
using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool tiny = false;
  std::string work_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{build-link,serve-mix} --seed N --seconds S "
               "--trace {0,1} --work-dir DIR [--scale {full,tiny}]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || text[0] == '-') {
    usage("bad " + flag + " \"" + text + "\"");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_uint(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_uint(flag, value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") usage("--scale takes full or tiny");
      args.tiny = value == "tiny";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload != "build-link" && args.workload != "serve-mix") {
    usage("unknown workload \"" + args.workload + "\"");
  }
  if (!have_seed) usage("--seed is required");
  if (args.seconds < 1.0) usage("--seconds must be at least 1");
  if (args.work_dir.empty()) usage("--work-dir is required");
  return args;
}

/// How much of each phase one run does.
struct Plan {
  BuildConfig build;
  int builds = 5;         // untraced builds (--trace 0)
  int traced_pairs = 2;   // untraced + traced builds (--trace 1)
  int setups = 5;         // read-back + daemon start-ups
  double fixed_seconds = 6.0;   // fixed-rate latency phase, at --seconds 30
  double step_seconds = 0.5;    // one max_rps ladder step, at --seconds 30
  double warmup_seconds = 0.5;
};

// Serving constants, shared by every workload.
constexpr double kFixedRate = 1000.0;    // req/s for p50_ms / p90_ms
constexpr double kWindowSeconds = 0.25;  // quantiles per window, then median
constexpr double kLimitMs = 20.0;        // p99 limit of the max_rps ladder
constexpr double kLadderBase = 500.0;    // ladder: base * 2^k
constexpr int kLadderSteps = 5;          // 500 .. 8000 req/s
constexpr std::size_t kMixSize = 4096;
constexpr std::size_t kCheckEvery = 53;  // byte-check every 53rd response

Plan make_plan(const Args& args) {
  Plan plan;
  if (args.workload == "serve-mix") {
    plan.builds = 2;
    plan.traced_pairs = 1;
    plan.setups = 7;
    plan.fixed_seconds = 10.0;
  }
  const double scale = args.seconds / 30.0;
  plan.fixed_seconds = std::max(1.0, plan.fixed_seconds * scale);
  plan.step_seconds = std::max(0.2, plan.step_seconds * scale);
  if (args.tiny) {
    plan.build = BuildConfig{60, 1500, 2, 2, 8};
    plan.builds = 1;
    plan.traced_pairs = 1;
    plan.setups = 2;
    plan.fixed_seconds = 1.0;
    plan.step_seconds = 0.2;
    plan.warmup_seconds = 0.1;
  }
  return plan;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<double> store_load_ms, fsck_ms, serve_load_ms, start_ms;
  std::uint64_t bytes_checked = 0;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const MetricList& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!first) line += ", ";
    first = false;
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  const Plan plan = make_plan(args);
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  util::configure_default_pool(nproc);
  const std::filesystem::path export_dir =
      std::filesystem::path(args.work_dir) / args.workload / "export";
  std::vector<std::string> problems;
  std::size_t attempted = 0;

  // ---- build phase ------------------------------------------------------
  std::vector<BuildRun> untraced;
  std::vector<BuildRun> traced;
  const int rounds = args.trace ? plan.traced_pairs : plan.builds;
  for (int i = 0; i < rounds; ++i) {
    untraced.push_back(run_build(plan.build, args.seed, export_dir, false));
    if (args.trace) traced.push_back(run_build(plan.build, args.seed, export_dir, true));
    attempted += args.trace ? 2 : 1;
    std::fprintf(stderr, "perfbench: build %d: %.3f s\n", i + 1, untraced.back().build_s);
    if (args.trace) {
      const StageTimes& s = traced.back().stages;
      std::fprintf(stderr,
                   "perfbench: traced build %d: %.3f s (world %.0f, features %.0f, "
                   "link %.0f, verify %.0f, synth %.0f, export %.0f ms)\n",
                   i + 1, traced.back().build_s, s.world_ms, s.features_ms, s.link_ms,
                   s.verify_ms, s.synth_ms, s.export_ms);
    }
  }
  const std::uint64_t digest = untraced.front().manifest_digest;
  for (const std::vector<BuildRun>* runs : {&untraced, &traced}) {
    for (const BuildRun& b : *runs) {
      if (b.manifest_digest != digest) {
        problems.push_back("manifest digest " + hex(b.manifest_digest) + " != " +
                           hex(digest) + (b.traced ? " (traced build)" : ""));
      }
    }
  }

  // ---- set-up: read the export back, load and start the daemon ----------
  std::unique_ptr<obs::ObsSession> session;
  if (args.trace) session = std::make_unique<obs::ObsSession>("perfbench.serve");
  SetupTimes setup;
  std::unique_ptr<serve::ServedDataset> dataset;
  std::unique_ptr<serve::Server> server;
  for (int i = 0; i < plan.setups; ++i) {
    server.reset();
    dataset.reset();
    Clock::time_point t = Clock::now();
    const store::LoadedPatchDb loaded = store::load_patchdb(export_dir);
    setup.store_load_ms.push_back(ms_between(t, Clock::now()));
    t = Clock::now();
    const store::FsckReport fsck = store::fsck_dataset(export_dir);
    setup.fsck_ms.push_back(ms_between(t, Clock::now()));
    if (!fsck.ok()) problems.push_back("fsck: " + fsck.errors.front());
    setup.bytes_checked = fsck.bytes_checked;

    t = Clock::now();
    dataset = std::make_unique<serve::ServedDataset>(serve::ServedDataset::load(export_dir));
    const Clock::time_point loaded_at = Clock::now();
    server = std::make_unique<serve::Server>(*dataset, serve::ServerOptions{});
    server->start();
    const Clock::time_point started = Clock::now();
    setup.serve_load_ms.push_back(ms_between(t, loaded_at));
    setup.start_ms.push_back(ms_between(loaded_at, started));
    setup.setup_s.push_back(ms_between(t, started) / 1000.0);
    ++attempted;
  }

  // ---- serve phase ------------------------------------------------------
  const std::vector<serve::Request> mix = make_mix(*dataset, args.seed, kMixSize);
  const std::size_t conns = nproc;
  std::size_t offset = 0;
  std::size_t failed_requests = 0;
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  auto drive = [&](double rate, double seconds) {
    LoadPlan load{rate, seconds, conns, offset, kCheckEvery};
    LoadRun r = drive_open_loop(server->port(), *dataset, mix, load);
    offset += r.samples.size();
    attempted += r.samples.size();
    failed_requests += r.failed;
    checked += r.checked;
    mismatched += r.mismatched;
    return r;
  };
  std::optional<IdleSpinners> spinners(std::in_place, nproc);
  drive(kFixedRate, plan.warmup_seconds);
  const LoadRun fixed = drive(kFixedRate, plan.fixed_seconds);
  double max_rps = 0.0;
  for (int k = 0; k < kLadderSteps; ++k) {
    // A step gets a second try, so one burst of host noise does not end
    // the ladder; a rate the server cannot sustain misses both.
    const double rate = kLadderBase * static_cast<double>(1 << k);
    bool ok = false;
    for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
      ok = step_meets_limit(drive(rate, plan.step_seconds), kWindowSeconds, kLimitMs);
    }
    std::fprintf(stderr, "perfbench: ladder %.0f req/s: %s\n", rate, ok ? "ok" : "over limit");
    if (!ok) break;
    max_rps = rate;
  }
  server->stop();
  spinners.reset();
  if (failed_requests != 0) {
    problems.push_back(std::to_string(failed_requests) + " request(s) not answered kOk");
  }
  if (checked == 0 || mismatched != 0) {
    problems.push_back(std::to_string(mismatched) + " of " + std::to_string(checked) +
                       " checked responses differ from ServedDataset::handle");
  }

  std::size_t fixed_good = 0;
  std::vector<double> latency;
  double late_max = 0.0;
  for (const Sample& s : fixed.samples) {
    if (s.ok && s.latency_ms <= kLimitMs) ++fixed_good;
    latency.push_back(s.latency_ms);
    late_max = std::max(late_max, s.late_ms);
  }

  MetricList metrics;
  if (!args.trace) {
    std::vector<double> build_s;
    for (const BuildRun& b : untraced) build_s.push_back(b.build_s);
    metrics.set("build_s", median(build_s), "s");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    metrics.set("hit_ratio", untraced.front().hit_ratio, "ratio");
    metrics.set("setup_s", median(setup.setup_s), "s");
    metrics.set("p50_ms", windowed_quantile(fixed.samples, kWindowSeconds, 0.50), "ms");
    metrics.set("p90_ms", windowed_quantile(fixed.samples, kWindowSeconds, 0.90), "ms");
    metrics.set("max_rps", max_rps, "1/s");
    metrics.set("ok_rate",
                static_cast<double>(fixed_good) / static_cast<double>(fixed.samples.size()),
                "ratio");
  } else {
    const obs::RunReport serve_report = session->report();
    session.reset();
    auto stage_median = [&](double StageTimes::*field) {
      std::vector<double> v;
      for (const BuildRun& b : traced) v.push_back(b.stages.*field);
      return median(v);
    };
    const BuildRun& first = traced.front();
    const StageTimes& st = first.stages;
    metrics.set("corpus.world_ms", stage_median(&StageTimes::world_ms), "ms");
    metrics.set("corpus.crawl.links_fetched", static_cast<double>(first.crawl.links_fetched), "count");
    metrics.set("corpus.crawl.links_dead", static_cast<double>(first.crawl.links_dead), "count");
    metrics.set("corpus.crawl.patches_collected", static_cast<double>(first.crawl.patches_collected), "count");
    const double features_ms = stage_median(&StageTimes::features_ms);
    metrics.set("feature.extract_ms", features_ms, "ms");
    metrics.set("feature.rows", static_cast<double>(st.feature_rows), "count");
    metrics.set("feature.us_per_row", features_ms * 1000.0 / static_cast<double>(st.feature_rows), "us");
    metrics.set("core.rounds_ms", stage_median(&StageTimes::rounds_ms), "ms");
    metrics.set("core.round_max_ms", stage_median(&StageTimes::round_max_ms), "ms");
    metrics.set("core.link_ms", stage_median(&StageTimes::link_ms), "ms");
    metrics.set("core.verify_ms", stage_median(&StageTimes::verify_ms), "ms");
    metrics.set("core.link_cells", static_cast<double>(st.link_cells), "count");
    metrics.set("core.link_rescans_per_link",
                st.links == 0 ? 0.0 : static_cast<double>(st.rescans) / static_cast<double>(st.links),
                "ratio");
    metrics.set("core.oracle_queries", static_cast<double>(first.oracle_queries), "count");
    metrics.set("synth.ms", stage_median(&StageTimes::synth_ms), "ms");
    metrics.set("synth.patches", static_cast<double>(first.synthetic), "count");
    const double export_ms = stage_median(&StageTimes::export_ms);
    metrics.set("store.export_ms", export_ms, "ms");
    metrics.set("store.writes", static_cast<double>(st.store_writes), "count");
    metrics.set("store.bytes", static_cast<double>(st.store_bytes), "bytes");
    metrics.set("store.us_per_write", export_ms * 1000.0 / static_cast<double>(st.store_writes), "us");
    const double store_load_ms = median(setup.store_load_ms);
    metrics.set("store.load_ms", store_load_ms, "ms");
    metrics.set("store.fsck_ms", median(setup.fsck_ms), "ms");
    metrics.set("store.bytes_checked", static_cast<double>(setup.bytes_checked), "bytes");
    metrics.set("util.pool_utilization", stage_median(&StageTimes::pool_utilization), "ratio");
    metrics.set("util.pool_busy_ms", stage_median(&StageTimes::pool_busy_ms), "ms");
    metrics.set("util.pool_tasks", static_cast<double>(st.pool_tasks), "count");
    const double serve_load_ms = median(setup.serve_load_ms);
    metrics.set("serve.load_ms", serve_load_ms, "ms");
    metrics.set("serve.precompute_ms", serve_load_ms - store_load_ms, "ms");
    metrics.set("serve.start_ms", median(setup.start_ms), "ms");

    metrics.set("serve.p99_ms", windowed_quantile(fixed.samples, kWindowSeconds, 0.99), "ms");
    std::array<std::vector<double>, kMixOps.size()> by_op;
    for (const Sample& s : fixed.samples) by_op[op_slot(s.op)].push_back(s.latency_ms);
    for (std::size_t k = 0; k < kMixOps.size(); ++k) {
      const std::string op(serve::op_name(kMixOps[k]));
      metrics.set("serve.client_p50_ms." + op, quantile(by_op[k], 0.50), "ms");
      metrics.set("serve.client_p99_ms." + op, quantile(by_op[k], 0.99), "ms");
    }
    const std::vector<serve::Request> handled(
        mix.begin(), mix.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(mix.size(), fixed.samples.size())));
    const HandlerTimes handler = time_handlers(*dataset, handled);
    for (std::size_t k = 0; k < kMixOps.size(); ++k) {
      metrics.set("serve.handler_us." + std::string(serve::op_name(kMixOps[k])),
                  handler.handler_us[k], "us");
    }
    metrics.set("serve.transport_share",
                1.0 - handler.mean_handler_us / (mean(latency) * 1000.0), "ratio");
    metrics.set("serve.protocol.encode_us", handler.encode_us, "us");
    metrics.set("serve.protocol.decode_us", handler.decode_us, "us");

    std::vector<double> analyze_us;
    for (const obs::SpanRecord& span : serve_report.spans) {
      if (span.name == "analysis.patch") analyze_us.push_back(static_cast<double>(span.wall_us));
    }
    metrics.set("analysis.analyze_us", mean(analyze_us), "us");
    const obs::MetricsSnapshot& m = serve_report.metrics;
    const double knn = static_cast<double>(m.counter("query.knn"));
    metrics.set("core.query_cells",
                knn == 0 ? 0.0 : static_cast<double>(m.counter("query.knn.cells")) / knn, "count");
    metrics.set("serve.requests", static_cast<double>(m.counter("serve.requests")), "count");
    metrics.set("serve.timeouts", static_cast<double>(m.counter("serve.timeouts")), "count");
    metrics.set("serve.connections_shed", static_cast<double>(m.counter("serve.connections_shed")), "count");
    metrics.set("serve.protocol_errors", static_cast<double>(m.counter("serve.protocol_errors")), "count");
    metrics.set("loadgen.late_ms_max", late_max, "ms");
    metrics.set("loadgen.samples", static_cast<double>(fixed.samples.size()), "count");

    std::vector<double> plain_s;
    std::vector<double> traced_s;
    std::vector<double> coverage;
    for (const BuildRun& b : untraced) plain_s.push_back(b.build_s);
    for (const BuildRun& b : traced) {
      traced_s.push_back(b.build_s);
      const StageTimes& s = b.stages;
      coverage.push_back((s.world_ms + s.features_ms + s.link_ms + s.verify_ms +
                          s.synth_ms + s.export_ms) / (b.build_s * 1000.0));
    }
    metrics.set("obs.overhead_pct", (median(traced_s) / median(plain_s) - 1.0) * 100.0, "%");
    metrics.set("build.stage_coverage", median(coverage), "ratio");
    for (double c : coverage) {
      if (c < 0.95) problems.push_back("traced stages cover only " + std::to_string(c) + " of build_s");
    }
  }

  for (const std::string& p : problems) std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  print_result(problems.empty(), attempted, failed_requests + problems.size(), metrics);
  return problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
