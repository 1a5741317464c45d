#include "build_phase.h"

#include <fcntl.h>
#include <unistd.h>

#include <fstream>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "common.h"
#include "obs/obs.h"
#include "store/checkpoint.h"
#include "store/export.h"
#include "store/fsck.h"
#include "util/hash.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace patchdb;

core::BuildOptions build_options(const BuildConfig& config, std::uint64_t seed) {
  core::BuildOptions options;
  options.world.repos = config.repos;
  options.world.nvd_security = config.nvd;
  options.world.wild_pool = config.wild;
  options.world.seed = seed;
  options.augment.max_rounds = config.rounds;
  options.synthesis.max_per_patch = config.synth;
  return options;
}

void prepare_fresh_dir(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir.parent_path());
  const int fd = ::open(dir.parent_path().c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw std::runtime_error("cannot open " + dir.parent_path().string());
  const int rc = ::syncfs(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("syncfs failed under " + dir.string());
}

namespace {

std::uint64_t file_digest(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  return util::fnv1a64(content);
}

double hit_ratio(const core::PatchDb& db) {
  std::size_t candidates = 0;
  std::size_t verified = 0;
  for (const core::RoundStats& round : db.rounds) {
    candidates += round.candidates;
    verified += round.verified_security;
  }
  return candidates == 0 ? 0.0
                         : static_cast<double>(verified) /
                               static_cast<double>(candidates);
}

void check_export(const core::PatchDb& db, const fs::path& dir) {
  const store::FsckReport report = store::fsck_dataset(dir);
  if (!report.ok()) {
    throw std::runtime_error("fsck failed on " + dir.string() + ": " +
                             report.errors.front());
  }
  const store::LoadedPatchDb loaded = store::load_patchdb(dir);
  if (loaded.nvd_security.size() != db.nvd_security.size() ||
      loaded.wild_security.size() != db.wild_security.size() ||
      loaded.nonsecurity.size() != db.nonsecurity.size() ||
      loaded.synthetic.size() != db.synthetic.size()) {
    throw std::runtime_error("load_patchdb round-trip counts differ from the build");
  }
}

std::int64_t us_since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch).count();
}

/// Split a traced build into stages. Hook timestamps bound the world
/// (start .. before_rounds, minus the seed-feature span inside it), each
/// round (previous boundary .. after_round) and synthesis (last round ..
/// build return); the build's own spans give feature and verify time.
StageTimes stage_times(const obs::RunReport& report, Clock::time_point epoch,
                       Clock::time_point start, Clock::time_point before_rounds,
                       const std::vector<Clock::time_point>& round_ends,
                       Clock::time_point built, Clock::time_point exported) {
  StageTimes s;
  std::vector<const obs::SpanRecord*> features;
  for (const obs::SpanRecord& span : report.spans) {
    if (span.name == "augment.extract_features") features.push_back(&span);
    if (span.name == "augment.verify") s.verify_ms += span.wall_us / 1000.0;
  }
  if (features.size() != 2) {
    throw std::runtime_error("traced build: expected 2 augment.extract_features spans, saw " +
                             std::to_string(features.size()));
  }
  std::sort(features.begin(), features.end(),
            [](const obs::SpanRecord* a, const obs::SpanRecord* b) {
              return a->start_us < b->start_us;
            });
  const double seed_features_ms = features[0]->wall_us / 1000.0;
  s.features_ms = seed_features_ms + features[1]->wall_us / 1000.0;
  s.world_ms = ms_between(start, before_rounds) - seed_features_ms;

  // Rounds start where the pool's feature extraction ends.
  Clock::time_point boundary =
      epoch + std::chrono::microseconds(features[1]->start_us + features[1]->wall_us);
  if (us_since(epoch, before_rounds) > features[1]->start_us) {
    throw std::runtime_error("traced build: pool features began before before_rounds");
  }
  for (const Clock::time_point end : round_ends) {
    const double ms = ms_between(boundary, end);
    s.rounds_ms += ms;
    s.round_max_ms = std::max(s.round_max_ms, ms);
    boundary = end;
  }
  s.link_ms = s.rounds_ms - s.verify_ms;
  s.synth_ms = ms_between(boundary, built);
  s.export_ms = ms_between(built, exported);

  const obs::MetricsSnapshot& m = report.metrics;
  s.feature_rows = m.counter("augment.features_extracted");
  s.link_cells = m.counter("distance.cells");
  s.links = m.counter("nearest_link.links");
  s.rescans = m.counter("nearest_link.rescans") +
              m.counter("nearest_link.fallback_rescans");
  s.store_writes = m.counter("store.writes");
  s.store_bytes = m.counter("store.bytes");
  s.pool_tasks = m.counter("pool.tasks");
  s.pool_busy_ms = static_cast<double>(m.counter("pool.busy_us")) / 1000.0;
  s.pool_utilization = m.gauge("pool.utilization");
  return s;
}

}  // namespace

BuildRun run_build(const BuildConfig& config, std::uint64_t seed,
                   const fs::path& export_dir, bool traced) {
  const core::BuildOptions options = build_options(config, seed);
  prepare_fresh_dir(export_dir);

  BuildRun run;
  run.traced = traced;
  core::PatchDb db;
  if (!traced) {
    const Clock::time_point start = Clock::now();
    db = store::build_with_checkpoints(options);
    store::export_patchdb(db, export_dir);
    run.build_s = ms_between(start, Clock::now()) / 1000.0;
  } else {
    obs::ObsSession session("perfbench.build");
    Clock::time_point before_rounds{};
    std::vector<Clock::time_point> round_ends;
    core::BuildHooks hooks;
    hooks.before_rounds = [&](core::AugmentationLoop&, corpus::World&) {
      before_rounds = Clock::now();
      return false;
    };
    hooks.after_round = [&](const core::AugmentationLoop&, const core::RoundStats&) {
      round_ends.push_back(Clock::now());
    };
    const Clock::time_point start = Clock::now();
    db = core::build_patchdb(options, hooks);
    const Clock::time_point built = Clock::now();
    store::export_patchdb(db, export_dir);
    const Clock::time_point exported = Clock::now();
    run.build_s = ms_between(start, exported) / 1000.0;
    run.stages = stage_times(session.report(), session.tracer().epoch(), start,
                             before_rounds, round_ends, built, exported);
  }

  check_export(db, export_dir);
  run.hit_ratio = hit_ratio(db);
  run.manifest_digest = file_digest(export_dir / "manifest.csv");
  run.oracle_queries = db.verification_effort;
  run.synthetic = db.synthetic.size();
  run.crawl = db.crawl_stats;
  return run;
}

}  // namespace perfbench
