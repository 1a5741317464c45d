// Build phase of the benchmark: the curator's path, measured from
// outside the library.
//
//   untraced: store::build_with_checkpoints(default BuildOptions) then
//             store::export_patchdb — exactly what `patchdb build` runs.
//   traced:   the same build through core::build_patchdb with public
//             BuildHooks marking stage boundaries, under an
//             obs::ObsSession whose spans and counters split the rounds
//             into link and verify time.
//
// Every export lands in a freshly emptied directory whose previous
// contents were removed and flushed to disk before the clock starts, and
// every export is checked (fsck, load round-trip counts, manifest digest).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>

#include "core/patchdb.h"

namespace perfbench {

/// The `patchdb build` flags this benchmark varies.
struct BuildConfig {
  std::size_t nvd = 600;
  std::size_t wild = 40000;
  std::size_t rounds = 5;
  std::size_t synth = 4;
  std::size_t repos = 40;
};

/// BuildOptions as `patchdb build --nvd --wild --rounds --synth --seed`
/// sets them; everything else keeps its default.
patchdb::core::BuildOptions build_options(const BuildConfig& config,
                                          std::uint64_t seed);

/// Per-stage wall times of one traced build, from hook timestamps and
/// the build's own obs spans, plus the counters that explain them.
struct StageTimes {
  double world_ms = 0.0;
  double features_ms = 0.0;
  double rounds_ms = 0.0;
  double round_max_ms = 0.0;
  double link_ms = 0.0;
  double verify_ms = 0.0;
  double synth_ms = 0.0;
  double export_ms = 0.0;
  std::uint64_t feature_rows = 0;
  std::uint64_t link_cells = 0;
  std::uint64_t links = 0;
  std::uint64_t rescans = 0;
  std::uint64_t store_writes = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t pool_tasks = 0;
  double pool_busy_ms = 0.0;
  double pool_utilization = 0.0;
};

struct BuildRun {
  double build_s = 0.0;   // build + export wall time
  double hit_ratio = 0.0;  // verified / candidates over all rounds
  std::uint64_t manifest_digest = 0;
  std::size_t oracle_queries = 0;
  std::size_t synthetic = 0;
  patchdb::corpus::CrawlStats crawl;
  bool traced = false;
  StageTimes stages;  // filled when traced
};

/// Run one build + export into `export_dir` (emptied first) and check
/// the export. Throws std::runtime_error when a check fails.
BuildRun run_build(const BuildConfig& config, std::uint64_t seed,
                   const std::filesystem::path& export_dir, bool traced);

/// Remove `dir` and flush the removal (and any pending write-back of
/// earlier exports) to disk, so the next timed export starts clean.
void prepare_fresh_dir(const std::filesystem::path& dir);

}  // namespace perfbench
