// Streaming tiled nearest-link engine: the contract under test is
// bit-identity — streaming_nearest_link must return the exact
// LinkResult (candidates AND total_distance) that the dense
// nearest_link_search(distance_matrix(...)) path returns, across
// problem shapes, top-k budgets, tile widths, memory caps, tie-heavy
// inputs, and heap-exhausted fallback storms.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/augment.h"
#include "core/distance.h"
#include "core/link_kernel.h"
#include "core/nearest_link.h"
#include "core/streaming_link.h"
#include "corpus/world.h"
#include "feature/features.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace {

using namespace patchdb;

feature::FeatureMatrix random_features(std::size_t rows, std::uint64_t seed) {
  util::Rng rng(seed);
  feature::FeatureMatrix m(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < feature::kFeatureCount; ++j) {
      m[i][j] = rng.uniform(-10, 10);
    }
  }
  return m;
}

core::LinkResult dense_link(const feature::FeatureMatrix& sec,
                            const feature::FeatureMatrix& wild,
                            std::span<const double> weights) {
  const core::DistanceMatrix d = core::distance_matrix(sec, wild, weights);
  return core::nearest_link_search(d);
}

/// `rows` rows drawn from `distinct` small-integer vectors (entries in
/// {0, 1, 2} over the first four dims, zero elsewhere), so rows repeat
/// and distinct vectors also tie in distance — the shape Table I's
/// count features give the pipeline.
feature::FeatureMatrix duplicate_heavy(std::size_t rows, std::size_t distinct,
                                       std::uint64_t seed) {
  util::Rng rng(seed);
  feature::FeatureMatrix vocab(distinct);
  for (std::size_t v = 0; v < distinct; ++v) {
    for (std::size_t j = 0; j < 4; ++j) {
      vocab[v][j] = static_cast<double>(rng.uniform_int(0, 2));
    }
  }
  feature::FeatureMatrix out(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    out.set_row(i, vocab[rng.index(distinct)]);
  }
  return out;
}

TEST(StreamingLink, PropertySweepMatchesDenseBitwise) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 5}, {3, 8}, {10, 40}, {25, 200}, {40, 400}};
  const std::size_t ks[] = {1, 2, 4, 24};
  const std::size_t tiles[] = {1, 7, 64, 4096};

  for (const auto& [m, n] : shapes) {
    for (std::uint64_t seed : {11ULL, 29ULL}) {
      const auto sec = random_features(m, seed);
      const auto wild = random_features(n, seed + 1000);
      const std::vector<double> w = core::maxabs_weights(sec, wild);
      const core::LinkResult dense = dense_link(sec, wild, w);
      ASSERT_EQ(dense.candidate.size(), m);

      for (std::size_t k : ks) {
        for (std::size_t tile : tiles) {
          core::StreamingLinkConfig config;
          config.top_k = k;
          config.tile_cols = tile;
          core::StreamingLinkStats stats;
          const core::LinkResult stream =
              core::streaming_nearest_link(sec, wild, w, config, &stats);
          EXPECT_EQ(dense.candidate, stream.candidate)
              << "m=" << m << " n=" << n << " seed=" << seed << " k=" << k
              << " tile=" << tile;
          // Bitwise, not approximate: both paths must accumulate the
          // identical float cells in the identical order.
          EXPECT_EQ(dense.total_distance, stream.total_distance)
              << "m=" << m << " n=" << n << " seed=" << seed << " k=" << k
              << " tile=" << tile;
          EXPECT_EQ(stats.topk_hits + stats.fallback_rescans, m);
        }
      }
    }
  }
}

TEST(StreamingLink, TiesBreakTowardLowestColumn) {
  // Every security row identical and every wild commit identical: all
  // M x N distances tie, so the dense greedy's strict `<` scans keep
  // the lowest row first and the lowest column per row. The streaming
  // path must order rows by (u, row) and candidates by
  // (distance, column) lexicographically to reproduce that.
  const auto sec_one = random_features(1, 5);
  feature::FeatureMatrix sec(3);
  for (std::size_t i = 0; i < sec.rows(); ++i) sec.set_row(i, sec_one[0]);
  feature::FeatureMatrix wild(5);
  const auto one = random_features(1, 6);
  for (std::size_t i = 0; i < wild.rows(); ++i) wild.set_row(i, one[0]);

  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const core::LinkResult dense = dense_link(sec, wild, w);
  const core::LinkResult stream = core::streaming_nearest_link(sec, wild, w);

  EXPECT_EQ(dense.candidate, stream.candidate);
  EXPECT_EQ(dense.total_distance, stream.total_distance);
  // With all columns equidistant, rows claim columns in index order.
  EXPECT_EQ(stream.candidate, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(StreamingLink, HeapExhaustedFallbackStillBitIdentical) {
  // Identical security rows share one top-k list; with k=2 and 12 rows,
  // ten rows find their whole heap consumed by earlier links and must
  // take the tracked full-row re-scan — the dense collision path.
  const auto one = random_features(1, 77);
  feature::FeatureMatrix sec(12);
  for (std::size_t i = 0; i < sec.rows(); ++i) sec.set_row(i, one[0]);
  const auto wild = random_features(40, 78);

  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const core::LinkResult dense = dense_link(sec, wild, w);

  core::StreamingLinkConfig config;
  config.top_k = 2;
  core::StreamingLinkStats stats;
  const core::LinkResult stream =
      core::streaming_nearest_link(sec, wild, w, config, &stats);

  EXPECT_GT(stats.fallback_rescans, 0u);
  EXPECT_EQ(stats.topk_hits + stats.fallback_rescans, sec.rows());
  // Every rescan scores each distinct pool column once through the
  // blocked kernel; this pool's columns are all distinct.
  EXPECT_EQ(stats.distinct_rows, 1u);
  EXPECT_EQ(stats.distinct_cols, wild.rows());
  EXPECT_EQ(stats.rescan_cells, stats.fallback_rescans * stats.distinct_cols);
  EXPECT_EQ(dense.candidate, stream.candidate);
  EXPECT_EQ(dense.total_distance, stream.total_distance);
}

TEST(StreamingLink, FallbackRescanTiesBreakTowardLowestColumn) {
  // Identical security rows against a pool of duplicated columns: with
  // k=1 nearly every link falls back to a full-row rescan, and every
  // rescan meets exact float ties. The rescan must keep the lowest
  // column among them, as the dense first-win scan does — for the
  // identity pack order and for the index's permuted one, at every
  // shard count and tile width.
  const auto distinct = random_features(5, 61);
  feature::FeatureMatrix wild(150);
  for (std::size_t c = 0; c < wild.rows(); ++c) {
    wild.set_row(c, distinct[(c * 7) % distinct.rows()]);
  }
  feature::FeatureMatrix sec(12);
  for (std::size_t r = 0; r < sec.rows(); ++r) sec.set_row(r, distinct[r % 2]);

  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const core::LinkResult dense = dense_link(sec, wild, w);
  for (const core::IndexKind kind :
       {core::IndexKind::kExact, core::IndexKind::kCoarse}) {
    for (std::size_t threads : {1UL, 3UL}) {
      for (std::size_t tile : {64UL, 100UL}) {
        core::StreamingLinkConfig config;
        config.top_k = 1;
        config.threads = threads;
        config.tile_cols = tile;
        config.index.kind = kind;
        core::StreamingLinkStats stats;
        const core::LinkResult stream =
            core::streaming_nearest_link(sec, wild, w, config, &stats);
        EXPECT_GT(stats.fallback_rescans, 0u);
        EXPECT_EQ(dense.candidate, stream.candidate)
            << "index=" << static_cast<int>(kind) << " threads=" << threads
            << " tile=" << tile;
        EXPECT_EQ(dense.total_distance, stream.total_distance);
      }
    }
  }
}

TEST(StreamingLink, RecordsObsCounters) {
  obs::MetricsRegistry registry;
  auto* previous = obs::install_registry(&registry);

  // One duplicated security row and one duplicated pool column: the
  // distinct-shape counters must see 7 x 299, not 8 x 300.
  auto sec = random_features(8, 3);
  sec.set_row(7, sec[2]);
  auto wild = random_features(300, 4);
  wild.set_row(299, wild[5]);
  core::StreamingLinkConfig config;
  config.tile_cols = 64;  // force several tiles
  core::StreamingLinkStats stats;
  const core::LinkResult link =
      core::streaming_nearest_link(sec, wild, config, &stats);
  obs::install_registry(previous);

  ASSERT_EQ(link.candidate.size(), 8u);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_GE(snap.counter("distance.tiles"), 5u);  // ceil(299/64)
  EXPECT_GT(snap.counter("distance.cells"), 0u);
  EXPECT_LE(snap.counter("distance.cells"), 7u * 299u);
  EXPECT_EQ(snap.counter("distance.cells"), stats.exact_cells);
  EXPECT_EQ(snap.counter("nearest_link.distinct_rows"), 7u);
  EXPECT_EQ(snap.counter("nearest_link.distinct_cols"), 299u);
  EXPECT_EQ(stats.distinct_rows, 7u);
  EXPECT_EQ(stats.distinct_cols, 299u);
  EXPECT_EQ(snap.counter("nearest_link.heap_offers"), stats.heap_offers);
  EXPECT_EQ(snap.counter("nearest_link.rescan_cells"), stats.rescan_cells);
  EXPECT_EQ(stats.rescan_cells, stats.fallback_rescans * 299u);
  EXPECT_EQ(snap.counter("nearest_link.topk_hits") +
                snap.counter("nearest_link.fallback_rescans"),
            8u);
  EXPECT_EQ(snap.counter("nearest_link.links"), 8u);
}

TEST(StreamingLink, DuplicateRowsAndColumnsMatchDenseBitwise) {
  // A handful of distinct vectors repeated in both matrices: pass 1
  // scores each distinct pair once and expands a distinct column to its
  // members at heap insertion; identical rows share one heap. Every
  // expansion must reproduce dense's (distance, column) tie order,
  // including ties between different distinct vectors.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto sec = duplicate_heavy(30, 5, seed);
    const auto wild = duplicate_heavy(240, 9, seed + 100);
    const std::vector<double> w = core::maxabs_weights(sec, wild);
    const core::LinkResult dense = dense_link(sec, wild, w);
    for (const core::IndexKind kind :
         {core::IndexKind::kExact, core::IndexKind::kCoarse}) {
      for (const std::size_t k : {1UL, 2UL, 5UL, 24UL}) {
        for (const std::size_t tile : {1UL, 64UL, 4096UL}) {
          for (const std::size_t threads : {1UL, 3UL}) {
            core::StreamingLinkConfig config;
            config.top_k = k;
            config.tile_cols = tile;
            config.threads = threads;
            config.index.kind = kind;
            core::StreamingLinkStats stats;
            const core::LinkResult stream =
                core::streaming_nearest_link(sec, wild, w, config, &stats);
            const auto label = [&] {
              return "seed=" + std::to_string(seed) + " index=" +
                     std::to_string(static_cast<int>(kind)) + " k=" +
                     std::to_string(k) + " tile=" + std::to_string(tile) +
                     " threads=" + std::to_string(threads);
            };
            EXPECT_EQ(dense.candidate, stream.candidate) << label();
            EXPECT_EQ(dense.total_distance, stream.total_distance) << label();
            EXPECT_LE(stats.distinct_rows, 5u) << label();
            EXPECT_LE(stats.distinct_cols, 9u) << label();
            // Members share their distinct column's distance, so an
            // offer stops at the first member the heap rejects: at most
            // k + 1 offers per scored distinct cell.
            EXPECT_LE(stats.heap_offers, stats.exact_cells * (stats.top_k + 1))
                << label();
          }
        }
      }
    }
  }
}

TEST(StreamingLink, FallbackRescanTakesLowestUnusedDuplicate) {
  // Twelve identical security rows against three pool vectors repeated
  // in interleaved column order (column c holds vector c % 3; vector 0
  // is the row itself). With k=1 the shared heap holds column 0 only,
  // so every later row exhausts it and rescans; each rescan scores the
  // three distinct columns and must take vector 0's lowest unused
  // member — 3, 6, 9, ... — exactly as the dense first-win scan does.
  const auto vocab = random_features(3, 404);
  feature::FeatureMatrix wild(60);
  for (std::size_t c = 0; c < wild.rows(); ++c) wild.set_row(c, vocab[c % 3]);
  feature::FeatureMatrix sec(12);
  for (std::size_t r = 0; r < sec.rows(); ++r) sec.set_row(r, vocab[0]);

  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const core::LinkResult dense = dense_link(sec, wild, w);
  std::vector<std::size_t> expected(sec.rows());
  for (std::size_t r = 0; r < expected.size(); ++r) expected[r] = 3 * r;
  ASSERT_EQ(dense.candidate, expected);

  for (const core::IndexKind kind :
       {core::IndexKind::kExact, core::IndexKind::kCoarse}) {
    for (const std::size_t threads : {1UL, 3UL}) {
      core::StreamingLinkConfig config;
      config.top_k = 1;
      config.threads = threads;
      config.index.kind = kind;
      core::StreamingLinkStats stats;
      const core::LinkResult stream =
          core::streaming_nearest_link(sec, wild, w, config, &stats);
      EXPECT_EQ(stream.candidate, expected)
          << "index=" << static_cast<int>(kind) << " threads=" << threads;
      EXPECT_EQ(dense.total_distance, stream.total_distance);
      EXPECT_EQ(stats.distinct_rows, 1u);
      EXPECT_EQ(stats.distinct_cols, 3u);
      EXPECT_GE(stats.fallback_rescans, sec.rows() - 1);
      EXPECT_EQ(stats.rescan_cells % 3, 0u);
    }
  }
}

TEST(StreamingLink, MemoryCapShrinksKnobsButNotResults) {
  const std::size_t m = 20;
  const std::size_t n = 500;
  core::StreamingLinkConfig config;
  config.top_k = 24;
  config.tile_cols = 4096;

  // The pool pack is input-sized and uncounted, so at this shape the
  // working set is the heaps plus the per-shard kernel output (~8.5 KiB
  // uncapped); a 8 KiB cap has to shrink the knobs to fit.
  const auto uncapped = config.resolve(m, n, feature::kFeatureCount);
  config.memory_cap_bytes = 8 * 1024;
  const auto capped = config.resolve(m, n, feature::kFeatureCount);

  EXPECT_LE(capped.working_set_bytes, config.memory_cap_bytes);
  EXPECT_LT(capped.working_set_bytes, uncapped.working_set_bytes);
  EXPECT_LE(capped.tile_cols, uncapped.tile_cols);
  EXPECT_GE(capped.top_k, 1u);
  EXPECT_GE(capped.tile_cols, 64u);

  const auto sec = random_features(m, 91);
  const auto wild = random_features(n, 92);
  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const core::LinkResult dense = dense_link(sec, wild, w);
  core::StreamingLinkStats stats;
  const core::LinkResult stream =
      core::streaming_nearest_link(sec, wild, w, config, &stats);

  EXPECT_EQ(stats.working_set_bytes, capped.working_set_bytes);
  EXPECT_EQ(dense.candidate, stream.candidate);
  EXPECT_EQ(dense.total_distance, stream.total_distance);
}

TEST(StreamingLink, ResolveThrowsWhenCapBelowFloorWorkingSet) {
  // Regression: a cap so small the shrink cascade bottoms out at the
  // floors (tile=64, k=1, threads=1) used to be silently exceeded.
  // Probe the exact floor footprint, then check the boundary: cap ==
  // floor resolves, cap == floor - 1 throws.
  const std::size_t m = 20;
  const std::size_t n = 500;
  core::StreamingLinkConfig floor_config;
  floor_config.top_k = 1;
  floor_config.tile_cols = 64;
  floor_config.threads = 1;
  const std::size_t floor_bytes =
      floor_config.resolve(m, n, feature::kFeatureCount).working_set_bytes;

  core::StreamingLinkConfig config;  // defaults, only the cap binds
  config.memory_cap_bytes = floor_bytes;
  const auto at_floor = config.resolve(m, n, feature::kFeatureCount);
  EXPECT_LE(at_floor.working_set_bytes, floor_bytes);

  config.memory_cap_bytes = floor_bytes - 1;
  EXPECT_THROW(config.resolve(m, n, feature::kFeatureCount),
               std::invalid_argument);
  EXPECT_THROW(core::streaming_nearest_link(random_features(m, 1),
                                            random_features(n, 2), config),
               std::invalid_argument);
}

TEST(StreamingLink, LearnedWeightsOverloadMatchesDense) {
  const auto sec = random_features(6, 41);
  const auto wild = random_features(60, 42);
  const core::LinkResult dense =
      dense_link(sec, wild, core::maxabs_weights(sec, wild));
  const core::LinkResult stream = core::streaming_nearest_link(sec, wild);
  EXPECT_EQ(dense.candidate, stream.candidate);
  EXPECT_EQ(dense.total_distance, stream.total_distance);
}

TEST(StreamingLink, RejectsBadShapes) {
  const auto sec = random_features(10, 1);
  const auto wild = random_features(5, 2);
  EXPECT_THROW(core::streaming_nearest_link(sec, wild),
               std::invalid_argument);
  const std::vector<double> short_weights(3, 1.0);
  const auto pool = random_features(20, 3);
  EXPECT_THROW(core::streaming_nearest_link(sec, pool, short_weights),
               std::invalid_argument);
}

TEST(StreamingLinkKernel, DispatchVariantsMatchScalarBitwise) {
  // Every compiled variant the CPU can run (the baseline always, AVX2
  // when present) is called directly, and so are the dispatching
  // sq_cell_block / l2_cell_block. All must reproduce the scalar cells
  // bit for bit, on random and adversarial inputs, at partial and full
  // group widths, and with strides wider than the width.
  const std::span<const core::BlockKernel> kernels = core::block_kernels();
  ASSERT_GE(kernels.size(), 1u);
  EXPECT_STREQ(kernels.front().isa, "baseline");

  const std::size_t dims = feature::kFeatureCount;
  util::Rng rng(2718);
  const auto uniform = [&rng](double lo, double hi) {
    return static_cast<float>(rng.uniform(lo, hi));
  };
  enum class Fill { kRandom, kZeros, kDenormals, kHuge, kDuplicateColumns };
  const auto fill = [&](Fill kind, std::vector<float>& values) {
    for (float& v : values) {
      switch (kind) {
        case Fill::kRandom: v = uniform(-3, 3); break;
        case Fill::kZeros: v = 0.0f; break;
        case Fill::kDenormals: v = uniform(-1, 1) * 1e-40f; break;
        case Fill::kHuge:
          // Squares overflow to +inf; equal extremes cancel to zero.
          v = rng.uniform(0, 1) < 0.5 ? 1e30f : -1e30f;
          break;
        case Fill::kDuplicateColumns: v = uniform(-3, 3); break;
      }
    }
  };
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };

  for (const Fill kind : {Fill::kRandom, Fill::kZeros, Fill::kDenormals,
                          Fill::kHuge, Fill::kDuplicateColumns}) {
    for (const std::size_t width : {1UL, 7UL, core::kLinkGroupCols}) {
      for (const std::size_t stride : {width, core::kLinkGroupCols, 80UL}) {
        if (stride < width) continue;
        std::vector<float> a(dims);
        std::vector<float> cols(width * dims);
        fill(kind, a);
        fill(kind, cols);
        if (kind == Fill::kDuplicateColumns) {
          for (std::size_t c = 1; c < width; ++c) {
            std::copy_n(cols.begin(), dims, cols.begin() + c * dims);
          }
        }
        // Dim-major block: dim j of column c at packed[j*stride + c],
        // garbage past the width that no lane may read.
        std::vector<float> packed(stride * dims, -7.5f);
        for (std::size_t c = 0; c < width; ++c) {
          for (std::size_t j = 0; j < dims; ++j) {
            packed[j * stride + c] = cols[c * dims + j];
          }
        }

        // Each variant directly, then the dispatching entry points.
        std::vector<core::BlockKernel> variants(kernels.begin(), kernels.end());
        variants.push_back({"dispatch", core::sq_cell_block,
                            core::l2_cell_block});
        for (const core::BlockKernel& kernel : variants) {
          std::vector<float> sq(stride);
          std::vector<float> l2(stride);
          kernel.sq_cell_block(a.data(), packed.data(), dims, width, stride,
                               sq.data());
          kernel.l2_cell_block(a.data(), packed.data(), dims, width, stride,
                               l2.data());
          for (std::size_t c = 0; c < width; ++c) {
            const float* b = cols.data() + c * dims;
            float scalar_sq = 0.0f;
            for (std::size_t j = 0; j < dims; ++j) {
              const float d = a[j] - b[j];
              scalar_sq += d * d;
            }
            EXPECT_EQ(bits(sq[c]), bits(scalar_sq))
                << kernel.isa << " fill=" << static_cast<int>(kind)
                << " width=" << width << " stride=" << stride << " lane=" << c;
            EXPECT_EQ(bits(l2[c]), bits(core::l2_cell(a.data(), b, dims)))
                << kernel.isa << " fill=" << static_cast<int>(kind)
                << " width=" << width << " stride=" << stride << " lane=" << c;
          }
        }
      }
    }
  }
}

TEST(StreamingLinkParallel, DeterministicAcrossThreadsTilesAndCaps) {
  // The tentpole contract: the worker-sharded pass 1 must produce the
  // same LinkResult as the dense path for every shard count x tile
  // width x memory cap, bitwise. Only counters may vary.
  const std::size_t m = 30;
  const std::size_t n = 700;
  const auto sec = random_features(m, 101);
  const auto wild = random_features(n, 102);
  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const core::LinkResult dense = dense_link(sec, wild, w);

  for (std::size_t threads : {1UL, 2UL, 8UL}) {
    for (std::size_t tile : {64UL, 257UL, 4096UL}) {
      for (std::size_t cap : {0UL, 96UL * 1024UL}) {
        core::StreamingLinkConfig config;
        config.top_k = 8;
        config.tile_cols = tile;
        config.threads = threads;
        config.memory_cap_bytes = cap;
        core::StreamingLinkStats stats;
        const core::LinkResult stream =
            core::streaming_nearest_link(sec, wild, w, config, &stats);
        EXPECT_EQ(dense.candidate, stream.candidate)
            << "threads=" << threads << " tile=" << tile << " cap=" << cap;
        EXPECT_EQ(dense.total_distance, stream.total_distance)
            << "threads=" << threads << " tile=" << tile << " cap=" << cap;
        EXPECT_GE(stats.threads, 1u);
        EXPECT_LE(stats.threads, threads);
        if (cap > 0) {
          EXPECT_LE(stats.working_set_bytes, cap);
        }
      }
    }
  }
}

TEST(StreamingLinkParallel, FallbackRescanDeterministicAcrossThreads) {
  // Identical security rows share one top-k list, so with a tiny k most
  // rows exhaust their heap and take the parallel fallback re-scan;
  // its range-merged minimum must match the dense collision handling
  // for every shard count.
  const auto one = random_features(1, 313);
  feature::FeatureMatrix sec(12);
  for (std::size_t i = 0; i < sec.rows(); ++i) sec.set_row(i, one[0]);
  const auto wild = random_features(300, 314);
  const std::vector<double> w = core::maxabs_weights(sec, wild);
  const core::LinkResult dense = dense_link(sec, wild, w);

  for (std::size_t threads : {1UL, 2UL, 8UL}) {
    core::StreamingLinkConfig config;
    config.top_k = 2;
    config.tile_cols = 64;
    config.threads = threads;
    core::StreamingLinkStats stats;
    const core::LinkResult stream =
        core::streaming_nearest_link(sec, wild, w, config, &stats);
    EXPECT_GT(stats.fallback_rescans, 0u) << "threads=" << threads;
    EXPECT_EQ(dense.candidate, stream.candidate) << "threads=" << threads;
    EXPECT_EQ(dense.total_distance, stream.total_distance)
        << "threads=" << threads;
  }
}

TEST(StreamingLink, AugmentationLoopStreamingMatchesDense) {
  corpus::WorldConfig config;
  config.repos = 6;
  config.nvd_security = 25;
  config.wild_pool = 250;
  config.wild_security_rate = 0.12;
  config.seed = 4242;
  corpus::World world = corpus::build_world(config);
  constexpr std::size_t kRounds = 3;

  using Records = std::vector<const corpus::CommitRecord*>;
  Records seed;
  for (const corpus::CommitRecord& r : world.nvd_security) seed.push_back(&r);
  Records wild;
  for (const corpus::CommitRecord& r : world.wild) wild.push_back(&r);

  // Reference: the dense Algorithm 1 oracle with the loop's bookkeeping
  // (verified rows join the seed set, every candidate leaves the pool
  // by swap-erase, highest index first).
  Records ref_found;
  Records ref_rejected;
  {
    Records security = seed;
    Records pool = wild;
    feature::FeatureMatrix sec_f(0);
    for (const corpus::CommitRecord* r : security) {
      sec_f.push_back(feature::extract(r->patch));
    }
    std::vector<feature::FeatureVector> pool_f;
    for (const corpus::CommitRecord* r : pool) {
      pool_f.push_back(feature::extract(r->patch));
    }
    for (std::size_t round = 0; round < kRounds && !pool.empty(); ++round) {
      std::vector<std::size_t> selected;
      if (pool.size() <= security.size()) {
        for (std::size_t i = 0; i < pool.size(); ++i) selected.push_back(i);
      } else {
        feature::FeatureMatrix pool_m(0);
        for (const feature::FeatureVector& v : pool_f) pool_m.push_back(v);
        const core::DistanceMatrix d = core::distance_matrix(sec_f, pool_m);
        selected = core::nearest_link_search(d).candidate;
      }
      for (std::size_t idx : selected) {
        if (world.oracle.truth(pool[idx]->patch.commit).is_security) {
          security.push_back(pool[idx]);
          sec_f.push_back(pool_f[idx]);
          ref_found.push_back(pool[idx]);
        } else {
          ref_rejected.push_back(pool[idx]);
        }
      }
      std::sort(selected.begin(), selected.end(), std::greater<>());
      for (std::size_t idx : selected) {
        pool[idx] = pool.back();
        pool_f[idx] = pool_f.back();
        pool.pop_back();
        pool_f.pop_back();
      }
    }
  }

  core::AugmentationLoop loop(seed, world.oracle);
  loop.set_pool(wild);
  core::AugmentOptions options;
  options.max_rounds = kRounds;
  options.stop_ratio = 0.0;
  loop.run(options);

  ASSERT_EQ(loop.rounds_run(), kRounds);
  ASSERT_FALSE(ref_found.empty());
  EXPECT_EQ(loop.wild_security(), ref_found);
  EXPECT_EQ(loop.nonsecurity(), ref_rejected);
}

}  // namespace
