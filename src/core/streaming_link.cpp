#include "core/streaming_link.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/link_kernel.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace patchdb::core {

namespace {

/// One cached candidate. Lexicographic (distance, column) order is the
/// tie rule the dense greedy implements implicitly by scanning columns
/// left to right with a strict `<`.
struct Entry {
  float d;
  std::uint32_t col;
};

bool lex_less(const Entry& a, const Entry& b) noexcept {
  return a.d < b.d || (a.d == b.d && a.col < b.col);
}

/// The squared-distance bar of a full heap whose front is `front`: a
/// lane whose float square exceeds it has a rounded root strictly above
/// the front, so it cannot enter. A square above front^2 * (1 + 2^-21)
/// is more than a float ulp of the root past the front, and the bar is
/// rounded up to float so the float compare never rejects a lane that
/// bound keeps. Denormal fronts, where the relative margin stops
/// covering an ulp, get no bar.
float entry_bar(float front) noexcept {
  const double fsq = static_cast<double>(front) * static_cast<double>(front);
  if (!(fsq > 1e-60)) return HUGE_VALF;
  return std::nextafterf(static_cast<float>(fsq * (1.0 + 0x1p-21)), HUGE_VALF);
}

std::size_t round_up_groups(std::size_t v) noexcept {
  return (v + kLinkGroupCols - 1) / kLinkGroupCols * kLinkGroupCols;
}

/// Private pass-1 tallies, one per shard, padded so neighboring shards
/// never share a cache line (the whole point is no contended writes).
struct alignas(64) ShardTally {
  std::uint64_t pruned = 0;
  std::uint64_t exact = 0;
  std::uint64_t tiles = 0;
  std::uint64_t screened = 0;  // cells skipped by index group masks
  std::uint64_t offers = 0;    // member entries offered to a heap
};

/// The rows of a feature matrix grouped by bitwise-identical values.
/// Groups are numbered in order of their lowest row, and group g's rows
/// are members[first[g], first[g+1]) in ascending order.
struct RowGroups {
  std::vector<std::uint32_t> of;       // row -> group
  std::vector<std::uint32_t> first;    // group -> member offset, + end
  std::vector<std::uint32_t> members;  // rows, grouped, ascending

  std::size_t size() const noexcept { return first.size() - 1; }
  /// The group's lowest row, which stands for all of them.
  std::uint32_t lead(std::size_t g) const noexcept { return members[first[g]]; }
};

/// Group by the raw double bits: weight-independent, and equal bits
/// scale to equal floats, hence equal distances (+0.0 and -0.0 stay
/// apart, which only costs a duplicate cell). Rows are hashed in
/// parallel; the serial insert into an open-addressing table confirms
/// every hash match with a byte compare.
RowGroups group_identical_rows(const feature::FeatureMatrix& matrix) {
  const std::size_t n = matrix.rows();
  const std::size_t row_bytes = matrix.cols() * sizeof(double);
  std::vector<std::uint64_t> hash(n);
  util::default_pool().parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      std::uint64_t h = 0;
      for (const double v : matrix[i]) {
        h = (std::rotl(h, 5) ^ std::bit_cast<std::uint64_t>(v)) *
            0x9e3779b97f4a7c15ULL;
      }
      h ^= h >> 33;  // murmur3 finalizer: the table indexes low bits
      h *= 0xff51afd7ed558ccdULL;
      hash[i] = h ^ (h >> 33);
    }
  });

  // Linear probing at load <= 1/2; a slot holds group id + 1.
  const std::size_t slot_mask =
      std::bit_ceil(std::max<std::size_t>(2 * n, 2)) - 1;
  std::vector<std::uint32_t> table(slot_mask + 1, 0);
  std::vector<std::uint32_t> lead;
  RowGroups groups;
  groups.of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = hash[i] & slot_mask;; s = (s + 1) & slot_mask) {
      if (table[s] == 0) {
        groups.of[i] = static_cast<std::uint32_t>(lead.size());
        lead.push_back(static_cast<std::uint32_t>(i));
        table[s] = static_cast<std::uint32_t>(lead.size());
        break;
      }
      const std::uint32_t g = table[s] - 1;
      if (hash[lead[g]] == hash[i] &&
          std::memcmp(matrix[lead[g]].data(), matrix[i].data(), row_bytes) ==
              0) {
        groups.of[i] = g;
        break;
      }
    }
  }

  groups.first.assign(lead.size() + 1, 0);
  for (const std::uint32_t g : groups.of) ++groups.first[g + 1];
  std::partial_sum(groups.first.begin(), groups.first.end(),
                   groups.first.begin());
  groups.members.resize(n);
  std::vector<std::uint32_t> fill(groups.first.begin(), groups.first.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    groups.members[fill[groups.of[i]]++] = static_cast<std::uint32_t>(i);
  }
  return groups;
}

}  // namespace

StreamingLinkConfig::Resolved StreamingLinkConfig::resolve(
    std::size_t rows, std::size_t cols, std::size_t dims) const {
  Resolved r;
  r.top_k = std::clamp<std::size_t>(top_k, 1, std::max<std::size_t>(cols, 1));
  const std::size_t tile_floor =
      std::min<std::size_t>(kLinkGroupCols, std::max<std::size_t>(cols, 1));
  r.tile_cols = std::clamp(tile_cols, tile_floor, std::max<std::size_t>(cols, 1));
  r.threads = threads > 0 ? threads : util::default_pool_threads();
  r.threads = std::clamp<std::size_t>(r.threads, 1, 1024);

  const bool use_index = index.kind != IndexKind::kExact;
  auto working_set = [rows, cols, dims, use_index](std::size_t k,
                                                   std::size_t tile,
                                                   std::size_t shards) {
    const std::size_t groups = round_up_groups(tile) / kLinkGroupCols;
    // Shard-private heaps plus the merged array pass 2 consumes.
    const std::size_t heap_bytes = (shards + 1) * rows * (k + 1) * sizeof(Entry);
    const std::size_t size_bytes = (shards + 1) * rows * sizeof(std::uint32_t);
    const std::size_t cursor_bytes = rows * sizeof(std::uint32_t);
    const std::size_t row_norm_bytes = rows * sizeof(double);
    // The dim-major pool pack pass 1 and the rescans share, and its
    // per-group norm ranges, are input-sized like the scaled features:
    // the cap does not count them.
    const std::size_t shard_lane_bytes = shards * kLinkGroupCols * sizeof(float);
    std::size_t index_bytes = 0;
    if (use_index) {
      // Per-row group-skip bitmasks, one slot per SIMD group of every
      // tile, plus the pending bound and the verified-head slot.
      const std::size_t tiles =
          (std::max<std::size_t>(cols, 1) + tile - 1) / tile;
      const std::size_t slots = tiles * groups;
      const std::size_t words = (slots + 63) / 64;
      index_bytes = rows * (words * sizeof(std::uint64_t) +
                            2 * sizeof(double) + sizeof(std::uint32_t) + 1);
    }
    return heap_bytes + size_bytes + cursor_bytes + row_norm_bytes +
           shard_lane_bytes + index_bytes;
  };

  if (memory_cap_bytes > 0) {
    // Shrink the tile first (it only trades dispatch overhead), then the
    // heaps (they trade fallback re-scans), then the shard count (it
    // trades parallelism), down to hard floors.
    while (r.tile_cols > tile_floor &&
           working_set(r.top_k, r.tile_cols, r.threads) > memory_cap_bytes) {
      r.tile_cols = std::max(tile_floor, r.tile_cols / 2);
    }
    while (r.top_k > 1 &&
           working_set(r.top_k, r.tile_cols, r.threads) > memory_cap_bytes) {
      r.top_k = std::max<std::size_t>(1, r.top_k / 2);
    }
    while (r.threads > 1 &&
           working_set(r.top_k, r.tile_cols, r.threads) > memory_cap_bytes) {
      r.threads = std::max<std::size_t>(1, r.threads / 2);
    }
  }
  // No point sharding finer than one tile per worker.
  const std::size_t tiles =
      (std::max<std::size_t>(cols, 1) + r.tile_cols - 1) / r.tile_cols;
  r.threads = std::min(r.threads, tiles);
  r.working_set_bytes = working_set(r.top_k, r.tile_cols, r.threads);
  if (memory_cap_bytes > 0 && r.working_set_bytes > memory_cap_bytes) {
    // Every knob is at its floor and the pack/heap buffers still do not
    // fit. Exceeding the cap silently would defeat its purpose, so fail
    // loudly and let the caller raise it.
    throw std::invalid_argument(
        "streaming_link: memory_cap_bytes=" + std::to_string(memory_cap_bytes) +
        " is below the floor working set (" +
        std::to_string(r.working_set_bytes) + " bytes at tile_cols=" +
        std::to_string(r.tile_cols) + ", top_k=" + std::to_string(r.top_k) +
        ", threads=" + std::to_string(r.threads) + "); raise the cap");
  }
  return r;
}

LinkResult streaming_nearest_link(const feature::FeatureMatrix& security,
                                  const feature::FeatureMatrix& wild,
                                  std::span<const double> weights,
                                  const StreamingLinkConfig& config,
                                  StreamingLinkStats* stats) {
  const std::size_t dims = weights.size();
  if (dims != security.cols() || dims != wild.cols()) {
    throw std::invalid_argument("streaming_nearest_link: bad weight vector");
  }
  const std::size_t m = security.rows();
  const std::size_t n = wild.rows();
  if (n < m) {
    throw std::invalid_argument("streaming_nearest_link: need cols >= rows");
  }
  LinkResult result;
  if (m == 0) return result;

  PATCHDB_TRACE_SPAN("nearest_link.streaming");
  PATCHDB_COUNTER_ADD("nearest_link.links", m);

  // ---- Grouping: identical raw features scale to identical floats and
  // so to identical distances, so every pass below works on distinct
  // rows (mr) x distinct columns (nc) and touches member ids only where
  // a heap or a pick needs a real column.
  const RowGroups rows = group_identical_rows(security);
  const RowGroups cols = group_identical_rows(wild);
  const std::size_t mr = rows.size();
  const std::size_t nc = cols.size();

  const StreamingLinkConfig::Resolved rc = config.resolve(mr, nc, dims);
  const std::size_t k = rc.top_k;
  const std::size_t tile = rc.tile_cols;
  const std::size_t shards = rc.threads;
  const std::size_t tiles_total = (nc + tile - 1) / tile;
  const std::size_t groups_per_tile = round_up_groups(tile) / kLinkGroupCols;
  constexpr std::size_t G = kLinkGroupCols;

  // Same scale-then-cast as the dense kernel: identical float inputs.
  // Distinct row g is scaled from its lowest member.
  std::vector<float> sec(mr * dims);
  for (std::size_t g = 0; g < mr; ++g) {
    const std::span<const double> row = security[rows.lead(g)];
    for (std::size_t j = 0; j < dims; ++j) {
      sec[g * dims + j] = scale_cell(row[j], weights[j]);
    }
  }

  // ---- Phase 0 (optional): build the index over the scaled distinct
  // columns, stream a partition-grouped permutation of them so each
  // row's shortlist becomes a handful of contiguous SIMD-group runs,
  // and record per-row group bitmasks plus the pending bound pass 2
  // uses to prove or rescan every pick. Heap entries store ORIGINAL
  // column ids, so the merge order, tie-breaking, and the result are
  // untouched.
  const bool use_index = config.index.kind != IndexKind::kExact;
  std::unique_ptr<Index> index;
  std::span<const std::uint32_t> ord;
  std::size_t mask_words = 0;
  std::vector<std::uint64_t> mask;  // mr x mask_words group bitmasks
  std::vector<double> pending(mr, std::numeric_limits<double>::infinity());
  std::vector<std::uint64_t> row_probes;
  std::vector<std::uint64_t> row_shortlist;
  if (use_index) {
    PATCHDB_TRACE_SPAN("nearest_link.index_build");
    // The row-major scaled pool lives only while the index reads it;
    // afterwards the dim-major pack below is the one pool copy.
    std::vector<float> wld(nc * dims);
    for (std::size_t c = 0; c < nc; ++c) {
      const std::span<const double> col = wild[cols.lead(c)];
      for (std::size_t j = 0; j < dims; ++j) {
        wld[c * dims + j] = scale_cell(col[j], weights[j]);
      }
    }
    IndexConfig icfg = config.index;
    if (icfg.kind == IndexKind::kCoarse && icfg.clusters == 0) {
      // Auto-size against two failure modes: the one-off nc x C
      // assignment pass must stay well under one exact mr x nc sweep
      // (cap at mr/3), and the partition must not be finer than nprobe
      // can cover — a query whose natural neighborhood splits across
      // more than nprobe clusters leaves a near cluster unprobed,
      // the pending bound collapses, and every such row re-scans.
      // 8*nprobe keeps the probed fraction around 1/8 regardless of
      // scale.
      icfg.clusters = std::clamp<std::size_t>(
          std::min(static_cast<std::size_t>(
                       std::sqrt(static_cast<double>(nc))),
                   8 * icfg.nprobe),
          1, std::max<std::size_t>(1, mr / 3));
    }
    index = make_index(icfg);
    index->build(wld.data(), nc, dims);
    ord = index->ordering();

    mask_words = (tiles_total * groups_per_tile + 63) / 64;
    mask.assign(mr * mask_words, 0);
    row_probes.assign(mr, 0);
    row_shortlist.assign(mr, 0);
    util::default_pool().parallel_for(
        mr, [&](std::size_t begin, std::size_t end) {
          std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
          // Position p sits in tile p/tile, group (p%tile)/64 — a slot
          // id that is monotone in p with +1 steps, so a contiguous
          // position range covers exactly the slots of its endpoints.
          const auto slot_of = [&](std::size_t p) {
            return (p / tile) * groups_per_tile + (p % tile) / G;
          };
          for (std::size_t r = begin; r < end; ++r) {
            ranges.clear();
            const IndexShortlist sl =
                index->shortlist(sec.data() + r * dims, k, ranges);
            pending[r] = sl.pending_lb;
            row_probes[r] = sl.probes;
            row_shortlist[r] = sl.cols;
            std::uint64_t* w = mask.data() + r * mask_words;
            for (const auto& [p_lo, p_hi] : ranges) {
              if (p_lo >= p_hi) continue;
              for (std::size_t s = slot_of(p_lo); s <= slot_of(p_hi - 1);
                   ++s) {
                w[s >> 6] |= std::uint64_t{1} << (s & 63);
              }
            }
          }
        });
  }

  // ---- One dim-major pack of the distinct pool per call, shared by
  // pass 1 and every fallback rescan. Slot s = t * groups_per_tile + g
  // holds SIMD group g of tile t: G pool positions, dim j of lane c at
  // pack[s*G*dims + j*G + c], zero past the tile's last column.
  // Position p is distinct column ord[p] with an index (the
  // partition-grouped order) and distinct column p without. Lanes are
  // scaled straight from the double features with scale_features'
  // arithmetic, so they hold the exact floats the row-major copy would.
  const auto col_of = [&](std::size_t p) {
    return use_index ? ord[p] : static_cast<std::uint32_t>(p);
  };
  // First position and live width of slot s.
  const auto slot_span = [&](std::size_t s) {
    const std::size_t t = s / groups_per_tile;
    const std::size_t p0 = t * tile + (s % groups_per_tile) * G;
    return std::pair{p0, std::min({G, t * tile + tile - p0, nc - p0})};
  };
  const std::size_t last_tile_width = nc - (tiles_total - 1) * tile;
  const std::size_t slots = (tiles_total - 1) * groups_per_tile +
                            (last_tile_width + G - 1) / G;
  // Each slot's column-norm range for the group screen is recorded
  // while packing.
  std::vector<float> pack(slots * G * dims);  // value-initialized: zero pad
  std::vector<GroupNormRange> slot_norm(slots);
  util::default_pool().parallel_for(
      slots, [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          const auto [p0, width] = slot_span(s);
          slot_norm[s] = pack_group(
              pack.data() + s * G * dims, width, dims,
              [&](std::size_t c, std::size_t j) {
                return scale_cell(wild[cols.lead(col_of(p0 + c))][j],
                                  weights[j]);
              });
        }
      });

  std::vector<double> row_norm(mr);  // ||a||
  for (std::size_t r = 0; r < mr; ++r) {
    row_norm[r] = screen_row_norm(sec.data() + r * dims, dims);
  }

  const double sqf = 1.0 - 2.0 * screen_margin(dims);

  // ---- Pass 1: worker-sharded tile stream over distinct rows x
  // distinct columns. Shard s owns the contiguous tile range
  // [s*T/S, (s+1)*T/S) and fills private per-row top-k heaps (flat: row
  // r owns [r*(k+1), r*(k+1)+k)) plus private tallies — no shared
  // mutable state until the merge below.
  std::vector<std::vector<Entry>> shard_entries(shards);
  std::vector<std::vector<std::uint32_t>> shard_sizes(shards);
  std::vector<ShardTally> tally(shards);
  obs::Progress tile_progress("link.tiles", tiles_total);

  util::default_pool().parallel_for(shards, [&](std::size_t shard_begin,
                                                std::size_t shard_end) {
    for (std::size_t s = shard_begin; s < shard_end; ++s) {
      const std::size_t tile_lo = s * tiles_total / shards;
      const std::size_t tile_hi = (s + 1) * tiles_total / shards;
      std::vector<Entry>& entries = shard_entries[s];
      std::vector<std::uint32_t>& heap_size = shard_sizes[s];
      entries.resize(mr * (k + 1));
      heap_size.assign(mr, 0);

      std::vector<float> lane(G);
      std::uint64_t pruned = 0;
      std::uint64_t exact = 0;
      std::uint64_t screened = 0;
      std::uint64_t offers = 0;

      for (std::size_t t = tile_lo; t < tile_hi; ++t) {
        const std::size_t col0 = t * tile;
        const std::size_t width = std::min(col0 + tile, nc) - col0;
        const std::size_t groups = (width + G - 1) / G;
        const float* tile_pack = pack.data() + t * groups_per_tile * G * dims;
        const GroupNormRange* tile_norm =
            slot_norm.data() + t * groups_per_tile;
        for (std::size_t r = 0; r < mr; ++r) {
          const float* a = sec.data() + r * dims;
          const double na_s = row_norm[r];
          Entry* h = entries.data() + r * (k + 1);
          std::uint32_t sz = heap_size[r];
          float bar = sz == k ? entry_bar(h[0].d) : HUGE_VALF;
          const std::uint64_t* rmask =
              use_index ? mask.data() + r * mask_words : nullptr;
          for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t gc0 = g * G;
            const std::size_t gw = std::min(G, width - gc0);
            if (rmask != nullptr) {
              // Index screen: the whole group sits outside this row's
              // shortlist — every column in it is covered by the
              // pending bound, so phase 1 never has to score it.
              const std::size_t slot = t * groups_per_tile + g;
              if (((rmask[slot >> 6] >> (slot & 63)) & 1) == 0) {
                screened += gw;
                continue;
              }
            }
            // Hoisted Cauchy-Schwarz screen, one decision per group.
            // It implies the per-column originals, so nothing a serial
            // per-cell screen would keep is lost.
            if (sz == k &&
                group_beyond(na_s, tile_norm[g].lo, tile_norm[g].hi, h[0].d,
                             sqf)) {
              pruned += gw;
              continue;
            }
            // Exact blocked kernel over the whole group: lane i holds
            // the float squared distance with scalar-identical
            // accumulation (padded lanes compute garbage, never read).
            exact += gw;
            sq_cell_block(a, tile_pack + gc0 * dims, dims, G, G, lane.data());
            if (sz == k) {
              // Vectorized group rejection: when every lane's square
              // clears the entry bar, the per-lane pass below would skip
              // them all, so the whole group is a no-op. The heap front
              // only shrinks within a group, so the bar taken before the
              // scan is the loosest one. Padded lanes can only force the
              // scan, never suppress it.
              int any = 0;
              for (std::size_t i = 0; i < G; ++i) {
                any |= lane[i] <= bar;
              }
              if (!any) continue;
            }
            for (std::size_t i = 0; i < gw; ++i) {
              const float sq = lane[i];
              // Cheap pre-sqrt rejection (the bar is +inf until the heap
              // is full).
              if (sq > bar) continue;
              // The distinct column's members share this distance, so
              // they are offered in ascending column order and the
              // first one the heap rejects ends the offer: every later
              // member is lexicographically larger still.
              const float d = std::sqrt(sq);
              const std::uint32_t dc = col_of(col0 + gc0 + i);
              for (std::uint32_t q = cols.first[dc]; q < cols.first[dc + 1];
                   ++q) {
                const Entry e{d, cols.members[q]};
                ++offers;
                if (sz < k) {
                  h[sz++] = e;
                  std::push_heap(h, h + sz, lex_less);
                } else if (lex_less(e, h[0])) {
                  std::pop_heap(h, h + k, lex_less);
                  h[k - 1] = e;
                  std::push_heap(h, h + k, lex_less);
                } else {
                  break;
                }
              }
              if (sz == k) bar = entry_bar(h[0].d);
            }
          }
          heap_size[r] = sz;
        }
        tile_progress.tick();
      }
      tally[s].pruned = pruned;
      tally[s].exact = exact;
      tally[s].tiles = tile_hi - tile_lo;
      tally[s].screened = screened;
      tally[s].offers = offers;
    }
  });

  // ---- Deterministic merge: per distinct row, the k lexicographically
  // smallest of the shard top-k union. Columns are unique so (d, col)
  // is a total order — the merged list is the same for every shard
  // count, and it equals the serial top-k because an entry among the k
  // global minima is always inside its own shard's top-k.
  std::vector<Entry> entries(mr * (k + 1));
  std::vector<std::uint32_t> heap_size(mr, 0);
  util::default_pool().parallel_for(mr, [&](std::size_t begin, std::size_t end) {
    std::vector<Entry> scratch;
    scratch.reserve(shards * k);
    for (std::size_t r = begin; r < end; ++r) {
      scratch.clear();
      for (std::size_t s = 0; s < shards; ++s) {
        const Entry* h = shard_entries[s].data() + r * (k + 1);
        scratch.insert(scratch.end(), h, h + shard_sizes[s][r]);
      }
      std::sort(scratch.begin(), scratch.end(), lex_less);
      const std::size_t keep = std::min<std::size_t>(k, scratch.size());
      std::copy_n(scratch.begin(), keep, entries.begin() + r * (k + 1));
      heap_size[r] = static_cast<std::uint32_t>(keep);
    }
  });

  ShardTally sum;
  for (const ShardTally& t : tally) {
    sum.pruned += t.pruned;
    sum.exact += t.exact;
    sum.tiles += t.tiles;
    sum.screened += t.screened;
    sum.offers += t.offers;
  }

  // Exact full-row rescan through the blocked kernel over the shared
  // pool pack: a lane's float square, rooted in float, is bit-identical
  // to l2_cell, and lanes past the entry bar of the best so far are
  // skipped before the root, as in pass 1. A distinct column stands for
  // its lowest unused member, next_free[c] (an offset into
  // cols.members; exhausted columns are skipped), whose (distance,
  // column) is the lexicographic minimum over the column's unused
  // members — so the scan's minimum over distinct columns is the
  // first-win `<` minimum of an ascending scalar scan over the unused
  // real columns, for the identity pack order and an index's permuted
  // one alike. next_free only moves forward, because used[] only grows
  // within a call. Fixed slot ranges scan in parallel and merge under
  // the same total order, so the rescan is deterministic for every
  // shard count. (Every value compared is a float the dense matrix also
  // holds.)
  std::vector<char> used(n, 0);
  std::vector<std::uint32_t> next_free(cols.first.begin(),
                                       cols.first.end() - 1);
  std::uint64_t rescan_cells = 0;

  auto full_row_rescan = [&](std::size_t r) {
    const float* a = sec.data() + r * dims;
    const Entry none{std::numeric_limits<float>::infinity(), 0};
    std::vector<Entry> range_best(shards, none);
    util::default_pool().parallel_for(
        shards, [&](std::size_t range_begin, std::size_t range_end) {
          float lane[G];
          for (std::size_t s = range_begin; s < range_end; ++s) {
            Entry best = none;
            float bar = HUGE_VALF;  // entry_bar(best.d)
            for (std::size_t slot = s * slots / shards;
                 slot < (s + 1) * slots / shards; ++slot) {
              const auto [p0, width] = slot_span(slot);
              sq_cell_block(a, pack.data() + slot * G * dims, dims, G, G, lane);
              int any = 0;
              for (std::size_t c = 0; c < G; ++c) any |= lane[c] <= bar;
              if (!any) continue;
              for (std::size_t c = 0; c < width; ++c) {
                if (lane[c] > bar) continue;  // root strictly above best.d
                const std::uint32_t dc = col_of(p0 + c);
                if (next_free[dc] == cols.first[dc + 1]) continue;
                // The float root of the float square: l2_cell's value.
                const Entry e{std::sqrt(lane[c]), cols.members[next_free[dc]]};
                if (lex_less(e, best)) {
                  best = e;
                  bar = entry_bar(best.d);
                }
              }
            }
            range_best[s] = best;
          }
        });
    rescan_cells += nc;
    Entry out = none;
    for (const Entry& rb : range_best) {
      if (lex_less(rb, out)) out = rb;
    }
    return out;
  };

  // Index pre-pass: a distinct row whose pending bound cannot strictly
  // prove its cached minimum beats every non-shortlisted column gets one
  // verified full-row scan now, while used[] is still all-false — which
  // is exactly the static minimum u the dense greedy orders rows by. The
  // verified head stays valid at pick time as long as its column is
  // unused: the global first-win minimum, while unused, is also the
  // first-win minimum over the unused columns.
  std::size_t index_rescans = 0;
  std::vector<double> head_d;
  std::vector<std::uint32_t> head_col;
  std::vector<char> has_head;
  if (use_index) {
    head_d.assign(mr, 0.0);
    head_col.assign(mr, 0);
    has_head.assign(mr, 0);
    for (std::size_t r = 0; r < mr; ++r) {
      const Entry* h = entries.data() + r * (k + 1);
      if (heap_size[r] > 0 &&
          pending[r] > static_cast<double>(h[0].d)) {
        continue;  // proven: the cached minimum is the true minimum
      }
      const Entry best = full_row_rescan(r);
      head_d[r] = best.d;
      head_col[r] = best.col;
      has_head[r] = 1;
      ++index_rescans;
    }
  }

  // ---- Pass 2: heap-driven greedy selection (Algorithm 1 lines 5-17).
  // The dense loop's argmin over unassigned rows uses each row's
  // ORIGINAL full-row minimum (u is never refreshed on collisions), so
  // the processing order is static: ascending (u, row). A binary heap
  // replaces the O(M^2) linear sweep. Rows the index could not prove
  // use their verified head as u — the exact value dense would use.
  // Identical rows share their distinct row's merged heap, head and
  // cursor: an entry one member skips as used stays used for the rest.
  std::vector<std::pair<double, std::size_t>> order(m);
  for (std::size_t r = 0; r < m; ++r) {
    const std::uint32_t g = rows.of[r];
    const double u = use_index && has_head[g]
                         ? head_d[g]
                         : static_cast<double>(entries[g * (k + 1)].d);
    order[r] = {u, r};
  }
  std::make_heap(order.begin(), order.end(), std::greater<>());

  std::vector<std::uint32_t> cursor(mr, 0);
  result.candidate.assign(m, 0);
  std::size_t topk_hits = 0;
  std::size_t fallbacks = 0;

  while (!order.empty()) {
    std::pop_heap(order.begin(), order.end(), std::greater<>());
    const std::size_t row = order.back().second;
    order.pop_back();
    const std::uint32_t r = rows.of[row];

    const Entry* h = entries.data() + r * (k + 1);
    std::uint32_t pos = cursor[r];
    while (pos < heap_size[r] && used[h[pos].col]) ++pos;
    cursor[r] = pos;

    float chosen_d;
    std::size_t chosen_col;
    if (pos < heap_size[r] &&
        (!use_index || pending[r] > static_cast<double>(h[pos].d))) {
      // Cached candidate: every computed-but-dropped column is
      // lexicographically >= the heap's worst entry >= h[pos], and with
      // an index the strict pending bound excludes every never-computed
      // column too, so the first unused cached entry IS the row's
      // minimum over unused columns. (Unproven rows never take this
      // branch: pending <= h[0].d <= h[pos].d.)
      chosen_d = h[pos].d;
      chosen_col = h[pos].col;
      ++topk_hits;
    } else if (use_index && has_head[r] && !used[head_col[r]]) {
      // The pre-pass already scanned this row and its verified global
      // minimum is still unused, hence still the minimum over unused.
      chosen_d = static_cast<float>(head_d[r]);
      chosen_col = head_col[r];
      ++fallbacks;
    } else {
      // Heap exhausted by earlier links (or the pending bound can no
      // longer prove the next cached entry): tracked full-row re-scan.
      ++fallbacks;
      if (use_index) ++index_rescans;
      const Entry best = full_row_rescan(r);
      chosen_d = best.d;
      chosen_col = best.col;
    }
    result.candidate[row] = chosen_col;
    result.total_distance += static_cast<double>(chosen_d);
    used[chosen_col] = 1;
    const std::uint32_t dc = cols.of[chosen_col];
    std::uint32_t& nf = next_free[dc];
    while (nf < cols.first[dc + 1] && used[cols.members[nf]]) ++nf;
  }

  PATCHDB_COUNTER_ADD("distance.tiles", sum.tiles);
  PATCHDB_COUNTER_ADD("distance.cells", sum.exact);
  PATCHDB_COUNTER_ADD("distance.flops", sum.exact * (3 * dims + 1));
  PATCHDB_COUNTER_ADD("nearest_link.distinct_rows", mr);
  PATCHDB_COUNTER_ADD("nearest_link.distinct_cols", nc);
  PATCHDB_COUNTER_ADD("nearest_link.heap_offers", sum.offers);
  PATCHDB_COUNTER_ADD("nearest_link.topk_hits", topk_hits);
  PATCHDB_COUNTER_ADD("nearest_link.fallback_rescans", fallbacks);
  PATCHDB_COUNTER_ADD("nearest_link.rescan_cells", rescan_cells);
  PATCHDB_COUNTER_ADD("nearest_link.streaming.pruned_cells", sum.pruned);

  std::uint64_t probes_total = 0;
  std::uint64_t shortlist_total = 0;
  if (use_index) {
    for (std::size_t r = 0; r < mr; ++r) {
      probes_total += row_probes[r];
      shortlist_total += row_shortlist[r];
    }
    PATCHDB_COUNTER_ADD("index.probes", probes_total);
    PATCHDB_COUNTER_ADD("index.shortlist_cols", shortlist_total);
    PATCHDB_COUNTER_ADD("index.screened_cells", sum.screened);
    PATCHDB_COUNTER_ADD("index.fallback_rescans", index_rescans);
  }

  if (stats != nullptr) {
    stats->tiles = sum.tiles;
    stats->pruned_cells = sum.pruned;
    stats->exact_cells = sum.exact;
    stats->heap_offers = sum.offers;
    stats->topk_hits = topk_hits;
    stats->fallback_rescans = fallbacks;
    stats->rescan_cells = rescan_cells;
    stats->distinct_rows = mr;
    stats->distinct_cols = nc;
    stats->index_probes = probes_total;
    stats->index_shortlist_cols = shortlist_total;
    stats->index_screened_cells = use_index ? sum.screened : 0;
    stats->index_fallback_rescans = index_rescans;
    stats->top_k = k;
    stats->tile_cols = tile;
    stats->threads = shards;
    stats->working_set_bytes = rc.working_set_bytes;
  }
  return result;
}

LinkResult streaming_nearest_link(const feature::FeatureMatrix& security,
                                  const feature::FeatureMatrix& wild,
                                  const StreamingLinkConfig& config,
                                  StreamingLinkStats* stats) {
  return streaming_nearest_link(security, wild,
                                maxabs_weights(security, wild), config, stats);
}

}  // namespace patchdb::core
