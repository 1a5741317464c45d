#include "core/query.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "core/link_kernel.h"
#include "obs/metrics.h"

namespace patchdb::core {

namespace {
constexpr std::size_t G = kLinkGroupCols;
}  // namespace

KnnCorpus::KnnCorpus(std::span<const float> scaled, std::size_t dims)
    : rows_(dims == 0 ? 0 : scaled.size() / dims), dims_(dims) {
  std::vector<double> norm(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    norm[r] = screen_row_norm(scaled.data() + r * dims_, dims_);
  }
  // Norm order makes each group's norm range narrow, which is what lets
  // the group screen prune: a group is skipped when the query's norm
  // sits far outside its range.
  order_.resize(rows_);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(), [&norm](std::size_t a, std::size_t b) {
    return norm[a] != norm[b] ? norm[a] < norm[b] : a < b;
  });

  const std::size_t groups = (rows_ + G - 1) / G;
  pack_.resize(groups * G * dims_);  // value-initialized: zero pad
  group_lo_.resize(groups);
  group_hi_.resize(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t p0 = g * G;
    const std::size_t width = std::min(G, rows_ - p0);
    const GroupNormRange range = pack_group(
        pack_.data() + g * G * dims_, width, dims_,
        [&](std::size_t c, std::size_t j) {
          return scaled[order_[p0 + c] * dims_ + j];
        });
    group_lo_[g] = range.lo;
    group_hi_[g] = range.hi;
  }
}

std::vector<KnnHit> knn_query(const KnnCorpus& corpus,
                              std::span<const float> query, std::size_t k) {
  std::vector<KnnHit> hits;
  const std::size_t dims = corpus.dims_;
  const std::size_t rows = corpus.rows_;
  if (dims == 0 || query.size() != dims || k == 0 || rows == 0) return hits;

  // Bounded worst-first heap: O(rows log k), no full-corpus sort. The
  // comparator orders by (distance, index) so the heap top is the hit
  // a better candidate must beat — including on exact float ties,
  // where the lower index wins. The order is total, so the hits do not
  // depend on the order groups are visited in.
  const auto worse = [](const KnnHit& a, const KnnHit& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.index < b.index;
  };
  hits.reserve(std::min(k, rows));
  const double query_norm = screen_row_norm(query.data(), dims);
  const double sqf = 1.0 - 2.0 * screen_margin(dims);
  const std::vector<double>& lo = corpus.group_lo_;
  const std::vector<double>& hi = corpus.group_hi_;
  std::uint64_t cells = 0;
  std::uint64_t pruned = 0;
  float lane[G];

  // Visit groups nearest in norm first, walking outward from the query's
  // norm: the heap fills with close rows early, so the screen prunes
  // the far groups.
  std::size_t up = static_cast<std::size_t>(
      std::lower_bound(hi.begin(), hi.end(), query_norm) - hi.begin());
  std::size_t down = up;  // groups [0, down) are still unvisited
  while (down > 0 || up < lo.size()) {
    const bool take_down =
        up == lo.size() ||
        (down > 0 && query_norm - hi[down - 1] < lo[up] - query_norm);
    const std::size_t g = take_down ? --down : up++;
    const std::size_t p0 = g * G;
    const std::size_t width = std::min(G, rows - p0);
    // Skipping needs every row strictly farther than the heap top, so
    // that not even a lower-index tie could displace it.
    if (hits.size() == k &&
        group_beyond(query_norm, lo[g], hi[g], hits.front().distance, sqf)) {
      pruned += width;
      continue;
    }
    cells += width;
    l2_cell_block(query.data(), corpus.pack_.data() + p0 * dims, dims, G, G,
                  lane);
    for (std::size_t c = 0; c < width; ++c) {
      const KnnHit hit{corpus.order_[p0 + c], lane[c]};
      if (hits.size() < k) {
        hits.push_back(hit);
        std::push_heap(hits.begin(), hits.end(), worse);
      } else if (worse(hit, hits.front())) {
        std::pop_heap(hits.begin(), hits.end(), worse);
        hits.back() = hit;
        std::push_heap(hits.begin(), hits.end(), worse);
      }
    }
  }
  std::sort_heap(hits.begin(), hits.end(), worse);
  PATCHDB_COUNTER_ADD("query.knn", 1);
  PATCHDB_COUNTER_ADD("query.knn.cells", cells);
  PATCHDB_COUNTER_ADD("query.knn.pruned_cells", pruned);
  return hits;
}

std::vector<float> scale_query(std::span<const double> vector,
                               std::span<const double> weights) {
  std::vector<float> out(weights.size());
  for (std::size_t j = 0; j < weights.size() && j < vector.size(); ++j) {
    out[j] = scale_cell(vector[j], weights[j]);
  }
  return out;
}

}  // namespace patchdb::core
