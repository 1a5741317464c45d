// Point queries over a pre-scaled feature corpus — the online entry
// point the serve subsystem exposes over the wire. A KnnCorpus packs
// the rows produced by core::scale_features dim-major once, and
// knn_query answers "k nearest rows to this scaled vector" through the
// same blocked kernel (core::l2_cell_block) the streaming link engine
// runs. Every lane is bit-identical to core::l2_cell, so served
// distances equal the offline paths' (same float accumulation order,
// same rounding). Ties break toward the lowest row index, matching
// nearest_link_search and the streaming engine's selection order.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/distance.h"

namespace patchdb::core {

struct KnnHit {
  std::size_t index = 0;  // row in the scaled corpus
  float distance = 0.0f;  // l2_cell output, bit-identical to the kernels

  friend bool operator==(const KnnHit&, const KnnHit&) = default;
};

/// A k-NN corpus: scaled rows sorted by norm and packed dim-major in
/// groups of kLinkGroupCols (zero-padded), plus each group's norm range
/// for the Cauchy-Schwarz group screen. Immutable once built, so any
/// number of threads may query it concurrently.
class KnnCorpus {
 public:
  KnnCorpus() = default;
  /// Pack `scaled`, the row-major rows x dims buffer from
  /// core::scale_features.
  KnnCorpus(std::span<const float> scaled, std::size_t dims);

  std::size_t rows() const noexcept { return rows_; }

 private:
  friend std::vector<KnnHit> knn_query(const KnnCorpus& corpus,
                                       std::span<const float> query,
                                       std::size_t k);

  std::size_t rows_ = 0;
  std::size_t dims_ = 0;
  std::vector<std::size_t> order_;  // corpus row at each pack position
  std::vector<float> pack_;         // group g at g * kLinkGroupCols * dims_
  std::vector<double> group_lo_;    // min row norm per group
  std::vector<double> group_hi_;    // max row norm per group
};

/// The `k` corpus rows nearest to `query` (a scaled row of the corpus
/// width), ascending by (distance, index). Returns fewer than `k` hits
/// when the corpus is smaller than `k`; an empty corpus or a query of
/// the wrong width yields no hits.
std::vector<KnnHit> knn_query(const KnnCorpus& corpus,
                              std::span<const float> query, std::size_t k);

/// Scale one raw feature vector by per-dimension weights through the
/// same double-multiply-then-cast sequence as core::scale_features, so
/// a query vector submitted over the wire lands on the exact floats a
/// corpus row with equal features would occupy.
std::vector<float> scale_query(std::span<const double> vector,
                               std::span<const double> weights);

}  // namespace patchdb::core
