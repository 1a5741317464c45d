// Blocked distance kernels shared by every distance PatchDB computes:
// the streaming nearest-link engine's pass 1 and fallback rescans and
// the served k-nearest query (core::knn_query).
//
// The scalar cell (core::l2_cell) walks one (row, column) pair at a
// time; at 1000 x 100K x 60 dims that is ~2e10 scalar FLOPs and the
// engine is memory- and issue-bound. These kernels keep the exact same
// arithmetic per output — sequential float accumulation of
// (a[j]-b[j])^2 over dims, then one float sqrt — but evaluate a *block*
// of columns per call with the columns laid out dim-major, so the inner
// loop runs lane-parallel over columns and gcc/clang auto-vectorize it
// (each lane's accumulation order is untouched; vectorizing across
// independent outputs never reassociates a sum). Combined with the
// project-wide `-ffp-contract=off` (no FMA contraction anywhere), every
// lane is bit-identical to the scalar l2_cell / squared-distance loops.
//
// One kernel body is compiled twice: once at the compiler's baseline
// ISA (SSE2 on x86-64, 4 float lanes) and once under
// target("avx2") (8 lanes). The first call picks the widest variant the
// running CPU supports; nothing needs -march, and there is no switch.
// Both variants are bit-identical per lane, so the choice moves speed
// only, never a result.
//
// CI proves the vectorization claim: tools/vec_proof.sh compiles this
// translation unit with -fopt-info-vec / -Rpass=loop-vectorize and
// fails the build if the block loops stop vectorizing, and fails unless
// a default-flags object carries the AVX2 variant.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

namespace patchdb::core {

/// Column-group width the link engine and the k-NN query feed to the
/// block kernels. A compile-time trip count lets the vectorizer fully
/// unroll; 64 floats = eight AVX2 / sixteen SSE2 vectors per dim step,
/// and one screening decision per group keeps the norm test out of the
/// SIMD loop.
inline constexpr std::size_t kLinkGroupCols = 64;

/// out[c] = sum_j (a[j] - bt[j*stride + c])^2 for c in [0, width), with
/// float accumulation sequential over j — per lane bit-identical to the
/// scalar loop in core::l2_cell. `bt` is a dim-major block: dim j of
/// column c lives at bt[j*stride + c]; `stride >= width`. Buffers must
/// not alias.
void sq_cell_block(const float* a, const float* bt, std::size_t dims,
                   std::size_t width, std::size_t stride,
                   float* out) noexcept;

/// sq_cell_block followed by a float sqrt per lane: out[c] is
/// bit-identical to l2_cell(a, column c, dims). (IEEE-754 sqrt is
/// correctly rounded, so a vector sqrt lane equals the scalar sqrtf.)
void l2_cell_block(const float* a, const float* bt, std::size_t dims,
                   std::size_t width, std::size_t stride,
                   float* out) noexcept;

/// One compiled variant of the two block kernels above.
struct BlockKernel {
  using Fn = void (*)(const float* a, const float* bt, std::size_t dims,
                      std::size_t width, std::size_t stride,
                      float* out) noexcept;
  const char* isa;  // "baseline" or "avx2"
  Fn sq_cell_block;
  Fn l2_cell_block;
};

/// The variants this binary carries that the running CPU can execute,
/// baseline first. sq_cell_block / l2_cell_block dispatch to the last
/// one. Exposed so tests can hold every variant to the scalar oracle.
std::span<const BlockKernel> block_kernels() noexcept;

/// Norm of one scaled row, accumulated in double so the screening
/// bounds lose almost nothing to rounding.
inline double screen_row_norm(const float* v, std::size_t dims) noexcept {
  double total = 0.0;
  for (std::size_t j = 0; j < dims; ++j) {
    const double x = v[j];
    total += x * x;
  }
  return std::sqrt(total);
}

/// Column-norm range [lo, hi] of one packed group, for group_beyond.
struct GroupNormRange {
  double lo = 0.0;
  double hi = 0.0;
};

/// Fill one dim-major group of `width` (1..kLinkGroupCols) lanes:
/// dim j of lane c goes to block[j * kLinkGroupCols + c], taking the
/// value `cell(c, j)`. Returns the lanes' norm range, each norm summed
/// exactly like screen_row_norm over the stored floats. Lanes past
/// `width` are left untouched (callers zero-fill them).
template <class Cell>
GroupNormRange pack_group(float* block, std::size_t width, std::size_t dims,
                          Cell&& cell) {
  GroupNormRange range{HUGE_VAL, -HUGE_VAL};
  for (std::size_t c = 0; c < width; ++c) {
    double total = 0.0;
    for (std::size_t j = 0; j < dims; ++j) {
      const float x = cell(c, j);
      block[j * kLinkGroupCols + c] = x;
      total += static_cast<double>(x) * static_cast<double>(x);
    }
    const double norm = std::sqrt(total);
    range.lo = std::min(range.lo, norm);
    range.hi = std::max(range.hi, norm);
  }
  return range;
}

/// Conservative relative margin for comparing a double-precision bound
/// against an exact float-kernel distance: the float kernel's
/// sequential accumulation is off by at most ~(dims+2) float ulps
/// relative, the double side by ~dims double ulps. 4x headroom.
inline double screen_margin(std::size_t dims) noexcept {
  return 4.0 * static_cast<double>(dims + 2) * 0x1p-24 + 1e-7;
}

/// Group Cauchy-Schwarz screen, one decision per SIMD group:
/// ||a-b||^2 >= (||a|| - ||b||)^2, and the gap from `row_norm` to the
/// group's column-norm range [lo, hi] lower-bounds every column's gap.
/// True when every column in the group is provably strictly farther
/// than `front`, so none of them can beat it, ties included. `sqf` is
/// 1 - 2 * screen_margin(dims). The significance guard keeps
/// catastrophic cancellation from producing an overconfident bound.
inline bool group_beyond(double row_norm, double lo, double hi, float front,
                         double sqf) noexcept {
  const double fsq = static_cast<double>(front) * static_cast<double>(front);
  const double bd = row_norm < lo   ? lo - row_norm
                    : row_norm > hi ? row_norm - hi
                                    : 0.0;
  return bd > (row_norm + hi) * 1e-9 && bd * bd * sqf > fsq;
}

}  // namespace patchdb::core
