#include "core/link_kernel.h"

#include <cmath>
#include <iterator>

// Lone translation unit on purpose: tools/vec_proof.sh compiles exactly
// this file with vectorization remarks enabled and greps for the block
// loops below, then disassembles it with the default flags and fails
// unless the AVX2 variant's symbols use ymm registers. Keep the loops
// here and keep them simple (counted inner loops over `c`,
// restrict-qualified pointers, no calls, no branches).
#define PATCHDB_RESTRICT __restrict__

// The AVX2 variant needs the GNU target attribute and the x86 CPU
// feature probe; elsewhere the binary carries the baseline variant only.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define PATCHDB_LINK_KERNEL_AVX2 1
#else
#define PATCHDB_LINK_KERNEL_AVX2 0
#endif

namespace patchdb::core {

namespace {

// The one kernel body. Every helper is always_inline so each exported
// variant below gets its own copy, vectorized at that variant's ISA:
// gcc and clang inline a baseline-ISA callee into a target("avx2")
// caller and then pick 256-bit vectors for the inlined loops.

/// Fixed-trip-count core: `W` known at compile time lets gcc/clang pick
/// a full-width vector factor and unroll without a scalar remainder.
template <std::size_t W>
[[gnu::always_inline]] inline void sq_cell_block_fixed(
    const float* PATCHDB_RESTRICT a, const float* PATCHDB_RESTRICT bt,
    std::size_t dims, std::size_t stride,
    float* PATCHDB_RESTRICT out) noexcept {
  for (std::size_t c = 0; c < W; ++c) out[c] = 0.0f;
  for (std::size_t j = 0; j < dims; ++j) {
    const float aj = a[j];
    const float* PATCHDB_RESTRICT row = bt + j * stride;
    for (std::size_t c = 0; c < W; ++c) {
      const float d = aj - row[c];
      out[c] += d * d;
    }
  }
}

[[gnu::always_inline]] inline void sq_cell_block_generic(
    const float* PATCHDB_RESTRICT a, const float* PATCHDB_RESTRICT bt,
    std::size_t dims, std::size_t width, std::size_t stride,
    float* PATCHDB_RESTRICT out) noexcept {
  for (std::size_t c = 0; c < width; ++c) out[c] = 0.0f;
  for (std::size_t j = 0; j < dims; ++j) {
    const float aj = a[j];
    const float* PATCHDB_RESTRICT row = bt + j * stride;
    for (std::size_t c = 0; c < width; ++c) {
      const float d = aj - row[c];
      out[c] += d * d;
    }
  }
}

[[gnu::always_inline]] inline void sq_cell_block_body(
    const float* a, const float* bt, std::size_t dims, std::size_t width,
    std::size_t stride, float* out) noexcept {
  if (width == kLinkGroupCols) {
    sq_cell_block_fixed<kLinkGroupCols>(a, bt, dims, stride, out);
    return;
  }
  sq_cell_block_generic(a, bt, dims, width, stride, out);
}

[[gnu::always_inline]] inline void l2_cell_block_body(
    const float* a, const float* bt, std::size_t dims, std::size_t width,
    std::size_t stride, float* out) noexcept {
  sq_cell_block_body(a, bt, dims, width, stride, out);
  for (std::size_t c = 0; c < width; ++c) out[c] = std::sqrt(out[c]);
}

void sq_cell_block_baseline(const float* a, const float* bt, std::size_t dims,
                            std::size_t width, std::size_t stride,
                            float* out) noexcept {
  sq_cell_block_body(a, bt, dims, width, stride, out);
}

void l2_cell_block_baseline(const float* a, const float* bt, std::size_t dims,
                            std::size_t width, std::size_t stride,
                            float* out) noexcept {
  l2_cell_block_body(a, bt, dims, width, stride, out);
}

#if PATCHDB_LINK_KERNEL_AVX2
// target("avx2") adds neither FMA nor any other contraction, and the
// project-wide -ffp-contract=off forbids it regardless: the AVX2 lanes
// round exactly like the baseline lanes and like scalar l2_cell.
[[gnu::target("avx2")]] void sq_cell_block_avx2(
    const float* a, const float* bt, std::size_t dims, std::size_t width,
    std::size_t stride, float* out) noexcept {
  sq_cell_block_body(a, bt, dims, width, stride, out);
}

[[gnu::target("avx2")]] void l2_cell_block_avx2(
    const float* a, const float* bt, std::size_t dims, std::size_t width,
    std::size_t stride, float* out) noexcept {
  l2_cell_block_body(a, bt, dims, width, stride, out);
}
#endif

constexpr BlockKernel kBlockKernels[] = {
    {"baseline", sq_cell_block_baseline, l2_cell_block_baseline},
#if PATCHDB_LINK_KERNEL_AVX2
    {"avx2", sq_cell_block_avx2, l2_cell_block_avx2},
#endif
};

bool cpu_runs_all_variants() noexcept {
#if PATCHDB_LINK_KERNEL_AVX2
  // Also checks that the OS saves ymm state (XGETBV), not just CPUID.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return true;
#endif
}

const BlockKernel& active_block_kernel() noexcept {
  static const BlockKernel& kernel = block_kernels().back();
  return kernel;
}

}  // namespace

std::span<const BlockKernel> block_kernels() noexcept {
  static const std::size_t usable =
      cpu_runs_all_variants() ? std::size(kBlockKernels) : 1;
  return {kBlockKernels, usable};
}

void sq_cell_block(const float* a, const float* bt, std::size_t dims,
                   std::size_t width, std::size_t stride,
                   float* out) noexcept {
  active_block_kernel().sq_cell_block(a, bt, dims, width, stride, out);
}

void l2_cell_block(const float* a, const float* bt, std::size_t dims,
                   std::size_t width, std::size_t stride,
                   float* out) noexcept {
  active_block_kernel().l2_cell_block(a, bt, dims, width, stride, out);
}

}  // namespace patchdb::core
