#!/usr/bin/env bash
# Vectorization proof for the block distance kernel.
#
#   tools/vec_proof.sh
#
# Compiles src/core/link_kernel.cpp standalone at -O3 with the default
# flags, once per available compiler with its vectorization-report flag
# on, and FAILS unless
#
#   1. the report proves the kernel's inner loops vectorized:
#        g++     -fopt-info-vec-optimized  -> "optimized: loop vectorized"
#        clang++ -Rpass=loop-vectorize     -> "vectorized loop" remarks
#   2. that same object carries the runtime-dispatched AVX2 variant:
#      `objdump -d` of the *_cell_block_avx2 symbols shows ymm
#      registers (x86 only).
#
# The missed-optimization remarks (-fopt-info-vec-missed /
# -Rpass-missed=loop-vectorize) are printed for the kernel's lines so a
# failure names what blocked the vectorizer instead of just saying "no".
# This is the CI tripwire for the SIMD half of the distance kernels: an
# innocent-looking edit that introduces a loop-carried dependence or an
# aliasing hazard turns the kernel scalar, or a lost target attribute
# drops the AVX2 variant, the bench win silently evaporates, and
# nothing else in the test suite would notice.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
kernel="${repo_root}/src/core/link_kernel.cpp"
common_flags=(-std=c++20 -O3 -ffp-contract=off -I "${repo_root}/src" -c)
objdir="$(mktemp -d)"
trap 'rm -rf "${objdir}"' EXIT

checked=0
failed=0

check() {
  local name="$1" compiler="$2" opt_flag="$3" missed_flag="$4" pattern="$5"
  if ! command -v "${compiler}" > /dev/null; then
    echo "vec_proof.sh: ${compiler} not found, skipping" >&2
    return 0
  fi
  checked=$((checked + 1))
  local object="${objdir}/${name}.o"
  local report
  report="$("${compiler}" "${common_flags[@]}" -o "${object}" "${opt_flag}" \
              "${kernel}" 2>&1)" || {
    echo "${report}" >&2
    echo "vec_proof.sh: ${name}: link_kernel.cpp failed to compile" >&2
    failed=1
    return 0
  }
  local hits
  hits="$(grep -c -- "${pattern}" <<< "${report}" || true)"
  if [[ "${hits}" -ge 1 ]]; then
    echo "vec_proof.sh: ${name}: ${hits} vectorized loop(s)"
    grep -- "${pattern}" <<< "${report}" | sed 's/^/  /' | head -n 8
  else
    echo "vec_proof.sh: ${name}: NO vectorized loops in link_kernel.cpp" >&2
    echo "vec_proof.sh: ${name} missed-vectorization remarks:" >&2
    "${compiler}" "${common_flags[@]}" -o /dev/null "${missed_flag}" \
      "${kernel}" 2>&1 |
      grep -i -- "miss" | sed 's/^/  /' | head -n 20 >&2 || true
    failed=1
  fi
  check_avx2_variant "${name}" "${object}"
}

# The object must contain the AVX2 variant, and its symbols must really
# use 256-bit registers.
check_avx2_variant() {
  local name="$1" object="$2"
  case "$(uname -m)" in x86_64 | i?86) ;; *) return 0 ;; esac
  if ! command -v objdump > /dev/null; then
    echo "vec_proof.sh: objdump not found, cannot check the AVX2 variant" >&2
    failed=1
    return 0
  fi
  local ymm
  ymm="$(objdump -d -C --no-show-raw-insn "${object}" | awk '
    /^[0-9a-f]+ <.*>:$/ { in_avx2 = ($0 ~ /_cell_block_avx2\(/) }
    in_avx2 && /ymm/ { n++ }
    END { print n + 0 }')"
  if [[ "${ymm}" -ge 1 ]]; then
    echo "vec_proof.sh: ${name}: AVX2 variant present" \
         "(${ymm} ymm instructions)"
  else
    echo "vec_proof.sh: ${name}: NO ymm instructions in the" \
         "*_cell_block_avx2 symbols of link_kernel.o" >&2
    failed=1
  fi
}

check gcc g++ -fopt-info-vec-optimized -fopt-info-vec-missed \
      "loop vectorized"
check clang clang++ -Rpass=loop-vectorize -Rpass-missed=loop-vectorize \
      "vectorized loop"

if [[ "${checked}" -eq 0 ]]; then
  echo "vec_proof.sh: no compiler available (need g++ or clang++)" >&2
  exit 2
fi
if [[ "${failed}" -ne 0 ]]; then
  echo "vec_proof.sh: FAIL (block kernel did not vectorize or lacks AVX2)" >&2
  exit 1
fi
echo "vec_proof.sh: OK (${checked} compiler(s) vectorized the block kernel" \
     "and carry its AVX2 variant)"
