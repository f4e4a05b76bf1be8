// Flavor-templated body of the position-compare precedence kernel.
// Included by exactly the per-flavor translation units
// (precedence_kernel_portable.cc, precedence_kernel_avx2.cc), each of
// which defines MANIRANK_KERNEL_FLAVOR_NS before inclusion and compiles
// with different codegen flags; runtime dispatch picks one flavor per
// batch. No include guard on purpose: the file is included once per
// flavor TU, never twice in one TU.
//
// Algorithm. For one batch of K <= 64 unit-weight rankings, packed by
// the caller into an int16 candidate -> position table (one row per
// ranking, padded to a multiple of 64 candidates with kPadPosition;
// positions fit int16 because the caller only dispatches here for
// n <= 32767), and one block of <= 64 matrix rows: for each row b and
// each 64-candidate tile, an int16 accumulator per column adds
// pos_k[a] < pos_k[b] over the K rankings — the count of rankings placing
// a above b. The loop is branch-free and the compiler vectorises it (8
// int16 lanes under SSE2, 16 under AVX2). Each cell then receives a
// single exact int->double add per batch.
//
// Padding is free: padded columns hold a position no real candidate has,
// so they never compare below one, and are never written back anyway.

#ifndef MANIRANK_KERNEL_FLAVOR_NS
#error "define MANIRANK_KERNEL_FLAVOR_NS before including this file"
#endif

#include <cstdint>

#include "core/precedence_kernel.h"

namespace manirank {
namespace kernel {
namespace MANIRANK_KERNEL_FLAVOR_NS {
namespace {

/// The one exact int->double add per cell per batch.
inline void AddCounts(const int16_t* counts, int cols, int sign, double* w) {
  for (int i = 0; i < cols; ++i) w[i] += static_cast<double>(sign * counts[i]);
}

void RowBlock(const int16_t* positions, size_t count, int stride, int sign,
              int row_begin, int row_end, int n, double* w) {
  // Rows go in pairs so each loaded position vector feeds two compares; an
  // odd last row pairs with itself and its second count is dropped.
  for (int b0 = row_begin; b0 < row_end; b0 += 2) {
    const int b1 = b0 + 1 < row_end ? b0 + 1 : b0;
    for (int tile = 0; tile < n; tile += kTile) {
      int16_t acc0[kTile] = {};
      int16_t acc1[kTile] = {};
      for (size_t k = 0; k < count; ++k) {
        const int16_t* pos = positions + k * stride;
        const int16_t pos_b0 = pos[b0];
        const int16_t pos_b1 = pos[b1];
        pos += tile;
        for (int i = 0; i < kTile; ++i) {
          acc0[i] += pos[i] < pos_b0;
          acc1[i] += pos[i] < pos_b1;
        }
      }
      const int cols = n - tile < kTile ? n - tile : kTile;
      AddCounts(acc0, cols, sign, w + static_cast<size_t>(b0) * n + tile);
      if (b1 != b0) {
        AddCounts(acc1, cols, sign, w + static_cast<size_t>(b1) * n + tile);
      }
    }
  }
}

}  // namespace

const KernelFlavor& Flavor() {
  static const KernelFlavor flavor = {MANIRANK_KERNEL_FLAVOR_NAME, &RowBlock};
  return flavor;
}

}  // namespace MANIRANK_KERNEL_FLAVOR_NS
}  // namespace kernel
}  // namespace manirank
