#ifndef MANIRANK_CORE_PRECEDENCE_KERNEL_H_
#define MANIRANK_CORE_PRECEDENCE_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace manirank {
namespace kernel {

/// Candidates per compare tile; position-table rows are padded to a
/// multiple of it.
inline constexpr int kTile = 64;

/// Position of a padding column: no real candidate has it, so a padded
/// column never compares below one.
inline constexpr int16_t kPadPosition = 32767;

/// Row stride of a position table over n candidates.
inline int PositionStride(int n) { return (n + kTile - 1) / kTile * kTile; }

/// One flavor of the position-compare unit-weight precedence kernel.
///
/// `row_block` folds a batch of `count` <= 64 unit-weight rankings into
/// rows [row_begin, row_end) of the row-major n x n matrix `w`. The batch
/// arrives packed: row k of `positions` (stride `stride`, padded with
/// kPadPosition) holds ranking k's candidate -> position as int16. It
/// adds
///
///   w[b * n + a] += sign * #{k : ranking k places a above b}
///
/// for every b in the row block and every a. The per-pair counts come from
/// int16 position compares (so the caller only dispatches here for
/// n <= 32767), and each cell receives exactly ONE integer->double
/// accumulation per batch — which is
/// bit-identical to `count` scalar +/-1.0 folds as long as every cell
/// holds an exactly-representable integer (|cell| <= 2^53 before and
/// after; the caller tracks that bound). Row blocks are disjoint, so
/// different blocks of one batch may run on different threads.
struct KernelFlavor {
  const char* name;
  void (*row_block)(const int16_t* positions, size_t count, int stride,
                    int sign, int row_begin, int row_end, int n, double* w);
};

/// Baseline flavor: baseline codegen (SSE2 on x86-64, 8 int16 lanes).
/// Always available.
const KernelFlavor& PortableKernel();

/// AVX2-codegen flavor of the same kernel, or nullptr when the build did
/// not compile it (non-x86 target or compiler without -mavx2). Callers
/// must additionally check CpuSupportsAvx2() before dispatching to it.
const KernelFlavor* Avx2Kernel();

}  // namespace kernel
}  // namespace manirank

#endif  // MANIRANK_CORE_PRECEDENCE_KERNEL_H_
