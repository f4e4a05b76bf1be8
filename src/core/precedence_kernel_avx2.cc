// AVX2 flavor of the position-compare precedence kernel: the same
// algorithm as the portable flavor, compiled with AVX2 codegen so the
// int16 compare-and-count loop runs 16 lanes per op (8 under SSE2) and the
// int->double accumulation vectorises to 256-bit ops. CMake adds -mavx2
// to this one TU when the compiler supports it; otherwise (or on non-x86) __AVX2__ is
// unset and the TU degrades to a stub returning nullptr, which the
// dispatcher treats as "flavor not compiled in". Bit-identity with the
// portable flavor is guaranteed by construction (same integer ops) and
// enforced by the forced-kernel equivalence suite.

#include "core/precedence_kernel.h"

#ifdef __AVX2__

#define MANIRANK_KERNEL_FLAVOR_NS avx2
#define MANIRANK_KERNEL_FLAVOR_NAME "avx2"
#include "core/precedence_kernel_impl.h"

namespace manirank {
namespace kernel {

const KernelFlavor* Avx2Kernel() { return &avx2::Flavor(); }

}  // namespace kernel
}  // namespace manirank

#else  // !__AVX2__

namespace manirank {
namespace kernel {

const KernelFlavor* Avx2Kernel() { return nullptr; }

}  // namespace kernel
}  // namespace manirank

#endif  // __AVX2__
