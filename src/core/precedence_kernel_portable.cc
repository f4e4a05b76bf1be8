// Baseline flavor of the position-compare precedence kernel: no
// ISA-specific flags (8 int16 lanes under x86-64's SSE2 baseline). Always linked; the runtime dispatcher
// falls back here whenever AVX2 is unavailable or forced off.

#define MANIRANK_KERNEL_FLAVOR_NS portable
#define MANIRANK_KERNEL_FLAVOR_NAME "portable"
#include "core/precedence_kernel_impl.h"

namespace manirank {
namespace kernel {

const KernelFlavor& PortableKernel() { return portable::Flavor(); }

}  // namespace kernel
}  // namespace manirank
