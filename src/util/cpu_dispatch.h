#ifndef MANIRANK_UTIL_CPU_DISPATCH_H_
#define MANIRANK_UTIL_CPU_DISPATCH_H_

namespace manirank {

/// Which implementation services the unit-weight precedence build/delta
/// kernels (core/precedence.cc). The scalar path is the paper-faithful
/// per-pair double accumulation; the other two are the batch
/// compare-and-count kernel, compiled once portably and once with AVX2
/// codegen enabled. All three are bit-identical on every eligible input (integer
/// counts below 2^53 convert exactly), so selection is purely a
/// performance/testing knob.
enum class PrecedenceKernel {
  kScalar,    // reference per-pair double accumulation
  kPortable,  // batch kernel, baseline codegen
  kAvx2,      // same kernel compiled with AVX2 enabled
};

/// True when the running CPU reports AVX2 support.
bool CpuSupportsAvx2();

/// Resolves the kernel to use from the MANIRANK_KERNEL environment
/// variable and the machine's capabilities. Recognised values: "scalar",
/// "portable" (or "bitset"), "avx2", "auto" (or unset/empty). The env var
/// is re-read on every call so tests can force each flavor with setenv
/// between cases; production callers resolve once per batch, which makes
/// the getenv cost irrelevant next to the O(n^2) work it gates.
///
/// `avx2_compiled` states whether an AVX2 build flavor was linked in
/// (core/precedence_kernel_avx2.cc compiled with AVX2 flags). Requests
/// that cannot be honoured — "avx2" without compiled/CPU support, or an
/// unrecognised value — warn once on stderr and fall back (to the
/// portable flavor and to auto selection respectively) rather than
/// silently changing semantics: every flavor is bit-identical anyway.
PrecedenceKernel ResolvePrecedenceKernel(bool avx2_compiled);

/// Human-readable kernel name ("scalar" / "portable" / "avx2") for bench
/// JSON and logs.
const char* PrecedenceKernelName(PrecedenceKernel kernel);

}  // namespace manirank

#endif  // MANIRANK_UTIL_CPU_DISPATCH_H_
