#include "util/cpu_dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace manirank {
namespace {

/// Each distinct fallback condition warns once per process, not once per
/// batch: the resolver runs on every kernel dispatch.
void WarnOnce(std::atomic<bool>* warned, const char* message) {
  if (!warned->exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr, "manirank: %s\n", message);
  }
}

bool DetectAvx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace

bool CpuSupportsAvx2() {
  static const bool supported = DetectAvx2();
  return supported;
}

PrecedenceKernel ResolvePrecedenceKernel(bool avx2_compiled) {
  static std::atomic<bool> warned_unknown{false};
  static std::atomic<bool> warned_no_avx2{false};
  const bool avx2_usable = avx2_compiled && CpuSupportsAvx2();
  const char* env = std::getenv("MANIRANK_KERNEL");
  const char* value = env != nullptr ? env : "";
  if (std::strcmp(value, "scalar") == 0) return PrecedenceKernel::kScalar;
  if (std::strcmp(value, "portable") == 0 ||
      std::strcmp(value, "bitset") == 0) {
    return PrecedenceKernel::kPortable;
  }
  if (std::strcmp(value, "avx2") == 0) {
    if (avx2_usable) return PrecedenceKernel::kAvx2;
    WarnOnce(&warned_no_avx2,
             "MANIRANK_KERNEL=avx2 but the AVX2 kernel is unavailable "
             "(not compiled in or CPU lacks AVX2); using the portable "
             "batch kernel (bit-identical)");
    return PrecedenceKernel::kPortable;
  }
  if (value[0] != '\0' && std::strcmp(value, "auto") != 0) {
    WarnOnce(&warned_unknown,
             "unrecognised MANIRANK_KERNEL value; expected scalar, "
             "portable, avx2, or auto — using auto selection");
  }
  return avx2_usable ? PrecedenceKernel::kAvx2 : PrecedenceKernel::kPortable;
}

const char* PrecedenceKernelName(PrecedenceKernel kernel) {
  switch (kernel) {
    case PrecedenceKernel::kScalar:
      return "scalar";
    case PrecedenceKernel::kPortable:
      return "portable";
    case PrecedenceKernel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

}  // namespace manirank
