#ifndef MANIRANK_TESTS_TEST_UTIL_H_
#define MANIRANK_TESTS_TEST_UTIL_H_

#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "core/candidate_table.h"
#include "core/ranking.h"
#include "data/synthetic.h"
#include "util/cpu_dispatch.h"
#include "util/rng.h"

namespace manirank::testing {

/// Forces one environment variable for one scope, restoring the prior
/// value (or its absence) on destruction. nullptr value unsets it. Only
/// safe while nothing concurrently reads the variable: setenv is not
/// thread-safe against getenv on another thread.
class ScopedEnvVar {
 public:
  ScopedEnvVar(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_prior_ = old != nullptr;
    if (had_prior_) prior_ = old;
    if (value == nullptr) {
      unsetenv(name);
    } else {
      setenv(name, value, /*overwrite=*/1);
    }
  }
  ~ScopedEnvVar() {
    if (had_prior_) {
      setenv(name_.c_str(), prior_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  ScopedEnvVar(const ScopedEnvVar&) = delete;
  ScopedEnvVar& operator=(const ScopedEnvVar&) = delete;

 private:
  std::string name_;
  bool had_prior_ = false;
  std::string prior_;
};

/// Forces MANIRANK_KERNEL (the precedence kernel override) for one scope.
/// nullptr = auto dispatch. The variable is re-read at the start of each
/// PrecedenceMatrix build/batch, on the calling thread.
class ScopedKernelEnv : public ScopedEnvVar {
 public:
  explicit ScopedKernelEnv(const char* value)
      : ScopedEnvVar("MANIRANK_KERNEL", value) {}
};

/// Every precedence kernel this machine can run: the scalar reference and
/// portable bit-sliced always, AVX2 when the CPU supports it.
inline std::vector<std::string> AllPrecedenceKernels() {
  std::vector<std::string> kernels = {"scalar", "portable"};
  if (CpuSupportsAvx2()) kernels.push_back("avx2");
  return kernels;
}

/// Uniformly random ranking over n candidates.
inline Ranking RandomRanking(int n, Rng* rng) {
  std::vector<CandidateId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  return Ranking(std::move(order));
}

/// Random candidate table with the given attribute domain sizes; every
/// candidate gets uniform random values (all domains guaranteed non-empty
/// by construction for n >= sum of domain sizes is NOT enforced — groups
/// may be empty and groupings only materialise non-empty groups).
inline CandidateTable RandomTable(int n, const std::vector<int>& domain_sizes,
                                  Rng* rng) {
  std::vector<Attribute> attributes;
  for (size_t a = 0; a < domain_sizes.size(); ++a) {
    Attribute attr;
    attr.name = "attr" + std::to_string(a);
    for (int v = 0; v < domain_sizes[a]; ++v) {
      attr.values.push_back("v" + std::to_string(v));
    }
    attributes.push_back(std::move(attr));
  }
  std::vector<std::vector<AttributeValue>> values(
      n, std::vector<AttributeValue>(domain_sizes.size()));
  for (int c = 0; c < n; ++c) {
    for (size_t a = 0; a < domain_sizes.size(); ++a) {
      values[c][a] =
          static_cast<AttributeValue>(rng->NextUint64(domain_sizes[a]));
    }
  }
  return CandidateTable(std::move(attributes), std::move(values));
}

/// A two-attribute table where candidate i gets attribute values
/// (i % d0, (i / d0) % d1) — deterministic, all groups non-empty for
/// n >= d0 * d1. Delegates to the library's builder (the one behind the
/// serve protocol's CREATE..CYCLIC) so tests and server construct
/// bit-identical tables.
inline CandidateTable CyclicTable(int n, int d0, int d1) {
  return MakeCyclicTable(n, d0, d1);
}

}  // namespace manirank::testing

#endif  // MANIRANK_TESTS_TEST_UTIL_H_
