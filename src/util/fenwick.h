#ifndef MANIRANK_UTIL_FENWICK_H_
#define MANIRANK_UTIL_FENWICK_H_

#include <cstdint>
#include <vector>

namespace manirank {

/// Fenwick (binary indexed) tree over `int64_t` counts.
///
/// Supports point update and prefix-sum query in O(log n). Used by the
/// Mallows sampler, which claims the k-th free slot of a ranking through
/// LowerBound.
class Fenwick {
 public:
  Fenwick() = default;
  explicit Fenwick(size_t n) : tree_(n + 1, 0) {}

  size_t size() const { return tree_.empty() ? 0 : tree_.size() - 1; }

  /// Adds `delta` at 0-based index `i`.
  void Add(size_t i, int64_t delta) {
    for (size_t k = i + 1; k < tree_.size(); k += k & (~k + 1)) {
      tree_[k] += delta;
    }
  }

  /// Sum of entries in [0, i) (0-based, exclusive upper bound).
  int64_t PrefixSum(size_t i) const {
    int64_t sum = 0;
    if (i > size()) i = size();
    for (size_t k = i; k > 0; k -= k & (~k + 1)) sum += tree_[k];
    return sum;
  }

  /// Sum of entries in [lo, hi) (0-based half-open range).
  int64_t RangeSum(size_t lo, size_t hi) const {
    if (hi <= lo) return 0;
    return PrefixSum(hi) - PrefixSum(lo);
  }

  /// Total sum of all entries.
  int64_t Total() const { return PrefixSum(size()); }

  /// Smallest index i such that PrefixSum(i + 1) >= target, assuming all
  /// entries are non-negative. Returns size() if total < target.
  /// O(log n); used to locate the k-th member of a group by position.
  size_t LowerBound(int64_t target) const {
    size_t pos = 0;
    size_t mask = 1;
    while (mask * 2 <= size()) mask *= 2;
    int64_t remaining = target;
    for (; mask > 0; mask /= 2) {
      size_t next = pos + mask;
      if (next <= size() && tree_[next] < remaining) {
        pos = next;
        remaining -= tree_[next];
      }
    }
    return pos;  // 0-based index of the element that reaches `target`.
  }

 private:
  std::vector<int64_t> tree_;
};

}  // namespace manirank

#endif  // MANIRANK_UTIL_FENWICK_H_
