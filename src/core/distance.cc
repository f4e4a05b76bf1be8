#include "core/distance.h"

#include <atomic>
#include <cassert>

#include "util/threading.h"

namespace manirank {
namespace {

/// KendallTau(a, b) with b given as its order (n ids best-first).
///
/// Relabel: walk b top-to-bottom, mapping each candidate to its position
/// pa in a; the Kendall tau distance equals the inversions of that
/// sequence. Step t adds the t already-placed candidates minus those
/// placed above pa. `seen` marks placed positions one bit each, and
/// `word_counts` is a Fenwick tree over its words' popcounts, so "placed
/// above pa" is one prefix query over whole words plus one masked
/// popcount of pa's own word.
template <class Id>
int64_t KendallTauToOrder(const Ranking& a, const Id* b_order) {
  const int n = a.size();
  const int words = (n + 63) / 64;
  std::vector<uint64_t> seen(words, 0);
  std::vector<int32_t> word_counts(words + 1, 0);  // 1-based
  const int* position = a.positions().data();
  int64_t inversions = 0;
  for (int t = 0; t < n; ++t) {
    const int pa = position[b_order[t]];
    const int w = pa >> 6;
    const uint64_t bit = uint64_t{1} << (pa & 63);
    int64_t above = __builtin_popcountll(seen[w] & (bit - 1));
    for (int k = w; k > 0; k &= k - 1) above += word_counts[k];
    inversions += t - above;
    seen[w] |= bit;
    for (int k = w + 1; k <= words; k += k & -k) ++word_counts[k];
  }
  return inversions;
}

/// Sum over the base rankings of KendallTau(consensus, r), over pairs x |R|.
double MeanKendallTau(const RankingRun& base_rankings,
                      const Ranking& consensus) {
  if (base_rankings.empty()) return 0.0;
  const int64_t pairs = TotalPairs(consensus.size());
  if (pairs == 0) return 0.0;
  std::atomic<int64_t> total{0};
  ParallelFor(base_rankings.size(),
              [&](size_t begin, size_t end, size_t /*worker*/) {
                int64_t local = 0;
                for (size_t i = begin; i < end; ++i) {
                  base_rankings.VisitOrder(i, [&](const auto* order) {
                    local += KendallTauToOrder(consensus, order);
                  });
                }
                total.fetch_add(local, std::memory_order_relaxed);
              });
  return static_cast<double>(total.load()) /
         (static_cast<double>(pairs) *
          static_cast<double>(base_rankings.size()));
}

}  // namespace

int64_t KendallTau(const Ranking& a, const Ranking& b) {
  assert(a.size() == b.size());
  return KendallTauToOrder(a, b.order().data());
}

int64_t KendallTauBruteForce(const Ranking& a, const Ranking& b) {
  assert(a.size() == b.size());
  const int n = a.size();
  int64_t count = 0;
  for (CandidateId i = 0; i < n; ++i) {
    for (CandidateId j = i + 1; j < n; ++j) {
      if (a.Prefers(i, j) != b.Prefers(i, j)) ++count;
    }
  }
  return count;
}

double NormalizedKendallTau(const Ranking& a, const Ranking& b) {
  const int64_t pairs = TotalPairs(a.size());
  if (pairs == 0) return 0.0;
  return static_cast<double>(KendallTau(a, b)) / static_cast<double>(pairs);
}

double PdLoss(const std::vector<Ranking>& base_rankings,
              const Ranking& consensus) {
  return MeanKendallTau(base_rankings, consensus);
}

double PdLoss(const RankingRun& base_rankings, const Ranking& consensus) {
  return MeanKendallTau(base_rankings, consensus);
}

double PriceOfFairness(const std::vector<Ranking>& base_rankings,
                       const Ranking& fair_consensus,
                       const Ranking& unfair_consensus) {
  return PdLoss(base_rankings, fair_consensus) -
         PdLoss(base_rankings, unfair_consensus);
}

}  // namespace manirank
