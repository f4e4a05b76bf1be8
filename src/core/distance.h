#ifndef MANIRANK_CORE_DISTANCE_H_
#define MANIRANK_CORE_DISTANCE_H_

#include <cstdint>
#include <vector>

#include "core/profile.h"
#include "core/ranking.h"

namespace manirank {

/// Kendall tau distance (Definition 8): the number of candidate pairs the
/// two rankings order oppositely. O(n log n) via inversion counting.
int64_t KendallTau(const Ranking& a, const Ranking& b);

/// O(n^2) reference implementation used to validate KendallTau in tests.
int64_t KendallTauBruteForce(const Ranking& a, const Ranking& b);

/// Kendall tau divided by the number of pairs, in [0, 1].
double NormalizedKendallTau(const Ranking& a, const Ranking& b);

/// Pairwise Disagreement loss (Definition 9): the fraction of pairwise
/// preferences in the base rankings not represented by `consensus`,
///   PD(R, pi) = sum_i KT(pi, r_i) / (omega(X) |R|).
/// Parallelised over the base rankings. The RankingRun overload takes a
/// compact Profile and reads its rows in place.
double PdLoss(const std::vector<Ranking>& base_rankings,
              const Ranking& consensus);
double PdLoss(const RankingRun& base_rankings, const Ranking& consensus);

/// Price of Fairness (Eq. 13): the PD-loss increase the fair consensus pays
/// relative to the fairness-unaware consensus. Always >= 0 when the unfair
/// consensus minimises PD loss.
double PriceOfFairness(const std::vector<Ranking>& base_rankings,
                       const Ranking& fair_consensus,
                       const Ranking& unfair_consensus);

}  // namespace manirank

#endif  // MANIRANK_CORE_DISTANCE_H_
