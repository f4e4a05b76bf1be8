#ifndef MANIRANK_CORE_AGGREGATORS_H_
#define MANIRANK_CORE_AGGREGATORS_H_

#include <vector>

#include "core/precedence.h"
#include "core/ranking.h"

namespace manirank {

/// Borda count: candidates ordered by total points, where a candidate's
/// points in each base ranking equal the number of candidates ranked below
/// it. O(n |R|); the fastest Kemeny approximation (Ali & Meila 2012).
/// Ties broken by candidate id (deterministic).
Ranking BordaAggregate(const std::vector<Ranking>& base_rankings);

/// Borda with precomputed per-candidate total points (for streaming use by
/// the large-scale harnesses; points[c] = sum over rankings of
/// (n - 1 - position)).
Ranking BordaFromPoints(const std::vector<int64_t>& points);

/// Copeland: candidates ordered by the number of pairwise contests won;
/// a tie counts as a win for both sides (paper §III-B). Ties in wins go to
/// the lower id. O(n^2) given W: one PrecedenceMatrix::ForEachPairTiled
/// pass settles each unordered pair's contest once, for both sides.
Ranking CopelandAggregate(const PrecedenceMatrix& w);

/// Schulze: candidates ordered by beat-paths. Computes strongest-path
/// strengths with the Floyd–Warshall widest-path variant on one flat
/// row-major array, then orders by the (provably transitive)
/// beats-relation p[a][b] > p[b][a]. O(n^3).
Ranking SchulzeAggregate(const PrecedenceMatrix& w);

/// Strongest-path strength matrix used by Schulze; exposed for tests.
std::vector<std::vector<double>> SchulzeStrongestPaths(
    const PrecedenceMatrix& w);

/// Pick-A-Perm (Schalekamp & van Zuylen 2009): returns the index of the
/// base ranking with the lowest Kemeny cost against the whole profile
/// (a 2-approximation of Kemeny).
size_t PickAPermIndex(const std::vector<Ranking>& base_rankings,
                      const PrecedenceMatrix& w);

}  // namespace manirank

#endif  // MANIRANK_CORE_AGGREGATORS_H_
