#ifndef MANIRANK_CORE_FAIRNESS_METRICS_H_
#define MANIRANK_CORE_FAIRNESS_METRICS_H_

#include <vector>

#include "core/candidate_table.h"
#include "core/profile.h"
#include "core/ranking.h"

namespace manirank {

/// Favored Pair Representation (Definition 4): for every group of the
/// grouping, the fraction of its mixed pairs in which the group's member is
/// ranked above the outsider. 0.5 is statistical parity; computed for all
/// groups in one O(n + #groups) pass.
///
/// A group covering the whole database has no mixed pairs; its FPR is
/// defined as 0.5 (vacuously fair).
std::vector<double> GroupFpr(const Ranking& ranking, const Grouping& grouping);

/// Favored-pair counts (FPR numerators) for every group; FPR multiplied by
/// MixedPairs(|G|, n). Exposed for incremental engines and tests.
std::vector<int64_t> GroupFavoredPairs(const Ranking& ranking,
                                       const Grouping& grouping);

/// Attribute Rank Parity (Definition 5) / Intersectional Rank Parity
/// (Definition 6): the maximum absolute FPR difference over all pairs of
/// groups in the grouping. 0 when fewer than two groups exist.
double RankParity(const Ranking& ranking, const Grouping& grouping);

/// Max - min of a precomputed FPR vector (the pair maximising |FPR_i -
/// FPR_j| is always the (max, min) pair).
double RankParityFromFpr(const std::vector<double>& fpr);

/// Per-grouping fairness thresholds for MANI-Rank (Definition 7). The
/// default models the paper's single Delta; per-attribute and intersection
/// thresholds support the "Customizing Group Fairness" extension of §II-B.
struct ManiRankThresholds {
  /// delta for attribute k (size == num_attributes).
  std::vector<double> attribute_delta;
  /// delta for the intersection.
  double intersection_delta = 0.0;

  /// The paper's common-Delta setting.
  static ManiRankThresholds Uniform(int num_attributes, double delta);

  /// Threshold for the i-th constrained grouping of `table`
  /// (attributes in order, then the intersection).
  double ForGrouping(const CandidateTable& table, int grouping_index) const;
};

/// Complete fairness evaluation of one ranking: FPR per group and
/// ARP/IRP per constrained grouping.
struct FairnessReport {
  /// Parallel to CandidateTable::constrained_groupings().
  std::vector<std::vector<double>> fpr;
  /// ARP for attributes; the last entry is the IRP when the table has
  /// more than one attribute.
  std::vector<double> parity;

  /// Largest parity score (the "least fair" grouping's ARP/IRP).
  double MaxParity() const;
  /// Largest amount by which any grouping exceeds its threshold
  /// (<= 0 when MANI-Rank is satisfied).
  double MaxViolation(const CandidateTable& table,
                      const ManiRankThresholds& thresholds) const;
};

/// Every constrained grouping's FPR and parity, from one pass over the
/// ranking; each value is bit-identical to GroupFpr / RankParity of that
/// grouping.
FairnessReport EvaluateFairness(const Ranking& ranking,
                                const CandidateTable& table);

/// EvaluateFairness of ranking `index` of `rankings`; a compact
/// Profile's row is read in place, without building a Ranking.
FairnessReport EvaluateFairness(const RankingRun& rankings, size_t index,
                                const CandidateTable& table);

/// One fairness requirement: the grouping's rank parity (ARP/IRP) must be
/// at or below `threshold`. The grouping pointer must outlive the
/// criterion (groupings owned by a CandidateTable live as long as it does;
/// subset intersections from CandidateTable::BuildSubsetIntersection are
/// owned by the caller).
struct FairnessCriterion {
  const Grouping* grouping = nullptr;
  double threshold = 0.0;
};

/// The standard MANI-Rank criteria set: one criterion per protected
/// attribute plus the full intersection (Definition 7).
std::vector<FairnessCriterion> ManiRankCriteria(
    const CandidateTable& table, const ManiRankThresholds& thresholds);
std::vector<FairnessCriterion> ManiRankCriteria(const CandidateTable& table,
                                                double delta);

/// True iff every criterion's parity is at or below its threshold.
bool SatisfiesCriteria(const Ranking& ranking,
                       const std::vector<FairnessCriterion>& criteria);

/// MANI-Rank group fairness (Definition 7): every attribute's ARP and the
/// intersection's IRP at or below delta.
bool SatisfiesManiRank(const Ranking& ranking, const CandidateTable& table,
                       double delta);
bool SatisfiesManiRank(const Ranking& ranking, const CandidateTable& table,
                       const ManiRankThresholds& thresholds);

/// Convenience: ARP of attribute `a` of the table.
double AttributeRankParity(const Ranking& ranking, const CandidateTable& table,
                           int attribute);

/// Convenience: IRP of the table's intersection.
double IntersectionRankParity(const Ranking& ranking,
                              const CandidateTable& table);

}  // namespace manirank

#endif  // MANIRANK_CORE_FAIRNESS_METRICS_H_
