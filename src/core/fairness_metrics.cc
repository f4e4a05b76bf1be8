#include "core/fairness_metrics.h"

#include <algorithm>
#include <cassert>

namespace manirank {

namespace {

/// Favored-pair counts (FPR numerators) of every group of every grouping
/// in `groupings`, from one pass over an order of n ids best-first,
/// grouping-major: groupings[0]'s groups first, then groupings[1]'s, ...
///
/// The member of g at position t ranks above the n - 1 - t candidates
/// below it. The pairs among g's own members are not mixed, and summed
/// over g's members they number exactly C(|g|, 2), so
///   favored[g] = sum over members of (n - 1 - t)  -  C(|g|, 2).
template <class Id>
std::vector<int64_t> FavoredPairsOfOrder(const Id* order, int n,
                                         const Grouping* const* groupings,
                                         size_t count) {
  std::vector<const int*> group_of(count);
  std::vector<size_t> first(count + 1, 0);  // first group's flat index
  for (size_t k = 0; k < count; ++k) {
    group_of[k] = groupings[k]->group_of.data();
    first[k + 1] = first[k] + static_cast<size_t>(groupings[k]->num_groups());
  }
  std::vector<int64_t> favored(first[count], 0);
  for (int t = 0; t < n; ++t) {
    const size_t c = static_cast<size_t>(order[t]);
    const int64_t below = n - 1 - t;
    for (size_t k = 0; k < count; ++k) {
      favored[first[k] + static_cast<size_t>(group_of[k][c])] += below;
    }
  }
  for (size_t k = 0; k < count; ++k) {
    for (int g = 0; g < groupings[k]->num_groups(); ++g) {
      favored[first[k] + static_cast<size_t>(g)] -=
          TotalPairs(groupings[k]->group_size(g));
    }
  }
  return favored;
}

/// FPR of each group of `grouping` from its favored-pair counts.
std::vector<double> FprFromFavored(const int64_t* favored, int n,
                                   const Grouping& grouping) {
  std::vector<double> fpr(grouping.num_groups(), 0.5);
  for (int g = 0; g < grouping.num_groups(); ++g) {
    const int64_t denom = MixedPairs(grouping.group_size(g), n);
    if (denom > 0) {
      fpr[g] = static_cast<double>(favored[g]) / static_cast<double>(denom);
    }
  }
  return fpr;
}

/// Every constrained grouping's FPR and parity from one pass over the
/// order.
template <class Id>
FairnessReport EvaluateOrder(const Id* order, int n,
                             const CandidateTable& table) {
  const std::vector<const Grouping*> groupings = table.constrained_groupings();
  const std::vector<int64_t> favored =
      FavoredPairsOfOrder(order, n, groupings.data(), groupings.size());
  FairnessReport report;
  report.fpr.reserve(groupings.size());
  report.parity.reserve(groupings.size());
  const int64_t* next = favored.data();
  for (const Grouping* g : groupings) {
    report.fpr.push_back(FprFromFavored(next, n, *g));
    report.parity.push_back(RankParityFromFpr(report.fpr.back()));
    next += g->num_groups();
  }
  return report;
}

}  // namespace

std::vector<int64_t> GroupFavoredPairs(const Ranking& ranking,
                                       const Grouping& grouping) {
  const Grouping* const groupings[] = {&grouping};
  return FavoredPairsOfOrder(ranking.order().data(), ranking.size(),
                             groupings, 1);
}

std::vector<double> GroupFpr(const Ranking& ranking,
                             const Grouping& grouping) {
  return FprFromFavored(GroupFavoredPairs(ranking, grouping).data(),
                        ranking.size(), grouping);
}

double RankParityFromFpr(const std::vector<double>& fpr) {
  if (fpr.size() < 2) return 0.0;
  auto [lo, hi] = std::minmax_element(fpr.begin(), fpr.end());
  return *hi - *lo;
}

double RankParity(const Ranking& ranking, const Grouping& grouping) {
  return RankParityFromFpr(GroupFpr(ranking, grouping));
}

ManiRankThresholds ManiRankThresholds::Uniform(int num_attributes,
                                               double delta) {
  ManiRankThresholds t;
  t.attribute_delta.assign(num_attributes, delta);
  t.intersection_delta = delta;
  return t;
}

double ManiRankThresholds::ForGrouping(const CandidateTable& table,
                                       int grouping_index) const {
  if (grouping_index < table.num_attributes()) {
    return attribute_delta[grouping_index];
  }
  return intersection_delta;
}

double FairnessReport::MaxParity() const {
  double worst = 0.0;
  for (double p : parity) worst = std::max(worst, p);
  return worst;
}

double FairnessReport::MaxViolation(const CandidateTable& table,
                                    const ManiRankThresholds& thresholds) const {
  double worst = -1.0;
  for (size_t i = 0; i < parity.size(); ++i) {
    worst = std::max(
        worst, parity[i] - thresholds.ForGrouping(table, static_cast<int>(i)));
  }
  return worst;
}

FairnessReport EvaluateFairness(const Ranking& ranking,
                                const CandidateTable& table) {
  return EvaluateOrder(ranking.order().data(), ranking.size(), table);
}

FairnessReport EvaluateFairness(const RankingRun& rankings, size_t index,
                                const CandidateTable& table) {
  FairnessReport report;
  rankings.VisitOrder(index, [&](const auto* order) {
    report = EvaluateOrder(order, table.num_candidates(), table);
  });
  return report;
}

bool SatisfiesManiRank(const Ranking& ranking, const CandidateTable& table,
                       double delta) {
  return SatisfiesManiRank(
      ranking, table,
      ManiRankThresholds::Uniform(table.num_attributes(), delta));
}

std::vector<FairnessCriterion> ManiRankCriteria(
    const CandidateTable& table, const ManiRankThresholds& thresholds) {
  std::vector<FairnessCriterion> criteria;
  const auto groupings = table.constrained_groupings();
  for (size_t i = 0; i < groupings.size(); ++i) {
    criteria.push_back(
        {groupings[i], thresholds.ForGrouping(table, static_cast<int>(i))});
  }
  return criteria;
}

std::vector<FairnessCriterion> ManiRankCriteria(const CandidateTable& table,
                                                double delta) {
  return ManiRankCriteria(
      table, ManiRankThresholds::Uniform(table.num_attributes(), delta));
}

bool SatisfiesCriteria(const Ranking& ranking,
                       const std::vector<FairnessCriterion>& criteria) {
  for (const FairnessCriterion& c : criteria) {
    if (RankParity(ranking, *c.grouping) > c.threshold + 1e-12) return false;
  }
  return true;
}

bool SatisfiesManiRank(const Ranking& ranking, const CandidateTable& table,
                       const ManiRankThresholds& thresholds) {
  const auto& groupings = table.constrained_groupings();
  for (size_t i = 0; i < groupings.size(); ++i) {
    const double parity = RankParity(ranking, *groupings[i]);
    if (parity > thresholds.ForGrouping(table, static_cast<int>(i)) + 1e-12) {
      return false;
    }
  }
  return true;
}

double AttributeRankParity(const Ranking& ranking, const CandidateTable& table,
                           int attribute) {
  return RankParity(ranking, table.attribute_grouping(attribute));
}

double IntersectionRankParity(const Ranking& ranking,
                              const CandidateTable& table) {
  return RankParity(ranking, table.intersection_grouping());
}

}  // namespace manirank
