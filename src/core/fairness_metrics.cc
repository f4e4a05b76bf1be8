#include "core/fairness_metrics.h"

#include <algorithm>
#include <cassert>

namespace manirank {

namespace {

/// GroupFavoredPairs over an order of n ids best-first.
template <class Id>
std::vector<int64_t> FavoredPairsOfOrder(const Id* order, int n,
                                         const Grouping& grouping) {
  const int k = grouping.num_groups();
  std::vector<int64_t> favored(k, 0);
  std::vector<int> seen(k, 0);
  for (int t = 0; t < n; ++t) {
    const int g = grouping.group_of[order[t]];
    // Candidates below position t that are NOT in g:
    //   (n - 1 - t) - (members of g not yet seen, excluding this one).
    const int members_below = grouping.group_size(g) - seen[g] - 1;
    favored[g] += (n - 1 - t) - members_below;
    ++seen[g];
  }
  return favored;
}

template <class Id>
std::vector<double> FprOfOrder(const Id* order, int n,
                               const Grouping& grouping) {
  std::vector<int64_t> favored = FavoredPairsOfOrder(order, n, grouping);
  std::vector<double> fpr(favored.size(), 0.5);
  for (size_t g = 0; g < favored.size(); ++g) {
    const int64_t denom = MixedPairs(grouping.group_size(static_cast<int>(g)), n);
    if (denom > 0) {
      fpr[g] = static_cast<double>(favored[g]) / static_cast<double>(denom);
    }
  }
  return fpr;
}

template <class Id>
FairnessReport EvaluateOrder(const Id* order, int n,
                             const CandidateTable& table) {
  FairnessReport report;
  for (const Grouping* g : table.constrained_groupings()) {
    report.fpr.push_back(FprOfOrder(order, n, *g));
    report.parity.push_back(RankParityFromFpr(report.fpr.back()));
  }
  return report;
}

}  // namespace

std::vector<int64_t> GroupFavoredPairs(const Ranking& ranking,
                                       const Grouping& grouping) {
  return FavoredPairsOfOrder(ranking.order().data(), ranking.size(), grouping);
}

std::vector<double> GroupFpr(const Ranking& ranking,
                             const Grouping& grouping) {
  return FprOfOrder(ranking.order().data(), ranking.size(), grouping);
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
