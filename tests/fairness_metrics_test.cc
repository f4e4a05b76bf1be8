#include "core/fairness_metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "core/profile.h"
#include "test_util.h"
#include "util/rng.h"

namespace manirank {
namespace {

/// O(n^2) FPR reference: count favored mixed pairs directly from the
/// definition (Definition 4).
std::vector<double> FprBruteForce(const Ranking& r, const Grouping& g) {
  const int n = r.size();
  std::vector<double> fpr(g.num_groups(), 0.5);
  for (int gi = 0; gi < g.num_groups(); ++gi) {
    int64_t favored = 0;
    for (CandidateId a : g.members[gi]) {
      for (CandidateId b = 0; b < n; ++b) {
        if (g.group_of[b] != gi && r.Prefers(a, b)) ++favored;
      }
    }
    const int64_t denom = MixedPairs(g.group_size(gi), n);
    if (denom > 0) fpr[gi] = static_cast<double>(favored) / denom;
  }
  return fpr;
}

CandidateTable BinaryTable(int n) {
  // Candidates 0..n/2-1 in group "a0", the rest in "a1".
  std::vector<Attribute> attrs = {{"G", {"a0", "a1"}}};
  std::vector<std::vector<AttributeValue>> values(n, std::vector<AttributeValue>(1));
  for (int c = 0; c < n; ++c) values[c][0] = c < n / 2 ? 0 : 1;
  return CandidateTable(std::move(attrs), std::move(values));
}

TEST(FprTest, GroupAtTopHasFprOne) {
  CandidateTable t = BinaryTable(8);  // group 0 = candidates 0..3
  Ranking r = Ranking::Identity(8);   // group 0 occupies the top half
  std::vector<double> fpr = GroupFpr(r, t.attribute_grouping(0));
  EXPECT_DOUBLE_EQ(fpr[0], 1.0);
  EXPECT_DOUBLE_EQ(fpr[1], 0.0);
}

TEST(FprTest, GroupAtBottomHasFprZero) {
  CandidateTable t = BinaryTable(8);
  Ranking r = Ranking::Identity(8).Reversed();
  std::vector<double> fpr = GroupFpr(r, t.attribute_grouping(0));
  EXPECT_DOUBLE_EQ(fpr[0], 0.0);
  EXPECT_DOUBLE_EQ(fpr[1], 1.0);
}

TEST(FprTest, PerfectlyInterleavedIsNearHalf) {
  // Alternating groups: 0,4,1,5,2,6,3,7 -> FPR close to 0.5 each.
  CandidateTable t = BinaryTable(8);
  Ranking r({0, 4, 1, 5, 2, 6, 3, 7});
  std::vector<double> fpr = GroupFpr(r, t.attribute_grouping(0));
  EXPECT_NEAR(fpr[0], 0.5, 0.2);
  EXPECT_NEAR(fpr[1], 0.5, 0.2);
  EXPECT_NEAR(fpr[0] + fpr[1], 1.0, 1e-12);  // binary complement
}

TEST(FprTest, BinaryGroupsAreComplementary) {
  // For two groups, every mixed pair favors exactly one of them and the
  // denominators coincide, so FPR_0 + FPR_1 == 1.
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    CandidateTable t = BinaryTable(10);
    Ranking r = testing::RandomRanking(10, &rng);
    std::vector<double> fpr = GroupFpr(r, t.attribute_grouping(0));
    EXPECT_NEAR(fpr[0] + fpr[1], 1.0, 1e-12);
  }
}

TEST(FprTest, SingleGroupIsVacuouslyFair) {
  std::vector<Attribute> attrs = {{"G", {"only"}}};
  std::vector<std::vector<AttributeValue>> values(5, {0});
  CandidateTable t(std::move(attrs), std::move(values));
  Ranking r = Ranking::Identity(5);
  std::vector<double> fpr = GroupFpr(r, t.attribute_grouping(0));
  ASSERT_EQ(fpr.size(), 1u);
  EXPECT_DOUBLE_EQ(fpr[0], 0.5);
  EXPECT_DOUBLE_EQ(RankParity(r, t.attribute_grouping(0)), 0.0);
}

TEST(ArpTest, ExtremesReachOne) {
  CandidateTable t = BinaryTable(6);
  EXPECT_DOUBLE_EQ(RankParity(Ranking::Identity(6), t.attribute_grouping(0)),
                   1.0);
}

TEST(ArpTest, MatchesMaxPairwiseGap) {
  Rng rng(11);
  CandidateTable t = testing::CyclicTable(24, 3, 2);
  Ranking r = testing::RandomRanking(24, &rng);
  const Grouping& g = t.attribute_grouping(0);
  std::vector<double> fpr = GroupFpr(r, g);
  double max_gap = 0.0;
  for (size_t i = 0; i < fpr.size(); ++i) {
    for (size_t j = i + 1; j < fpr.size(); ++j) {
      max_gap = std::max(max_gap, std::abs(fpr[i] - fpr[j]));
    }
  }
  EXPECT_DOUBLE_EQ(RankParity(r, g), max_gap);
}

TEST(ManiRankTest, UniformThresholds) {
  ManiRankThresholds t = ManiRankThresholds::Uniform(3, 0.1);
  EXPECT_EQ(t.attribute_delta.size(), 3u);
  EXPECT_DOUBLE_EQ(t.attribute_delta[1], 0.1);
  EXPECT_DOUBLE_EQ(t.intersection_delta, 0.1);
}

TEST(ManiRankTest, SatisfiedAtDeltaOneAlways) {
  Rng rng(7);
  CandidateTable t = testing::CyclicTable(20, 2, 3);
  Ranking r = testing::RandomRanking(20, &rng);
  EXPECT_TRUE(SatisfiesManiRank(r, t, 1.0));
}

TEST(ManiRankTest, ViolatedByFullySegregatedRanking) {
  CandidateTable t = BinaryTable(10);
  EXPECT_FALSE(SatisfiesManiRank(Ranking::Identity(10), t, 0.5));
}

TEST(ManiRankTest, PerAttributeThresholds) {
  CandidateTable t = testing::CyclicTable(12, 2, 2);
  Ranking r = Ranking::Identity(12);
  FairnessReport report = EvaluateFairness(r, t);
  // Pick thresholds exactly at the observed parities: satisfied.
  ManiRankThresholds exact;
  exact.attribute_delta = {report.parity[0], report.parity[1]};
  exact.intersection_delta = report.parity[2];
  EXPECT_TRUE(SatisfiesManiRank(r, t, exact));
  // Tighten one attribute below its parity: violated (if parity > 0).
  if (report.parity[0] > 0.01) {
    exact.attribute_delta[0] = report.parity[0] - 0.01;
    EXPECT_FALSE(SatisfiesManiRank(r, t, exact));
  }
}

TEST(FairnessReportTest, ConvenienceAccessorsAgree) {
  Rng rng(13);
  CandidateTable t = testing::CyclicTable(18, 3, 3);
  Ranking r = testing::RandomRanking(18, &rng);
  FairnessReport report = EvaluateFairness(r, t);
  ASSERT_EQ(report.parity.size(), 3u);
  EXPECT_DOUBLE_EQ(report.parity[0], AttributeRankParity(r, t, 0));
  EXPECT_DOUBLE_EQ(report.parity[1], AttributeRankParity(r, t, 1));
  EXPECT_DOUBLE_EQ(report.parity[2], IntersectionRankParity(r, t));
  EXPECT_DOUBLE_EQ(report.MaxParity(),
                   std::max({report.parity[0], report.parity[1],
                             report.parity[2]}));
}

struct FprPropertyParam {
  int n;
  int d0, d1;
  uint64_t seed;
};

class FprPropertyTest : public ::testing::TestWithParam<FprPropertyParam> {};

TEST_P(FprPropertyTest, FastPassMatchesBruteForce) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  CandidateTable t = testing::RandomTable(p.n, {p.d0, p.d1}, &rng);
  for (int trial = 0; trial < 10; ++trial) {
    Ranking r = testing::RandomRanking(p.n, &rng);
    for (const Grouping* g : t.constrained_groupings()) {
      std::vector<double> fast = GroupFpr(r, *g);
      std::vector<double> slow = FprBruteForce(r, *g);
      ASSERT_EQ(fast.size(), slow.size());
      for (size_t i = 0; i < fast.size(); ++i) {
        ASSERT_NEAR(fast[i], slow[i], 1e-12);
      }
    }
  }
}

TEST_P(FprPropertyTest, FprWithinUnitInterval) {
  const auto& p = GetParam();
  Rng rng(p.seed + 1);
  CandidateTable t = testing::RandomTable(p.n, {p.d0, p.d1}, &rng);
  for (int trial = 0; trial < 10; ++trial) {
    Ranking r = testing::RandomRanking(p.n, &rng);
    for (const Grouping* g : t.constrained_groupings()) {
      for (double f : GroupFpr(r, *g)) {
        ASSERT_GE(f, 0.0);
        ASSERT_LE(f, 1.0);
      }
    }
  }
}

TEST_P(FprPropertyTest, FavoredPairsSumToMixedPairCount) {
  // Every mixed pair is favored for exactly one of its two groups, so the
  // favored counts of a grouping sum to its total number of mixed pairs.
  const auto& p = GetParam();
  Rng rng(p.seed + 2);
  CandidateTable t = testing::RandomTable(p.n, {p.d0, p.d1}, &rng);
  Ranking r = testing::RandomRanking(p.n, &rng);
  for (const Grouping* g : t.constrained_groupings()) {
    std::vector<int64_t> favored = GroupFavoredPairs(r, *g);
    int64_t total_favored = std::accumulate(favored.begin(), favored.end(),
                                            static_cast<int64_t>(0));
    // Total mixed pairs: all pairs minus the same-group pairs.
    int64_t same_group = 0;
    for (int gi = 0; gi < g->num_groups(); ++gi) {
      same_group += TotalPairs(g->group_size(gi));
    }
    EXPECT_EQ(total_favored, TotalPairs(p.n) - same_group) << g->name;
  }
}

TEST_P(FprPropertyTest, ReversalMirrorsFprAroundHalf) {
  // Reversing the ranking swaps winners and losers of every mixed pair:
  // FPR_rev = 1 - FPR (for groups with at least one mixed pair).
  const auto& p = GetParam();
  Rng rng(p.seed + 3);
  CandidateTable t = testing::RandomTable(p.n, {p.d0, p.d1}, &rng);
  Ranking r = testing::RandomRanking(p.n, &rng);
  Ranking rev = r.Reversed();
  for (const Grouping* g : t.constrained_groupings()) {
    std::vector<double> fpr = GroupFpr(r, *g);
    std::vector<double> fpr_rev = GroupFpr(rev, *g);
    for (size_t i = 0; i < fpr.size(); ++i) {
      if (g->group_size(static_cast<int>(i)) < p.n) {
        ASSERT_NEAR(fpr_rev[i], 1.0 - fpr[i], 1e-12);
      }
    }
    // Parity is invariant under reversal.
    ASSERT_NEAR(RankParityFromFpr(fpr), RankParityFromFpr(fpr_rev), 1e-12);
  }
}

/// Doubles compared as bytes: EvaluateFairness's one pass over every
/// grouping must reproduce the per-grouping path exactly, not merely
/// within a tolerance.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const FairnessReport& a, const FairnessReport& b) {
  if (a.fpr.size() != b.fpr.size() || !SameBits(a.parity, b.parity)) {
    return false;
  }
  for (size_t i = 0; i < a.fpr.size(); ++i) {
    if (!SameBits(a.fpr[i], b.fpr[i])) return false;
  }
  return true;
}

/// `report` against GroupFpr / RankParity of each constrained grouping,
/// and (when `brute_force`) against the O(n^2) favored-pair definition.
void ExpectMatchesPerGrouping(const FairnessReport& report, const Ranking& r,
                              const CandidateTable& t, bool brute_force) {
  const std::vector<const Grouping*> groupings = t.constrained_groupings();
  ASSERT_EQ(report.fpr.size(), groupings.size());
  ASSERT_EQ(report.parity.size(), groupings.size());
  for (size_t i = 0; i < groupings.size(); ++i) {
    const Grouping& g = *groupings[i];
    EXPECT_TRUE(SameBits(report.fpr[i], GroupFpr(r, g))) << g.name;
    EXPECT_TRUE(SameBits(report.parity[i], RankParity(r, g))) << g.name;
    if (brute_force) {
      EXPECT_TRUE(SameBits(report.fpr[i], FprBruteForce(r, g))) << g.name;
    }
  }
}

/// A two-attribute table whose intersection leaves the cell (1, 1)
/// empty: candidates cycle through (0,0), (0,1), (1,0) only.
CandidateTable TableWithEmptyIntersectionCell(int n) {
  std::vector<Attribute> attrs = {{"A", {"a0", "a1"}}, {"B", {"b0", "b1"}}};
  std::vector<std::vector<AttributeValue>> values(n);
  for (int c = 0; c < n; ++c) {
    values[c] = {static_cast<AttributeValue>(c % 3 == 2),
                 static_cast<AttributeValue>(c % 3 == 1)};
  }
  return CandidateTable(std::move(attrs), std::move(values));
}

TEST(EvaluateFairnessTest, OnePassMatchesPerGroupingBitForBit) {
  Rng rng(2024);
  // Small sizes, where some groups are empty or single, and sizes
  // around multiples of 64.
  for (int n : {1, 2, 3, 4, 5, 7, 63, 64, 65, 129, 300}) {
    std::vector<CandidateTable> tables;
    tables.push_back(BinaryTable(n));  // q = 1: no intersection entry
    tables.push_back(testing::CyclicTable(n, 2, 3));
    tables.push_back(testing::RandomTable(n, {3, 4}, &rng));
    tables.push_back(testing::RandomTable(n, {2, 2, 3}, &rng));
    tables.push_back(TableWithEmptyIntersectionCell(n));
    for (const CandidateTable& t : tables) {
      for (int trial = 0; trial < 3; ++trial) {
        const Ranking r = testing::RandomRanking(n, &rng);
        SCOPED_TRACE("n=" + std::to_string(n) + " q=" +
                     std::to_string(t.num_attributes()));
        ExpectMatchesPerGrouping(EvaluateFairness(r, t), r, t, true);
      }
    }
  }
}

TEST(EvaluateFairnessTest, SingleAttributeAndEmptyCellShapes) {
  Rng rng(7);
  const CandidateTable single = BinaryTable(10);
  EXPECT_EQ(EvaluateFairness(Ranking::Identity(10), single).fpr.size(), 1u);
  // The empty (1, 1) cell is not materialised: three intersection groups.
  const CandidateTable holed = TableWithEmptyIntersectionCell(9);
  ASSERT_EQ(holed.intersection_grouping().num_groups(), 3);
  const FairnessReport report =
      EvaluateFairness(testing::RandomRanking(9, &rng), holed);
  ASSERT_EQ(report.fpr.size(), 3u);
  EXPECT_EQ(report.fpr.back().size(), 3u);
  // n = 1: every group covers the database, so every FPR is 0.5.
  const FairnessReport lone =
      EvaluateFairness(Ranking::Identity(1), testing::CyclicTable(1, 2, 3));
  for (const std::vector<double>& fpr : lone.fpr) {
    EXPECT_EQ(fpr, std::vector<double>{0.5});
  }
}

TEST(EvaluateFairnessTest, ProfileRowsMatchMaterializedRankings) {
  Rng rng(99);
  // 2-byte rows (n <= 65535) and 4-byte rows (n > 65535).
  for (int n : {65, Profile::kMaxNarrowCandidates + 65}) {
    const CandidateTable t = testing::CyclicTable(n, 2, 3);
    std::vector<Ranking> rankings;
    for (int i = 0; i < 3; ++i) {
      rankings.push_back(testing::RandomRanking(n, &rng));
    }
    const Profile profile(rankings);
    ASSERT_EQ(profile.id_bytes(), n > Profile::kMaxNarrowCandidates ? 4u : 2u);
    for (size_t i = 0; i < rankings.size(); ++i) {
      const FairnessReport from_row = EvaluateFairness(profile, i, t);
      EXPECT_TRUE(SameBits(from_row, EvaluateFairness(rankings[i], t)))
          << "n=" << n << " ranking " << i;
      ExpectMatchesPerGrouping(from_row, rankings[i], t, n <= 65);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FprPropertyTest,
    ::testing::Values(FprPropertyParam{6, 2, 2, 100},
                      FprPropertyParam{15, 3, 2, 200},
                      FprPropertyParam{30, 5, 3, 300},
                      FprPropertyParam{45, 5, 3, 400},
                      FprPropertyParam{12, 4, 3, 500}));

}  // namespace
}  // namespace manirank
