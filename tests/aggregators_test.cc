#include "core/aggregators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/precedence.h"
#include "mallows/mallows.h"
#include "test_util.h"
#include "util/rng.h"

namespace manirank {
namespace {

std::vector<Ranking> Profile(std::vector<std::vector<CandidateId>> orders) {
  std::vector<Ranking> base;
  for (auto& o : orders) base.emplace_back(std::move(o));
  return base;
}

TEST(BordaTest, UnanimousProfile) {
  std::vector<Ranking> base = Profile({{2, 0, 1}, {2, 0, 1}, {2, 0, 1}});
  EXPECT_EQ(BordaAggregate(base), Ranking({2, 0, 1}));
}

TEST(BordaTest, PointsAreTotalCandidatesRankedBelow) {
  // base1 = [0 1 2], base2 = [1 2 0].
  // points: 0 -> 2 + 0 = 2; 1 -> 1 + 2 = 3; 2 -> 0 + 1 = 1.
  std::vector<Ranking> base = Profile({{0, 1, 2}, {1, 2, 0}});
  EXPECT_EQ(BordaAggregate(base), Ranking({1, 0, 2}));
}

TEST(BordaTest, TieBreaksByCandidateId) {
  // Two opposite rankings: all candidates tie -> identity order.
  std::vector<Ranking> base = Profile({{0, 1, 2}, {2, 1, 0}});
  EXPECT_EQ(BordaAggregate(base), Ranking({0, 1, 2}));
}

TEST(BordaTest, FromPointsMatchesAggregate) {
  Rng rng(21);
  std::vector<Ranking> base;
  const int n = 12;
  for (int i = 0; i < 9; ++i) base.push_back(testing::RandomRanking(n, &rng));
  std::vector<int64_t> points(n, 0);
  for (const Ranking& r : base) {
    for (int p = 0; p < n; ++p) points[r.At(p)] += n - 1 - p;
  }
  EXPECT_EQ(BordaFromPoints(points), BordaAggregate(base));
}

TEST(CopelandTest, CondorcetWinnerIsFirst) {
  // Candidate 1 beats everyone head-to-head.
  std::vector<Ranking> base = Profile({{1, 0, 2}, {1, 2, 0}, {0, 1, 2}});
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  EXPECT_EQ(CopelandAggregate(w).At(0), 1);
}

TEST(CopelandTest, CondorcetLoserIsLast) {
  std::vector<Ranking> base = Profile({{1, 0, 2}, {1, 2, 0}, {0, 1, 2}});
  // Candidate 2 loses to 0 (2 of 3) and to 1 (3 of 3).
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  EXPECT_EQ(CopelandAggregate(w).At(2), 2);
}

TEST(CopelandTest, TiedContestCountsAsWinForBoth) {
  // Two rankings splitting on {0,1}; candidate 2 always last.
  std::vector<Ranking> base = Profile({{0, 1, 2}, {1, 0, 2}});
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  Ranking r = CopelandAggregate(w);
  // 0 and 1 tie head-to-head (one win each) plus beat 2: both have 2 wins.
  // Tie broken by id: 0 first.
  EXPECT_EQ(r, Ranking({0, 1, 2}));
}

/// Copeland as the paper states it, one ordered pair at a time: a wins
/// against b iff at least as many rankings prefer a over b as prefer b
/// over a (a tie is a win for both); ties in wins go to the lower id.
Ranking ReferenceCopeland(const PrecedenceMatrix& w) {
  const int n = w.size();
  std::vector<int> wins(n, 0);
  for (CandidateId a = 0; a < n; ++a) {
    for (CandidateId b = 0; b < n; ++b) {
      if (a != b && w.PrefersCount(a, b) >= w.PrefersCount(b, a)) ++wins[a];
    }
  }
  std::vector<CandidateId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](CandidateId a, CandidateId b) {
    if (wins[a] != wins[b]) return wins[a] > wins[b];
    return a < b;
  });
  return Ranking(std::move(order));
}

/// Pairs (a < b) whose contest is an exact tie with at least one ranking
/// on each side.
int CountTiedContests(const PrecedenceMatrix& w) {
  int ties = 0;
  for (CandidateId a = 0; a < w.size(); ++a) {
    for (CandidateId b = a + 1; b < w.size(); ++b) {
      ties += w.W(a, b) == w.W(b, a) && w.W(a, b) > 0.0;
    }
  }
  return ties;
}

Ranking Reversed(const Ranking& r) {
  std::vector<CandidateId> order = r.order();
  std::reverse(order.begin(), order.end());
  return Ranking(std::move(order));
}

/// A dense n x n matrix of random non-negative doubles with a zero
/// diagonal; every `tie_every`-th pair is set to an exact tie.
std::vector<std::vector<double>> RandomDense(int n, int tie_every, Rng* rng) {
  std::vector<std::vector<double>> dense(n, std::vector<double>(n, 0.0));
  int pair = 0;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b, ++pair) {
      dense[a][b] = rng->NextDouble() * 10.0;
      dense[b][a] =
          pair % tie_every == 0 ? dense[a][b] : rng->NextDouble() * 10.0;
    }
  }
  return dense;
}

TEST(CopelandTest, MatchesOrderedPairReferenceOnMallowsProfiles) {
  // Sizes straddle the 64-candidate tiles of the paired traversal.
  for (int n : {1, 2, 63, 64, 65, 127, 129, 500}) {
    Rng rng(1000 + n);
    MallowsModel model(testing::RandomRanking(n, &rng), /*theta=*/0.05);
    for (size_t m : {size_t{7}, size_t{20}}) {
      PrecedenceMatrix w = PrecedenceMatrix::Build(model.SampleMany(m, n));
      ASSERT_EQ(CopelandAggregate(w), ReferenceCopeland(w))
          << "n=" << n << " m=" << m;
    }
  }
}

TEST(CopelandTest, MatchesReferenceOnTieHeavyProfiles) {
  // Even m with one ranking and its reverse: every cell is at least 1 on
  // both sides, and many contests land at exactly m/2 (a win for both).
  for (int n : {3, 64, 65, 129}) {
    Rng rng(2000 + n);
    const Ranking r = testing::RandomRanking(n, &rng);
    std::vector<Ranking> base = {r, Reversed(r)};
    for (int i = 0; i < 4; ++i) base.push_back(testing::RandomRanking(n, &rng));
    PrecedenceMatrix w = PrecedenceMatrix::Build(base);
    ASSERT_GT(CountTiedContests(w), 0) << "n=" << n;
    ASSERT_EQ(CopelandAggregate(w), ReferenceCopeland(w)) << "n=" << n;
    // Only a ranking and its reverse: every contest ties, so every
    // candidate has n - 1 wins and the id order breaks the tie.
    PrecedenceMatrix all_tied = PrecedenceMatrix::Build({r, Reversed(r)});
    ASSERT_EQ(CopelandAggregate(all_tied), Ranking::Identity(n)) << "n=" << n;
  }
}

TEST(CopelandTest, MatchesReferenceAfterAddRemoveInterleaving) {
  const int n = 130;
  Rng rng(3000);
  MallowsModel model(testing::RandomRanking(n, &rng), /*theta=*/0.02);
  std::vector<Ranking> pool = model.SampleMany(80, 3001);
  PrecedenceMatrix w = PrecedenceMatrix::Build(
      std::vector<Ranking>(pool.begin(), pool.begin() + 10));
  ASSERT_EQ(CopelandAggregate(w), ReferenceCopeland(w));
  w.AddRanking(pool[10]);
  w.AddRankingsBatch(pool.data() + 11, 64);
  ASSERT_EQ(CopelandAggregate(w), ReferenceCopeland(w));
  w.RemoveRanking(pool[3]);
  w.RemoveRankingsBatch(pool.data() + 20, 30);
  ASSERT_EQ(CopelandAggregate(w), ReferenceCopeland(w));
  w.AddRanking(pool[75]);
  w.RemoveRanking(pool[10]);
  ASSERT_EQ(CopelandAggregate(w), ReferenceCopeland(w));
}

TEST(CopelandTest, MatchesReferenceOnWeightedAndDenseMatrices) {
  for (int n : {5, 64, 65, 130}) {
    Rng rng(4000 + n);
    MallowsModel model(testing::RandomRanking(n, &rng), /*theta=*/0.1);
    std::vector<Ranking> base = model.SampleMany(9, 4001);
    std::vector<double> weights(base.size());
    for (double& weight : weights) weight = rng.NextDouble() * 3.0;
    // Tied weights on a ranking and its reverse leave fractional ties.
    base.push_back(base[0]);
    base.push_back(Reversed(base[0]));
    weights.push_back(0.375);
    weights.push_back(0.375);
    PrecedenceMatrix weighted = PrecedenceMatrix::BuildWeighted(base, weights);
    ASSERT_EQ(CopelandAggregate(weighted), ReferenceCopeland(weighted))
        << "n=" << n;
    PrecedenceMatrix dense(RandomDense(n, /*tie_every=*/3, &rng));
    ASSERT_GT(CountTiedContests(dense), 0) << "n=" << n;
    ASSERT_EQ(CopelandAggregate(dense), ReferenceCopeland(dense))
        << "n=" << n;
  }
}

TEST(SchulzeTest, UnanimousProfile) {
  std::vector<Ranking> base = Profile({{3, 1, 0, 2}, {3, 1, 0, 2}});
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  EXPECT_EQ(SchulzeAggregate(w), Ranking({3, 1, 0, 2}));
}

TEST(SchulzeTest, CondorcetWinnerWins) {
  Rng rng(31);
  // Build a profile with a planted Condorcet winner: candidate 4 first in
  // two thirds of rankings.
  std::vector<Ranking> base;
  const int n = 6;
  for (int i = 0; i < 9; ++i) {
    Ranking r = testing::RandomRanking(n, &rng);
    if (i % 3 != 0) r.SwapPositions(0, r.PositionOf(4));
    base.push_back(r);
  }
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  EXPECT_EQ(SchulzeAggregate(w).At(0), 4);
}

TEST(SchulzeTest, WikipediaStyleExample) {
  // Classic 45-voter Schulze example (5 candidates A..E = 0..4); the
  // Schulze ranking is E > A > C > B > D.
  struct Block {
    int count;
    std::vector<CandidateId> order;
  };
  std::vector<Block> blocks = {
      {5, {0, 2, 1, 4, 3}}, {5, {0, 3, 4, 2, 1}}, {8, {1, 4, 3, 0, 2}},
      {3, {2, 0, 1, 4, 3}}, {7, {2, 0, 4, 1, 3}}, {2, {2, 1, 0, 3, 4}},
      {7, {3, 2, 4, 1, 0}}, {8, {4, 1, 0, 3, 2}},
  };
  std::vector<Ranking> base;
  for (const Block& b : blocks) {
    for (int i = 0; i < b.count; ++i) base.emplace_back(b.order);
  }
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  EXPECT_EQ(SchulzeAggregate(w), Ranking({4, 0, 2, 1, 3}));
}

TEST(SchulzeTest, StrongestPathsDominateDirectStrength) {
  Rng rng(41);
  std::vector<Ranking> base;
  for (int i = 0; i < 11; ++i) base.push_back(testing::RandomRanking(7, &rng));
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  auto p = SchulzeStrongestPaths(w);
  for (int a = 0; a < 7; ++a) {
    for (int b = 0; b < 7; ++b) {
      if (a == b) continue;
      const double direct = w.PrefersCount(a, b) > w.PrefersCount(b, a)
                                ? w.PrefersCount(a, b)
                                : 0.0;
      EXPECT_GE(p[a][b], direct);
      // Widest-path optimality: no intermediate improves further.
      for (int c = 0; c < 7; ++c) {
        if (c == a || c == b) continue;
        EXPECT_GE(p[a][b], std::min(p[a][c], p[c][b]) - 1e-9);
      }
    }
  }
}

/// Schulze on nested vectors, one ordered pair at a time: majority edges,
/// then the Floyd-Warshall widest-path closure.
std::vector<std::vector<double>> ReferenceStrongestPaths(
    const PrecedenceMatrix& w) {
  const int n = w.size();
  std::vector<std::vector<double>> p(n, std::vector<double>(n, 0.0));
  for (CandidateId a = 0; a < n; ++a) {
    for (CandidateId b = 0; b < n; ++b) {
      if (a == b) continue;
      const double d_ab = w.PrefersCount(a, b);
      p[a][b] = d_ab > w.PrefersCount(b, a) ? d_ab : 0.0;
    }
  }
  for (int c = 0; c < n; ++c) {
    for (int a = 0; a < n; ++a) {
      if (a == c || p[a][c] == 0.0) continue;
      for (int b = 0; b < n; ++b) {
        if (b == a || b == c) continue;
        const double via = std::min(p[a][c], p[c][b]);
        if (via > p[a][b]) p[a][b] = via;
      }
    }
  }
  return p;
}

/// Orders by beat-path wins, then the direct beat-path comparison, then id.
Ranking ReferenceSchulze(const PrecedenceMatrix& w) {
  const int n = w.size();
  const std::vector<std::vector<double>> p = ReferenceStrongestPaths(w);
  std::vector<int> wins(n, 0);
  for (CandidateId a = 0; a < n; ++a) {
    for (CandidateId b = 0; b < n; ++b) {
      if (a != b && p[a][b] > p[b][a]) ++wins[a];
    }
  }
  std::vector<CandidateId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](CandidateId a, CandidateId b) {
    if (wins[a] != wins[b]) return wins[a] > wins[b];
    if (p[a][b] != p[b][a]) return p[a][b] > p[b][a];
    return a < b;
  });
  return Ranking(std::move(order));
}

TEST(SchulzeTest, MatchesNestedVectorReferenceOnRandomProfiles) {
  for (int n : {5, 65, 130}) {
    Rng rng(5000 + n);
    // Uniform profiles give many Condorcet cycles, so the closure matters;
    // even m adds exact ties that the majority edges must drop.
    std::vector<Ranking> base;
    for (int i = 0; i < 10; ++i) base.push_back(testing::RandomRanking(n, &rng));
    MallowsModel model(testing::RandomRanking(n, &rng), /*theta=*/0.05);
    for (const PrecedenceMatrix& w :
         {PrecedenceMatrix::Build(base),
          PrecedenceMatrix::Build(model.SampleMany(11, 5001)),
          PrecedenceMatrix(RandomDense(n, /*tie_every=*/4, &rng))}) {
      ASSERT_EQ(SchulzeStrongestPaths(w), ReferenceStrongestPaths(w))
          << "n=" << n;
      ASSERT_EQ(SchulzeAggregate(w), ReferenceSchulze(w)) << "n=" << n;
    }
  }
}

TEST(PickAPermTest, SelectsProfileMemberWithMinimalCost) {
  Rng rng(51);
  std::vector<Ranking> base;
  for (int i = 0; i < 8; ++i) base.push_back(testing::RandomRanking(10, &rng));
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  size_t pick = PickAPermIndex(base, w);
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_LE(w.KemenyCost(base[pick]), w.KemenyCost(base[i]) + 1e-9);
  }
}

class AggregatorConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggregatorConsistencyTest, AllMethodsReturnValidPermutations) {
  Rng rng(GetParam());
  const int n = 5 + static_cast<int>(rng.NextUint64(20));
  std::vector<Ranking> base;
  for (int i = 0; i < 7; ++i) base.push_back(testing::RandomRanking(n, &rng));
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  for (const Ranking& r :
       {BordaAggregate(base), CopelandAggregate(w), SchulzeAggregate(w)}) {
    ASSERT_EQ(r.size(), n);
    ASSERT_TRUE(Ranking::IsValidOrder(r.order()));
  }
}

TEST_P(AggregatorConsistencyTest, UnanimityIsRespected) {
  // All aggregators must return the common ranking when every base
  // ranking is identical.
  Rng rng(GetParam() + 999);
  const int n = 4 + static_cast<int>(rng.NextUint64(12));
  Ranking shared = testing::RandomRanking(n, &rng);
  std::vector<Ranking> base(5, shared);
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  EXPECT_EQ(BordaAggregate(base), shared);
  EXPECT_EQ(CopelandAggregate(w), shared);
  EXPECT_EQ(SchulzeAggregate(w), shared);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregatorConsistencyTest,
                         ::testing::Range<uint64_t>(300, 312));

}  // namespace
}  // namespace manirank
