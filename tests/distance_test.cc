#include "core/distance.h"

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.h"
#include "util/rng.h"

namespace manirank {
namespace {

TEST(KendallTauTest, IdenticalRankingsHaveDistanceZero) {
  Rng rng(1);
  Ranking r = testing::RandomRanking(12, &rng);
  EXPECT_EQ(KendallTau(r, r), 0);
}

TEST(KendallTauTest, ReversalIsMaximal) {
  Ranking r = Ranking::Identity(10);
  EXPECT_EQ(KendallTau(r, r.Reversed()), TotalPairs(10));
}

TEST(KendallTauTest, SingleAdjacentSwapIsOne) {
  Ranking a = Ranking::Identity(6);
  Ranking b = a;
  b.SwapPositions(2, 3);
  EXPECT_EQ(KendallTau(a, b), 1);
}

TEST(KendallTauTest, KnownSmallExample) {
  // a = [0 1 2], b = [2 0 1]: discordant pairs {0,2}, {1,2}.
  Ranking a({0, 1, 2});
  Ranking b({2, 0, 1});
  EXPECT_EQ(KendallTau(a, b), 2);
}

TEST(KendallTauTest, EmptyAndSingleton) {
  EXPECT_EQ(KendallTau(Ranking(), Ranking()), 0);
  EXPECT_EQ(KendallTau(Ranking::Identity(1), Ranking::Identity(1)), 0);
}

TEST(NormalizedKendallTauTest, RangeAndExtremes) {
  Ranking r = Ranking::Identity(9);
  EXPECT_DOUBLE_EQ(NormalizedKendallTau(r, r), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedKendallTau(r, r.Reversed()), 1.0);
}

class KendallTauPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(KendallTauPropertyTest, FastMatchesBruteForce) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 31);
  for (int trial = 0; trial < 25; ++trial) {
    Ranking a = testing::RandomRanking(n, &rng);
    Ranking b = testing::RandomRanking(n, &rng);
    ASSERT_EQ(KendallTau(a, b), KendallTauBruteForce(a, b));
  }
}

TEST_P(KendallTauPropertyTest, IsAMetric) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 37);
  for (int trial = 0; trial < 10; ++trial) {
    Ranking a = testing::RandomRanking(n, &rng);
    Ranking b = testing::RandomRanking(n, &rng);
    Ranking c = testing::RandomRanking(n, &rng);
    const int64_t ab = KendallTau(a, b);
    const int64_t ba = KendallTau(b, a);
    const int64_t bc = KendallTau(b, c);
    const int64_t ac = KendallTau(a, c);
    ASSERT_EQ(ab, ba);                       // symmetry
    ASSERT_GE(ab, 0);                        // non-negativity
    ASSERT_EQ(ab == 0, a == b);              // identity of indiscernibles
    ASSERT_LE(ac, ab + bc);                  // triangle inequality
    ASSERT_LE(ab, TotalPairs(n));            // bounded
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KendallTauPropertyTest,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 50, 63, 64,
                                           65, 127, 128, 129, 1000));

TEST(PdLossTest, ZeroWhenAllRankingsEqualConsensus) {
  Ranking r = Ranking::Identity(8);
  std::vector<Ranking> base(5, r);
  EXPECT_DOUBLE_EQ(PdLoss(base, r), 0.0);
}

TEST(PdLossTest, OneWhenConsensusReversesEveryRanking) {
  Ranking r = Ranking::Identity(8);
  std::vector<Ranking> base(3, r);
  EXPECT_DOUBLE_EQ(PdLoss(base, r.Reversed()), 1.0);
}

TEST(PdLossTest, AveragesOverRankings) {
  Ranking id = Ranking::Identity(4);
  std::vector<Ranking> base = {id, id.Reversed()};
  // Consensus = identity: distances 0 and 6 over omega = 6, |R| = 2.
  EXPECT_DOUBLE_EQ(PdLoss(base, id), 0.5);
}

TEST(PdLossTest, EmptyProfile) {
  EXPECT_DOUBLE_EQ(PdLoss({}, Ranking::Identity(5)), 0.0);
}

TEST(PdLossTest, WithinUnitIntervalOnRandomProfiles) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Ranking> base;
    for (int i = 0; i < 7; ++i) base.push_back(testing::RandomRanking(15, &rng));
    Ranking consensus = testing::RandomRanking(15, &rng);
    const double loss = PdLoss(base, consensus);
    ASSERT_GE(loss, 0.0);
    ASSERT_LE(loss, 1.0);
  }
}

TEST(PdLossTest, ParallelAndSerialAgree) {
  Rng rng(88);
  std::vector<Ranking> base;
  for (int i = 0; i < 40; ++i) base.push_back(testing::RandomRanking(30, &rng));
  Ranking consensus = testing::RandomRanking(30, &rng);
  const double parallel = PdLoss(base, consensus);
  // Serial reference.
  int64_t total = 0;
  for (const Ranking& r : base) total += KendallTau(consensus, r);
  const double serial =
      static_cast<double>(total) /
      (static_cast<double>(TotalPairs(30)) * static_cast<double>(base.size()));
  EXPECT_DOUBLE_EQ(parallel, serial);
}

TEST(PriceOfFairnessTest, ZeroWhenRankingsCoincide) {
  Rng rng(9);
  std::vector<Ranking> base;
  for (int i = 0; i < 4; ++i) base.push_back(testing::RandomRanking(10, &rng));
  Ranking c = testing::RandomRanking(10, &rng);
  EXPECT_DOUBLE_EQ(PriceOfFairness(base, c, c), 0.0);
}

TEST(PriceOfFairnessTest, MatchesPdLossDifference) {
  Rng rng(10);
  std::vector<Ranking> base;
  for (int i = 0; i < 6; ++i) base.push_back(testing::RandomRanking(12, &rng));
  Ranking fair = testing::RandomRanking(12, &rng);
  Ranking unfair = testing::RandomRanking(12, &rng);
  EXPECT_NEAR(PriceOfFairness(base, fair, unfair),
              PdLoss(base, fair) - PdLoss(base, unfair), 1e-12);
}

}  // namespace
}  // namespace manirank
