#include "core/precedence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/distance.h"
#include "mallows/mallows.h"
#include "test_util.h"
#include "util/rng.h"

namespace manirank {
namespace {

TEST(PrecedenceTest, SingleRankingCounts) {
  // Ranking [1, 0, 2]: 1 above 0 and 2; 0 above 2.
  std::vector<Ranking> base = {Ranking({1, 0, 2})};
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  // W[a][b] = #rankings placing b above a.
  EXPECT_DOUBLE_EQ(w.W(0, 1), 1.0);  // 1 is above 0
  EXPECT_DOUBLE_EQ(w.W(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(w.W(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(w.W(2, 1), 1.0);
  EXPECT_DOUBLE_EQ(w.PrefersCount(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(w.PrefersCount(0, 1), 0.0);
}

TEST(PrecedenceTest, PairCountsSumToProfileSize) {
  Rng rng(3);
  std::vector<Ranking> base;
  for (int i = 0; i < 9; ++i) base.push_back(testing::RandomRanking(7, &rng));
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  for (CandidateId a = 0; a < 7; ++a) {
    for (CandidateId b = a + 1; b < 7; ++b) {
      // Every ranking orders each pair one way or the other.
      EXPECT_DOUBLE_EQ(w.W(a, b) + w.W(b, a), 9.0);
    }
    EXPECT_DOUBLE_EQ(w.W(a, a), 0.0);
  }
}

TEST(PrecedenceTest, KemenyCostEqualsSummedKendallTau) {
  Rng rng(5);
  std::vector<Ranking> base;
  for (int i = 0; i < 6; ++i) base.push_back(testing::RandomRanking(9, &rng));
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  Ranking consensus = testing::RandomRanking(9, &rng);
  int64_t kt_sum = 0;
  for (const Ranking& r : base) kt_sum += KendallTau(consensus, r);
  EXPECT_DOUBLE_EQ(w.KemenyCost(consensus), static_cast<double>(kt_sum));
}

TEST(PrecedenceTest, WeightedBuildScalesCounts) {
  std::vector<Ranking> base = {Ranking({0, 1}), Ranking({1, 0})};
  PrecedenceMatrix w = PrecedenceMatrix::BuildWeighted(base, {3.0, 5.0});
  EXPECT_DOUBLE_EQ(w.W(1, 0), 3.0);  // first ranking puts 0 above 1
  EXPECT_DOUBLE_EQ(w.W(0, 1), 5.0);
}

TEST(PrecedenceTest, WeightedWithUnitWeightsMatchesUnweighted) {
  Rng rng(7);
  std::vector<Ranking> base;
  for (int i = 0; i < 5; ++i) base.push_back(testing::RandomRanking(8, &rng));
  PrecedenceMatrix a = PrecedenceMatrix::Build(base);
  PrecedenceMatrix b =
      PrecedenceMatrix::BuildWeighted(base, std::vector<double>(5, 1.0));
  for (CandidateId x = 0; x < 8; ++x) {
    for (CandidateId y = 0; y < 8; ++y) {
      EXPECT_DOUBLE_EQ(a.W(x, y), b.W(x, y));
    }
  }
}

TEST(PrecedenceTest, LowerBoundIsBelowEveryRankingCost) {
  Rng rng(11);
  std::vector<Ranking> base;
  for (int i = 0; i < 8; ++i) base.push_back(testing::RandomRanking(6, &rng));
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  const double bound = w.LowerBound();
  for (int trial = 0; trial < 30; ++trial) {
    Ranking r = testing::RandomRanking(6, &rng);
    ASSERT_LE(bound, w.KemenyCost(r) + 1e-9);
  }
}

TEST(PrecedenceTest, ParallelBuildIsDeterministic) {
  Rng rng(13);
  std::vector<Ranking> base;
  for (int i = 0; i < 200; ++i) base.push_back(testing::RandomRanking(20, &rng));
  PrecedenceMatrix w1 = PrecedenceMatrix::Build(base);
  PrecedenceMatrix w2 = PrecedenceMatrix::Build(base);
  for (CandidateId a = 0; a < 20; ++a) {
    for (CandidateId b = 0; b < 20; ++b) {
      ASSERT_DOUBLE_EQ(w1.W(a, b), w2.W(a, b));
    }
  }
}

TEST(PrecedenceTest, BuildWeightedMatchesBruteForcePairCountingOnMallows) {
  // Definition 11 by brute force: W[a][b] is the total weight of rankings
  // placing b above a, validated on Mallows profiles across spreads.
  for (double theta : {0.2, 0.6, 1.0}) {
    const int n = 11;
    Rng rng(31 + static_cast<uint64_t>(theta * 10));
    MallowsModel model(testing::RandomRanking(n, &rng), theta);
    std::vector<Ranking> base = model.SampleMany(17, /*seed=*/33);
    std::vector<double> weights(base.size());
    for (size_t i = 0; i < weights.size(); ++i) {
      weights[i] = rng.NextDouble() * 4.0;
    }
    PrecedenceMatrix w = PrecedenceMatrix::BuildWeighted(base, weights);
    for (CandidateId a = 0; a < n; ++a) {
      for (CandidateId b = 0; b < n; ++b) {
        double expected = 0.0;
        for (size_t i = 0; i < base.size(); ++i) {
          if (a != b && base[i].Prefers(b, a)) expected += weights[i];
        }
        ASSERT_DOUBLE_EQ(w.W(a, b), expected)
            << "theta=" << theta << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(PrecedenceTest, LowerBoundMatchesBruteForcePairMinimaOnMallows) {
  // LowerBound = sum over unordered pairs of min(W[a][b], W[b][a]),
  // recomputed here from raw pair counts.
  for (double theta : {0.1, 0.5, 0.9}) {
    const int n = 9;
    Rng rng(47 + static_cast<uint64_t>(theta * 10));
    MallowsModel model(testing::RandomRanking(n, &rng), theta);
    std::vector<Ranking> base = model.SampleMany(13, /*seed=*/49);
    PrecedenceMatrix w = PrecedenceMatrix::Build(base);
    double expected = 0.0;
    for (CandidateId a = 0; a < n; ++a) {
      for (CandidateId b = a + 1; b < n; ++b) {
        int prefers_a = 0;  // rankings placing a above b
        for (const Ranking& r : base) prefers_a += r.Prefers(a, b) ? 1 : 0;
        const int prefers_b = static_cast<int>(base.size()) - prefers_a;
        // min(W[a][b], W[b][a]) = min(#above(b,a), #above(a,b)).
        expected += std::min(prefers_a, prefers_b);
      }
    }
    EXPECT_DOUBLE_EQ(w.LowerBound(), expected) << "theta=" << theta;
    // And the bound is attained by no ranking costing less.
    for (int trial = 0; trial < 20; ++trial) {
      Ranking r = testing::RandomRanking(n, &rng);
      ASSERT_LE(w.LowerBound(), w.KemenyCost(r) + 1e-9);
    }
  }
}

TEST(PrecedenceTest, LowerBoundIsBitIdenticalToTiledRowSum) {
  // The tiled pair sum, written out loop by loop: tile rows, tile columns
  // from the diagonal, then rows and columns inside the tile pair. The
  // order fixes the rounding of a fractional sum, so equality is exact.
  const int n = 150;
  Rng rng(71);
  std::vector<std::vector<double>> dense(n, std::vector<double>(n, 0.0));
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a != b) dense[a][b] = rng.NextDouble() * 7.0 + 1e-3 * (a + b);
    }
  }
  double expected = 0.0;
  for (int ti = 0; ti < n; ti += 64) {
    for (int tj = ti; tj < n; tj += 64) {
      for (int a = ti; a < std::min(n, ti + 64); ++a) {
        for (int b = std::max(tj, a + 1); b < std::min(n, tj + 64); ++b) {
          expected += std::min(dense[a][b], dense[b][a]);
        }
      }
    }
  }
  const double bound = PrecedenceMatrix(dense).LowerBound();
  EXPECT_EQ(std::memcmp(&bound, &expected, sizeof(double)), 0)
      << bound << " vs " << expected;
}

TEST(PrecedenceTest, IncrementalAddMatchesBuild) {
  // Zero + AddRanking over the profile is bit-identical to Build (unit
  // weights are exactly representable, so fold order cannot matter).
  Rng rng(19);
  const int n = 13;
  std::vector<Ranking> base;
  for (int i = 0; i < 25; ++i) base.push_back(testing::RandomRanking(n, &rng));
  PrecedenceMatrix built = PrecedenceMatrix::Build(base);
  PrecedenceMatrix incremental = PrecedenceMatrix::Zero(n);
  for (const Ranking& r : base) incremental.AddRanking(r);
  EXPECT_EQ(incremental.ToDense(), built.ToDense());
}

TEST(PrecedenceTest, AddThenRemoveRoundTripsExactly) {
  // Any interleaving of adds and removes lands on the matrix of the
  // surviving profile, bit for bit.
  Rng rng(23);
  const int n = 10;
  std::vector<Ranking> keep, churn;
  for (int i = 0; i < 12; ++i) keep.push_back(testing::RandomRanking(n, &rng));
  for (int i = 0; i < 7; ++i) churn.push_back(testing::RandomRanking(n, &rng));
  PrecedenceMatrix w = PrecedenceMatrix::Zero(n);
  for (size_t i = 0; i < keep.size(); ++i) {
    w.AddRanking(keep[i]);
    if (i < churn.size()) w.AddRanking(churn[i]);
  }
  for (const Ranking& r : churn) w.RemoveRanking(r);
  EXPECT_EQ(w.ToDense(), PrecedenceMatrix::Build(keep).ToDense());
}

TEST(PrecedenceTest, WeightedAddAndRemoveScaleCounts) {
  PrecedenceMatrix w = PrecedenceMatrix::Zero(2);
  w.AddRanking(Ranking({0, 1}), 3.0);
  w.AddRanking(Ranking({1, 0}), 5.0);
  EXPECT_DOUBLE_EQ(w.W(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(w.W(0, 1), 5.0);
  w.RemoveRanking(Ranking({1, 0}), 5.0);
  EXPECT_DOUBLE_EQ(w.W(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(w.W(1, 0), 3.0);
}

TEST(PrecedenceTest, MergeSumsPerWorkerDeltas) {
  Rng rng(29);
  const int n = 8;
  std::vector<Ranking> base;
  for (int i = 0; i < 10; ++i) base.push_back(testing::RandomRanking(n, &rng));
  // Fold the profile across three disjoint "worker" deltas, then merge.
  PrecedenceMatrix merged = PrecedenceMatrix::Zero(n);
  for (int worker = 0; worker < 3; ++worker) {
    PrecedenceMatrix local = PrecedenceMatrix::Zero(n);
    for (size_t i = worker; i < base.size(); i += 3) local.AddRanking(base[i]);
    merged.Merge(local);
  }
  EXPECT_EQ(merged.ToDense(), PrecedenceMatrix::Build(base).ToDense());
}

TEST(PrecedenceTest, ToDenseRoundTrips) {
  Rng rng(17);
  std::vector<Ranking> base;
  for (int i = 0; i < 4; ++i) base.push_back(testing::RandomRanking(5, &rng));
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  PrecedenceMatrix copy(w.ToDense());
  for (CandidateId a = 0; a < 5; ++a) {
    for (CandidateId b = 0; b < 5; ++b) {
      EXPECT_DOUBLE_EQ(copy.W(a, b), w.W(a, b));
    }
  }
}

}  // namespace
}  // namespace manirank
