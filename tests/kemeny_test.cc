#include "core/kemeny.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/distance.h"
#include "mallows/mallows.h"
#include "test_util.h"
#include "util/rng.h"

namespace manirank {
namespace {

TEST(KemenyTest, UnanimousProfileUsesFastPath) {
  Ranking shared({3, 0, 2, 1});
  std::vector<Ranking> base(4, shared);
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  KemenyResult r = KemenyAggregate(w);
  EXPECT_TRUE(r.optimal);
  EXPECT_TRUE(r.used_fast_path);
  EXPECT_EQ(r.ranking, shared);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
}

TEST(KemenyTest, CondorcetCycleForcesIlp) {
  // 3-cycle: 0>1>2, 1>2>0, 2>0>1.
  std::vector<Ranking> base = {Ranking({0, 1, 2}), Ranking({1, 2, 0}),
                               Ranking({2, 0, 1})};
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  KemenyResult r = KemenyAggregate(w);
  EXPECT_TRUE(r.optimal);
  EXPECT_FALSE(r.used_fast_path);
  // Any ranking disagrees with exactly 3 pairs (1 per ranking + 1 extra).
  EXPECT_DOUBLE_EQ(r.cost, BruteForceKemeny(w).cost);
}

TEST(KemenyTest, SingleCandidateAndPair) {
  std::vector<Ranking> one = {Ranking::Identity(1)};
  EXPECT_EQ(KemenyAggregate(PrecedenceMatrix::Build(one)).ranking.size(), 1);
  std::vector<Ranking> pair = {Ranking({1, 0}), Ranking({1, 0}),
                               Ranking({0, 1})};
  KemenyResult r = KemenyAggregate(PrecedenceMatrix::Build(pair));
  EXPECT_EQ(r.ranking, Ranking({1, 0}));  // majority
}

TEST(KemenyTest, TransitiveFastPathMatchesMajorityDigraph) {
  Rng rng(61);
  // Strongly concentrated Mallows profile: majority digraph acyclic with
  // overwhelming probability.
  MallowsModel model(testing::RandomRanking(30, &rng), /*theta=*/2.0);
  std::vector<Ranking> base = model.SampleMany(51, /*seed=*/1);
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  Ranking fast;
  ASSERT_TRUE(TryTransitiveKemeny(w, &fast));
  // Fast-path order respects every strict pairwise majority.
  for (CandidateId a = 0; a < 30; ++a) {
    for (CandidateId b = 0; b < 30; ++b) {
      if (a != b && w.PrefersCount(a, b) > w.PrefersCount(b, a)) {
        EXPECT_TRUE(fast.Prefers(a, b));
      }
    }
  }
  EXPECT_DOUBLE_EQ(w.KemenyCost(fast), w.LowerBound());
}

/// Kahn's algorithm on the strict-majority digraph with indegrees counted
/// one ordered pair at a time; false on a cycle.
bool ReferenceTransitiveKemeny(const PrecedenceMatrix& w, Ranking* result) {
  const int n = w.size();
  const auto majority = [&w](CandidateId a, CandidateId b) {
    return w.PrefersCount(a, b) > w.PrefersCount(b, a);
  };
  std::vector<int> indegree(n, 0);
  for (CandidateId a = 0; a < n; ++a) {
    for (CandidateId b = 0; b < n; ++b) {
      if (a != b && majority(a, b)) ++indegree[b];
    }
  }
  std::vector<CandidateId> order;
  std::vector<bool> placed(n, false);
  for (int step = 0; step < n; ++step) {
    CandidateId next = -1;
    for (CandidateId c = 0; c < n && next < 0; ++c) {
      if (!placed[c] && indegree[c] == 0) next = c;
    }
    if (next < 0) return false;
    placed[next] = true;
    order.push_back(next);
    for (CandidateId b = 0; b < n; ++b) {
      if (!placed[b] && majority(next, b)) --indegree[b];
    }
  }
  *result = Ranking(std::move(order));
  return true;
}

TEST(KemenyTest, TransitiveFastPathMatchesOrderedPairReference) {
  // Concentrated profiles (acyclic majorities, so the fast path succeeds),
  // near-uniform ones (cycles, so it fails), and an even profile with a
  // ranking and its reverse (tied contests carry no majority edge).
  int successes = 0;
  int failures = 0;
  for (int n : {1, 2, 63, 64, 65, 129, 200}) {
    Rng rng(6000 + n);
    const Ranking modal = testing::RandomRanking(n, &rng);
    const MallowsModel concentrated(modal, /*theta=*/1.0);
    // A ranking, its reverse and two concentrated samples: pairs the
    // samples split are 2-2 ties, the rest are 3-1 majorities for modal.
    std::vector<Ranking> mirrored = concentrated.SampleMany(2, n);
    mirrored.push_back(modal);
    mirrored.emplace_back(
        std::vector<CandidateId>(modal.order().rbegin(), modal.order().rend()));
    for (const PrecedenceMatrix& w :
         {PrecedenceMatrix::Build(concentrated.SampleMany(31, n)),
          PrecedenceMatrix::Build(MallowsModel(modal, 0.01).SampleMany(8, n)),
          PrecedenceMatrix::Build(mirrored)}) {
      Ranking fast;
      Ranking reference;
      const bool ok = TryTransitiveKemeny(w, &fast);
      ASSERT_EQ(ok, ReferenceTransitiveKemeny(w, &reference)) << "n=" << n;
      if (ok) {
        ASSERT_EQ(fast, reference) << "n=" << n;
        ++successes;
      } else {
        ++failures;
      }
    }
  }
  EXPECT_GT(successes, 0);
  EXPECT_GT(failures, 0);
}

TEST(KemenyTest, TransitiveFastPathRefusesCyclicProfiles) {
  // Three rotations of one order over candidates x, y, z make the
  // Condorcet cycle x > y > z > x; every other pair is unanimous. The
  // three ids straddle 64-id words where n allows.
  for (int n : {3, 63, 64, 65, 129, 200}) {
    Rng rng(7000 + n);
    const Ranking modal = testing::RandomRanking(n, &rng);
    const std::vector<CandidateId> cycle = {0, (n - 1) / 2, n - 1};
    std::vector<Ranking> profile;
    for (int shift = 0; shift < 3; ++shift) {
      std::vector<CandidateId> order = modal.order();
      std::vector<int> slots;
      for (CandidateId c : cycle) slots.push_back(modal.PositionOf(c));
      std::sort(slots.begin(), slots.end());
      for (int i = 0; i < 3; ++i) {
        order[slots[i]] = cycle[(i + shift) % 3];
      }
      profile.emplace_back(std::move(order));
    }
    const PrecedenceMatrix w = PrecedenceMatrix::Build(profile);
    Ranking fast;
    Ranking reference;
    EXPECT_FALSE(ReferenceTransitiveKemeny(w, &reference)) << "n=" << n;
    EXPECT_FALSE(TryTransitiveKemeny(w, &fast)) << "n=" << n;
  }
}

TEST(KemenyTest, RecoversMallowsModalRanking) {
  // The Kemeny consensus is the MLE of the Mallows modal ranking; with
  // many concentrated samples it should recover it exactly.
  Rng rng(71);
  Ranking modal = testing::RandomRanking(15, &rng);
  MallowsModel model(modal, /*theta=*/1.5);
  std::vector<Ranking> base = model.SampleMany(201, /*seed=*/3);
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  KemenyResult r = KemenyAggregate(w);
  ASSERT_TRUE(r.optimal);
  EXPECT_EQ(r.ranking, modal);
}

TEST(KemenyTest, BruteForceMatchesManualTinyCase) {
  std::vector<Ranking> base = {Ranking({0, 1}), Ranking({0, 1}),
                               Ranking({1, 0})};
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  KemenyResult r = BruteForceKemeny(w);
  EXPECT_EQ(r.ranking, Ranking({0, 1}));
  EXPECT_DOUBLE_EQ(r.cost, 1.0);
}

class KemenyRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KemenyRandomTest, IlpMatchesBruteForceCost) {
  Rng rng(GetParam());
  const int n = 4 + static_cast<int>(rng.NextUint64(4));  // 4..7
  const int m = 3 + static_cast<int>(rng.NextUint64(6));
  std::vector<Ranking> base;
  for (int i = 0; i < m; ++i) base.push_back(testing::RandomRanking(n, &rng));
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  KemenyResult exact = KemenyAggregate(w);
  KemenyResult brute = BruteForceKemeny(w);
  ASSERT_TRUE(exact.optimal) << "seed " << GetParam();
  EXPECT_DOUBLE_EQ(exact.cost, brute.cost) << "seed " << GetParam();
  // The consensus cost equals the summed Kendall tau distance.
  int64_t kt = 0;
  for (const Ranking& r : base) kt += KendallTau(exact.ranking, r);
  EXPECT_DOUBLE_EQ(exact.cost, static_cast<double>(kt));
}

TEST_P(KemenyRandomTest, KemenyBeatsHeuristicAggregators) {
  Rng rng(GetParam() + 4000);
  const int n = 5 + static_cast<int>(rng.NextUint64(3));
  std::vector<Ranking> base;
  for (int i = 0; i < 9; ++i) base.push_back(testing::RandomRanking(n, &rng));
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  KemenyResult exact = KemenyAggregate(w);
  ASSERT_TRUE(exact.optimal);
  for (int trial = 0; trial < 20; ++trial) {
    Ranking r = testing::RandomRanking(n, &rng);
    EXPECT_LE(exact.cost, w.KemenyCost(r) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KemenyRandomTest,
                         ::testing::Range<uint64_t>(400, 430));

TEST(LocalKemenyImproveTest, NeverIncreasesCost) {
  Rng rng(91);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 10 + static_cast<int>(rng.NextUint64(20));
    std::vector<Ranking> base;
    for (int i = 0; i < 7; ++i) base.push_back(testing::RandomRanking(n, &rng));
    PrecedenceMatrix w = PrecedenceMatrix::Build(base);
    Ranking r = testing::RandomRanking(n, &rng);
    const double before = w.KemenyCost(r);
    LocalKemenyImprove(w, &r);
    EXPECT_LE(w.KemenyCost(r), before + 1e-9);
    ASSERT_TRUE(Ranking::IsValidOrder(r.order()));
  }
}

TEST(LocalKemenyImproveTest, ReachesAdjacentLocalOptimum) {
  Rng rng(92);
  const int n = 15;
  std::vector<Ranking> base;
  for (int i = 0; i < 9; ++i) base.push_back(testing::RandomRanking(n, &rng));
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  Ranking r = testing::RandomRanking(n, &rng);
  LocalKemenyImprove(w, &r);
  // Every adjacent pair respects the (weak) pairwise majority.
  for (int p = 0; p + 1 < n; ++p) {
    const CandidateId above = r.At(p);
    const CandidateId below = r.At(p + 1);
    EXPECT_GE(w.PrefersCount(above, below), w.PrefersCount(below, above))
        << "adjacent pair at " << p << " violates majority";
  }
}

TEST(LocalKemenyImproveTest, FindsOptimumFromAnyStartOnTinyInstances) {
  Rng rng(93);
  int optimal_hits = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 5;
    std::vector<Ranking> base;
    for (int i = 0; i < 5; ++i) base.push_back(testing::RandomRanking(n, &rng));
    PrecedenceMatrix w = PrecedenceMatrix::Build(base);
    Ranking r = testing::RandomRanking(n, &rng);
    LocalKemenyImprove(w, &r);
    if (w.KemenyCost(r) <= BruteForceKemeny(w).cost + 1e-9) ++optimal_hits;
  }
  // Adjacent-swap local search is not exact, but should usually land on
  // the optimum for tiny instances.
  EXPECT_GE(optimal_hits, 12);
}

TEST(LocalKemenyImproveTest, NoOpOnOptimalRanking) {
  std::vector<Ranking> base(5, Ranking({2, 0, 1}));
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  Ranking r({2, 0, 1});
  EXPECT_EQ(LocalKemenyImprove(w, &r), 0);
  EXPECT_EQ(r, Ranking({2, 0, 1}));
}

}  // namespace
}  // namespace manirank
