#include "core/make_mr_fair.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>

#include "core/aggregators.h"
#include "core/distance.h"
#include "core/precedence.h"
#include "mallows/mallows.h"
#include "test_util.h"
#include "util/rng.h"

namespace manirank {
namespace {

CandidateTable SegregatedBinaryTable(int n) {
  std::vector<Attribute> attrs = {{"G", {"top", "bottom"}}};
  std::vector<std::vector<AttributeValue>> values(n, std::vector<AttributeValue>(1));
  for (int c = 0; c < n; ++c) values[c][0] = c < n / 2 ? 0 : 1;
  return CandidateTable(std::move(attrs), std::move(values));
}

TEST(MakeMrFairTest, AlreadyFairRankingIsUntouched) {
  CandidateTable t = SegregatedBinaryTable(8);
  Ranking interleaved({0, 4, 1, 5, 2, 6, 3, 7});
  MakeMrFairOptions options;
  options.delta = 0.5;
  MakeMrFairResult r = MakeMrFair(interleaved, t, options);
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.swaps, 0);
  EXPECT_EQ(r.ranking, interleaved);
}

TEST(MakeMrFairTest, RepairsFullySegregatedRanking) {
  CandidateTable t = SegregatedBinaryTable(10);
  Ranking segregated = Ranking::Identity(10);  // ARP = 1.0
  MakeMrFairOptions options;
  options.delta = 0.1;
  MakeMrFairResult r = MakeMrFair(segregated, t, options);
  EXPECT_TRUE(r.satisfied);
  EXPECT_GT(r.swaps, 0);
  EXPECT_TRUE(SatisfiesManiRank(r.ranking, t, 0.1));
}

TEST(MakeMrFairTest, DeltaZeroAchievesExactParityWhenPossible) {
  // Equal-size binary groups, even interleave exists: delta = 0 feasible.
  CandidateTable t = SegregatedBinaryTable(8);
  MakeMrFairOptions options;
  options.delta = 0.0;
  MakeMrFairResult r = MakeMrFair(Ranking::Identity(8), t, options);
  EXPECT_TRUE(r.satisfied);
  EXPECT_NEAR(RankParity(r.ranking, t.attribute_grouping(0)), 0.0, 1e-12);
}

TEST(MakeMrFairTest, MultiAttributeIntersectionGetsRepaired) {
  // 24 candidates, 2x3 attributes; start from the worst case (sorted by
  // intersection cell).
  CandidateTable t = testing::CyclicTable(24, 2, 3);
  std::vector<CandidateId> order(24);
  // Sort candidates so equal cells are contiguous: strongly unfair.
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](CandidateId a, CandidateId b) {
    return t.intersection_grouping().group_of[a] <
           t.intersection_grouping().group_of[b];
  });
  MakeMrFairOptions options;
  options.delta = 0.15;
  MakeMrFairResult r = MakeMrFair(Ranking(std::move(order)), t, options);
  EXPECT_TRUE(r.satisfied);
  EXPECT_TRUE(SatisfiesManiRank(r.ranking, t, 0.15));
}

TEST(MakeMrFairTest, PerAttributeThresholds) {
  CandidateTable t = testing::CyclicTable(24, 2, 2);
  Rng rng(5);
  Ranking start = testing::RandomRanking(24, &rng);
  MakeMrFairOptions options;
  ManiRankThresholds thresholds;
  thresholds.attribute_delta = {0.05, 0.5};
  thresholds.intersection_delta = 0.5;
  options.thresholds = thresholds;
  MakeMrFairResult r = MakeMrFair(start, t, options);
  EXPECT_TRUE(r.satisfied);
  EXPECT_LE(RankParity(r.ranking, t.attribute_grouping(0)), 0.05 + 1e-9);
}

TEST(MakeMrFairTest, SwapBudgetIsHonoured) {
  CandidateTable t = SegregatedBinaryTable(20);
  MakeMrFairOptions options;
  options.delta = 0.01;
  options.max_swaps = 1;
  MakeMrFairResult r = MakeMrFair(Ranking::Identity(20), t, options);
  EXPECT_LE(r.swaps, 1);
  EXPECT_FALSE(r.satisfied);
}

TEST(MakeMrFairTest, EachSwapImprovesTargetParity) {
  // Instrumented run: repair with max_swaps = k for growing k and check
  // the worst parity never increases.
  CandidateTable t = testing::CyclicTable(18, 3, 2);
  Rng rng(9);
  Ranking start = testing::RandomRanking(18, &rng);
  double prev = EvaluateFairness(start, t).MaxParity();
  for (int64_t k = 1; k <= 30; ++k) {
    MakeMrFairOptions options;
    options.delta = 0.02;
    options.max_swaps = k;
    MakeMrFairResult r = MakeMrFair(start, t, options);
    const double worst = EvaluateFairness(r.ranking, t).MaxParity();
    EXPECT_LE(worst, prev + 0.25) << "parity should trend down";
    if (r.satisfied) break;
    prev = std::max(prev, worst);
  }
}

TEST(MakeMrFairTest, PreservesWithinGroupOrder) {
  // The paper's swaps exchange members of different groups; candidates of
  // the same intersection cell never swap, so their relative order is
  // preserved from the input consensus.
  CandidateTable t = testing::CyclicTable(24, 2, 2);
  Rng rng(11);
  Ranking start = testing::RandomRanking(24, &rng);
  MakeMrFairOptions options;
  options.delta = 0.05;
  MakeMrFairResult r = MakeMrFair(start, t, options);
  const Grouping& inter = t.intersection_grouping();
  for (int g = 0; g < inter.num_groups(); ++g) {
    const auto& members = inter.members[g];
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        EXPECT_EQ(start.Prefers(members[i], members[j]),
                  r.ranking.Prefers(members[i], members[j]))
            << "within-cell order changed";
      }
    }
  }
}

struct EngineParam {
  int n;
  int d0, d1;
  double delta;
  uint64_t seed;
};

class EngineEquivalenceTest : public ::testing::TestWithParam<EngineParam> {};

TEST_P(EngineEquivalenceTest, ReferenceAndIndexedEnginesAgree) {
  const EngineParam& p = GetParam();
  Rng rng(p.seed);
  CandidateTable t = testing::RandomTable(p.n, {p.d0, p.d1}, &rng);
  for (int trial = 0; trial < 5; ++trial) {
    Ranking start = testing::RandomRanking(p.n, &rng);
    MakeMrFairOptions reference;
    reference.delta = p.delta;
    reference.engine = MakeMrFairOptions::Engine::kReference;
    MakeMrFairOptions indexed;
    indexed.delta = p.delta;
    indexed.engine = MakeMrFairOptions::Engine::kIndexed;
    MakeMrFairResult a = MakeMrFair(start, t, reference);
    MakeMrFairResult b = MakeMrFair(start, t, indexed);
    ASSERT_EQ(a.ranking, b.ranking)
        << "engines diverged, seed=" << p.seed << " trial=" << trial;
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.satisfied, b.satisfied);
  }
}

TEST_P(EngineEquivalenceTest, ResultSatisfiesDeltaOrReportsFailure) {
  const EngineParam& p = GetParam();
  Rng rng(p.seed + 1);
  CandidateTable t = testing::RandomTable(p.n, {p.d0, p.d1}, &rng);
  Ranking start = testing::RandomRanking(p.n, &rng);
  MakeMrFairOptions options;
  options.delta = p.delta;
  MakeMrFairResult r = MakeMrFair(start, t, options);
  EXPECT_EQ(r.satisfied, SatisfiesManiRank(r.ranking, t, p.delta));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineEquivalenceTest,
    ::testing::Values(EngineParam{12, 2, 2, 0.2, 1000},
                      EngineParam{20, 2, 3, 0.15, 2000},
                      EngineParam{30, 3, 3, 0.1, 3000},
                      EngineParam{45, 5, 3, 0.1, 4000},
                      EngineParam{60, 2, 2, 0.05, 5000},
                      EngineParam{24, 4, 2, 0.25, 6000}));

TEST(MakeMrFairTest, RandomPairPolicyAlsoRepairs) {
  CandidateTable t = SegregatedBinaryTable(16);
  MakeMrFairOptions options;
  options.delta = 0.1;
  options.swap_policy = MakeMrFairOptions::SwapPolicy::kRandomPair;
  options.seed = 99;
  MakeMrFairResult r = MakeMrFair(Ranking::Identity(16), t, options);
  EXPECT_TRUE(r.satisfied);
  EXPECT_TRUE(SatisfiesManiRank(r.ranking, t, 0.1));
}

TEST(MakeMrFairTest, PdLossGrowsWithTighterDelta) {
  // Price of fairness: the tighter the threshold, the further the repaired
  // consensus drifts from the original (weak monotonicity up to noise).
  CandidateTable t = SegregatedBinaryTable(32);
  Ranking start = Ranking::Identity(32);
  std::vector<Ranking> base(3, start);
  double prev_loss = -1.0;
  for (double delta : {0.5, 0.3, 0.1, 0.02}) {
    MakeMrFairOptions options;
    options.delta = delta;
    MakeMrFairResult r = MakeMrFair(start, t, options);
    ASSERT_TRUE(r.satisfied) << "delta " << delta;
    const double loss = PdLoss(base, r.ranking);
    EXPECT_GE(loss, prev_loss - 1e-9) << "delta " << delta;
    prev_loss = loss;
  }
}


// --- golden swap decisions --------------------------------------------------
//
// The two engines share the swap search, so EngineEquivalenceTest cannot
// see a change to it. These values were recorded from the std::set-based
// search that preceded the bitset one; any change to a swap decision (the
// scan window, a tie-break, tabu expiry, the random-pair draws, the stall
// rewind or kick) moves the swap count or the output order.

/// 64-bit FNV-1a over the output order, each id as 4 little-endian bytes.
uint64_t OrderHash(const Ranking& r) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (CandidateId c : r.order()) {
    const uint32_t u = static_cast<uint32_t>(c);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::string OrderString(const Ranking& r) {
  std::string out;
  for (CandidateId c : r.order()) {
    if (!out.empty()) out += ' ';
    out += std::to_string(c);
  }
  return out;
}

/// A ranking sorted by a random score plus `bias` for attribute-0 value 0
/// (CYCLIC tables give candidate c value c % 2): the unfair modal shape
/// the load benchmark's ingest workload samples around.
Ranking BiasedOrder(int n, double bias, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<double, CandidateId>> scored;
  for (CandidateId c = 0; c < n; ++c) {
    scored.emplace_back(rng.NextDouble() + (c % 2 == 0 ? bias : 0.0), c);
  }
  std::sort(scored.begin(), scored.end(), std::greater<>());
  std::vector<CandidateId> order;
  for (const auto& [score, c] : scored) order.push_back(c);
  return Ranking(std::move(order));
}

struct GoldenInput {
  std::string name;
  std::shared_ptr<const CandidateTable> table;
  std::shared_ptr<const Grouping> subset;  // owns extra_criteria's grouping
  Ranking start;
  MakeMrFairOptions options;
};

struct GoldenValue {
  const char* name;
  int64_t swaps;
  bool satisfied;
  uint64_t order_hash;
  const char* order;  // full output order for n <= 50, else nullptr
};

std::vector<GoldenInput> GoldenInputs() {
  std::vector<GoldenInput> inputs;
  auto add = [&](std::string name, std::shared_ptr<const CandidateTable> t,
                 Ranking start, MakeMrFairOptions options) {
    inputs.push_back({std::move(name), std::move(t), nullptr,
                      std::move(start), std::move(options)});
  };
  auto with_delta = [](double delta) {
    MakeMrFairOptions o;
    o.delta = delta;
    return o;
  };
  auto cyclic = [](int n) {
    return std::make_shared<const CandidateTable>(testing::CyclicTable(n, 2, 3));
  };
  auto random_case = [&](int n, std::vector<int> domains, uint64_t seed) {
    Rng rng(seed);
    auto t = std::make_shared<const CandidateTable>(
        testing::RandomTable(n, domains, &rng));
    return std::make_pair(t, testing::RandomRanking(n, &rng));
  };

  // n = 7: the identity over CYCLIC(7, 2, 3), whose singleton
  // intersection cells make every threshold unreachable, and random tables.
  {
    auto t = cyclic(7);
    for (double delta : {0.0, 0.3}) {
      add("cyclic7 d=" + std::to_string(delta), t, Ranking::Identity(7),
          with_delta(delta));
    }
  }
  for (uint64_t seed : {1, 2}) {
    auto [t, start] = random_case(7, {2, 2}, 400 + seed);
    for (double delta : {0.0, 0.02, 0.1, 0.3}) {
      add("rand7 s=" + std::to_string(seed) + " d=" + std::to_string(delta),
          t, start, with_delta(delta));
    }
  }
  // n = 50: random tables and starts over three seeds and every delta;
  // delta = 0 is unreachable there, so it stalls, rewinds and kicks.
  for (uint64_t seed : {1, 2, 3}) {
    auto [t, start] = random_case(50, {2, 3}, 500 + seed);
    for (double delta : {0.0, 0.02, 0.1, 0.3}) {
      add("rand50 s=" + std::to_string(seed) + " d=" + std::to_string(delta),
          t, start, with_delta(delta));
    }
  }
  {
    auto [t, start] = random_case(50, {3, 2}, 601);
    MakeMrFairOptions o;
    ManiRankThresholds thresholds;
    thresholds.attribute_delta = {0.02, 0.3};
    thresholds.intersection_delta = 0.15;
    o.thresholds = thresholds;
    add("rand50 thresholds", t, start, o);
    o = with_delta(0.02);
    o.max_swaps = 6;
    add("rand50 max_swaps=6", t, start, o);
    for (uint64_t seed : {7, 8}) {
      o = with_delta(0.05);
      o.swap_policy = MakeMrFairOptions::SwapPolicy::kRandomPair;
      o.seed = seed;
      add("rand50 random-pair seed=" + std::to_string(seed), t, start, o);
    }
    o = with_delta(0.0);
    o.swap_policy = MakeMrFairOptions::SwapPolicy::kRandomPair;
    add("rand50 random-pair d=0", t, start, o);
  }
  // Small unreachable or tight repairs that cycle until the budget runs
  // out: they re-swap pairs still on the tabu list, so they pin its expiry
  // (the oldest copy's expiry un-taboos a pair re-pushed since).
  for (auto [n, domains, seed, delta] :
       {std::make_tuple(12, std::vector<int>{2, 2}, 3120, 0.02),
        std::make_tuple(20, std::vector<int>{4, 2}, 1203, 0.05),
        std::make_tuple(30, std::vector<int>{2, 3}, 2301, 0.02),
        std::make_tuple(120, std::vector<int>{5, 3}, 4204, 0.0)}) {
    auto [t, start] = random_case(n, domains, seed);
    add("tabu" + std::to_string(n) + " d=" + std::to_string(delta), t, start,
        with_delta(delta));
  }
  // Subset-of-attribute intersection as an extra criterion (3 attributes).
  for (int n : {50, 300}) {
    auto [t, start] = random_case(n, {2, 2, 3}, 700 + n);
    auto subset = std::make_shared<const Grouping>(
        t->BuildSubsetIntersection({0, 2}));
    MakeMrFairOptions o = with_delta(0.1);
    o.extra_criteria.push_back({subset.get(), 0.02});
    inputs.push_back({"rand" + std::to_string(n) + " extra_criteria", t,
                      subset, start, o});
    o.use_standard_criteria = false;
    inputs.push_back({"rand" + std::to_string(n) + " extra_only", t, subset,
                      start, o});
  }
  // n = 300: random starts, every delta, both policies.
  for (uint64_t seed : {1, 2}) {
    auto [t, start] = random_case(300, {2, 3}, 800 + seed);
    for (double delta : {0.0, 0.02, 0.1, 0.3}) {
      add("rand300 s=" + std::to_string(seed) + " d=" + std::to_string(delta),
          t, start, with_delta(delta));
    }
    MakeMrFairOptions o = with_delta(0.02);
    o.swap_policy = MakeMrFairOptions::SwapPolicy::kRandomPair;
    o.seed = seed;
    add("rand300 random-pair s=" + std::to_string(seed), t, start, o);
  }
  // n = 300 and 1000: strongly biased starts, long repairs.
  for (int n : {300, 1000}) {
    auto t = cyclic(n);
    const Ranking start = BiasedOrder(n, n == 300 ? 0.3 : 0.05, 900 + n);
    for (double delta : {0.02, 0.1}) {
      add("biased" + std::to_string(n) + " d=" + std::to_string(delta), t,
          start, with_delta(delta));
    }
    MakeMrFairOptions o = with_delta(0.0);
    add("biased" + std::to_string(n) + " d=0", t, start, o);
    o = with_delta(0.05);
    o.swap_policy = MakeMrFairOptions::SwapPolicy::kRandomPair;
    add("biased" + std::to_string(n) + " random-pair", t, start, o);
  }
  // The ingest workload's shape: Copeland over Mallows samples around a
  // biased modal, CYCLIC(500, 2, 3), the default delta.
  {
    auto t = cyclic(500);
    const MallowsModel model(BiasedOrder(500, 0.06, 0x5eed), 0.02);
    const std::vector<Ranking> base = model.SampleMany(64, 17);
    add("copeland500", t, CopelandAggregate(PrecedenceMatrix::Build(base)),
        with_delta(0.1));
  }
  return inputs;
}

const GoldenValue kGolden[] = {
    {"cyclic7 d=0.000000", 21, false, 0x420cc48b77f6e6d2ULL,
     "0 5 2 3 4 1 6"},
    {"cyclic7 d=0.300000", 21, false, 0x420cc48b77f6e6d2ULL,
     "0 5 2 3 4 1 6"},
    {"rand7 s=1 d=0.000000", 2, true, 0xb9102f14b06cc6b2ULL,
     "6 4 5 2 0 3 1"},
    {"rand7 s=1 d=0.020000", 2, true, 0xb9102f14b06cc6b2ULL,
     "6 4 5 2 0 3 1"},
    {"rand7 s=1 d=0.100000", 2, true, 0xb9102f14b06cc6b2ULL,
     "6 4 5 2 0 3 1"},
    {"rand7 s=1 d=0.300000", 0, true, 0x12696a961043c342ULL,
     "4 6 2 5 0 3 1"},
    {"rand7 s=2 d=0.000000", 1, true, 0x52aafba1b05e2ae2ULL,
     "6 3 1 0 4 5 2"},
    {"rand7 s=2 d=0.020000", 1, true, 0x52aafba1b05e2ae2ULL,
     "6 3 1 0 4 5 2"},
    {"rand7 s=2 d=0.100000", 1, true, 0x52aafba1b05e2ae2ULL,
     "6 3 1 0 4 5 2"},
    {"rand7 s=2 d=0.300000", 0, true, 0xbf7c55879b3bca52ULL,
     "6 3 0 1 4 5 2"},
    {"rand50 s=1 d=0.000000", 1225, false, 0x1ad4e71e57f22c04ULL,
     "27 2 7 0 43 12 6 44 1 33 23 20 46 10 25 15 34 47 49 30 48 32 17 9 "
     "11 24 39 21 37 45 14 4 22 18 28 41 31 8 42 36 29 35 16 13 3 26 40 "
     "38 5 19"},
    {"rand50 s=1 d=0.020000", 17, true, 0x8f8435d5f27cfbb4ULL,
     "27 2 7 0 43 12 6 44 1 33 23 20 46 10 34 15 25 47 49 30 48 17 32 9 "
     "11 24 39 21 37 45 14 4 22 18 28 31 41 8 42 36 29 35 16 13 3 26 40 "
     "38 5 19"},
    {"rand50 s=1 d=0.100000", 5, true, 0xb270189836b1dbd4ULL,
     "27 1 7 0 33 43 2 23 12 46 44 20 6 10 34 15 17 25 49 30 48 24 32 9 "
     "11 47 39 21 37 45 14 4 22 18 28 31 41 8 42 36 29 35 16 13 3 26 40 "
     "38 5 19"},
    {"rand50 s=1 d=0.300000", 0, true, 0xfa964116fba076b4ULL,
     "27 1 7 0 33 43 2 23 10 46 44 15 6 12 34 20 17 25 49 30 48 24 32 9 "
     "11 45 39 21 37 47 14 4 22 18 28 31 41 8 42 36 29 35 16 13 3 26 40 "
     "38 5 19"},
    {"rand50 s=2 d=0.000000", 1225, false, 0x3bada6a2fe3ad174ULL,
     "2 18 40 1 0 22 42 19 41 49 6 46 29 35 39 31 36 23 14 12 15 9 4 21 "
     "5 45 48 44 33 17 27 26 20 38 16 24 11 47 37 43 13 7 28 10 3 8 25 "
     "34 30 32"},
    {"rand50 s=2 d=0.020000", 34, true, 0x26e78fd8e97bc2a4ULL,
     "2 18 40 1 22 0 42 19 41 46 6 29 49 35 39 31 36 23 14 12 15 4 9 21 "
     "5 45 20 44 33 17 27 26 48 38 16 24 11 47 13 10 37 7 28 43 3 8 25 "
     "34 30 32"},
    {"rand50 s=2 d=0.100000", 14, true, 0xbe6be5073cf40934ULL,
     "40 2 18 1 41 22 46 19 29 0 6 35 42 39 31 23 36 12 14 15 21 4 9 45 "
     "5 48 49 44 33 17 27 26 20 38 16 24 11 47 13 10 37 7 28 43 3 8 25 "
     "34 30 32"},
    {"rand50 s=2 d=0.300000", 3, true, 0x3ec52cff605a95b4ULL,
     "40 2 18 1 41 35 46 19 29 0 6 39 42 31 23 12 36 15 14 21 5 4 9 45 "
     "26 48 16 44 33 17 27 22 20 38 24 49 11 47 13 10 37 7 28 43 3 8 25 "
     "34 30 32"},
    {"rand50 s=3 d=0.000000", 1225, false, 0xa3700482185c2a04ULL,
     "1 37 24 17 49 44 32 35 46 4 41 39 14 31 9 29 2 30 12 16 18 48 42 "
     "34 36 15 21 22 8 10 40 26 11 13 45 47 0 5 23 19 25 43 7 38 33 3 6 "
     "20 28 27"},
    {"rand50 s=3 d=0.020000", 35, true, 0x593a4acb7d451ee4ULL,
     "1 37 24 46 32 49 44 35 39 4 17 14 41 31 9 29 2 30 42 12 18 48 16 "
     "34 36 15 21 22 8 10 40 11 26 13 5 47 0 45 23 19 25 43 7 38 3 27 6 "
     "20 28 33"},
    {"rand50 s=3 d=0.100000", 18, true, 0x203e7c9d0d602374ULL,
     "1 32 44 4 35 37 46 39 14 24 31 17 49 2 9 29 41 30 42 12 18 48 26 "
     "34 36 15 21 22 8 10 40 11 16 13 5 47 0 45 23 19 25 43 7 38 3 27 6 "
     "20 28 33"},
    {"rand50 s=3 d=0.300000", 0, true, 0xdcba6cfd7bd13ff4ULL,
     "35 32 44 4 39 1 2 37 14 30 31 24 12 48 9 29 46 49 42 41 18 26 17 "
     "34 36 15 21 22 8 10 40 11 13 47 5 16 0 45 23 19 25 43 7 38 3 27 6 "
     "20 28 33"},
    {"rand50 thresholds", 31, true, 0xdc6f037463d51384ULL,
     "0 18 44 24 6 38 34 4 42 19 11 15 13 46 48 37 36 1 30 5 45 20 17 25 "
     "7 27 49 26 41 22 21 47 29 10 14 3 9 39 12 40 28 32 33 16 31 8 2 43 "
     "23 35"},
    {"rand50 max_swaps=6", 6, false, 0xab27ba656bdda664ULL,
     "0 18 44 24 36 38 34 48 4 6 5 42 11 15 1 17 13 46 20 30 45 41 37 25 "
     "7 27 49 26 29 22 21 47 19 10 14 3 9 39 12 40 28 32 33 16 31 8 2 43 "
     "23 35"},
    {"rand50 random-pair seed=7", 7, true, 0xe801bba58230e2f4ULL,
     "0 18 44 24 5 38 34 48 4 36 6 42 11 15 1 19 13 46 20 30 45 8 37 25 "
     "7 27 49 26 17 22 31 47 35 10 14 3 9 39 41 40 28 32 33 16 21 29 2 "
     "43 23 12"},
    {"rand50 random-pair seed=8", 4, true, 0x04a8453ad17d6394ULL,
     "0 18 44 36 5 38 34 48 4 24 35 42 11 15 1 41 13 46 20 30 45 2 14 25 "
     "7 31 49 26 6 22 21 47 19 10 37 3 9 39 12 40 28 32 33 16 27 8 29 43 "
     "23 17"},
    {"rand50 random-pair d=0", 1225, false, 0x1fac1b8959102bc4ULL,
     "0 45 44 32 30 38 34 48 4 24 40 5 11 15 1 41 13 46 20 42 18 35 31 "
     "25 36 27 49 23 6 22 21 47 37 10 39 3 29 17 12 7 28 26 33 16 19 9 2 "
     "43 14 8"},
    {"tabu12 d=0.020000", 66, false, 0x8fa5244532035565ULL,
     "11 8 6 1 4 2 10 9 0 7 5 3"},
    {"tabu20 d=0.050000", 190, false, 0x7f7130f2225a8c55ULL,
     "11 8 14 12 7 17 4 9 13 16 3 6 19 5 15 18 1 0 10 2"},
    {"tabu30 d=0.020000", 435, false, 0xab562391735bb874ULL,
     "29 18 12 28 5 1 0 10 25 8 27 20 16 21 24 23 6 14 19 9 22 2 4 11 15 "
     "17 13 26 7 3"},
    {"tabu120 d=0.000000", 3598, false, 0x9e83209461738045ULL, nullptr},
    {"rand50 extra_criteria", 35, true, 0x55497f98c3b7de14ULL,
     "24 20 42 0 39 26 23 14 1 30 7 9 35 46 13 17 32 18 36 4 22 45 31 29 "
     "5 3 25 40 37 2 11 10 8 34 21 16 12 47 43 33 48 15 28 19 38 6 49 27 "
     "44 41"},
    {"rand50 extra_only", 40, true, 0xd6aa0624b63842e4ULL,
     "20 23 24 42 45 0 7 1 31 30 17 14 9 39 35 32 22 26 46 4 13 18 29 5 "
     "10 36 3 25 40 2 11 37 8 34 21 16 12 47 43 33 48 15 28 19 38 6 49 "
     "27 44 41"},
    {"rand300 extra_criteria", 196, true, 0x3e75d15c50bf2c71ULL, nullptr},
    {"rand300 extra_only", 210, true, 0x075a5be6c64568f1ULL, nullptr},
    {"rand300 s=1 d=0.000000", 8772, false, 0x5c22147ef5469c5dULL, nullptr},
    {"rand300 s=1 d=0.020000", 180, true, 0x7f50d93c803cf12dULL, nullptr},
    {"rand300 s=1 d=0.100000", 0, true, 0xddcc6de2e93137b5ULL, nullptr},
    {"rand300 s=1 d=0.300000", 0, true, 0xddcc6de2e93137b5ULL, nullptr},
    {"rand300 random-pair s=1", 10, true, 0xee8bc201af02e1b9ULL, nullptr},
    {"rand300 s=2 d=0.000000", 9443, false, 0x046ddebd8cd7a8edULL, nullptr},
    {"rand300 s=2 d=0.020000", 866, true, 0x46c40324aa7ff181ULL, nullptr},
    {"rand300 s=2 d=0.100000", 222, true, 0x89ecb15dcc6e7e21ULL, nullptr},
    {"rand300 s=2 d=0.300000", 0, true, 0xd04a2241483f6701ULL, nullptr},
    {"rand300 random-pair s=2", 13, true, 0x08a951c034fdb679ULL, nullptr},
    {"biased300 d=0.020000", 5051, true, 0xf09ab6734c1c317dULL, nullptr},
    {"biased300 d=0.100000", 4344, true, 0xbb2b060b7c9c2acdULL, nullptr},
    {"biased300 d=0", 5241, true, 0x652d0c2b15386ef9ULL, nullptr},
    {"biased300 random-pair", 58, true, 0xf9a0e36d71e021e9ULL, nullptr},
    {"biased1000 d=0.020000", 9808, true, 0x4fc20621666792edULL, nullptr},
    {"biased1000 d=0.100000", 395, true, 0x7be01c786fa63799ULL, nullptr},
    {"biased1000 d=0", 40517, false, 0xf25e218a58bcc075ULL, nullptr},
    {"biased1000 random-pair", 28, true, 0x8eddf7ce1efc5c9dULL, nullptr},
    {"copeland500", 490, true, 0x0ebf8d3bfc86436dULL, nullptr},
};

TEST(MakeMrFairGoldenTest, SwapDecisionsMatchRecordedValues) {
  const std::vector<GoldenInput> inputs = GoldenInputs();
  const size_t recorded = sizeof(kGolden) / sizeof(kGolden[0]);
  for (size_t i = 0; i < inputs.size(); ++i) {
    const GoldenInput& in = inputs[i];
    const MakeMrFairResult r = MakeMrFair(in.start, *in.table, in.options);
    const uint64_t hash = OrderHash(r.ranking);
    const std::string order = r.ranking.size() <= 50
                                  ? "\"" + OrderString(r.ranking) + "\""
                                  : "nullptr";
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof(hash_hex), "0x%016llxULL",
                  static_cast<unsigned long long>(hash));
    const std::string actual = "{\"" + in.name + "\", " +
                               std::to_string(r.swaps) + ", " +
                               (r.satisfied ? "true" : "false") + ", " +
                               hash_hex + ", " + order + "},";
    if (i >= recorded) {
      ADD_FAILURE() << "unrecorded case:\n" << actual;
      continue;
    }
    const GoldenValue& want = kGolden[i];
    EXPECT_EQ(in.name, want.name);
    EXPECT_EQ(r.swaps, want.swaps) << actual;
    EXPECT_EQ(r.satisfied, want.satisfied) << actual;
    EXPECT_EQ(hash, want.order_hash) << actual;
    if (want.order != nullptr) {
      EXPECT_EQ(OrderString(r.ranking), want.order);
    }
  }
  EXPECT_EQ(inputs.size(), recorded);
}

}  // namespace
}  // namespace manirank
