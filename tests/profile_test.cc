// Compact retained profile (core/profile.h): row width follows n, Erase
// moves handles and never row bytes, and a context over compact rows is
// bit-identical to the Ranking objects it replaced. Randomized
// AddRanking / AddRankings / RemoveRanking interleavings run against a
// std::vector<Ranking> shadow; the caches are checked against references
// computed from the shadow's Ranking objects, the method sweep against
// the free Ranking-based baselines and a fresh context, and exact
// snapshots against the bytes the shadow serializes to.

#include "core/profile.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/context.h"
#include "core/distance.h"
#include "core/method_registry.h"
#include "data/snapshot.h"
#include "mallows/mallows.h"
#include "test_util.h"
#include "util/rng.h"

namespace manirank {
namespace {

std::string ToBytes(const TableSnapshot& snapshot) {
  return EncodeTableSnapshot(snapshot);
}

TableSnapshot FromBytes(const std::string& bytes) {
  return DecodeTableSnapshot(bytes);
}

/// W summed one scalar Ranking fold at a time: the reference the
/// compact-row builds must match bit for bit.
PrecedenceMatrix ScalarReference(const std::vector<Ranking>& rankings,
                                 int n) {
  PrecedenceMatrix w = PrecedenceMatrix::Zero(n);
  for (const Ranking& r : rankings) w.AddRanking(r);
  return w;
}

std::vector<int64_t> BordaReference(const std::vector<Ranking>& rankings,
                                    int n) {
  std::vector<int64_t> points(static_cast<size_t>(n), 0);
  for (const Ranking& r : rankings) {
    for (int p = 0; p < n; ++p) points[r.At(p)] += n - 1 - p;
  }
  return points;
}

void ExpectRowsEqual(const Profile& profile,
                     const std::vector<Ranking>& shadow) {
  ASSERT_EQ(profile.size(), shadow.size());
  for (size_t i = 0; i < shadow.size(); ++i) {
    ASSERT_EQ(profile[i].order(), shadow[i].order()) << "row " << i;
  }
}

TEST(ProfileTest, RowWidthFollowsCandidateCount) {
  EXPECT_EQ(Profile(1).id_bytes(), 2u);
  EXPECT_EQ(Profile(Profile::kMaxNarrowCandidates).id_bytes(), 2u);
  EXPECT_EQ(Profile(Profile::kMaxNarrowCandidates + 1).id_bytes(), 4u);
  Profile profile(3);
  EXPECT_THROW(profile.Append(Ranking::Identity(4)), std::invalid_argument);
  EXPECT_TRUE(profile.empty());
}

TEST(ProfileTest, EraseMovesHandlesNotRowBytes) {
  Rng rng(5);
  std::vector<Ranking> rankings;
  for (int i = 0; i < 5; ++i) rankings.push_back(testing::RandomRanking(9, &rng));
  Profile profile(rankings);
  std::vector<const void*> rows;
  for (size_t i = 0; i < profile.size(); ++i) {
    profile.VisitRow(i, [&](const auto* row) { rows.push_back(row); });
  }
  profile.Erase(1);
  rankings.erase(rankings.begin() + 1);
  rows.erase(rows.begin() + 1);
  ExpectRowsEqual(profile, rankings);
  for (size_t i = 0; i < profile.size(); ++i) {
    profile.VisitRow(i, [&](const auto* row) {
      EXPECT_EQ(static_cast<const void*>(row), rows[i]) << "row " << i;
    });
  }
  // A copy packs the same rankings into fresh rows.
  const Profile copy = profile;
  ExpectRowsEqual(copy, rankings);
}

TEST(ProfileEquivalenceTest, InterleavedMutationsMatchTheRankingShadow) {
  for (int n : {1, 2, 9, 63, 64, 65, 500}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(900 + n);
    const CandidateTable table = testing::CyclicTable(n, 2, 3);
    const MallowsModel model(testing::RandomRanking(n, &rng), 0.8);
    std::vector<Ranking> shadow = model.SampleMany(70, 31 + n);
    ConsensusContext ctx(shadow, table);
    // Warm the incremental caches so the mutations take the delta paths.
    ctx.Precedence();
    ctx.BordaPoints();
    ctx.BaseParityScores();
    int serial = 0;
    for (int op = 0; op < 40; ++op) {
      const uint64_t pick = rng.NextUint64(4);
      if (pick == 0 && shadow.size() > 2) {
        const size_t index = rng.NextUint64(shadow.size());
        ctx.RemoveRanking(index);
        shadow.erase(shadow.begin() + static_cast<ptrdiff_t>(index));
      } else if (pick == 1) {
        // Past one 64-ranking kernel chunk now and then.
        const size_t count = op % 8 == 1 ? 67 : 1 + rng.NextUint64(5);
        std::vector<Ranking> batch;
        for (size_t b = 0; b < count; ++b) {
          Rng sample_rng = MallowsModel::SampleRng(n, 5000 + serial++);
          batch.push_back(model.Sample(&sample_rng));
        }
        shadow.insert(shadow.end(), batch.begin(), batch.end());
        ctx.AddRankings(std::move(batch));
      } else {
        Rng sample_rng = MallowsModel::SampleRng(n, 5000 + serial++);
        Ranking extra = model.Sample(&sample_rng);
        shadow.push_back(extra);
        ctx.AddRanking(std::move(extra));
      }
    }
    ExpectRowsEqual(ctx.base_rankings(), shadow);

    // Caches maintained by deltas, and rebuilt from compact rows, equal
    // the Ranking-object references.
    const PrecedenceMatrix reference = ScalarReference(shadow, n);
    ConsensusContext fresh(shadow, table);
    EXPECT_EQ(ctx.Precedence().ToDense(), reference.ToDense());
    EXPECT_EQ(fresh.Precedence().ToDense(), reference.ToDense());
    EXPECT_EQ(PrecedenceMatrix::Build(ctx.base_rankings()).ToDense(),
              PrecedenceMatrix::Build(shadow).ToDense());
    EXPECT_EQ(ctx.BordaPoints(), BordaReference(shadow, n));
    EXPECT_EQ(fresh.BordaPoints(), BordaReference(shadow, n));
    std::vector<double> parity;
    for (const Ranking& r : shadow) parity.push_back(MaxParityScore(r, table));
    EXPECT_EQ(ctx.BaseParityScores(), parity);
    EXPECT_EQ(fresh.BaseParityScores(), parity);
    const std::vector<double>& weights = ctx.KemenyFairnessWeights();
    EXPECT_EQ(ctx.WeightedPrecedence(weights).ToDense(),
              PrecedenceMatrix::BuildWeighted(shadow, weights).ToDense());
    EXPECT_EQ(PdLoss(ctx.base_rankings(), shadow[0]), PdLoss(shadow, shadow[0]));

    // The sweep, B2-B4 included, matches a fresh context and the
    // Ranking-based baselines. Fair-Kemeny's ILP reads nothing but W
    // (checked above) and takes minutes past n = 9, so the larger
    // profiles sweep every other method.
    ConsensusOptions options;
    options.delta = 0.2;
    options.time_limit_seconds = 60.0;
    std::vector<const MethodSpec*> sweep;
    for (const MethodSpec& method : AllMethods()) {
      if (n <= 9 || method.id != "A1") sweep.push_back(&method);
    }
    const std::vector<ConsensusOutput> mutated = ctx.RunMethods(sweep, options);
    const std::vector<ConsensusOutput> rebuilt =
        fresh.RunMethods(sweep, options);
    ASSERT_EQ(mutated.size(), rebuilt.size());
    for (size_t i = 0; i < mutated.size(); ++i) {
      EXPECT_EQ(mutated[i].consensus.order(), rebuilt[i].consensus.order())
          << sweep[i]->name;
      EXPECT_EQ(mutated[i].satisfied, rebuilt[i].satisfied) << sweep[i]->name;
    }
    EXPECT_EQ(ctx.RunMethod("B3", options).consensus,
              PickFairestPerm(shadow, table));
    MakeMrFairOptions mmf;
    mmf.delta = options.delta;
    EXPECT_EQ(ctx.RunMethod("B4", options).consensus.order(),
              CorrectFairestPerm(shadow, table, mmf).ranking.order());

    // Exact SNAPSHOT / RESTORE: the bytes equal the shadow's, and the
    // restored context serves the same sweep.
    const std::string bytes =
        ToBytes(TableSnapshot{table, ctx.Snapshot(), 1, shadow.size(),
                              /*retained=*/true, ctx.base_rankings()});
    EXPECT_EQ(bytes, ToBytes(TableSnapshot{table, ctx.Snapshot(), 1,
                                           shadow.size(), true, shadow}));
    TableSnapshot restored = FromBytes(bytes);
    ExpectRowsEqual(restored.base_rankings, shadow);
    ConsensusContext back(std::move(restored.base_rankings),
                          std::move(restored.summary), table);
    EXPECT_EQ(back.Precedence().ToDense(), reference.ToDense());
    EXPECT_EQ(back.BordaPoints(), BordaReference(shadow, n));
    const std::vector<ConsensusOutput> after = back.RunMethods(sweep, options);
    ASSERT_EQ(after.size(), mutated.size());
    for (size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i].consensus.order(), mutated[i].consensus.order())
          << sweep[i]->name;
    }
  }
}

TEST(ProfileEquivalenceTest, WideRowsAboveSixtyFiveThousandCandidates) {
  // n > 65535 takes 4-byte rows. W would be 32 GiB here, so this checks
  // rows, Borda, parity and the exact snapshot round trip only.
  const int n = Profile::kMaxNarrowCandidates + 2;
  Rng rng(77);
  const CandidateTable table = testing::CyclicTable(n, 2, 2);
  std::vector<Ranking> shadow = {testing::RandomRanking(n, &rng),
                                 testing::RandomRanking(n, &rng)};
  ConsensusContext ctx(shadow, table);
  EXPECT_EQ(ctx.base_rankings().id_bytes(), 4u);
  ctx.BordaPoints();
  ctx.BaseParityScores();
  Ranking extra = testing::RandomRanking(n, &rng);
  shadow.push_back(extra);
  ctx.AddRanking(std::move(extra));
  ctx.RemoveRanking(0);
  shadow.erase(shadow.begin());
  ExpectRowsEqual(ctx.base_rankings(), shadow);
  EXPECT_EQ(ctx.BordaPoints(), BordaReference(shadow, n));
  EXPECT_EQ(ctx.BaseParityScores(),
            (std::vector<double>{MaxParityScore(shadow[0], table),
                                 MaxParityScore(shadow[1], table)}));
  EXPECT_EQ(ctx.base_rankings()[ctx.FairestBaseIndex()],
            PickFairestPerm(shadow, table));

  const auto borda_only = [&] {
    StreamingSummary summary;
    summary.num_candidates = n;
    summary.num_rankings = 2;
    summary.generation = ctx.generation();
    summary.borda_points = ctx.BordaPoints();
    return summary;
  };
  const std::string bytes = ToBytes(
      TableSnapshot{table, borda_only(), 0, 2, true, ctx.base_rankings()});
  EXPECT_EQ(bytes,
            ToBytes(TableSnapshot{table, borda_only(), 0, 2, true, shadow}));
  TableSnapshot restored = FromBytes(bytes);
  EXPECT_EQ(restored.base_rankings.id_bytes(), 4u);
  ExpectRowsEqual(restored.base_rankings, shadow);
  ConsensusContext back(std::move(restored.base_rankings),
                        std::move(restored.summary), table);
  EXPECT_EQ(back.BordaPoints(), BordaReference(shadow, n));
  EXPECT_EQ(back.BaseParityScores(), ctx.BaseParityScores());
}

}  // namespace
}  // namespace manirank
