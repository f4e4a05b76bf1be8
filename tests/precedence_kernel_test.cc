// Forced-kernel equivalence suite for the batch precedence path.
//
// The contract under test: every kernel flavor (scalar reference, portable
// position-compare kernel, its AVX2 build where the CPU has it) produces
// bit-identical matrices on every eligible input — builds, batch folds,
// negative-weight batch removals, interleavings with scalar deltas — and
// the ineligible cases (non-unit weights, cells near the 2^53
// exact-integer envelope) loudly degrade to the scalar path with identical
// results. The batch kernel compares int16 positions in 64-candidate tiles
// (8 lanes under SSE2, 16 under AVX2) and only runs for n <= 32767, so the
// sizes below straddle the lane, tile and 64-row block edges.
//
// MANIRANK_KERNEL is re-read on every build/batch, so each test simply
// sets the variable around the calls it wants forced. Tests run
// single-threaded at the point of setenv (ParallelFor workers only read
// the resolved kernel), matching the documented contract.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/precedence.h"
#include "core/ranking.h"
#include "test_util.h"
#include "util/cpu_dispatch.h"
#include "util/rng.h"

namespace manirank {
namespace {

using ::manirank::testing::AllPrecedenceKernels;
using ::manirank::testing::RandomRanking;
using ::manirank::testing::ScopedKernelEnv;

std::vector<Ranking> RandomProfile(int n, int m, Rng* rng) {
  std::vector<Ranking> profile;
  profile.reserve(m);
  for (int i = 0; i < m; ++i) profile.push_back(RandomRanking(n, rng));
  return profile;
}

// `m` copies of one random ranking, a few of them with one adjacent swap:
// most per-batch cell counts are exactly 0 or m.
std::vector<Ranking> NearUnanimousProfile(int n, int m, Rng* rng) {
  const Ranking base = RandomRanking(n, rng);
  std::vector<Ranking> profile(m, base);
  for (int i = 0; i < m; i += 16) {
    const int p = static_cast<int>(rng->NextUint64(n - 1));
    profile[i].SwapPositions(p, p + 1);
  }
  return profile;
}

TEST(PrecedenceKernelTest, ActiveKernelNameTracksEnv) {
  {
    ScopedKernelEnv env("scalar");
    EXPECT_STREQ(PrecedenceMatrix::ActiveKernelName(), "scalar");
  }
  {
    ScopedKernelEnv env("portable");
    EXPECT_STREQ(PrecedenceMatrix::ActiveKernelName(), "portable");
  }
  if (CpuSupportsAvx2()) {
    ScopedKernelEnv env("avx2");
    EXPECT_STREQ(PrecedenceMatrix::ActiveKernelName(), "avx2");
  }
  {
    // Auto resolves to one of the batch-kernel flavors, never scalar.
    ScopedKernelEnv env(nullptr);
    const std::string name = PrecedenceMatrix::ActiveKernelName();
    EXPECT_TRUE(name == "portable" || name == "avx2") << name;
  }
}

TEST(PrecedenceKernelTest, UnknownKernelValueFallsBackToAuto) {
  ScopedKernelEnv forced("definitely-not-a-kernel");
  const std::string name = PrecedenceMatrix::ActiveKernelName();
  EXPECT_TRUE(name == "portable" || name == "avx2") << name;
  Rng rng(11);
  const std::vector<Ranking> base = RandomProfile(70, 9, &rng);
  const PrecedenceMatrix built = PrecedenceMatrix::Build(base);
  ScopedKernelEnv scalar("scalar");
  EXPECT_EQ(built.ToDense(), PrecedenceMatrix::Build(base).ToDense());
}

// Build across sizes straddling every SSE/AVX lane edge (n at 15/16/17),
// tile/block edge (63/64/65, 127/128/129), two-block 100/130, multi-block
// 200/500) and batch boundary (m at 64/65/130) must match the scalar
// reference exactly.
TEST(PrecedenceKernelTest, BuildMatchesScalarAcrossSizes) {
  Rng rng(7);
  for (int n : {1, 2, 3, 15, 16, 17, 63, 64, 65, 100, 127, 128, 129, 130, 200,
                500}) {
    for (int m : {1, 5, 64, 65, 130}) {
      const std::vector<Ranking> base = RandomProfile(n, m, &rng);
      std::vector<std::vector<double>> reference;
      {
        ScopedKernelEnv env("scalar");
        reference = PrecedenceMatrix::Build(base).ToDense();
      }
      for (const std::string& kernel : AllPrecedenceKernels()) {
        ScopedKernelEnv env(kernel.c_str());
        EXPECT_EQ(PrecedenceMatrix::Build(base).ToDense(), reference)
            << "kernel=" << kernel << " n=" << n << " m=" << m;
      }
    }
  }
}

// A batch fold onto a warm (non-zero) matrix equals folding the same
// rankings one at a time through the scalar per-pair loop. n = 500 with
// batch 64 is the serving fold shape; the near-unanimous batch drives
// per-batch cell counts to exactly 0 and 64.
TEST(PrecedenceKernelTest, AddRankingsBatchMatchesScalarFolds) {
  Rng rng(19);
  struct Case {
    int n;
    int batch_size;
    bool near_unanimous;
  };
  for (const Case& c : {Case{90, 1, false}, Case{90, 63, false},
                        Case{90, 64, false}, Case{90, 65, false},
                        Case{90, 200, false}, Case{500, 64, false},
                        Case{500, 1, false}, Case{130, 64, true}}) {
    const int n = c.n;
    const std::vector<Ranking> warm = RandomProfile(n, 37, &rng);
    const std::vector<Ranking> batch =
        c.near_unanimous ? NearUnanimousProfile(n, c.batch_size, &rng)
                         : RandomProfile(n, c.batch_size, &rng);
    if (c.near_unanimous) {
      ScopedKernelEnv env("scalar");
      double lo = c.batch_size, hi = 0;
      const PrecedenceMatrix delta = PrecedenceMatrix::Build(batch);
      for (int a = 0; a < n; ++a) {
        for (int b = 0; b < n; ++b) {
          if (a == b) continue;
          lo = std::min(lo, delta.W(a, b));
          hi = std::max(hi, delta.W(a, b));
        }
      }
      ASSERT_EQ(lo, 0.0);
      ASSERT_EQ(hi, static_cast<double>(c.batch_size));
    }
    std::vector<std::vector<double>> reference;
    {
      ScopedKernelEnv env("scalar");
      PrecedenceMatrix w = PrecedenceMatrix::Build(warm);
      for (const Ranking& r : batch) w.AddRanking(r);
      reference = w.ToDense();
    }
    for (const std::string& kernel : AllPrecedenceKernels()) {
      ScopedKernelEnv env(kernel.c_str());
      PrecedenceMatrix w = PrecedenceMatrix::Build(warm);
      w.AddRankingsBatch(batch);
      EXPECT_EQ(w.ToDense(), reference)
          << "kernel=" << kernel << " n=" << n << " batch=" << c.batch_size
          << (c.near_unanimous ? " near-unanimous" : "");
    }
  }
}

// RemoveRankingsBatch is AddRankingsBatch at weight -1: adding a batch and
// removing it again restores the original bits exactly, under every kernel.
TEST(PrecedenceKernelTest, BatchRemoveRoundTripsExactly) {
  Rng rng(23);
  for (const auto& [n, batch_size] :
       {std::pair{130, 96}, std::pair{500, 64}, std::pair{500, 1}}) {
    const std::vector<Ranking> warm = RandomProfile(n, 20, &rng);
    const std::vector<Ranking> batch = RandomProfile(n, batch_size, &rng);
    for (const std::string& kernel : AllPrecedenceKernels()) {
      ScopedKernelEnv env(kernel.c_str());
      PrecedenceMatrix w = PrecedenceMatrix::Build(warm);
      const std::vector<std::vector<double>> before = w.ToDense();
      w.AddRankingsBatch(batch);
      w.RemoveRankingsBatch(batch);
      EXPECT_EQ(w.ToDense(), before)
          << "kernel=" << kernel << " n=" << n << " batch=" << batch_size;
    }
  }
}

// Random interleavings of batch folds, batch removals, and scalar
// single-ranking deltas must land on the bits of a scalar rebuild over the
// surviving profile.
TEST(PrecedenceKernelTest, InterleavedBatchAndScalarDeltasMatchRebuild) {
  const int n = 75;
  for (const std::string& kernel : AllPrecedenceKernels()) {
    Rng rng(31);  // same op sequence per kernel
    ScopedKernelEnv env(kernel.c_str());
    PrecedenceMatrix w = PrecedenceMatrix::Zero(n);
    std::vector<Ranking> alive;
    for (int step = 0; step < 12; ++step) {
      const uint64_t op = rng.NextUint64(3);
      if (op == 0) {  // batch add
        const std::vector<Ranking> batch =
            RandomProfile(n, 1 + static_cast<int>(rng.NextUint64(70)), &rng);
        w.AddRankingsBatch(batch);
        alive.insert(alive.end(), batch.begin(), batch.end());
      } else if (op == 1 && alive.size() >= 8) {  // batch remove a suffix
        const size_t count = 1 + rng.NextUint64(alive.size() / 2);
        w.RemoveRankingsBatch(&alive[alive.size() - count], count);
        alive.resize(alive.size() - count);
      } else {  // scalar single-ranking delta
        alive.push_back(RandomRanking(n, &rng));
        w.AddRanking(alive.back());
      }
    }
    ScopedKernelEnv scalar("scalar");
    EXPECT_EQ(w.ToDense(), PrecedenceMatrix::Build(alive).ToDense())
        << "kernel=" << kernel;
  }
}

// Non-unit (and non-integer) batch weights are ineligible for the
// batch kernel; the fallback must still produce the scalar bits.
TEST(PrecedenceKernelTest, NonUnitWeightBatchFallsBackToScalarBits) {
  Rng rng(41);
  const int n = 66;
  const std::vector<Ranking> batch = RandomProfile(n, 80, &rng);
  std::vector<std::vector<double>> reference;
  {
    ScopedKernelEnv env("scalar");
    PrecedenceMatrix w = PrecedenceMatrix::Zero(n);
    for (const Ranking& r : batch) w.AddRanking(r, 2.5);
    reference = w.ToDense();
  }
  for (const std::string& kernel : AllPrecedenceKernels()) {
    ScopedKernelEnv env(kernel.c_str());
    PrecedenceMatrix w = PrecedenceMatrix::Zero(n);
    w.AddRankingsBatch(batch, 2.5);
    EXPECT_EQ(w.ToDense(), reference) << "kernel=" << kernel;
  }
}

// Once a non-integer weight has touched the matrix, later unit batches
// must also take the scalar path (collapsing 64 adds into one is no longer
// bit-identical against a fractional cell) — equivalence is against the
// scalar per-ranking fold sequence, not the collapsed add.
TEST(PrecedenceKernelTest, FractionalCellsForceScalarBatchSemantics) {
  Rng rng(43);
  const int n = 70;
  const Ranking fractional = RandomRanking(n, &rng);
  const std::vector<Ranking> batch = RandomProfile(n, 64, &rng);
  std::vector<std::vector<double>> reference;
  {
    ScopedKernelEnv env("scalar");
    PrecedenceMatrix w = PrecedenceMatrix::Zero(n);
    w.AddRanking(fractional, 0.1);
    for (const Ranking& r : batch) w.AddRanking(r);
    reference = w.ToDense();
  }
  for (const std::string& kernel : AllPrecedenceKernels()) {
    ScopedKernelEnv env(kernel.c_str());
    PrecedenceMatrix w = PrecedenceMatrix::Zero(n);
    w.AddRanking(fractional, 0.1);
    w.AddRankingsBatch(batch);
    EXPECT_EQ(w.ToDense(), reference) << "kernel=" << kernel;
  }
}

// A matrix restored from dense cells near the 2^53 exact-integer envelope
// must refuse the collapsed batch add (cells would cross the envelope
// mid-batch under per-ranking folds) and still match the scalar sequence.
TEST(PrecedenceKernelTest, NearExactIntegerLimitFallsBackToScalarBits) {
  Rng rng(47);
  const int n = 12;
  const double near_limit = PrecedenceMatrix::kExactIntegerLimit - 32.0;
  std::vector<std::vector<double>> dense(n, std::vector<double>(n, near_limit));
  for (int a = 0; a < n; ++a) dense[a][a] = 0.0;
  const std::vector<Ranking> batch = RandomProfile(n, 64, &rng);
  std::vector<std::vector<double>> reference;
  {
    ScopedKernelEnv env("scalar");
    PrecedenceMatrix w{dense};
    for (const Ranking& r : batch) w.AddRanking(r);
    reference = w.ToDense();
  }
  for (const std::string& kernel : AllPrecedenceKernels()) {
    ScopedKernelEnv env(kernel.c_str());
    PrecedenceMatrix w{dense};
    w.AddRankingsBatch(batch);
    EXPECT_EQ(w.ToDense(), reference) << "kernel=" << kernel;
  }
}

// A dense restore of ordinary integer cells (the snapshot path) stays
// batch-eligible: batches folded after a restore match the scalar bits.
TEST(PrecedenceKernelTest, DenseRestoreKeepsBatchPathExact) {
  Rng rng(53);
  const int n = 80;
  const std::vector<Ranking> original = RandomProfile(n, 30, &rng);
  const std::vector<Ranking> appended = RandomProfile(n, 64, &rng);
  std::vector<std::vector<double>> reference;
  {
    ScopedKernelEnv env("scalar");
    PrecedenceMatrix restored{PrecedenceMatrix::Build(original).ToDense()};
    for (const Ranking& r : appended) restored.AddRanking(r);
    reference = restored.ToDense();
  }
  for (const std::string& kernel : AllPrecedenceKernels()) {
    ScopedKernelEnv env(kernel.c_str());
    PrecedenceMatrix restored{PrecedenceMatrix::Build(original).ToDense()};
    restored.AddRankingsBatch(appended);
    EXPECT_EQ(restored.ToDense(), reference) << "kernel=" << kernel;
  }
}

// Merging per-worker deltas built under different kernels is still exact:
// the batch-kernel and scalar paths produce the same integer cells, so any
// mix merges to the bits of a scalar build over the union.
TEST(PrecedenceKernelTest, MergeAcrossKernelsMatchesScalarUnion) {
  Rng rng(59);
  const int n = 100;
  const std::vector<Ranking> left = RandomProfile(n, 70, &rng);
  const std::vector<Ranking> right = RandomProfile(n, 66, &rng);
  std::vector<Ranking> all = left;
  all.insert(all.end(), right.begin(), right.end());
  std::vector<std::vector<double>> reference;
  {
    ScopedKernelEnv env("scalar");
    reference = PrecedenceMatrix::Build(all).ToDense();
  }
  const std::vector<std::string> kernels = AllPrecedenceKernels();
  for (size_t i = 0; i < kernels.size(); ++i) {
    PrecedenceMatrix a = PrecedenceMatrix::Zero(n);
    PrecedenceMatrix b = PrecedenceMatrix::Zero(n);
    {
      ScopedKernelEnv env(kernels[i].c_str());
      a.AddRankingsBatch(left);
    }
    {
      ScopedKernelEnv env(kernels[(i + 1) % kernels.size()].c_str());
      b.AddRankingsBatch(right);
    }
    a.Merge(b);
    EXPECT_EQ(a.ToDense(), reference)
        << "kernels " << kernels[i] << " + "
        << kernels[(i + 1) % kernels.size()];
  }
}

// KemenyCost and LowerBound (the cache-friendly rewrites) agree with a
// brute-force pairwise traversal on matrices from every kernel.
TEST(PrecedenceKernelTest, CostAndBoundMatchBruteForceUnderAllKernels) {
  Rng rng(61);
  const int n = 130;  // straddles a 64-column tile boundary
  const std::vector<Ranking> base = RandomProfile(n, 25, &rng);
  const Ranking consensus = RandomRanking(n, &rng);
  for (const std::string& kernel : AllPrecedenceKernels()) {
    ScopedKernelEnv env(kernel.c_str());
    const PrecedenceMatrix w = PrecedenceMatrix::Build(base);
    double brute_cost = 0.0;
    for (int pa = 0; pa < n; ++pa) {
      for (int pb = pa + 1; pb < n; ++pb) {
        brute_cost += w.W(consensus.At(pa), consensus.At(pb));
      }
    }
    EXPECT_DOUBLE_EQ(w.KemenyCost(consensus), brute_cost)
        << "kernel=" << kernel;
    double brute_bound = 0.0;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        brute_bound += std::min(w.W(a, b), w.W(b, a));
      }
    }
    EXPECT_DOUBLE_EQ(w.LowerBound(), brute_bound) << "kernel=" << kernel;
  }
}

}  // namespace
}  // namespace manirank
