#include "core/precedence.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "core/precedence_kernel.h"
#include "util/cpu_dispatch.h"
#include "util/threading.h"

namespace manirank {
namespace {

/// Rankings folded per kernel invocation: one int16 position row per
/// ranking, so per-batch cell counts stay <= 64.
constexpr size_t kKernelBatch = 64;

/// Largest n the batch kernel takes: its position table is int16. Beyond
/// it W alone is >= 8 GiB, so the scalar path costs nothing that matters.
constexpr int kKernelMaxCandidates = 32767;

/// Adds `weight` to W for ranking i of `run`: every pair (worse, better)
/// contributes to W[worse][better] (the ranking puts `better` above).
/// The scalar reference path; also the only path for non-unit weights.
void Accumulate(const RankingRun& run, size_t i, double weight, int n,
                double* w) {
  run.VisitOrder(i, [weight, n, w](const auto* order) {
    // For positions p < q: order[p] is above order[q], so the ranking
    // disagrees with any consensus placing order[q] above order[p]:
    // W[order[q]][order[p]] += weight.
    const size_t row_stride = static_cast<size_t>(n);
    for (int p = 0; p < n; ++p) {
      const size_t better = order[p];
      for (int q = p + 1; q < n; ++q) {
        w[static_cast<size_t>(order[q]) * row_stride + better] += weight;
      }
    }
  });
}

/// The batch-kernel flavor the current MANIRANK_KERNEL setting resolves
/// to for an n-candidate matrix, or nullptr when the scalar path is forced
/// or n exceeds kKernelMaxCandidates.
const kernel::KernelFlavor* ActiveKernelFlavor(int n) {
  if (n > kKernelMaxCandidates) return nullptr;
  switch (ResolvePrecedenceKernel(kernel::Avx2Kernel() != nullptr)) {
    case PrecedenceKernel::kScalar:
      return nullptr;
    case PrecedenceKernel::kAvx2:
      return kernel::Avx2Kernel();
    case PrecedenceKernel::kPortable:
      break;
  }
  return &kernel::PortableKernel();
}

/// Stripe count for merging per-worker build deltas: enough stripes that
/// workers starting at staggered offsets rarely queue on the same lock.
size_t NumMergeStripes() {
  return std::max<size_t>(4 * (DefaultThreadCount() + 1), 8);
}

/// Merges `local` into `shared` one stripe at a time, starting at a
/// worker-staggered stripe. Replaces the old single-mutex whole-matrix
/// merge, which serialized every worker behind one lock for O(n^2) adds
/// apiece and capped the parallel build at ~4 workers.
void StripedMerge(double* shared, const double* local, size_t cells,
                  std::vector<std::mutex>* stripe_mu, size_t worker) {
  const size_t stripes = stripe_mu->size();
  for (size_t s = 0; s < stripes; ++s) {
    const size_t idx = (worker + s) % stripes;
    const size_t lo = cells * idx / stripes;
    const size_t hi = cells * (idx + 1) / stripes;
    std::lock_guard<std::mutex> lock((*stripe_mu)[idx]);
    for (size_t c = lo; c < hi; ++c) shared[c] += local[c];
  }
}

/// Scalar build: shard rankings across workers into per-worker local
/// matrices, stripe-merge into `w`. Weighted and forced-scalar builds.
void ScalarBuildInto(const RankingRun& base, const std::vector<double>* weights,
                     int n, double* w) {
  const size_t cells = static_cast<size_t>(n) * n;
  std::vector<std::mutex> stripe_mu(NumMergeStripes());
  ParallelFor(base.size(), [&](size_t begin, size_t end, size_t worker) {
    std::vector<double> local(cells, 0.0);
    for (size_t i = begin; i < end; ++i) {
      Accumulate(base, i, weights ? (*weights)[i] : 1.0, n, local.data());
    }
    StripedMerge(w, local.data(), cells, &stripe_mu, worker);
  });
}

/// The kernel's pack step, the only place it reads its input: one int16
/// candidate -> position row per ranking of `batch` (copied from a
/// Ranking, scattered from a profile row), padded to the kernel stride.
void PackPositions(const RankingRun& batch, int n, std::vector<int16_t>* table) {
  const int stride = kernel::PositionStride(n);
  table->resize(batch.size() * static_cast<size_t>(stride));
  for (size_t k = 0; k < batch.size(); ++k) {
    int16_t* row = table->data() + k * static_cast<size_t>(stride);
    batch.PackPositions(k, row);
    std::fill(row + n, row + stride, kernel::kPadPosition);
  }
}

/// Runs the batch kernel over every (64-ranking chunk, 64-row block)
/// pair of `rankings` into `w`. Each chunk is packed once and folded into
/// every block of [block_begin, block_end); a cell still takes the chunks
/// in order, so the bits do not depend on the block range.
void KernelFoldBlocks(const kernel::KernelFlavor& flavor,
                      const RankingRun& rankings, int sign, size_t block_begin,
                      size_t block_end, int n, double* w) {
  thread_local std::vector<int16_t> table;  // one per ParallelFor worker
  const int stride = kernel::PositionStride(n);
  const size_t count = rankings.size();
  for (size_t i = 0; i < count; i += kKernelBatch) {
    const RankingRun batch = rankings.Sub(i, std::min(kKernelBatch, count - i));
    PackPositions(batch, n, &table);
    for (size_t blk = block_begin; blk < block_end; ++blk) {
      const int row_begin = static_cast<int>(blk * 64);
      const int row_end = std::min(n, row_begin + 64);
      flavor.row_block(table.data(), batch.size(), stride, sign, row_begin,
                       row_end, n, w);
    }
  }
}

/// Batch-kernel unit build. Two sharding strategies, both bit-identical:
/// with enough 64-row blocks to feed every worker, blocks are sharded
/// shared-nothing (each worker owns disjoint matrix rows — no locals, no
/// merging at all); for small-n / many-rankings shapes, ranking chunks
/// are sharded into per-worker locals and stripe-merged like the scalar
/// path.
void KernelBuildInto(const kernel::KernelFlavor& flavor, const RankingRun& base,
                     int n, double* w) {
  const size_t count = base.size();
  const size_t num_blocks = (static_cast<size_t>(n) + 63) / 64;
  const size_t num_chunks = (count + kKernelBatch - 1) / kKernelBatch;
  const size_t max_workers = DefaultThreadCount() + 1;
  if (num_blocks >= std::min(max_workers, num_chunks)) {
    ParallelFor(num_blocks, [&](size_t begin, size_t end, size_t /*worker*/) {
      KernelFoldBlocks(flavor, base, /*sign=*/1, begin, end, n, w);
    });
  } else {
    const size_t cells = static_cast<size_t>(n) * n;
    std::vector<std::mutex> stripe_mu(NumMergeStripes());
    ParallelFor(count, [&](size_t begin, size_t end, size_t worker) {
      std::vector<double> local(cells, 0.0);
      KernelFoldBlocks(flavor, base.Sub(begin, end - begin), /*sign=*/1, 0,
                       num_blocks, n, local.data());
      StripedMerge(w, local.data(), cells, &stripe_mu, worker);
    });
  }
}

}  // namespace

PrecedenceMatrix::PrecedenceMatrix(std::vector<std::vector<double>> w)
    : n_(static_cast<int>(w.size())) {
  w_.resize(static_cast<size_t>(n_) * n_);
  // One scan decides batch-path eligibility: integer cells within the
  // 2^53 envelope (snapshot-restored matrices pass and keep the fast
  // fold; ad-hoc fractional test matrices demote to the scalar path).
  bool integral = true;
  double max_abs = 0.0;
  for (int a = 0; a < n_; ++a) {
    assert(static_cast<int>(w[a].size()) == n_);
    for (int b = 0; b < n_; ++b) {
      const double v = w[a][b];
      w_[Index(a, b)] = v;
      if (std::nearbyint(v) != v || std::fabs(v) > kExactIntegerLimit) {
        integral = false;
      }
      max_abs = std::max(max_abs, std::fabs(v));
    }
  }
  exact_int_ = integral;
  folded_magnitude_ = max_abs;
}

PrecedenceMatrix PrecedenceMatrix::Zero(int n) {
  PrecedenceMatrix m;
  m.n_ = n;
  m.w_.assign(static_cast<size_t>(n) * n, 0.0);
  return m;
}

void PrecedenceMatrix::NoteFold(double weight) {
  folded_magnitude_ += std::fabs(weight);
  if (std::nearbyint(weight) != weight) exact_int_ = false;
}

bool PrecedenceMatrix::BatchExactEligible(size_t count) const {
  if (!exact_int_) return false;
  if (folded_magnitude_ + static_cast<double>(count) > kExactIntegerLimit) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "manirank: precedence matrix magnitude bound exceeds 2^53; "
                   "unit batches fall back to scalar folds (batch-kernel "
                   "exactness no longer provable)\n");
    }
    return false;
  }
  return true;
}

void PrecedenceMatrix::AddRanking(const Ranking& ranking, double weight) {
  assert(ranking.size() == n_);
  Accumulate(RankingRun(&ranking, 1), 0, weight, n_, w_.data());
  NoteFold(weight);
}

void PrecedenceMatrix::AddProfileRow(const Profile& profile, size_t index,
                                     double weight) {
  assert(profile.num_candidates() == n_);
  Accumulate(profile, index, weight, n_, w_.data());
  NoteFold(weight);
}

void PrecedenceMatrix::AddRankingsBatch(const RankingRun& rankings,
                                        double weight) {
  const size_t count = rankings.size();
  if (count == 0) return;
  const kernel::KernelFlavor* flavor = ActiveKernelFlavor(n_);
  if (flavor == nullptr || (weight != 1.0 && weight != -1.0) ||
      !BatchExactEligible(count)) {
    for (size_t i = 0; i < count; ++i) {
      Accumulate(rankings, i, weight, n_, w_.data());
      NoteFold(weight);
    }
    return;
  }
  const int sign = weight > 0.0 ? 1 : -1;
  const size_t num_blocks = (static_cast<size_t>(n_) + 63) / 64;
  // Row blocks are disjoint rows of w_, so a delta batch fans out across
  // the pool even while the owning context holds its cache mutex.
  ParallelFor(num_blocks, [&](size_t begin, size_t end, size_t /*worker*/) {
    KernelFoldBlocks(*flavor, rankings, sign, begin, end, n_, w_.data());
  });
  folded_magnitude_ += static_cast<double>(count);
}

void PrecedenceMatrix::Merge(const PrecedenceMatrix& other) {
  assert(other.n_ == n_);
  for (size_t c = 0; c < w_.size(); ++c) w_[c] += other.w_[c];
  exact_int_ = exact_int_ && other.exact_int_;
  folded_magnitude_ += other.folded_magnitude_;
}

PrecedenceMatrix PrecedenceMatrix::Build(
    const std::vector<Ranking>& base_rankings) {
  return BuildFrom(base_rankings);
}

PrecedenceMatrix PrecedenceMatrix::Build(const Profile& base_rankings) {
  return BuildFrom(base_rankings);
}

PrecedenceMatrix PrecedenceMatrix::BuildFrom(const RankingRun& base_rankings) {
  assert(!base_rankings.empty());
  const int n = base_rankings.num_candidates();
  PrecedenceMatrix m = Zero(n);
  const kernel::KernelFlavor* flavor = ActiveKernelFlavor(n);
  if (flavor != nullptr) {
    KernelBuildInto(*flavor, base_rankings, n, m.w_.data());
  } else {
    ScalarBuildInto(base_rankings, nullptr, n, m.w_.data());
  }
  m.folded_magnitude_ = static_cast<double>(base_rankings.size());
  return m;
}

PrecedenceMatrix PrecedenceMatrix::BuildWeighted(
    const RankingRun& base_rankings, const std::vector<double>& weights) {
  assert(weights.size() == base_rankings.size());
  assert(!base_rankings.empty());
  const int n = base_rankings.num_candidates();
  PrecedenceMatrix m = Zero(n);
  ScalarBuildInto(base_rankings, &weights, n, m.w_.data());
  m.folded_magnitude_ = 0.0;
  for (double w : weights) m.NoteFold(w);
  return m;
}

std::vector<std::vector<double>> PrecedenceMatrix::ToDense() const {
  std::vector<std::vector<double>> dense(n_, std::vector<double>(n_));
  for (int a = 0; a < n_; ++a) {
    for (int b = 0; b < n_; ++b) dense[a][b] = W(a, b);
  }
  return dense;
}

double PrecedenceMatrix::KemenyCost(const Ranking& consensus) const {
  // One branchless row-major pass: cell (a, b) contributes iff the
  // consensus places a above b. (The previous per-consensus-pair probing
  // walked W in transposed order, paying a strided miss per pair once the
  // matrix left L2.)
  const std::vector<int>& pos = consensus.positions();
  double cost = 0.0;
  const double* row = w_.data();
  for (int a = 0; a < n_; ++a, row += n_) {
    const int pos_a = pos[a];
    double row_cost = 0.0;
    for (int b = 0; b < n_; ++b) {
      row_cost += pos_a < pos[b] ? row[b] : 0.0;
    }
    cost += row_cost;
  }
  return cost;
}

double PrecedenceMatrix::LowerBound() const {
  double bound = 0.0;
  ForEachPairTiled([&bound](CandidateId, CandidateId, double w_ab,
                            double w_ba) { bound += std::min(w_ab, w_ba); });
  return bound;
}

const char* PrecedenceMatrix::ActiveKernelName() {
  return PrecedenceKernelName(
      ResolvePrecedenceKernel(kernel::Avx2Kernel() != nullptr));
}

}  // namespace manirank
