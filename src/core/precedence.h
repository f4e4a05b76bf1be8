#ifndef MANIRANK_CORE_PRECEDENCE_H_
#define MANIRANK_CORE_PRECEDENCE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/profile.h"
#include "core/ranking.h"

namespace manirank {

/// The precedence matrix W of Definition 11:
///   W[a][b] = number of (weighted) base rankings that rank b ABOVE a,
/// i.e. the disagreement price of placing a above b in the consensus.
/// The Kemeny objective is sum_{a above b in consensus} W[a][b].
///
/// Two accumulation paths feed the matrix and are bit-identical on every
/// eligible input:
///
///  - the scalar path (per-pair double += weight), the paper-faithful
///    reference, always available, and the only path for non-unit
///    weights; and
///  - the batch-kernel path (Build / AddRankingsBatch with weight +-1,
///    n <= 32767): batches of up to 64 rankings become an int16
///    candidate -> position table, and each cell counts the rankings
///    placing its column above its row with vectorised 16-bit compares —
///    O(m n^2 / 16) vector ops under AVX2 (m n^2 / 8 under SSE2) — then
///    takes one exact integer->double add per batch instead of 64 scalar
///    adds.
///
/// Exactness argument: unit folds keep every cell an exactly-representable
/// integer, and adding k ones one at a time equals adding k once as long
/// as every intermediate value stays an integer with magnitude <= 2^53.
/// The matrix tracks a per-cell magnitude bound (sum of |weight| folded)
/// and loudly falls back to the scalar path if a profile ever exceeds the
/// 2^53 envelope or a non-integer weight ever touched the matrix, so any
/// interleaving of scalar folds, batch folds, and merges lands on the same
/// bits. Kernel selection (scalar / portable batch kernel / AVX2 batch
/// kernel) is runtime-dispatched and overridable via MANIRANK_KERNEL for testing.
class PrecedenceMatrix {
 public:
  PrecedenceMatrix() = default;

  /// Builds W from base rankings, each with weight 1. Parallelised over
  /// 64-row blocks (shared-nothing) when the batch kernel has enough
  /// blocks to go around, else over ranking chunks with striped merging.
  static PrecedenceMatrix Build(const std::vector<Ranking>& base_rankings);
  /// The same build over a compact profile's rows (bit-identical).
  static PrecedenceMatrix Build(const Profile& base_rankings);

  /// Builds W with one non-negative weight per base ranking
  /// (used by the Kemeny-Weighted baseline). Always the scalar path.
  static PrecedenceMatrix BuildWeighted(const RankingRun& base_rankings,
                                        const std::vector<double>& weights);

  /// Constructs directly from a dense matrix (tests, ablations, snapshot
  /// restore). Scans the cells once: a matrix of integers within the 2^53
  /// envelope stays eligible for the batch-kernel path, so restored
  /// shards keep the fast fold.
  explicit PrecedenceMatrix(std::vector<std::vector<double>> w);

  /// The all-zero matrix over n candidates: the starting point for
  /// incremental construction via AddRanking / Merge.
  static PrecedenceMatrix Zero(int n);

  /// Folds one ranking of weight `weight` into W in place: O(n^2), the
  /// per-delta cost of maintaining a streaming profile. Unit weights keep
  /// every cell an exactly-representable integer, so any interleaving of
  /// AddRanking / RemoveRanking is bit-identical to Build over the
  /// resulting profile.
  void AddRanking(const Ranking& ranking, double weight = 1.0);

  /// Removes one previously folded ranking (AddRanking with -weight).
  void RemoveRanking(const Ranking& ranking, double weight = 1.0) {
    AddRanking(ranking, -weight);
  }

  /// AddRanking over ranking `index` of a compact profile, read in place.
  void AddProfileRow(const Profile& profile, size_t index,
                     double weight = 1.0);

  /// Folds `count` rankings of identical weight in one batch. For weight
  /// +-1 on an integer-valued matrix with n <= 32767 this rides the batch
  /// kernel in chunks of 64 (bit-identical to per-ranking scalar folds,
  /// over an order of magnitude faster at n >= 512); otherwise it degrades
  /// to the scalar per-ranking loop.
  void AddRankingsBatch(const RankingRun& rankings, double weight = 1.0);
  void AddRankingsBatch(const Ranking* rankings, size_t count,
                        double weight = 1.0) {
    AddRankingsBatch(RankingRun(rankings, count), weight);
  }

  /// Removes a batch of previously folded rankings: the negative-weight
  /// twin of AddRankingsBatch, riding the same kernel.
  void RemoveRankingsBatch(const Ranking* rankings, size_t count,
                           double weight = 1.0) {
    AddRankingsBatch(rankings, count, -weight);
  }
  void RemoveRankingsBatch(const std::vector<Ranking>& rankings,
                           double weight = 1.0) {
    AddRankingsBatch(rankings, -weight);
  }

  /// Cell-wise sum with another matrix of the same size (merging
  /// per-worker streaming deltas).
  void Merge(const PrecedenceMatrix& other);

  int size() const { return n_; }

  /// W[a][b]: total weight of rankings placing b above a (Definition 11).
  double W(CandidateId a, CandidateId b) const { return w_[Index(a, b)]; }

  /// Total weight of rankings that prefer a over b (= W[b][a]).
  double PrefersCount(CandidateId a, CandidateId b) const {
    return w_[Index(b, a)];
  }

  /// Dense copy of W as nested vectors (row a, column b).
  std::vector<std::vector<double>> ToDense() const;

  /// Kemeny cost of `consensus` under this matrix:
  ///   sum over ordered pairs (a above b) of W[a][b].
  /// One branchless row-major pass over the cells.
  double KemenyCost(const Ranking& consensus) const;

  /// Lower bound on any ranking's Kemeny cost:
  ///   sum over unordered pairs of min(W[a][b], W[b][a]).
  /// Attained exactly by rankings consistent with every strict pairwise
  /// majority; used by the exact solver's transitive fast path.
  /// Summed in ForEachPairTiled's fixed visit order.
  double LowerBound() const;

  /// Calls f(a, b, W[a][b], W[b][a]) once for every unordered pair a < b.
  /// Pairs are visited in paired 64x64 tiles: tile row ti, then tile
  /// column tj >= ti, then a, then b. W[a][b] streams row-major, and the
  /// transposed operand W[b][a] stays inside one cache-resident tile
  /// instead of striding a whole matrix column per row. The order is
  /// fixed, so a floating-point reduction over it (LowerBound) is
  /// reproducible bit for bit. Copeland, Schulze and the Kemeny fast path
  /// read their pairwise contests through it.
  template <class F>
  void ForEachPairTiled(F&& f) const {
    constexpr int kTile = 64;
    for (int ti = 0; ti < n_; ti += kTile) {
      const int a_end = std::min(n_, ti + kTile);
      for (int tj = ti; tj < n_; tj += kTile) {
        const int b_end = std::min(n_, tj + kTile);
        for (int a = ti; a < a_end; ++a) {
          const double* row_a = w_.data() + Index(a, 0);
          const double* col_a = w_.data() + a;
          for (int b = std::max(tj, a + 1); b < b_end; ++b) {
            f(a, b, row_a[b], col_a[Index(b, 0)]);
          }
        }
      }
    }
  }

  /// Name of the kernel flavor the current MANIRANK_KERNEL setting and
  /// CPU resolve to ("scalar" / "portable" / "avx2"); what Build and
  /// eligible batches will use for n <= 32767. For bench output and tests.
  static const char* ActiveKernelName();

  /// Largest per-cell magnitude (sum of folded |weight|) for which unit
  /// folds are still exact: 2^53.
  static constexpr double kExactIntegerLimit = 9007199254740992.0;

 private:
  size_t Index(CandidateId a, CandidateId b) const {
    return static_cast<size_t>(a) * n_ + b;
  }

  /// Build's body, over Ranking objects or profile rows alike.
  static PrecedenceMatrix BuildFrom(const RankingRun& base_rankings);

  /// Updates the exactness envelope after folding one weight.
  void NoteFold(double weight);

  /// True when a `count`-ranking unit batch may take the batch kernel:
  /// every cell is an exact integer and stays within 2^53 afterwards.
  /// Warns (once) on the 2^53 fallback — that profile silently losing the
  /// fast path is worth an operator's attention.
  bool BatchExactEligible(size_t count) const;

  int n_ = 0;
  std::vector<double> w_;  // row-major n x n
  /// False once any non-integer weight (or out-of-envelope value) touched
  /// the matrix; such cells are not exact integers, so collapsing 64
  /// scalar adds into one is no longer bit-identical.
  bool exact_int_ = true;
  /// Upper bound on |cell| across the matrix: sum of folded |weight|
  /// (plus the max |cell| of a dense construction). Never decreases —
  /// removals also move cells by |weight|.
  double folded_magnitude_ = 0.0;
};

}  // namespace manirank

#endif  // MANIRANK_CORE_PRECEDENCE_H_
