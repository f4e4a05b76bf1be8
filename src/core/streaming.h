#ifndef MANIRANK_CORE_STREAMING_H_
#define MANIRANK_CORE_STREAMING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/precedence.h"
#include "core/ranking.h"

namespace manirank {

/// What a stream of rankings folds down to once the rankings themselves
/// are discarded: the profile size, the per-candidate Borda point totals,
/// and (when tracked) the Definition-11 precedence matrix. A
/// ConsensusContext can be constructed from this summary, so web-scale
/// profiles (Table II's 10M rankers) run through the same engine layer as
/// materialised ones without ever holding the profile in memory.
struct StreamingSummary {
  int num_candidates = 0;
  int64_t num_rankings = 0;
  /// Profile generation the summary was taken at. Zero for a fresh
  /// accumulator; ConsensusContext::Snapshot() stamps the context's
  /// counter here so a restored context resumes the same monotonic
  /// sequence and serving clients can correlate across a restart.
  uint64_t generation = 0;
  /// borda_points[c] = sum over folded rankings of (n - 1 - position(c)).
  std::vector<int64_t> borda_points;
  /// Null unless the accumulator tracked precedence
  /// (Track::kBordaAndPrecedence).
  std::unique_ptr<PrecedenceMatrix> precedence;
};

/// Streaming accumulator kernel: folds sampled rankings into per-worker
/// Borda point totals (O(n) per ranking) and, optionally, per-worker
/// precedence deltas without retaining the rankings. Precedence deltas
/// ride the batch-kernel path: each worker buffers up to 64 rankings
/// and folds them through PrecedenceMatrix::AddRankingsBatch (n^2 int16
/// compares per ranking, 16 per AVX2 op; bit-identical to per-ranking
/// scalar folds), flushing any remainder in Finish(). Worker states are
/// merged once in Finish(), so folding is lock-free as long as each
/// worker index is used by at most one thread at a time — exactly the
/// contract ParallelFor provides via its worker argument.
///
/// All folded quantities are integer counts, so the merged summary is
/// independent of the worker partition and bit-identical to materialising
/// the same rankings and running BordaAggregate / PrecedenceMatrix::Build.
class StreamingAccumulator {
 public:
  enum class Track {
    kBordaOnly,           // O(n) per fold; enough for Fair-Borda
    kBordaAndPrecedence,  // O(n^2) per fold; enables W-based methods
  };

  /// Sizes one worker slot per ParallelFor worker (DefaultThreadCount()
  /// workers plus the inline partition on the caller).
  explicit StreamingAccumulator(int num_candidates,
                                Track track = Track::kBordaOnly);

  int num_candidates() const { return n_; }
  size_t num_workers() const { return workers_.size(); }
  Track track() const { return track_; }

  /// Folds one ranking into worker slot `worker` (< num_workers()). The
  /// ranking is consumed, not retained (precedence tracking buffers at
  /// most 64 rankings per worker between batch folds).
  void Fold(const Ranking& ranking, size_t worker);

  /// Parallel drain: folds sample(i) for every i in [0, count) across the
  /// persistent worker pool. `sample` must be safe to call concurrently
  /// and should depend only on i (e.g. MallowsModel::SampleRng streams) so
  /// the result is independent of the thread count.
  void Drain(size_t count, const std::function<Ranking(size_t index)>& sample);

  /// Total rankings folded so far (sums the per-worker counters).
  int64_t count() const;

  /// Merges every worker state into one summary and resets the
  /// accumulator to empty.
  StreamingSummary Finish();

 private:
  struct WorkerState {
    int64_t count = 0;
    std::vector<int64_t> points;
    PrecedenceMatrix precedence;  // Zero(n) when tracked, empty otherwise
    /// Rankings folded but not yet batched into `precedence` (at most
    /// one kernel batch's worth; empty when not tracking precedence).
    std::vector<Ranking> pending;
  };

  /// Batches `pending` into the worker's precedence delta and clears it.
  static void FlushPending(WorkerState* worker);

  int n_;
  Track track_;
  std::vector<WorkerState> workers_;
};

}  // namespace manirank

#endif  // MANIRANK_CORE_STREAMING_H_
