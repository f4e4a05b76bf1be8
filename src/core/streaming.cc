#include "core/streaming.h"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "util/threading.h"

namespace manirank {

StreamingAccumulator::StreamingAccumulator(int num_candidates, Track track)
    : n_(num_candidates), track_(track) {
  if (num_candidates <= 0) {
    throw std::invalid_argument(
        "StreamingAccumulator needs at least one candidate");
  }
  // One slot per pool worker plus the partition ParallelFor runs inline on
  // the calling thread.
  workers_.resize(DefaultThreadCount() + 1);
  for (WorkerState& w : workers_) {
    w.points.assign(static_cast<size_t>(n_), 0);
    if (track_ == Track::kBordaAndPrecedence) {
      w.precedence = PrecedenceMatrix::Zero(n_);
    }
  }
}

void StreamingAccumulator::FlushPending(WorkerState* worker) {
  if (worker->pending.empty()) return;
  worker->precedence.AddRankingsBatch(worker->pending);
  worker->pending.clear();
}

void StreamingAccumulator::Fold(const Ranking& ranking, size_t worker) {
  assert(worker < workers_.size());
  if (ranking.size() != n_) {
    throw std::invalid_argument("folded ranking size does not match stream");
  }
  WorkerState& state = workers_[worker];
  for (int p = 0; p < n_; ++p) {
    state.points[ranking.At(p)] += n_ - 1 - p;
  }
  if (track_ == Track::kBordaAndPrecedence) {
    // Buffer for the batch-kernel fold; one full batch per 64 folds.
    state.pending.push_back(ranking);
    if (state.pending.size() == 64) FlushPending(&state);
  }
  ++state.count;
}

void StreamingAccumulator::Drain(
    size_t count, const std::function<Ranking(size_t index)>& sample) {
  ParallelFor(count, [&](size_t begin, size_t end, size_t worker) {
    for (size_t i = begin; i < end; ++i) {
      Fold(sample(i), worker);
    }
  });
}

int64_t StreamingAccumulator::count() const {
  int64_t total = 0;
  for (const WorkerState& w : workers_) total += w.count;
  return total;
}

StreamingSummary StreamingAccumulator::Finish() {
  StreamingSummary summary;
  summary.num_candidates = n_;
  summary.borda_points.assign(static_cast<size_t>(n_), 0);
  if (track_ == Track::kBordaAndPrecedence) {
    summary.precedence =
        std::make_unique<PrecedenceMatrix>(PrecedenceMatrix::Zero(n_));
  }
  for (WorkerState& w : workers_) {
    FlushPending(&w);
    summary.num_rankings += w.count;
    for (int c = 0; c < n_; ++c) summary.borda_points[c] += w.points[c];
    if (summary.precedence) summary.precedence->Merge(w.precedence);
    w.count = 0;
    w.points.assign(static_cast<size_t>(n_), 0);
    if (track_ == Track::kBordaAndPrecedence) {
      w.precedence = PrecedenceMatrix::Zero(n_);
    }
  }
  return summary;
}

}  // namespace manirank
