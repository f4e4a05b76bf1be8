#include "core/context.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/baselines.h"
#include "core/method_registry.h"

namespace manirank {
namespace {

/// Contexts the calling thread is currently running a method against.
/// Lets a mutation distinguish "a run on another thread is in flight"
/// (block on the gate / advisory throw) from "this thread is mutating the
/// context from inside its own run" (always a bug, always a throw — a
/// blocking gate would self-deadlock on it).
thread_local std::vector<const ConsensusContext*> t_run_stack;

bool ThisThreadInRunOn(const ConsensusContext* ctx) {
  for (const ConsensusContext* running : t_run_stack) {
    if (running == ctx) return true;
  }
  return false;
}

/// Registers a RunMethod/RunAll reader: bumps the advisory active-run
/// counter, pushes the context on the thread-local run stack, and — when a
/// gate is attached and this is not a nested run on the same context —
/// holds the gate shared for the run's lifetime.
class RunGuard {
 public:
  RunGuard(const ConsensusContext* ctx, ContextGate* gate,
           std::atomic<int>& active)
      : gate_(nullptr), active_(active) {
    if (gate != nullptr && !ThisThreadInRunOn(ctx)) {
      gate->LockShared();
      gate_ = gate;
    }
    t_run_stack.push_back(ctx);
    active_.fetch_add(1, std::memory_order_acq_rel);
  }
  ~RunGuard() {
    active_.fetch_sub(1, std::memory_order_acq_rel);
    t_run_stack.pop_back();
    if (gate_ != nullptr) gate_->UnlockShared();
  }
  RunGuard(const RunGuard&) = delete;
  RunGuard& operator=(const RunGuard&) = delete;

 private:
  ContextGate* gate_;
  std::atomic<int>& active_;
};

/// Claims write access for one mutation. Same-thread re-entrant mutation
/// (from inside a run on this context) always throws std::logic_error.
/// Otherwise: with a gate attached, blocks exclusively until every
/// in-flight run drains; without one, keeps the advisory behaviour of
/// throwing while any run is in flight.
class MutationGuard {
 public:
  MutationGuard(const ConsensusContext* ctx, const char* what,
                ContextGate* gate, const std::atomic<int>& active)
      : gate_(nullptr) {
    if (ThisThreadInRunOn(ctx)) {
      throw std::logic_error(
          std::string(what) +
          " from inside a RunMethod/RunAll on the same context: profile "
          "mutations must be exclusive with concurrent method runs");
    }
    if (gate != nullptr) {
      gate->LockExclusive();
      gate_ = gate;
    }
    if (active.load(std::memory_order_acquire) != 0) {
      // With a gate this means an ungated reader raced the exclusive
      // acquisition; without one it is the plain advisory check.
      if (gate_ != nullptr) gate_->UnlockExclusive();
      throw std::logic_error(
          std::string(what) +
          " while a RunMethod/RunAll reader is in flight: profile mutations "
          "must be exclusive with concurrent method runs");
    }
  }
  ~MutationGuard() {
    if (gate_ != nullptr) gate_->UnlockExclusive();
  }
  MutationGuard(const MutationGuard&) = delete;
  MutationGuard& operator=(const MutationGuard&) = delete;

 private:
  ContextGate* gate_;
};

}  // namespace

ConsensusContext::ConsensusContext(std::vector<Ranking> base_rankings,
                                   const CandidateTable& table)
    : base_(std::move(base_rankings)), table_(&table) {
  size_counter_.store(base_.size(), std::memory_order_relaxed);
}

ConsensusContext::ConsensusContext(StreamingSummary summary,
                                   const CandidateTable& table)
    : ConsensusContext(std::vector<Ranking>{}, table) {
  if (summary.num_candidates != table.num_candidates()) {
    throw std::invalid_argument(
        "streaming summary candidate count does not match table");
  }
  // A summary usually comes from StreamingAccumulator::Finish or
  // Snapshot(), but snapshot files arrive from disk — validate the
  // internal consistency here rather than trusting every producer.
  if (summary.num_rankings < 0) {
    throw std::invalid_argument("streaming summary ranking count is negative");
  }
  if (summary.borda_points.size() !=
      static_cast<size_t>(table.num_candidates())) {
    throw std::invalid_argument(
        "streaming summary Borda points do not match table");
  }
  if (summary.precedence != nullptr &&
      summary.precedence->size() != table.num_candidates()) {
    throw std::invalid_argument(
        "streaming summary precedence matrix does not match table");
  }
  summarized_ = true;
  stream_count_ = summary.num_rankings;
  stats_.generation = summary.generation;
  borda_points_ =
      std::make_unique<std::vector<int64_t>>(std::move(summary.borda_points));
  precedence_ = std::move(summary.precedence);
  // Not yet shared across threads: plain publication is enough.
  generation_counter_.store(stats_.generation, std::memory_order_relaxed);
  size_counter_.store(static_cast<uint64_t>(stream_count_),
                      std::memory_order_relaxed);
}

ConsensusContext::ConsensusContext(std::vector<Ranking> base_rankings,
                                   StreamingSummary cached_state,
                                   const CandidateTable& table)
    : ConsensusContext(std::move(base_rankings), table) {
  if (cached_state.num_candidates != table.num_candidates()) {
    throw std::invalid_argument(
        "cached state candidate count does not match table");
  }
  if (cached_state.num_rankings < 0 ||
      static_cast<size_t>(cached_state.num_rankings) != base_.size()) {
    throw std::invalid_argument(
        "cached state ranking count does not match the recovered profile");
  }
  if (!cached_state.borda_points.empty() &&
      cached_state.borda_points.size() !=
          static_cast<size_t>(table.num_candidates())) {
    throw std::invalid_argument(
        "cached state Borda points do not match table");
  }
  if (cached_state.precedence != nullptr &&
      cached_state.precedence->size() != table.num_candidates()) {
    throw std::invalid_argument(
        "cached state precedence matrix does not match table");
  }
  // summarized_ stays false: the profile IS retained; the summary only
  // pre-warms the caches a fresh build would have produced (Borda points
  // and precedence cells are integer counts, so the seeded caches are
  // bit-identical to rebuilt ones).
  stats_.generation = cached_state.generation;
  if (!cached_state.borda_points.empty()) {
    borda_points_ = std::make_unique<std::vector<int64_t>>(
        std::move(cached_state.borda_points));
  }
  precedence_ = std::move(cached_state.precedence);
  // Not yet shared across threads: plain publication is enough.
  generation_counter_.store(stats_.generation, std::memory_order_relaxed);
}

size_t ConsensusContext::num_rankings() const {
  // Servable concurrently with mutations (the serving layer's STATS path
  // deliberately skips the gate): a lock-free counter read, so it never
  // queues behind a long batch fold holding mu_.
  return static_cast<size_t>(size_counter_.load(std::memory_order_acquire));
}

void ConsensusContext::RequireBase(const char* what) const {
  if (summarized_) {
    throw std::logic_error(std::string(what) +
                           " needs the base rankings, but this context was "
                           "built from a streaming summary");
  }
}

bool ConsensusContext::InRunOnThisThread() const {
  return ThisThreadInRunOn(this);
}

void ConsensusContext::AttachGate(ContextGate* gate) {
  if (active_runs_.load(std::memory_order_acquire) != 0) {
    throw std::logic_error(
        "AttachGate while a RunMethod/RunAll reader is in flight");
  }
  gate_ = gate;
}

void ConsensusContext::ApplyAddLocked(const Ranking& ranking,
                                      bool fold_precedence) {
  const int n = num_candidates();
  if (ranking.size() != n) {
    throw std::invalid_argument("added ranking size does not match table");
  }
  if (precedence_ && fold_precedence) {
    precedence_->AddRanking(ranking);
    ++stats_.precedence_delta_updates;
  }
  if (borda_points_) {
    for (int p = 0; p < n; ++p) {
      (*borda_points_)[ranking.At(p)] += n - 1 - p;
    }
  }
  if (parity_scores_) {
    parity_scores_->push_back(EvaluateFairness(ranking).MaxParity());
    ++stats_.parity_delta_updates;
  }
  // The weight vectors these derive from change length with the profile.
  fairness_weights_.reset();
  weighted_.clear();
  ++stats_.generation;
}

void ConsensusContext::PublishCountersLocked() {
  // Classic seqlock write: odd sequence while the pair is inconsistent.
  // mu_ is held by every caller, so writers never interleave.
  const uint64_t seq = counter_seq_.load(std::memory_order_relaxed);
  counter_seq_.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  generation_counter_.store(stats_.generation, std::memory_order_relaxed);
  size_counter_.store(
      summarized_ ? static_cast<uint64_t>(stream_count_) : base_.size(),
      std::memory_order_relaxed);
  counter_seq_.store(seq + 2, std::memory_order_release);
}

void ConsensusContext::ProfileCounters(uint64_t* generation,
                                       size_t* num_rankings) const {
  for (;;) {
    const uint64_t begin = counter_seq_.load(std::memory_order_acquire);
    if ((begin & 1) != 0) continue;  // mutation mid-publish: retry
    const uint64_t gen = generation_counter_.load(std::memory_order_relaxed);
    const uint64_t size = size_counter_.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (counter_seq_.load(std::memory_order_relaxed) == begin) {
      if (generation != nullptr) *generation = gen;
      if (num_rankings != nullptr) {
        *num_rankings = static_cast<size_t>(size);
      }
      return;
    }
  }
}

void ConsensusContext::AddRanking(Ranking ranking) {
  MutationGuard write(this, "AddRanking", gate_, active_runs_);
  std::lock_guard<std::mutex> lock(mu_);
  ApplyAddLocked(ranking);
  if (summarized_) {
    ++stream_count_;  // folded, not retained
  } else {
    base_.push_back(std::move(ranking));
  }
  PublishCountersLocked();
}

void ConsensusContext::AddRankings(std::vector<Ranking> rankings) {
  MutationGuard write(this, "AddRankings", gate_, active_runs_);
  std::lock_guard<std::mutex> lock(mu_);
  // Validate the whole batch before folding anything, so a bad ranking
  // cannot leave the profile partially mutated (strong guarantee).
  for (const Ranking& ranking : rankings) {
    if (ranking.size() != num_candidates()) {
      throw std::invalid_argument("added ranking size does not match table");
    }
  }
  // Precedence deltas ride the batch-kernel path in kernel-sized
  // chunks (bit-identical to per-ranking folds); everything else — Borda,
  // parity, retention, generation — stays per-ranking so observable
  // counters are unchanged.
  constexpr size_t kChunk = 64;
  for (size_t begin = 0; begin < rankings.size(); begin += kChunk) {
    const size_t count = std::min(kChunk, rankings.size() - begin);
    if (precedence_) {
      precedence_->AddRankingsBatch(&rankings[begin], count);
      stats_.precedence_delta_updates += static_cast<int>(count);
    }
    for (size_t i = begin; i < begin + count; ++i) {
      ApplyAddLocked(rankings[i], /*fold_precedence=*/false);
      if (summarized_) {
        ++stream_count_;
      } else {
        base_.push_back(std::move(rankings[i]));
      }
      // Per-ranking publication: STATS watching a large batch fold sees
      // live progress instead of a frozen pre-batch snapshot.
      PublishCountersLocked();
    }
  }
}

void ConsensusContext::RemoveRanking(size_t index) {
  MutationGuard write(this, "RemoveRanking", gate_, active_runs_);
  std::lock_guard<std::mutex> lock(mu_);
  if (summarized_) {
    throw std::logic_error(
        "RemoveRanking is index-addressed and needs the retained profile; "
        "summarized contexts fold rankings away");
  }
  if (index >= base_.size()) {
    throw std::out_of_range("RemoveRanking index out of range");
  }
  const Ranking& ranking = base_[index];
  const int n = num_candidates();
  if (precedence_) {
    precedence_->RemoveRanking(ranking);
    ++stats_.precedence_delta_updates;
  }
  if (borda_points_) {
    for (int p = 0; p < n; ++p) {
      (*borda_points_)[ranking.At(p)] -= n - 1 - p;
    }
  }
  if (parity_scores_) {
    parity_scores_->erase(parity_scores_->begin() +
                          static_cast<ptrdiff_t>(index));
    ++stats_.parity_delta_updates;
  }
  fairness_weights_.reset();
  weighted_.clear();
  ++stats_.generation;
  base_.erase(base_.begin() + static_cast<ptrdiff_t>(index));
  PublishCountersLocked();
}

uint64_t ConsensusContext::generation() const {
  return generation_counter_.load(std::memory_order_acquire);
}

const PrecedenceMatrix& ConsensusContext::Precedence() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!precedence_) {
    if (summarized_) {
      throw std::logic_error(
          "summarized context has no precedence matrix; stream with "
          "StreamingAccumulator::Track::kBordaAndPrecedence");
    }
    precedence_ =
        std::make_unique<PrecedenceMatrix>(PrecedenceMatrix::Build(base_));
    ++stats_.precedence_builds;
  }
  return *precedence_;
}

const PrecedenceMatrix& ConsensusContext::WeightedPrecedence(
    const std::vector<double>& weights) const {
  RequireBase("WeightedPrecedence");
  std::lock_guard<std::mutex> lock(mu_);
  for (const WeightedEntry& entry : weighted_) {
    if (entry.weights == weights) {
      ++stats_.weighted_hits;
      return *entry.matrix;
    }
  }
  WeightedEntry entry;
  entry.weights = weights;
  entry.matrix = std::make_unique<PrecedenceMatrix>(
      PrecedenceMatrix::BuildWeighted(base_, weights));
  ++stats_.weighted_builds;
  weighted_.push_back(std::move(entry));
  return *weighted_.back().matrix;
}

const std::vector<int64_t>& ConsensusContext::BordaPoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!borda_points_) {
    const int n = num_candidates();
    auto points = std::make_unique<std::vector<int64_t>>(n, 0);
    for (const Ranking& r : base_) {
      for (int p = 0; p < n; ++p) {
        (*points)[r.At(p)] += n - 1 - p;
      }
    }
    borda_points_ = std::move(points);
    ++stats_.borda_builds;
  }
  return *borda_points_;
}

const std::vector<double>& ConsensusContext::BaseParityScores() const {
  RequireBase("BaseParityScores");
  std::lock_guard<std::mutex> lock(mu_);
  if (!parity_scores_) {
    auto scores = std::make_unique<std::vector<double>>(base_.size());
    for (size_t i = 0; i < base_.size(); ++i) {
      (*scores)[i] = EvaluateFairness(base_[i]).MaxParity();
    }
    parity_scores_ = std::move(scores);
    ++stats_.parity_score_builds;
  }
  return *parity_scores_;
}

size_t ConsensusContext::FairestBaseIndex() const {
  return PickFairestPermIndexFromScores(BaseParityScores());
}

const std::vector<double>& ConsensusContext::KemenyFairnessWeights() const {
  const std::vector<double>& scores = BaseParityScores();
  std::lock_guard<std::mutex> lock(mu_);
  if (!fairness_weights_) {
    fairness_weights_ = std::make_unique<std::vector<double>>(
        FairnessWeightsFromScores(scores));
  }
  return *fairness_weights_;
}

FairnessReport ConsensusContext::EvaluateFairness(
    const Ranking& ranking) const {
  return manirank::EvaluateFairness(ranking, *table_);
}

bool ConsensusContext::Satisfies(const Ranking& ranking, double delta) const {
  return SatisfiesManiRank(ranking, *table_, delta);
}

ConsensusOutput ConsensusContext::RunMethod(
    std::string_view id_or_name, const ConsensusOptions& options) const {
  const MethodSpec* method = FindMethod(id_or_name);
  if (method == nullptr) {
    throw std::invalid_argument("unknown consensus method: " +
                                std::string(id_or_name));
  }
  return RunMethod(*method, options);
}

ConsensusOutput ConsensusContext::RunMethod(
    const MethodSpec& method, const ConsensusOptions& options) const {
  return RunMethod(method, options, nullptr);
}

ConsensusOutput ConsensusContext::RunMethod(
    const MethodSpec& method, const ConsensusOptions& options,
    uint64_t* generation_observed) const {
  RunGuard guard(this, gate_, active_runs_);
  // Checked under the guard (writers are excluded by the gate from here
  // on): every method's kernels assume at least one base ranking.
  if (num_rankings() == 0) {
    throw std::invalid_argument(
        "cannot run a consensus method over an empty profile");
  }
  // Read while the guard still excludes gated mutations: this is the
  // generation the method body sees, so it is the only generation a
  // result cache may key this output by.
  if (generation_observed != nullptr) *generation_observed = generation();
  return method.run(*this, options);
}

std::vector<ConsensusOutput> ConsensusContext::RunAll(
    const ConsensusOptions& options) const {
  std::vector<const MethodSpec*> methods;
  for (const MethodSpec& method : AllMethods()) methods.push_back(&method);
  return RunMethods(methods, options);
}

std::vector<ConsensusOutput> ConsensusContext::RunMethods(
    const std::vector<const MethodSpec*>& methods,
    const ConsensusOptions& options) const {
  return RunMethods(methods, options, nullptr);
}

std::vector<ConsensusOutput> ConsensusContext::RunMethods(
    const std::vector<const MethodSpec*>& methods,
    const ConsensusOptions& options, uint64_t* generation_observed) const {
  RunGuard guard(this, gate_, active_runs_);
  if (num_rankings() == 0) {
    throw std::invalid_argument(
        "cannot run a consensus method over an empty profile");
  }
  if (generation_observed != nullptr) *generation_observed = generation();
  std::vector<ConsensusOutput> outputs;
  outputs.reserve(methods.size());
  for (const MethodSpec* method : methods) {
    outputs.push_back(method->run(*this, options));
  }
  return outputs;
}

ContextStats ConsensusContext::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

StreamingSummary ConsensusContext::Snapshot() const {
  // Taken like a method run: the shared gate (when attached) excludes
  // concurrent gated mutations for the whole copy, so the emitted summary
  // is a single consistent profile state.
  RunGuard guard(this, gate_, active_runs_);
  if (num_rankings() == 0) {
    throw std::invalid_argument("cannot snapshot an empty profile");
  }
  // Warm the carried caches first (both lock mu_ internally; no-ops when
  // already built). A retained profile can always build its precedence
  // matrix; a Borda-only summarized context legitimately has none and the
  // snapshot stays Borda-only.
  BordaPoints();
  if (!summarized_) Precedence();
  StreamingSummary summary;
  summary.num_candidates = num_candidates();
  std::lock_guard<std::mutex> lock(mu_);
  summary.num_rankings =
      summarized_ ? stream_count_ : static_cast<int64_t>(base_.size());
  summary.generation = stats_.generation;
  summary.borda_points = *borda_points_;
  if (precedence_ != nullptr) {
    summary.precedence = std::make_unique<PrecedenceMatrix>(*precedence_);
  }
  return summary;
}

bool ConsensusContext::SupportsMethod(const MethodSpec& method) const {
  if (method.requires_base && summarized_) return false;
  if (method.requires_precedence && summarized_) {
    // For summarized contexts the matrix exists iff the stream tracked it
    // (set at construction, never dropped afterwards).
    std::lock_guard<std::mutex> lock(mu_);
    return precedence_ != nullptr;
  }
  return true;
}

}  // namespace manirank
