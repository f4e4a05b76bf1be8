#ifndef MANIRANK_CORE_CONTEXT_H_
#define MANIRANK_CORE_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "core/candidate_table.h"
#include "core/fairness_metrics.h"
#include "core/gate.h"
#include "core/precedence.h"
#include "core/profile.h"
#include "core/ranking.h"
#include "core/streaming.h"

namespace manirank {

struct MethodSpec;

/// Per-call knobs shared by every consensus method of the study.
struct ConsensusOptions {
  /// Desired proximity to statistical parity (ignored by fairness-unaware
  /// baselines B1-B3).
  double delta = 0.1;
  /// Wall-clock budget forwarded to ILP-backed methods (<= 0: unlimited).
  /// Their node budget is the solvers' own default.
  double time_limit_seconds = 0.0;
};

/// Result of one consensus method run through the context.
struct ConsensusOutput {
  Ranking consensus;
  /// Wall-clock seconds spent inside the method.
  double seconds = 0.0;
  /// For exact methods: solved to proven optimality within budget.
  bool exact = true;
  /// For MFCR methods: MANI-Rank satisfied at Delta.
  bool satisfied = false;
};

/// Cache-hit/miss counters; snapshot via ConsensusContext::stats().
struct ContextStats {
  /// Times the unweighted Definition-11 matrix was actually built from
  /// scratch (incremental deltas do not count as builds).
  int precedence_builds = 0;
  /// O(n^2) in-place deltas applied to an already-built precedence matrix
  /// by AddRanking / RemoveRanking.
  int precedence_delta_updates = 0;
  /// Weighted-variant cache misses (builds) and hits.
  int weighted_builds = 0;
  int weighted_hits = 0;
  /// Times the per-base-ranking parity scores were computed from scratch.
  int parity_score_builds = 0;
  /// Single-score appends/removals applied to already-built parity scores.
  int parity_delta_updates = 0;
  /// Times the Borda point totals were computed from scratch.
  int borda_builds = 0;
  /// Profile generation: bumped once per ranking added or removed. Caches
  /// derived from the profile are only ever valid for one generation;
  /// readers can compare snapshots to detect interleaved mutations.
  uint64_t generation = 0;
};

/// Shared evaluation engine for one profile (base rankings + candidate
/// table): every aggregator and fairness repair in the repo keys off the
/// same Definition-11 precedence matrix and the same grouping structures,
/// so the context builds each of them lazily, exactly once, and hands out
/// references. Running N methods on the same inputs through one context
/// pays for one O(|R| n^2) precedence build instead of N.
///
/// The context owns the base rankings as a compact Profile (one 2-byte
/// order row per ranking for n <= 65535; see core/profile.h), packed from
/// the rankings handed in, and borrows the candidate table, which must
/// outlive it. Caches read the rows in place; only the Pick-A-Perm
/// baselines, which return a base ranking, materialize a Ranking. All
/// caches are lazy and guarded by a mutex: concurrent method runs on one
/// context are safe.
///
/// Streaming profiles. The profile is mutable in place: AddRanking /
/// AddRankings / RemoveRanking update every already-built cache by its
/// delta instead of invalidating it — the precedence matrix absorbs an
/// O(n^2) fold per ranking (vs an O(|R| n^2) rebuild), the parity scores
/// gain or lose one entry, and the Borda point totals shift by one
/// ranking's points. Caches a delta genuinely dirties are dropped: the
/// weighted precedence variants and the derived Kemeny fairness weights
/// (both depend on the whole weight vector). Each mutation bumps
/// ContextStats::generation.
///
/// A context can also be constructed from a StreamingSummary — the folded
/// residue of a profile too large to retain (Table II's 10M rankers). Such
/// a summarized context serves every method that needs only the precedence
/// matrix or Borda points; methods that need the base rankings themselves
/// (B2/B3/B4's parity scores, Pick-A-Perm) throw std::logic_error.
///
/// Thread-safety contract: concurrent *readers* (RunMethod / RunAll /
/// accessor calls) are safe against each other. Mutations must be
/// exclusive with all readers — methods hold references into the caches
/// for their whole run, outside the internal mutex. This precondition is
/// debug-checked: RunMethod / RunAll register as active readers, and any
/// mutation while a run is in flight throws std::logic_error instead of
/// corrupting the caches. (The check is advisory — it cannot catch a
/// reader that races the mutation exactly — but it keeps the contract
/// honest in every test and serving loop that goes through RunMethod.)
///
/// Attaching a ContextGate (AttachGate) promotes that advisory check into
/// a real synchronization layer: every RunMethod / RunAll holds the gate
/// shared for the whole run and every mutation holds it exclusive, so a
/// cross-thread mutation *blocks* until in-flight runs drain instead of
/// throwing, and runs queued behind a waiting mutation wait their turn.
/// Mutating the context from inside one of its own runs (same thread) is
/// always a bug and still throws std::logic_error, gated or not. The
/// serving layer (serve/context_manager.h) attaches one gate per table
/// shard.
class ConsensusContext {
 public:
  ConsensusContext(const std::vector<Ranking>& base_rankings,
                   const CandidateTable& table);

  /// Builds a summarized context from streamed state: no base rankings,
  /// but Borda points (always) and the precedence matrix (when the
  /// accumulator tracked it) arrive pre-folded.
  ConsensusContext(StreamingSummary summary, const CandidateTable& table);

  /// Rebuilds a *retained* context from a recovered profile plus the
  /// cached state that was saved with it (exact-snapshot restore,
  /// data/snapshot.h format v2): the base rankings are retained — every
  /// method and REMOVE work exactly as before the save — while the
  /// summary's Borda points and precedence matrix (when present) seed
  /// the caches, so the restore skips the O(|R| n^2) precedence rebuild.
  /// The generation counter resumes from the summary. Validates that the
  /// summary matches the profile (candidate counts, ranking count,
  /// cache section sizes); empty borda_points means "not cached" and the
  /// cache stays lazy. Throws std::invalid_argument on any mismatch.
  ConsensusContext(Profile base_rankings, StreamingSummary cached_state,
                   const CandidateTable& table);

  ConsensusContext(const ConsensusContext&) = delete;
  ConsensusContext& operator=(const ConsensusContext&) = delete;

  /// The retained profile (empty for a summarized context).
  const Profile& base_rankings() const { return base_; }
  const CandidateTable& table() const { return *table_; }
  int num_candidates() const { return table_->num_candidates(); }

  /// Profile size: retained rankings, or the folded count for a
  /// summarized context.
  size_t num_rankings() const;

  /// False for summarized (streaming-built) contexts, whose profile was
  /// folded and discarded.
  bool has_base_rankings() const { return !summarized_; }

  // --- mutation API (streaming profiles) ---------------------------------

  /// Appends one ranking to the profile, updating every built cache in
  /// place: O(n^2) on the precedence matrix, O(n · #groupings) for its
  /// parity score, O(n) on the Borda points. Weighted precedence variants
  /// and the Kemeny fairness weights are dropped (their weight vectors
  /// change length). On a summarized context the ranking is folded into
  /// the summary state and discarded. Throws std::logic_error if a
  /// RunMethod/RunAll reader is in flight.
  void AddRanking(Ranking ranking);

  /// Batch append; one generation bump per ranking.
  void AddRankings(std::vector<Ranking> rankings);

  /// Removes the ranking at `index` (profile order), reversing its
  /// contribution to every built cache in O(n^2). Index-addressed, so it
  /// requires a retained profile: summarized contexts throw
  /// std::logic_error, out-of-range indices std::out_of_range.
  void RemoveRanking(size_t index);

  /// Generation counter snapshot (bumped once per ranking added/removed).
  /// Lock-free: serving stats paths read it without queueing behind a
  /// long batch fold holding the cache mutex.
  uint64_t generation() const;

  /// Coherent lock-free snapshot of {generation, num_rankings}: both
  /// values come from the same instant (seqlock retry), so a serving
  /// STATS response can never pair a pre-mutation profile size with a
  /// post-mutation generation — and never blocks behind an in-flight
  /// exclusive batch fold.
  void ProfileCounters(uint64_t* generation, size_t* num_rankings) const;

  /// Emits the profile's summarized state — Borda point totals, the
  /// Definition-11 precedence matrix (built now if not yet cached;
  /// omitted only when this context was streamed Borda-only), the folded
  /// count, and the generation counter — under the shared gate, so a
  /// concurrent gated mutation can never tear the snapshot. The summary
  /// round-trips through the summarized constructor: a context restored
  /// from it serves every precedence/Borda-based method bit-identically.
  /// Throws std::invalid_argument on an empty profile (nothing to
  /// snapshot; mirrors RunMethod).
  StreamingSummary Snapshot() const;

  /// True when this context can serve `method`: methods flagged
  /// requires_base need the retained profile (summarized contexts fold it
  /// away), and precedence-keyed methods need a matrix the stream must
  /// have tracked.
  bool SupportsMethod(const MethodSpec& method) const;

  /// Attaches a reader/writer gate: from now on RunMethod/RunAll hold it
  /// shared and mutations hold it exclusive (see the class comment). The
  /// gate must outlive the context. Not thread-safe: attach before the
  /// context is shared across threads; throws std::logic_error if a run
  /// is already in flight. Pass nullptr to detach.
  void AttachGate(ContextGate* gate);

  /// The attached gate, or nullptr.
  ContextGate* gate() const { return gate_; }

  /// True iff the calling thread is currently inside a RunMethod/RunAll
  /// on THIS context. Serving layers use it to fail fast (throw) instead
  /// of self-deadlocking when a method body re-enters the serving API for
  /// its own table.
  bool InRunOnThisThread() const;

  // --- cached structures --------------------------------------------------

  /// The unweighted precedence matrix W of Definition 11. Built on first
  /// use, then maintained incrementally across mutations; the reference
  /// stays valid (and its contents current) for the context's lifetime.
  /// Summarized contexts that did not track precedence throw
  /// std::logic_error.
  const PrecedenceMatrix& Precedence() const;

  /// Weighted variant, cached per distinct weight vector (found by an
  /// exact-compare scan: a context sees one or two vectors). The returned
  /// reference lives until the next profile mutation.
  const PrecedenceMatrix& WeightedPrecedence(
      const std::vector<double>& weights) const;

  /// Per-candidate Borda point totals (points[c] = sum over the profile of
  /// n - 1 - position(c)); built on first use, maintained incrementally.
  const std::vector<int64_t>& BordaPoints() const;

  /// Max ARP/IRP of each base ranking (lower = fairer). Shared by the
  /// Kemeny-Weighted / Pick-Fairest-Perm / Correct-Fairest-Perm baselines,
  /// which in the pre-context code each re-scanned the whole profile.
  const std::vector<double>& BaseParityScores() const;

  /// Index of the fairest base ranking (lowest parity score, first wins).
  size_t FairestBaseIndex() const;

  /// B2's ranking weights: |R| for the fairest base ranking down to 1 for
  /// the least fair (ties broken by index); derived from BaseParityScores.
  const std::vector<double>& KemenyFairnessWeights() const;

  /// Fairness report of a candidate consensus against the table's
  /// constrained groupings (the free EvaluateFairness over table()).
  FairnessReport EvaluateFairness(const Ranking& ranking) const;

  /// MANI-Rank (Definition 7) at a uniform delta (SatisfiesManiRank).
  bool Satisfies(const Ranking& ranking, double delta) const;

  /// Runs one registry method ("A1".."B4" or its display name) against
  /// this context. Throws std::invalid_argument for unknown methods and
  /// for empty profiles (checked after the gate admits the run, so gated
  /// serving paths cannot race a concurrent removal into an empty run).
  ConsensusOutput RunMethod(std::string_view id_or_name,
                            const ConsensusOptions& options = {}) const;

  /// Runs a resolved method spec. All method execution should go through
  /// this entry point (rather than calling spec.run directly) so the
  /// mutation-exclusion debug check sees the run.
  ConsensusOutput RunMethod(const MethodSpec& method,
                            const ConsensusOptions& options = {}) const;

  /// Like RunMethod, but also reports the generation the run observed,
  /// read while the reader registration (and the shared gate, when one is
  /// attached) is still held — the only read that is guaranteed to match
  /// the profile the method actually saw. Callers keying results by
  /// generation (the serving result cache) must use this instead of
  /// pairing RunMethod with a later generation() read, which can observe
  /// a fold that landed after the run finished.
  ConsensusOutput RunMethod(const MethodSpec& method,
                            const ConsensusOptions& options,
                            uint64_t* generation_observed) const;

  /// Runs every registry method in paper order (aligned with
  /// AllMethods()), sharing every cached structure across the sweep.
  std::vector<ConsensusOutput> RunAll(
      const ConsensusOptions& options = {}) const;

  /// Runs the given methods as ONE reader registration — a single shared
  /// gate hold for the whole sweep, like RunAll, so no mutation wave can
  /// land between two of its methods. Serving layers use it to sweep the
  /// supported subset of a summarized context atomically.
  std::vector<ConsensusOutput> RunMethods(
      const std::vector<const MethodSpec*>& methods,
      const ConsensusOptions& options = {}) const;

  /// RunMethods with the generation observed under the reader
  /// registration (see the RunMethod overload above): every output in the
  /// sweep is keyed by this single generation.
  std::vector<ConsensusOutput> RunMethods(
      const std::vector<const MethodSpec*>& methods,
      const ConsensusOptions& options, uint64_t* generation_observed) const;

  /// Snapshot of the cache counters (thread-safe).
  ContextStats stats() const;

 private:
  /// Throws std::logic_error when `what` needs the retained profile but
  /// this context is summarized.
  void RequireBase(const char* what) const;


  /// Folds one ranking into every built cache; caller holds mu_. Batch
  /// callers that fold precedence separately (through the batch-kernel
  /// AddRankingsBatch path) pass fold_precedence = false.
  void ApplyAddLocked(const Ranking& ranking, bool fold_precedence = true);

  /// Republishes {generation, profile size} into the seqlock-protected
  /// atomics after a mutation; caller holds mu_ (the sole writer side).
  void PublishCountersLocked();

  struct WeightedEntry {
    std::vector<double> weights;
    std::unique_ptr<PrecedenceMatrix> matrix;
  };

  Profile base_;
  const CandidateTable* table_;
  /// True when built from a StreamingSummary: base_ stays empty and
  /// stream_count_ carries the profile size.
  bool summarized_ = false;
  int64_t stream_count_ = 0;

  mutable std::mutex mu_;
  /// Seqlock over the two serving counters below: odd while a mutation
  /// (which already holds mu_, so writers never race each other) is
  /// updating them, bumped to even when the pair is consistent again.
  /// Readers (generation / num_rankings / ProfileCounters) retry instead
  /// of locking, so STATS stays responsive during large batch folds.
  mutable std::atomic<uint64_t> counter_seq_{0};
  std::atomic<uint64_t> generation_counter_{0};
  std::atomic<uint64_t> size_counter_{0};
  /// RunMethod/RunAll readers currently in flight (mutation debug check).
  mutable std::atomic<int> active_runs_{0};
  /// Optional reader/writer gate (see AttachGate); not owned.
  ContextGate* gate_ = nullptr;
  mutable std::unique_ptr<PrecedenceMatrix> precedence_;
  mutable std::vector<WeightedEntry> weighted_;
  mutable std::unique_ptr<std::vector<int64_t>> borda_points_;
  mutable std::unique_ptr<std::vector<double>> parity_scores_;
  mutable std::unique_ptr<std::vector<double>> fairness_weights_;
  mutable ContextStats stats_;
};

}  // namespace manirank

#endif  // MANIRANK_CORE_CONTEXT_H_
