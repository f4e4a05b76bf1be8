#ifndef MANIRANK_SERVE_CONTEXT_MANAGER_H_
#define MANIRANK_SERVE_CONTEXT_MANAGER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/candidate_table.h"
#include "core/context.h"
#include "core/fairness_metrics.h"
#include "core/gate.h"
#include "core/method_registry.h"
#include "data/op_log.h"
#include "data/snapshot.h"
#include "serve/result_cache.h"

namespace manirank::serve {

class DurabilityManager;

/// Thrown when a mutation verb addresses a follower table: replication
/// targets fold only records streamed from their leader, so external
/// APPEND / REMOVE are rejected (mapped to "ERR readonly:" by the
/// protocol layer). Derives from logic_error because it is a usage
/// error, not table damage — the shard state is untouched.
class ReadOnlyTableError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Which side of a replication link a table is on. kLeader is the
/// default (and the only role that accepts mutations); kFollower marks a
/// table owned by a replication session (see serve/replica.h).
enum class TableRole { kLeader, kFollower };

/// Snapshot of one table shard, cheap enough to serve on every STATS
/// request. pending_* count mutations still sitting in the queue;
/// generation / num_rankings describe the applied profile only, so a
/// client can use the generation counter to prove that a failed request
/// left the shard untouched.
struct TableStats {
  int num_candidates = 0;
  size_t num_rankings = 0;
  uint64_t generation = 0;
  /// Queued mutation ops (coalesced append batches + removes) not yet
  /// folded into the context.
  size_t pending_ops = 0;
  /// Rankings inside the queued append batches.
  size_t pending_rankings = 0;
  /// Coalesced batches applied to the context so far.
  uint64_t applied_batches = 0;
  /// Rankings folded via the queue so far.
  uint64_t applied_rankings = 0;
  /// Method runs served (Run calls; RunSupported counts one per method).
  uint64_t runs = 0;
  /// Queued REMOVEs discarded because a failed batch apply dropped the
  /// profile state their index referenced (see Drain's failure resync).
  uint64_t dropped_removes = 0;
  /// True for tables restored from a snapshot (summarized context): they
  /// serve precedence/Borda methods only and reject REMOVE.
  bool summarized = false;
  /// kFollower for replication targets (mutations rejected). STATS
  /// appends the replica_* fields only for followers, so leader output
  /// is unchanged.
  TableRole role = TableRole::kLeader;
  /// Followers: last leader generation the replication session observed
  /// minus the locally applied generation (0 once caught up).
  uint64_t replica_lag_generations = 0;
  /// Followers: replication bytes received (handshake floor + stream).
  uint64_t replica_bytes_streamed = 0;
  /// Followers: whether the leader link is currently up.
  bool replica_connected = false;
  /// Result-cache counters (generation-keyed consensus/SELECT results,
  /// see serve/result_cache.h): lookup hits, completed runs inserted
  /// (ERR paths move neither), and live entries in both tiers.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  size_t cache_entries = 0;
};

/// Result of scoring one submitted ranking against a live table (EVAL).
struct EvalResult {
  /// Profile generation the consensus comparison observed.
  uint64_t generation = 0;
  /// Registry id of the consensus method the tau compares against (A3
  /// Fair-Borda — the cheapest fairness-aware method, servable on every
  /// context flavor including summarized restores and followers).
  std::string method;
  /// Kendall tau distance between the submitted ranking and that
  /// consensus, and its [0,1] normalization.
  int64_t tau = 0;
  double normalized_tau = 0.0;
  /// Fairness of the submitted ranking itself (ARP per attribute, IRP
  /// last — see FairnessReport::parity).
  FairnessReport fairness;
};

/// Result of one SELECT. When `feasible` is false no size-k slate
/// satisfies the constraints (the protocol maps this to "ERR
/// infeasible:", not an exception — the query itself was well-formed).
struct SelectOutcome {
  /// Profile generation the underlying consensus observed.
  uint64_t generation = 0;
  /// Consensus method id the slate prefixes (A3 Fair-Borda — servable on
  /// every table flavor, exactly like EVAL).
  std::string method;
  /// Selected candidates in consensus order (best first).
  std::vector<CandidateId> selected;
  /// Sum of 0-based consensus positions of the slate.
  long long cost = 0;
  bool feasible = false;
  /// True when the greedy repair could not certify a slate and the
  /// branch & bound fallback ran (on the caller's thread — async front
  /// ends classify SELECT as compute work and keep it off event loops).
  bool used_ilp = false;
  /// True when the slate is provably cost-optimal (single-grouping
  /// greedy, or ILP solved to optimality within budget).
  bool optimal = false;
  /// Adverse-impact ratio of the served slate per constrained grouping
  /// (attributes in order, intersection last when q > 1) — the EEOC
  /// selection-rate audit from core/selection_metrics.h, recomputed from
  /// the slate on every serve (hit or cold: it is a pure function of the
  /// selected set, so cached and cold responses stay byte-identical).
  /// Empty when infeasible.
  std::vector<double> air;
  /// True when every constrained grouping passes the four-fifths rule
  /// (AIR >= 0.8). Meaningless when infeasible.
  bool four_fifths = false;
};

/// How SnapshotTable captures a table's state.
enum class SnapshotMode {
  /// Summary only (the v1 behaviour): small, restores as a *summarized*
  /// context — precedence/Borda methods bit-identical, B2-B4 and REMOVE
  /// unavailable. Rejects empty profiles (nothing to snapshot).
  kSummarized,
  /// Summary plus the exact retained profile: restores as a full
  /// *retained* context serving everything bit-identically. The floor an
  /// op log chains from. Empty profiles are allowed (a fresh table's
  /// floor). Throws std::logic_error on summarized tables, whose profile
  /// was folded away.
  kExact,
  /// kExact when the table retains its profile, kSummarized otherwise —
  /// what a durability policy wants without knowing the table's flavor.
  kAuto,
};

/// Multi-table serving layer: owns N named tables, each backed by one
/// long-lived ConsensusContext (the sharding unit), a per-shard
/// ContextGate making the mutation/run exclusivity contract a real
/// synchronization layer, and a per-shard mutation queue.
///
/// Request model. Mutations (Append / Remove) never touch the context
/// directly: they are validated against the shard's *virtual* profile
/// (applied size plus queued deltas), enqueued, and coalesced — adjacent
/// append batches merge into one pending AddRankings call. The queue is
/// drained at the next query wave (Run / RunSupported / Flush): the drainer
/// applies the whole backlog under the shard's exclusive gate, then runs
/// under the shared gate. Queries therefore always observe a batch
/// boundary, mutations admitted mid-wave simply ride the next wave, and a
/// profile mutation can never interleave a method run — blocking on the
/// gate instead of relying on the context's advisory std::logic_error.
///
/// Thread safety: every public method is safe to call concurrently from
/// any number of threads. Create/Drop take the manager-level lock; all
/// per-table traffic only touches the shard (via shared_ptr, so a Drop
/// races safely with in-flight requests on the dropped table).
class ContextManager {
 public:
  ContextManager() = default;
  ContextManager(const ContextManager&) = delete;
  ContextManager& operator=(const ContextManager&) = delete;

  /// Registers a new named table over `table` with an optional initial
  /// profile. Throws std::invalid_argument if the name is empty or taken,
  /// or if an initial ranking does not match the table.
  void Create(const std::string& name, CandidateTable table,
              std::vector<Ranking> initial = {});

  /// Unregisters a table. In-flight requests on it complete against the
  /// detached shard. Throws std::invalid_argument for unknown names.
  void Drop(const std::string& name);

  bool Has(const std::string& name) const;
  size_t num_tables() const;
  /// Registered table names, sorted.
  std::vector<std::string> TableNames() const;

  /// Validates the batch against the shard's virtual profile and enqueues
  /// it (coalescing with a pending append batch). Never blocks on runs.
  /// Returns a post-enqueue stats snapshot of the shard, so protocol
  /// responses need no second (dropped-table-racy) lookup.
  TableStats Append(const std::string& name, std::vector<Ranking> rankings);

  /// Enqueues removal of the ranking at `index` in the *virtual* profile
  /// (the profile as it will stand once the queue drains). Throws
  /// std::out_of_range for indices beyond the virtual size, and
  /// std::logic_error for summarized (snapshot-restored) tables, whose
  /// rankings were folded away and cannot be removed by index — rejected
  /// here at enqueue time so the mutation queue can never wedge on an
  /// unappliable op.
  TableStats Remove(const std::string& name, size_t index);

  /// Drains the shard's mutation queue now, blocking on the exclusive
  /// gate until in-flight runs finish. Returns the number of rankings
  /// applied (appended + removed).
  size_t Flush(const std::string& name);

  /// Drains the queue, then runs one registry method under the shared
  /// gate. Throws std::invalid_argument for unknown methods and empty
  /// profiles. `generation_after`, when given, receives the profile
  /// generation the run served (read from the shard, not by name).
  ConsensusOutput Run(const std::string& name, std::string_view method,
                      const ConsensusOptions& options = {},
                      uint64_t* generation_after = nullptr);

  /// Same, for a caller-supplied spec (custom probes, diagnostics).
  ConsensusOutput Run(const std::string& name, const MethodSpec& method,
                      const ConsensusOptions& options = {},
                      uint64_t* generation_after = nullptr);

  /// Stats snapshot; does NOT drain the queue.
  TableStats Stats(const std::string& name) const;

  /// Scores a submitted ranking against the applied profile: consensus
  /// via A3 Fair-Borda under the shared gate, Kendall tau of the
  /// submitted ranking vs that consensus, and the submitted ranking's own
  /// fairness report (ARP per attribute via the favored-pair counters,
  /// IRP last). Read-only and non-draining — like STATS
  /// it observes the applied profile, so queued mutations ride the next
  /// wave. Throws std::invalid_argument for unknown tables, malformed
  /// rankings, and empty profiles.
  EvalResult Eval(const std::string& name, const Ranking& ranking);

  /// Serves the best top-k slate of the table's A3 consensus under the
  /// query's count constraints. Read-only and non-draining like Eval
  /// (observes the applied profile; servable on followers and summarized
  /// restores). The consensus leg goes through the result cache, and the
  /// whole outcome is cached per (query, generation) when deterministic
  /// (greedy, or ILP at proven optimality/infeasibility). All query
  /// validation happens before any run, so a malformed query throws
  /// std::invalid_argument with the shard — including its counters —
  /// untouched.
  SelectOutcome Select(const std::string& name, const SelectQuery& query);

  /// Manager-wide result cache switch (the cache-disabled twins in
  /// tests/bench). Applies to every existing and future table; disabling
  /// drops current entries. Responses are bit-identical either way — only
  /// the recompute cost changes.
  void SetResultCacheEnabled(bool enabled);

  /// Aggregated result-cache counters across all tables (METRICS).
  struct CacheTotals {
    uint64_t hits = 0;
    uint64_t misses = 0;
    size_t entries = 0;
  };
  CacheTotals ResultCacheTotals() const;

  /// Marks the table a follower (external mutations rejected with
  /// ReadOnlyTableError) or back to a leader. Throws
  /// std::invalid_argument for unknown names.
  void SetTableRole(const std::string& name, TableRole role);

  /// Applies one verified op-log record through the exact fold path
  /// Append/Remove use — enqueue, then drain under the exclusive gate,
  /// one record per fold, so the shard's applied_batches bookkeeping
  /// reproduces the process that logged it. Its two callers are the
  /// follower's replication session and cold start's log replay
  /// (serve/durability.h), both after FloorChain (data/op_log.h) has
  /// classified the record. Bypasses the follower readonly check.
  /// Returns rankings applied (appended + removed).
  size_t ApplyReplicated(const std::string& name, OpRecord record);

  /// Publishes follower link progress for STATS: the last generation the
  /// leader reported for this table, total replication bytes received,
  /// and whether the link is up. No-op for unknown names (the table may
  /// be mid-swap during a re-handshake).
  void SetReplicaProgress(const std::string& name, uint64_t leader_generation,
                          uint64_t bytes_streamed, bool connected);

  /// Drains the table's mutation queue, then snapshots its state (table
  /// + StreamingSummary + applied counters, plus the exact profile for
  /// the exact modes — see SnapshotMode) while still holding the
  /// exclusive gate — so the snapshot always lands exactly on a batch
  /// boundary and can never tear against a concurrent drain. Throws
  /// std::invalid_argument for unknown names, and for empty tables in
  /// kSummarized mode (nothing to snapshot; the exact modes allow them).
  ///
  /// When `under_gate` is given it runs with the finished snapshot while
  /// the exclusive gate is STILL HELD: nothing can fold into the table
  /// until it returns. serve/durability.h uses this to write the
  /// snapshot file and truncate the op log as one atomic-against-folds
  /// step — the truncated log provably chains from the snapshot. The
  /// callback must not call back into this table's serving verbs.
  using SnapshotConsumer = std::function<void(const TableSnapshot&)>;
  TableSnapshot SnapshotTable(const std::string& name,
                              SnapshotMode mode = SnapshotMode::kSummarized,
                              const SnapshotConsumer& under_gate = nullptr);

  /// Registers a new table from a snapshot, resuming its generation and
  /// applied-mutation counters. A summarized snapshot yields a
  /// *summarized* context: every precedence/Borda-based method serves
  /// bit-identically to the snapshotted table, but methods needing the
  /// retained profile (B2-B4) and REMOVE are unavailable. An exact
  /// (retained) snapshot yields a full *retained* context — every method
  /// and REMOVE work, bit-identically — with the snapshot's summary
  /// seeding the Borda/precedence caches so the restore skips the
  /// O(|R| n^2) rebuild. Throws std::invalid_argument when the name is
  /// empty or taken ("table already exists", so clients can retry
  /// idempotently).
  TableStats RestoreTable(const std::string& name, TableSnapshot snapshot);

  /// RestoreTable for a replication session's floor: the shard is
  /// registered already marked a follower, and replaces any table of that
  /// name in one map update under the lifecycle lock — concurrent readers
  /// see the old table or the new follower, never a missing table, and no
  /// external mutation can land in between.
  TableStats RestoreFollower(const std::string& name, TableSnapshot snapshot);

  /// The registry methods the named table can currently serve, in paper
  /// order: all eight for retained profiles, the precedence/Borda subset
  /// for summarized (restored) tables.
  std::vector<const MethodSpec*> SupportedMethods(
      const std::string& name) const;

  /// {method, output} pairs in paper order (RunSupported, TryRunCached).
  using MethodResults =
      std::vector<std::pair<const MethodSpec*, ConsensusOutput>>;

  /// Drains the queue, then sweeps every method the table supports as ONE
  /// shared-gate hold, atomic with respect to mutation waves: all eight
  /// for retained profiles, the precedence/Borda subset for summarized
  /// (restored) tables. Returns {method, output} pairs in paper order.
  MethodResults RunSupported(const std::string& name,
                             const ConsensusOptions& options = {},
                             uint64_t* generation_after = nullptr);

  // --- cache-only, non-blocking reads (async front ends) --------------
  //
  // An event loop may answer a RUN, SELECT or EVAL itself when the
  // result cache already holds the consensus, skipping the worker
  // handoff. These entries never block, drain or run a consensus method
  // (an EVAL hit still scores the submitted ranking, O(n log n)): each
  // either serves exactly what the blocking verb would serve at this
  // instant — same output, same generation, same counter movement
  // (`runs`, `cache_hits`) — or returns false ("not served") with no
  // counter moved, and the caller falls back to the blocking verb.
  // Unknown tables, unknown or unsupported methods, malformed requests,
  // empty profiles and cache misses are all "not served": none of them
  // can have a cache entry.

  /// Run (`method` non-null) or RunSupported (`method` == nullptr, the
  /// `all` sweep, served only when every supported method hits) from the
  /// cache. Serves only when the table's apply lock can be taken without
  /// waiting and the mutation queue is empty: holding the lock, no fold
  /// is queued, running or able to start, so the lookup's generation is
  /// the one the draining verb would serve at.
  bool TryRunCached(const std::string& name, const MethodSpec* method,
                    const ConsensusOptions& options, MethodResults* results,
                    uint64_t* generation);

  /// Select from the cache: the same lookup Select makes, at the applied
  /// generation (SELECT never drains, so queued mutations do not block
  /// it).
  bool TrySelectCached(const std::string& name, const SelectQuery& query,
                       SelectOutcome* outcome);

  /// Eval from the cache: Eval's size and permutation checks, its A3
  /// lookup at the applied generation (EVAL never drains either), then
  /// the same tau and fairness pass. Not served for unknown tables,
  /// rankings Eval would reject, and a consensus miss.
  bool TryEvalCached(const std::string& name, const Ranking& ranking,
                     EvalResult* result);

  // --- non-blocking drain scheduling hooks (async front ends) ---------
  //
  // A draining verb (Run / RunSupported / Flush / SnapshotTable)
  // can block for the length of a whole exclusive backlog fold. A
  // synchronous stream front end just blocks; an async front end
  // dispatching requests onto a bounded worker pool must not let one
  // table's fold absorb every worker. These hooks let it route
  // around the fold without ever blocking a scheduling thread:
  // IsDraining says "an exclusive fold is running on this table right
  // now", and the drain observer fires (table name, on the draining
  // thread, after the gate is released) each time one finishes — park
  // requests while IsDraining, release them from the observer.

  /// True while a drain is applying this table's backlog under the
  /// exclusive gate. Advisory and racy by design — a false return may be
  /// stale by the time the caller acts on it — but paired with the drain
  /// observer it admits no lost wakeup: the flag is cleared before the
  /// observer fires, so a request parked while the flag was set is always
  /// seen by that drain's observer call. Unknown tables return false.
  bool IsDraining(const std::string& name) const;

  /// Called after every exclusive drain releases the gate (including
  /// failed applies), with the table's name. At most one invocation runs
  /// at a time, and SetDrainObserver(nullptr) blocks until any in-flight
  /// invocation returns — so an observer owner can tear down safely. The
  /// callback runs on the draining thread and must not call back into
  /// the draining verbs (deadlock: it would drain behind itself).
  ///
  /// SINGLE SLOT: each Set replaces the previous observer outright, so
  /// exactly one front end may own a manager's drain scheduling at a
  /// time — a second ServeExecutor Start()ed on the same manager would
  /// steal the first one's wakeups and strand its parked requests. Run
  /// multiple listeners off one manager only through one executor.
  using DrainObserver = std::function<void(const std::string& table)>;
  void SetDrainObserver(DrainObserver observer);

  /// Attaches (or clears, with nullptr) the durability layer that logs
  /// every fold and table lifecycle op (serve/durability.h documents
  /// which calls run under the exclusive gate and which may throw). NOT
  /// synchronized against traffic: attach before the manager serves its
  /// first request and detach only after serving stops — the fold path
  /// reads the pointer without a lock on purpose, so the no-durability
  /// configuration pays nothing. The object is borrowed, not owned, and
  /// must outlive every fold.
  void SetDurabilityHook(DurabilityManager* durability);

 private:
  /// One queued mutation: an append batch (rankings non-empty) or a
  /// removal of `remove_index`.
  struct PendingOp {
    std::vector<Ranking> rankings;
    size_t remove_index = 0;
    bool is_remove = false;
  };

  struct Shard {
    /// The name the shard was registered under (stable for the shard's
    /// lifetime, even across Drop — the drain observer reports it).
    std::string name;
    /// Set while Drain applies the backlog under the exclusive gate;
    /// cleared before the drain observer fires (see IsDraining).
    std::atomic<bool> draining{false};
    /// Declared before ctx: the context borrows the table and must be
    /// destroyed first (members are destroyed in reverse order).
    std::unique_ptr<CandidateTable> table;
    ContextGate gate;
    std::unique_ptr<ConsensusContext> ctx;
    /// Guards the queue and the virtual-size bookkeeping. Never held
    /// while touching the context, so enqueues stay non-blocking.
    mutable std::mutex queue_mu;
    std::vector<PendingOp> queue;
    size_t queued_append_rankings = 0;
    size_t virtual_size = 0;
    uint64_t applied_batches = 0;
    uint64_t applied_rankings = 0;
    /// Stale queued REMOVEs dropped by the failed-apply resync.
    uint64_t dropped_removes = 0;
    /// True for follower shards: external mutations are rejected and
    /// only ApplyReplicated may fold (see TableRole).
    std::atomic<bool> follower{false};
    /// Follower link progress, guarded by queue_mu like the applied
    /// counters (SetReplicaProgress writes, StatsFor reads).
    uint64_t replica_leader_generation = 0;
    uint64_t replica_bytes_streamed = 0;
    bool replica_connected = false;
    std::atomic<uint64_t> runs{0};
    /// Generation-keyed consensus/SELECT results for this table.
    /// Invalidated (dead generations evicted) by Drain at every fold
    /// boundary — leader commits and follower ApplyReplicated both land
    /// there. Thread-safe on its own mutex.
    ResultCache cache;
    /// Serializes queue application so two drainers cannot interleave
    /// their stolen backlogs (op order is load-bearing: remove indices
    /// refer to the virtual profile order).
    std::mutex apply_mu;
  };

  std::shared_ptr<Shard> Find(const std::string& name) const;
  /// Registers a fully built shard under `name`; throws
  /// std::invalid_argument when the name is empty or taken.
  void Register(const std::string& name, std::shared_ptr<Shard> shard);
  /// Validation + enqueue shared by Append and ApplyReplicated (the
  /// public verb adds the follower readonly check on top).
  TableStats EnqueueAppend(Shard& shard, std::vector<Ranking> rankings);
  TableStats EnqueueRemove(Shard& shard, size_t index);
  /// RestoreTable and RestoreFollower: builds the shard from `snapshot`
  /// and registers it in `role`; a follower replaces any existing shard.
  TableStats Restore(const std::string& name, TableSnapshot snapshot,
                     TableRole role);
  /// Stats snapshot straight off a shard (no name lookup).
  static TableStats StatsFor(const Shard& shard);
  /// One method run through the shard's result cache, keyed by the
  /// method id and the exact `options`: lookup at the seqlock
  /// generation, else a keyed run (the generation the run observed, read
  /// under the reader registration) + insert when the output is a
  /// deterministic replay (exact). Bumps `runs` once either way;
  /// `generation_out` receives the generation the served result is keyed
  /// by.
  static ConsensusOutput RunCachedOn(Shard& shard, const MethodSpec& method,
                                     const ConsensusOptions& options,
                                     uint64_t* generation_out);
  /// RunCachedOn's cache hit alone: false (nothing moved) on a miss.
  static bool LookupRunOn(Shard& shard, const MethodSpec& method,
                          const ConsensusOptions& options, ConsensusOutput* out,
                          uint64_t* generation_out);
  /// RunSupported's all-or-nothing cache hit over `supported`: false
  /// (nothing moved) unless every method hits at one generation.
  static bool LookupSweepOn(Shard& shard,
                            const std::vector<const MethodSpec*>& supported,
                            const ConsensusOptions& options,
                            MethodResults* results, uint64_t* generation_out);
  /// Why Eval rejects `ranking` for this shard's table (size first, then
  /// permutation), or nullptr when it accepts it.
  static const char* EvalRankingError(const Shard& shard,
                                      const Ranking& ranking);
  /// Eval's scoring against a served consensus: everything in `result`
  /// but the generation.
  static void ScoreEval(const Shard& shard, const Ranking& ranking,
                        const MethodSpec& method,
                        const ConsensusOutput& consensus, EvalResult* result);
  /// Select's cache hit for an already validated (or cached, hence
  /// valid) query: false (nothing moved) on a miss.
  static bool LookupSelectOn(Shard& shard, const SelectQuery& query,
                             SelectOutcome* outcome);
  /// Steals and applies the queued backlog, blocking on the exclusive
  /// gate. Returns rankings applied (appended + removed). When
  /// `under_gate` is given it runs after the backlog applies, still under
  /// the exclusive gate (and the gate is claimed even for an empty
  /// queue) — SnapshotTable uses this to read a batch-boundary state no
  /// concurrent drain can interleave.
  size_t Drain(Shard& shard,
               const std::function<void()>& under_gate = nullptr);
  /// Rebuilds the virtual-size bookkeeping after a failed batch apply:
  /// replays the surviving queue against the applied profile size,
  /// dropping (and accounting in dropped_removes) any queued REMOVE whose
  /// index can no longer exist — a stale remove would otherwise throw on
  /// every later drain and wedge the queue. Takes queue_mu itself.
  static void ResyncQueueAfterFailedApply(Shard& shard);
  /// White-box seam for the drain-failure recovery tests: no reachable
  /// public path can make a validated backlog throw mid-apply, so the
  /// tests inject one directly (tests/serve_test.cc).
  friend struct ContextManagerTestPeer;

  /// Find that returns nullptr instead of throwing (advisory probes).
  std::shared_ptr<Shard> TryFind(const std::string& name) const;
  /// The shard's complete current state as a registration floor for the
  /// durability hook (exact for retained tables, summarized otherwise).
  /// Callers synchronize: used on not-yet-registered shards only.
  static TableSnapshot BuildFloor(const Shard& shard);
  /// Clears `shard.draining`, then invokes the drain observer (in that
  /// order — the no-lost-wakeup contract of IsDraining depends on it).
  void NotifyDrained(Shard& shard);

  /// Guards only the name → shard map; per-table traffic leaves the
  /// manager-wide critical section after one O(1) lookup.
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Shard>> shards_;
  /// Serializes table lifecycle (Create / Restore* / Drop) so the
  /// durability hook's floor files can never interleave with a racing
  /// lifecycle op on the same name — e.g. two concurrent CREATEs both
  /// writing a floor before one loses the Register. Ordered strictly
  /// outside mu_ (held across the dup-check, the hook call, and
  /// Register/erase); per-table traffic never touches it.
  std::mutex lifecycle_mu_;
  /// Borrowed durability layer; nullptr when durability is off. Read
  /// without a lock on the fold path (see SetDurabilityHook).
  DurabilityManager* hook_ = nullptr;
  /// Serializes drain-observer invocations; SetDrainObserver holds it
  /// while swapping, so a swap to nullptr waits out in-flight calls.
  mutable std::mutex observer_mu_;
  DrainObserver drain_observer_;
  /// Manager-wide result cache switch, copied onto each shard at
  /// registration (see SetResultCacheEnabled).
  std::atomic<bool> cache_enabled_{true};
};

}  // namespace manirank::serve

#endif  // MANIRANK_SERVE_CONTEXT_MANAGER_H_
