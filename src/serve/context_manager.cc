#include "serve/context_manager.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/distance.h"
#include "core/fair_select.h"
#include "core/selection_metrics.h"
#include "serve/durability.h"

namespace manirank::serve {
namespace {

/// The registry methods `ctx` can serve, in paper order — the single
/// definition of the supported-subset predicate (SupportedMethods and
/// RunSupported must never disagree).
std::vector<const MethodSpec*> SupportedFor(const ConsensusContext& ctx) {
  std::vector<const MethodSpec*> supported;
  for (const MethodSpec& method : AllMethods()) {
    if (ctx.SupportsMethod(method)) supported.push_back(&method);
  }
  return supported;
}

/// Context::Snapshot(), extended to the empty profile (which it rejects:
/// a summarized restore of zero rankings would be useless — but an exact
/// floor of a fresh table is exactly that, and must serialize).
StreamingSummary SummaryFor(const ConsensusContext& ctx) {
  if (ctx.num_rankings() == 0) {
    StreamingSummary summary;
    summary.num_candidates = ctx.num_candidates();
    summary.num_rankings = 0;
    summary.generation = ctx.generation();
    summary.borda_points.assign(static_cast<size_t>(ctx.num_candidates()), 0);
    return summary;
  }
  return ctx.Snapshot();
}

/// Fills the outcome's selection-rate audit (core/selection_metrics.h):
/// per-constrained-grouping adverse-impact ratio of the served slate and
/// the aggregate four-fifths verdict. Recomputed on EVERY serve, hit or
/// cold — the audit is a pure function of the selected SET (selection
/// rates ignore within-slate order), so a deterministic completion of
/// the slate into a full ranking keeps cached responses byte-identical
/// to cold ones without growing the cache entry.
void AuditSlate(const CandidateTable& table,
                const std::vector<CandidateId>& selected,
                SelectOutcome* outcome) {
  if (selected.empty()) return;
  const int n = table.num_candidates();
  std::vector<char> in_slate(static_cast<size_t>(n), 0);
  std::vector<CandidateId> order(selected);
  order.reserve(static_cast<size_t>(n));
  for (CandidateId c : selected) in_slate[static_cast<size_t>(c)] = 1;
  for (CandidateId c = 0; c < n; ++c) {
    if (!in_slate[static_cast<size_t>(c)]) order.push_back(c);
  }
  const Ranking ranking(std::move(order));
  const int k = static_cast<int>(selected.size());
  outcome->four_fifths = true;
  for (const Grouping* grouping : table.constrained_groupings()) {
    const double air = AdverseImpactRatio(ranking, *grouping, k);
    outcome->air.push_back(air);
    outcome->four_fifths = outcome->four_fifths && air >= 0.8;
  }
}

}  // namespace

void ContextManager::Create(const std::string& name, CandidateTable table,
                            std::vector<Ranking> initial) {
  if (name.empty()) {
    throw std::invalid_argument("table name must be non-empty");
  }
  for (const Ranking& r : initial) {
    if (r.size() != table.num_candidates()) {
      throw std::invalid_argument("initial ranking size does not match table");
    }
    if (!Ranking::IsValidOrder(r.order())) {
      throw std::invalid_argument("initial ranking is not a permutation");
    }
  }
  // Lifecycle ops serialize: with a durability hook attached, the floor
  // write below and the Register must be one indivisible step per name —
  // two racing CREATEs must not both write floors with only one winning
  // the map.
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  {
    // Fail duplicate names before paying for context construction over
    // the whole initial profile (the emplace below re-checks the race).
    std::lock_guard<std::mutex> lock(mu_);
    if (shards_.count(name) != 0) {
      throw std::invalid_argument("table already exists: " + name);
    }
  }
  auto shard = std::make_shared<Shard>();
  shard->name = name;
  shard->table = std::make_unique<CandidateTable>(std::move(table));
  shard->virtual_size = initial.size();
  shard->ctx =
      std::make_unique<ConsensusContext>(std::move(initial), *shard->table);
  shard->ctx->AttachGate(&shard->gate);
  shard->cache.set_enabled(cache_enabled_.load(std::memory_order_relaxed));
  // Floor before Register: a table whose durability floor cannot be
  // written (the hook throws) must never become visible — nothing to
  // roll back.
  if (hook_ != nullptr) hook_->OnTableRegistered(name, BuildFloor(*shard));
  Register(name, std::move(shard));
}

void ContextManager::Register(const std::string& name,
                              std::shared_ptr<Shard> shard) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!shards_.emplace(name, std::move(shard)).second) {
    throw std::invalid_argument("table already exists: " + name);
  }
}

void ContextManager::Drop(const std::string& name) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shards_.erase(name) == 0) {
      throw std::invalid_argument("no such table: " + name);
    }
  }
  // After the erase: the table is gone from the map, so the hook can
  // retire its files without a racing CREATE of the same name slipping a
  // fresh floor underneath (lifecycle_mu_ covers both).
  if (hook_ != nullptr) hook_->OnTableDropped(name);
}

bool ContextManager::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.count(name) != 0;
}

size_t ContextManager::num_tables() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

std::vector<std::string> ContextManager::TableNames() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, shard] : shards_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::shared_ptr<ContextManager::Shard> ContextManager::Find(
    const std::string& name) const {
  std::shared_ptr<Shard> shard = TryFind(name);
  if (shard == nullptr) {
    throw std::invalid_argument("no such table: " + name);
  }
  return shard;
}

std::shared_ptr<ContextManager::Shard> ContextManager::TryFind(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = shards_.find(name);
  return it == shards_.end() ? nullptr : it->second;
}

TableStats ContextManager::Append(const std::string& name,
                                  std::vector<Ranking> rankings) {
  std::shared_ptr<Shard> shard = Find(name);
  if (shard->follower.load(std::memory_order_relaxed)) {
    throw ReadOnlyTableError("table '" + name +
                             "' is a read-only follower replica");
  }
  return EnqueueAppend(*shard, std::move(rankings));
}

TableStats ContextManager::EnqueueAppend(Shard& shard,
                                         std::vector<Ranking> rankings) {
  if (rankings.empty()) {
    throw std::invalid_argument("APPEND needs at least one ranking");
  }
  const int n = shard.table->num_candidates();
  // Full validation at enqueue time: a bad batch must fail *now*, before
  // anything is queued, so the error response maps to the request that
  // caused it and the shard state is untouched.
  for (const Ranking& r : rankings) {
    if (r.size() != n) {
      throw std::invalid_argument("appended ranking size does not match table");
    }
    if (!Ranking::IsValidOrder(r.order())) {
      throw std::invalid_argument("appended ranking is not a permutation");
    }
  }
  {
    std::lock_guard<std::mutex> lock(shard.queue_mu);
    shard.queued_append_rankings += rankings.size();
    shard.virtual_size += rankings.size();
    if (!shard.queue.empty() && !shard.queue.back().is_remove) {
      // Coalesce: adjacent append batches fold into one AddRankings call.
      std::vector<Ranking>& tail = shard.queue.back().rankings;
      tail.insert(tail.end(), std::make_move_iterator(rankings.begin()),
                  std::make_move_iterator(rankings.end()));
    } else {
      PendingOp op;
      op.rankings = std::move(rankings);
      shard.queue.push_back(std::move(op));
    }
  }
  return StatsFor(shard);
}

TableStats ContextManager::Remove(const std::string& name, size_t index) {
  std::shared_ptr<Shard> shard = Find(name);
  if (shard->follower.load(std::memory_order_relaxed)) {
    throw ReadOnlyTableError("table '" + name +
                             "' is a read-only follower replica");
  }
  return EnqueueRemove(*shard, index);
}

TableStats ContextManager::EnqueueRemove(Shard& shard, size_t index) {
  // Index-addressed removal needs the retained profile. Rejecting a
  // summarized (snapshot-restored) table here — instead of letting the op
  // enqueue and throw at the next drain — keeps the mutation queue free
  // of ops that can never apply.
  if (!shard.ctx->has_base_rankings()) {
    throw std::logic_error(
        "REMOVE needs the retained profile, but table '" + shard.name +
        "' was restored from a summarized snapshot");
  }
  {
    std::lock_guard<std::mutex> lock(shard.queue_mu);
    if (index >= shard.virtual_size) {
      throw std::out_of_range("REMOVE index " + std::to_string(index) +
                              " out of range for profile of " +
                              std::to_string(shard.virtual_size));
    }
    PendingOp op;
    op.is_remove = true;
    op.remove_index = index;
    shard.queue.push_back(std::move(op));
    --shard.virtual_size;
  }
  return StatsFor(shard);
}

void ContextManager::SetTableRole(const std::string& name, TableRole role) {
  Find(name)->follower.store(role == TableRole::kFollower,
                             std::memory_order_relaxed);
}

size_t ContextManager::ApplyReplicated(const std::string& name,
                                       OpRecord record) {
  std::shared_ptr<Shard> shard = Find(name);
  if (record.kind == OpRecord::Kind::kRemove) {
    EnqueueRemove(*shard, static_cast<size_t>(record.remove_index));
  } else {
    EnqueueAppend(*shard, std::move(record.rankings));
  }
  // One record = one fold: the replication session feeds records
  // serially, external mutations are rejected on followers, so nothing
  // can coalesce into this drain and the leader's per-record
  // applied_batches bookkeeping is reproduced exactly.
  return Drain(*shard);
}

void ContextManager::SetReplicaProgress(const std::string& name,
                                        uint64_t leader_generation,
                                        uint64_t bytes_streamed,
                                        bool connected) {
  const std::shared_ptr<Shard> shard = TryFind(name);
  if (shard == nullptr) return;
  std::lock_guard<std::mutex> lock(shard->queue_mu);
  shard->replica_leader_generation = leader_generation;
  shard->replica_bytes_streamed = bytes_streamed;
  shard->replica_connected = connected;
}

size_t ContextManager::Drain(Shard& shard,
                             const std::function<void()>& under_gate) {
  // A method body re-entering the serving API for its own table would
  // otherwise self-deadlock on the gate (the thread already holds it
  // shared); fail fast like the context-level mutation API does.
  if (shard.ctx->InRunOnThisThread()) {
    throw std::logic_error(
        "serving request on a table from inside one of its own method runs");
  }
  std::lock_guard<std::mutex> apply_lock(shard.apply_mu);
  // Fast path: nothing queued — skip the exclusive gate entirely so query
  // waves with no pending mutations never block each other. A caller that
  // needs the gate held (under_gate) claims it even for an empty queue.
  {
    std::lock_guard<std::mutex> qlock(shard.queue_mu);
    if (shard.queue.empty() && under_gate == nullptr) return 0;
  }
  // Claim the gate for the whole backlog, then steal it: ops enqueued
  // from here on simply ride the next wave.
  shard.gate.LockExclusive();
  // Published for the async scheduling hooks: while this is set a
  // draining verb on the same table would block on the exclusive gate,
  // so an async front end parks such requests instead of burning a
  // worker. NotifyDrained clears it before firing the observer.
  shard.draining.store(true, std::memory_order_relaxed);
  std::vector<PendingOp> backlog;
  {
    std::lock_guard<std::mutex> qlock(shard.queue_mu);
    backlog.swap(shard.queue);
    shard.queued_append_rankings = 0;
  }
  size_t total = 0;
  uint64_t batches = 0;
  // Distinguishes the two throw sites for the durability hook: a throw
  // with this still false came out of an op's apply, so the just-logged
  // record describes a mutation that never happened and must be aborted;
  // a throw after it (from under_gate) leaves every logged op applied.
  bool ops_applied = false;
  try {
    for (PendingOp& op : backlog) {
      if (op.is_remove) {
        // Logged immediately before the apply (and for appends, before
        // AddRankings move-consumes the batch): the log sees exactly the
        // fold order, and AbortLastOp below can retract the one record
        // whose apply threw.
        if (hook_ != nullptr) hook_->LogRemove(shard.name, op.remove_index);
        shard.ctx->RemoveRanking(op.remove_index);
        total += 1;
      } else {
        if (hook_ != nullptr) hook_->LogAppend(shard.name, op.rankings);
        total += op.rankings.size();
        ++batches;
        shard.ctx->AddRankings(std::move(op.rankings));
      }
    }
    {
      // The applied_* counters are read by Stats under queue_mu. Updated
      // while the gate is still held, so an under_gate observer sees the
      // batch it just landed on.
      std::lock_guard<std::mutex> qlock(shard.queue_mu);
      shard.applied_batches += batches;
      shard.applied_rankings += total;
    }
    ops_applied = true;
    if (under_gate != nullptr) under_gate();
  } catch (...) {
    if (hook_ != nullptr) {
      // Persist the fold's applied prefix while the gate still excludes
      // other folds; the failed op's record (if any) is retracted first,
      // so the log keeps describing exactly the applied profile.
      if (!ops_applied) hook_->AbortLastOp(shard.name);
      hook_->CommitFold(shard.name);
    }
    // The fold's applied prefix still moved the generation: evict dead
    // entries on the failure path too, before anything can look up.
    shard.cache.EvictOtherGenerations(shard.ctx->generation());
    shard.gate.UnlockExclusive();
    // Ops applied before the throw stay applied; the rest of the stolen
    // backlog is dropped. Resync the virtual-size bookkeeping to the
    // surviving state (applied profile + ops still queued) so later
    // enqueue validation stays truthful instead of drifting forever.
    ResyncQueueAfterFailedApply(shard);
    NotifyDrained(shard);
    throw;
  }
  // One durable commit per fold — a whole coalesced backlog costs one
  // fsync, and it lands before the gate releases, so any state a query
  // observes after this fold is already recoverable.
  if (hook_ != nullptr) hook_->CommitFold(shard.name);
  // Fold boundary: cached results keyed by any other generation are now
  // unreachable (lookups use the bumped counter) — GC them while the
  // gate still pins the generation. Follower folds land here too
  // (ApplyReplicated drains), so replicas invalidate identically.
  shard.cache.EvictOtherGenerations(shard.ctx->generation());
  shard.gate.UnlockExclusive();
  NotifyDrained(shard);
  return total;
}

void ContextManager::NotifyDrained(Shard& shard) {
  // Order is load-bearing: the flag clears BEFORE the observer can fire,
  // so a scheduler that saw the flag set and parked a request (under its
  // own lock, which the observer also takes) is guaranteed this
  // invocation happens after the park — no lost wakeup.
  shard.draining.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(observer_mu_);
  if (drain_observer_) drain_observer_(shard.name);
}

bool ContextManager::IsDraining(const std::string& name) const {
  const std::shared_ptr<Shard> shard = TryFind(name);
  return shard != nullptr && shard->draining.load(std::memory_order_relaxed);
}

void ContextManager::SetDrainObserver(DrainObserver observer) {
  std::lock_guard<std::mutex> lock(observer_mu_);
  drain_observer_ = std::move(observer);
}

void ContextManager::ResyncQueueAfterFailedApply(Shard& shard) {
  std::lock_guard<std::mutex> qlock(shard.queue_mu);
  // Replay the surviving queue against the applied profile size — exactly
  // the order the next drain will use. A queued REMOVE was validated
  // against a virtual profile that included backlog ops now dropped, so
  // its index may no longer exist by the time it applies: clamping vsize
  // alone would leave it to throw std::out_of_range on every later drain
  // and wedge the queue behind it. Drop such removes here, accounted in
  // dropped_removes (surfaced through STATS).
  size_t vsize = shard.ctx->num_rankings();
  size_t pending = 0;
  std::vector<PendingOp> survivors;
  survivors.reserve(shard.queue.size());
  for (PendingOp& op : shard.queue) {
    if (op.is_remove) {
      if (op.remove_index >= vsize) {
        ++shard.dropped_removes;
        continue;
      }
      --vsize;
    } else {
      vsize += op.rankings.size();
      pending += op.rankings.size();
    }
    survivors.push_back(std::move(op));
  }
  shard.queue = std::move(survivors);
  shard.virtual_size = vsize;
  shard.queued_append_rankings = pending;
}

size_t ContextManager::Flush(const std::string& name) {
  std::shared_ptr<Shard> shard = Find(name);
  return Drain(*shard);
}

ConsensusOutput ContextManager::Run(const std::string& name,
                                    std::string_view method,
                                    const ConsensusOptions& options,
                                    uint64_t* generation_after) {
  const MethodSpec* spec = FindMethod(method);
  if (spec == nullptr) {
    throw std::invalid_argument("unknown consensus method: " +
                                std::string(method));
  }
  return Run(name, *spec, options, generation_after);
}

ConsensusOutput ContextManager::Run(const std::string& name,
                                    const MethodSpec& method,
                                    const ConsensusOptions& options,
                                    uint64_t* generation_after) {
  std::shared_ptr<Shard> shard = Find(name);
  Drain(*shard);
  // The context's attached gate admits a cache-miss run shared, so a
  // concurrent drain on another thread waits for it (and vice versa).
  // Empty-profile rejection happens inside RunMethod, under that gate.
  return RunCachedOn(*shard, method, options, generation_after);
}

ConsensusOutput ContextManager::RunCachedOn(Shard& shard,
                                            const MethodSpec& method,
                                            const ConsensusOptions& options,
                                            uint64_t* generation_out) {
  ConsensusOutput out;
  if (LookupRunOn(shard, method, options, &out, generation_out)) return out;
  uint64_t observed = 0;
  out = shard.ctx->RunMethod(method, options, &observed);
  shard.runs.fetch_add(1, std::memory_order_relaxed);
  // Only deterministic replays may enter the cache: a budget-limited
  // inexact solve's incumbent depends on wall clock, so serving it from
  // the cache could differ from a cold recompute.
  if (out.exact) {
    shard.cache.InsertRun(method.id, options, observed, out);
  }
  if (generation_out != nullptr) *generation_out = observed;
  return out;
}

bool ContextManager::LookupRunOn(Shard& shard, const MethodSpec& method,
                                 const ConsensusOptions& options,
                                 ConsensusOutput* out,
                                 uint64_t* generation_out) {
  // Lookup at the seqlock generation. A mid-fold value can never hit —
  // entries are only inserted at fold boundaries — so the worst case is
  // a miss whose keyed run blocks on the gate and observes the settled
  // post-fold state; a stale hit is impossible.
  const uint64_t lookup_generation = shard.ctx->generation();
  if (!shard.cache.LookupRun(method.id, options, lookup_generation, out)) {
    return false;
  }
  shard.runs.fetch_add(1, std::memory_order_relaxed);
  if (generation_out != nullptr) *generation_out = lookup_generation;
  return true;
}

bool ContextManager::LookupSweepOn(
    Shard& shard, const std::vector<const MethodSpec*>& supported,
    const ConsensusOptions& options, MethodResults* results,
    uint64_t* generation_out) {
  // All-or-nothing at one generation: the sweep contract is that every
  // output comes from the same profile state, so a partial hit cannot mix
  // cached results with a keyed re-run (which may observe a newer
  // generation) — and counts no hit for the results it would discard.
  const uint64_t lookup_generation = shard.ctx->generation();
  std::vector<ConsensusOutput> outputs;
  if (!shard.cache.LookupSweep(supported, options, lookup_generation,
                               &outputs)) {
    return false;
  }
  shard.runs.fetch_add(outputs.size(), std::memory_order_relaxed);
  if (generation_out != nullptr) *generation_out = lookup_generation;
  results->clear();
  results->reserve(outputs.size());
  for (size_t i = 0; i < outputs.size(); ++i) {
    results->emplace_back(supported[i], std::move(outputs[i]));
  }
  return true;
}

bool ContextManager::TryRunCached(const std::string& name,
                                  const MethodSpec* method,
                                  const ConsensusOptions& options,
                                  MethodResults* results,
                                  uint64_t* generation) {
  const std::shared_ptr<Shard> shard = TryFind(name);
  if (shard == nullptr) return false;
  // Run drains first. Holding apply_mu with an empty queue is exactly the
  // state in which that drain is a no-op — and while we hold it no fold
  // can start, so the generation cannot move under the lookup. A held
  // lock means a fold is queued or running: not served.
  std::unique_lock<std::mutex> apply_lock(shard->apply_mu, std::try_to_lock);
  if (!apply_lock.owns_lock()) return false;
  {
    std::lock_guard<std::mutex> qlock(shard->queue_mu);
    if (!shard->queue.empty()) return false;
  }
  if (method == nullptr) {
    return LookupSweepOn(*shard, SupportedFor(*shard->ctx), options, results,
                         generation);
  }
  ConsensusOutput out;
  if (!LookupRunOn(*shard, *method, options, &out, generation)) return false;
  results->clear();
  results->emplace_back(method, std::move(out));
  return true;
}

TableStats ContextManager::StatsFor(const Shard& shard) {
  TableStats stats;
  stats.num_candidates = shard.table->num_candidates();
  // One coherent seqlock read: {generation, num_rankings} come from the
  // same instant, and the read never blocks behind an exclusive batch
  // fold — STATS and APPEND responses stay live (and mutually consistent)
  // while another thread's FLUSH is folding a large backlog.
  shard.ctx->ProfileCounters(&stats.generation, &stats.num_rankings);
  stats.summarized = !shard.ctx->has_base_rankings();
  stats.role = shard.follower.load(std::memory_order_relaxed)
                   ? TableRole::kFollower
                   : TableRole::kLeader;
  stats.runs = shard.runs.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(shard.queue_mu);
  stats.pending_ops = shard.queue.size();
  stats.pending_rankings = shard.queued_append_rankings;
  stats.applied_batches = shard.applied_batches;
  stats.applied_rankings = shard.applied_rankings;
  stats.dropped_removes = shard.dropped_removes;
  stats.replica_bytes_streamed = shard.replica_bytes_streamed;
  stats.replica_connected = shard.replica_connected;
  // Lag is what the leader has folded beyond us. The session publishes
  // the leader generation it last heard; until it hears one (or once we
  // catch up) the lag reads 0.
  stats.replica_lag_generations =
      shard.replica_leader_generation > stats.generation
          ? shard.replica_leader_generation - stats.generation
          : 0;
  stats.cache_hits = shard.cache.hits();
  stats.cache_misses = shard.cache.misses();
  stats.cache_entries = shard.cache.entries();
  return stats;
}

TableStats ContextManager::Stats(const std::string& name) const {
  return StatsFor(*Find(name));
}

const char* ContextManager::EvalRankingError(const Shard& shard,
                                             const Ranking& ranking) {
  if (ranking.size() != shard.table->num_candidates()) {
    return "evaluated ranking size does not match table";
  }
  if (!Ranking::IsValidOrder(ranking.order())) {
    return "evaluated ranking is not a permutation";
  }
  return nullptr;
}

void ContextManager::ScoreEval(const Shard& shard, const Ranking& ranking,
                               const MethodSpec& method,
                               const ConsensusOutput& consensus,
                               EvalResult* result) {
  result->method = method.id;
  // One bitset pass; normalized exactly as NormalizedKendallTau does.
  result->tau = KendallTau(ranking, consensus.consensus);
  const int64_t pairs = TotalPairs(ranking.size());
  result->normalized_tau =
      pairs == 0 ? 0.0
                 : static_cast<double>(result->tau) /
                       static_cast<double>(pairs);
  result->fairness = shard.ctx->EvaluateFairness(ranking);
}

EvalResult ContextManager::Eval(const std::string& name,
                                const Ranking& ranking) {
  std::shared_ptr<Shard> shard = Find(name);
  if (const char* error = EvalRankingError(*shard, ranking)) {
    throw std::invalid_argument(error);
  }
  // A3 Fair-Borda: fairness-aware, needs neither the retained profile
  // nor the precedence matrix, so EVAL serves every context flavor —
  // summarized restores and followers included — straight off the cached
  // Borda points.
  const MethodSpec* spec = FindMethod("A3");
  EvalResult result;
  // The consensus leg goes through the result cache (like Run, but
  // without draining the queue first — EVAL observes the applied
  // profile, queued mutations ride the next wave): repeated audits of an
  // unchanged table pay only the tau and fairness passes, not the
  // method. Empty profiles throw inside RunMethod, under the gate, before
  // any counter moves.
  const ConsensusOutput consensus =
      RunCachedOn(*shard, *spec, {}, &result.generation);
  ScoreEval(*shard, ranking, *spec, consensus, &result);
  return result;
}

bool ContextManager::TryEvalCached(const std::string& name,
                                   const Ranking& ranking,
                                   EvalResult* result) {
  const std::shared_ptr<Shard> shard = TryFind(name);
  if (shard == nullptr || EvalRankingError(*shard, ranking) != nullptr) {
    return false;
  }
  // Eval never drains, so its lookup needs no apply lock: the same
  // seqlock-generation lookup Eval's RunCachedOn makes first.
  const MethodSpec* spec = FindMethod("A3");
  ConsensusOutput consensus;
  if (!LookupRunOn(*shard, *spec, {}, &consensus, &result->generation)) {
    return false;
  }
  ScoreEval(*shard, ranking, *spec, consensus, result);
  return true;
}

TableSnapshot ContextManager::SnapshotTable(const std::string& name,
                                            SnapshotMode mode,
                                            const SnapshotConsumer& under_gate) {
  std::shared_ptr<Shard> shard = Find(name);
  const bool retained_profile = shard->ctx->has_base_rankings();
  if (mode == SnapshotMode::kExact && !retained_profile) {
    throw std::logic_error(
        "exact snapshot needs the retained profile, but table '" + name +
        "' was restored from a summarized snapshot");
  }
  const bool exact = mode != SnapshotMode::kSummarized && retained_profile;
  std::optional<TableSnapshot> snapshot;
  // Drain the backlog, then copy the state while the exclusive gate is
  // still held: the snapshot lands exactly on the batch boundary the
  // drain produced, and no concurrent drain can slip a half-applied wave
  // underneath it. (Context::Snapshot's own shared acquisition nests
  // inside our exclusive hold, which the gate admits re-entrantly.)
  Drain(*shard, [&] {
    // The exact modes tolerate an empty profile (a fresh table's op-log
    // floor); kSummarized keeps rejecting it via Context::Snapshot —
    // restoring zero folded rankings would serve nothing.
    StreamingSummary summary =
        exact ? SummaryFor(*shard->ctx) : shard->ctx->Snapshot();
    uint64_t batches = 0;
    uint64_t rankings = 0;
    {
      std::lock_guard<std::mutex> qlock(shard->queue_mu);
      batches = shard->applied_batches;
      rankings = shard->applied_rankings;
    }
    snapshot.emplace(TableSnapshot{*shard->table, std::move(summary), batches,
                                   rankings, exact,
                                   exact ? shard->ctx->base_rankings()
                                         : Profile()});
    if (under_gate != nullptr) under_gate(*snapshot);
  });
  return std::move(*snapshot);
}

TableStats ContextManager::RestoreTable(const std::string& name,
                                        TableSnapshot snapshot) {
  return Restore(name, std::move(snapshot), TableRole::kLeader);
}

TableStats ContextManager::RestoreFollower(const std::string& name,
                                           TableSnapshot snapshot) {
  return Restore(name, std::move(snapshot), TableRole::kFollower);
}

TableStats ContextManager::Restore(const std::string& name,
                                   TableSnapshot snapshot, TableRole role) {
  if (name.empty()) {
    throw std::invalid_argument("table name must be non-empty");
  }
  const bool follower = role == TableRole::kFollower;
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!follower) {
    // Same early duplicate check as Create: fail before paying for
    // context construction (Register re-checks the race).
    std::lock_guard<std::mutex> lock(mu_);
    if (shards_.count(name) != 0) {
      throw std::invalid_argument("table already exists: " + name);
    }
  }
  auto shard = std::make_shared<Shard>();
  shard->name = name;
  shard->table = std::make_unique<CandidateTable>(std::move(snapshot.table));
  shard->virtual_size = static_cast<size_t>(snapshot.summary.num_rankings);
  // Either constructor validates the snapshot pieces against the table
  // (candidate counts, profile/Borda/precedence sizes) — a malformed
  // snapshot fails loudly here with nothing registered.
  if (snapshot.retained) {
    // Exact snapshot: a full retained context, with the summary seeding
    // its Borda/precedence caches so nothing is recomputed at restore.
    shard->ctx = std::make_unique<ConsensusContext>(
        std::move(snapshot.base_rankings), std::move(snapshot.summary),
        *shard->table);
  } else {
    shard->ctx = std::make_unique<ConsensusContext>(
        std::move(snapshot.summary), *shard->table);
  }
  shard->ctx->AttachGate(&shard->gate);
  shard->cache.set_enabled(cache_enabled_.load(std::memory_order_relaxed));
  shard->applied_batches = snapshot.applied_batches;
  shard->applied_rankings = snapshot.applied_rankings;
  shard->follower.store(follower, std::memory_order_relaxed);
  TableStats stats = StatsFor(*shard);
  // Floor before Register, exactly like Create — a restored table is a
  // fresh durability chain (its snapshot file + empty log).
  if (hook_ != nullptr) hook_->OnTableRegistered(name, BuildFloor(*shard));
  if (follower) {
    // One map update: readers see the old shard or the new follower,
    // never a missing table or a writable one.
    std::lock_guard<std::mutex> lock(mu_);
    shards_[name] = std::move(shard);
  } else {
    Register(name, std::move(shard));
  }
  return stats;
}

TableSnapshot ContextManager::BuildFloor(const Shard& shard) {
  // Not-yet-registered shards only: no gate needed, nothing else can see
  // the context. SummaryFor admits the empty profile (a fresh CREATE).
  const bool retained = shard.ctx->has_base_rankings();
  return TableSnapshot{*shard.table,
                       SummaryFor(*shard.ctx),
                       shard.applied_batches,
                       shard.applied_rankings,
                       retained,
                       retained ? shard.ctx->base_rankings() : Profile()};
}

void ContextManager::SetDurabilityHook(DurabilityManager* durability) {
  hook_ = durability;
}

std::vector<const MethodSpec*> ContextManager::SupportedMethods(
    const std::string& name) const {
  return SupportedFor(*Find(name)->ctx);
}

ContextManager::MethodResults ContextManager::RunSupported(
    const std::string& name, const ConsensusOptions& options,
    uint64_t* generation_after) {
  std::shared_ptr<Shard> shard_ptr = Find(name);
  Shard& shard = *shard_ptr;
  Drain(shard);
  const std::vector<const MethodSpec*> supported = SupportedFor(*shard.ctx);
  MethodResults results;
  if (LookupSweepOn(shard, supported, options, &results, generation_after)) {
    return results;
  }
  // One RunMethods call = one reader registration: a concurrent drain
  // waits for the whole sweep, so every output (and the reported
  // generation) comes from the same profile state.
  uint64_t observed = 0;
  std::vector<ConsensusOutput> outputs =
      shard.ctx->RunMethods(supported, options, &observed);
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].exact) {
      shard.cache.InsertRun(supported[i]->id, options, observed, outputs[i]);
    }
  }
  shard.runs.fetch_add(outputs.size(), std::memory_order_relaxed);
  if (generation_after != nullptr) {
    *generation_after = observed;
  }
  results.reserve(outputs.size());
  for (size_t i = 0; i < outputs.size(); ++i) {
    results.emplace_back(supported[i], std::move(outputs[i]));
  }
  return results;
}

SelectOutcome ContextManager::Select(const std::string& name,
                                     const SelectQuery& query) {
  std::shared_ptr<Shard> shard = Find(name);
  const CandidateTable& table = *shard->table;
  const int n = table.num_candidates();
  // All validation up front, before any run or cache probe: a malformed
  // query must fail with zero counter movement (the protocol-level ERR
  // state-invariance contract).
  if (query.k < 1 || query.k > n) {
    throw std::invalid_argument("SELECT k must be in [1, " +
                                std::to_string(n) + "], got " +
                                std::to_string(query.k));
  }
  std::vector<SelectConstraint> constraints;
  constraints.reserve(query.constraints.size());
  for (const SelectConstraintSpec& spec : query.constraints) {
    const Grouping* grouping = nullptr;
    if (spec.attribute == SelectConstraintSpec::kIntersection) {
      grouping = &table.intersection_grouping();
    } else if (spec.attribute >= 0 &&
               spec.attribute < table.num_attributes()) {
      grouping = &table.attribute_grouping(spec.attribute);
    } else {
      throw std::invalid_argument(
          "SELECT attribute index " + std::to_string(spec.attribute) +
          " out of range for table with " +
          std::to_string(table.num_attributes()) + " attributes");
    }
    if (spec.group < 0 || spec.group >= grouping->num_groups()) {
      throw std::invalid_argument(
          "SELECT group index " + std::to_string(spec.group) +
          " out of range for grouping " + grouping->name);
    }
    if (spec.min_count < 0 || spec.max_count < spec.min_count) {
      throw std::invalid_argument(
          "SELECT constraint needs 0 <= min <= max, got [" +
          std::to_string(spec.min_count) + ", " +
          std::to_string(spec.max_count) + "]");
    }
    constraints.push_back(
        SelectConstraint{grouping, spec.group, spec.min_count,
                         spec.max_count});
  }

  SelectOutcome outcome;
  if (LookupSelectOn(*shard, query, &outcome)) return outcome;

  const MethodSpec* spec = FindMethod("A3");
  outcome.method = spec->id;
  const ConsensusOutput consensus =
      RunCachedOn(*shard, *spec, {}, &outcome.generation);
  FairSelectOptions select_options;
  // Time-budgeted by default so a pathological ILP cannot pin a worker
  // forever; budget-limited results are served but never cached.
  select_options.time_limit_seconds =
      query.time_limit_seconds > 0 ? query.time_limit_seconds : 2.0;
  const FairSelectResult result =
      FairTopKSelect(consensus.consensus, query.k, constraints,
                     select_options);
  outcome.selected = result.selected;
  outcome.cost = result.cost;
  outcome.feasible = result.feasible;
  outcome.used_ilp = result.used_ilp;
  outcome.optimal = result.optimal;
  // Cache deterministic outcomes only: greedy slates, ILP at proven
  // optimality, and proven infeasibility. Keyed by the generation the
  // consensus observed — the slate is a pure function of (consensus,
  // table, query).
  if (!result.used_ilp || result.optimal) {
    CachedSelect entry;
    entry.selected = result.selected;
    entry.cost = result.cost;
    entry.feasible = result.feasible;
    entry.used_ilp = result.used_ilp;
    entry.optimal = result.optimal;
    shard->cache.InsertSelect(query, outcome.generation, entry);
  }
  AuditSlate(table, outcome.selected, &outcome);
  return outcome;
}

bool ContextManager::LookupSelectOn(Shard& shard, const SelectQuery& query,
                                    SelectOutcome* outcome) {
  // The parsed query is the whole key: the consensus method and its
  // (default) options are fixed per verb. Only validated queries are ever
  // inserted, so a hit needs no validation of its own.
  const uint64_t lookup_generation = shard.ctx->generation();
  CachedSelect cached;
  if (!shard.cache.LookupSelect(query, lookup_generation, &cached)) {
    return false;
  }
  // Every served SELECT bumps `runs` exactly once, hit or cold (the
  // cold path's bump comes from its consensus leg).
  shard.runs.fetch_add(1, std::memory_order_relaxed);
  outcome->generation = lookup_generation;
  outcome->method = FindMethod("A3")->id;
  outcome->selected = std::move(cached.selected);
  outcome->cost = cached.cost;
  outcome->feasible = cached.feasible;
  outcome->used_ilp = cached.used_ilp;
  outcome->optimal = cached.optimal;
  AuditSlate(*shard.table, outcome->selected, outcome);
  return true;
}

bool ContextManager::TrySelectCached(const std::string& name,
                                     const SelectQuery& query,
                                     SelectOutcome* outcome) {
  const std::shared_ptr<Shard> shard = TryFind(name);
  return shard != nullptr && LookupSelectOn(*shard, query, outcome);
}

void ContextManager::SetResultCacheEnabled(bool enabled) {
  cache_enabled_.store(enabled, std::memory_order_relaxed);
  std::vector<std::shared_ptr<Shard>> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all.reserve(shards_.size());
    for (const auto& [name, shard] : shards_) all.push_back(shard);
  }
  for (const std::shared_ptr<Shard>& shard : all) {
    shard->cache.set_enabled(enabled);
  }
}

ContextManager::CacheTotals ContextManager::ResultCacheTotals() const {
  CacheTotals totals;
  std::vector<std::shared_ptr<Shard>> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all.reserve(shards_.size());
    for (const auto& [name, shard] : shards_) all.push_back(shard);
  }
  for (const std::shared_ptr<Shard>& shard : all) {
    totals.hits += shard->cache.hits();
    totals.misses += shard->cache.misses();
    totals.entries += shard->cache.entries();
  }
  return totals;
}

}  // namespace manirank::serve
