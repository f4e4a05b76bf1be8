#ifndef MANIRANK_SERVE_RESULT_CACHE_H_
#define MANIRANK_SERVE_RESULT_CACHE_H_

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/context.h"
#include "core/types.h"

namespace manirank::serve {

/// One SELECT count constraint at the protocol level: bounds how many of
/// the selected k may come from one group of one grouping — a group of a
/// single protected attribute (`attribute` >= 0), or of the full
/// intersection p1 x ... x pq (`attribute` == kIntersection).
struct SelectConstraintSpec {
  static constexpr int kIntersection = -1;
  int attribute = 0;
  int group = 0;
  int min_count = 0;
  int max_count = 0;
};

/// A parsed SELECT query: the best top-k slate of the table's A3
/// consensus under count constraints (see core/fair_select.h). It is also
/// the SELECT tier's cache key, compared field by field.
struct SelectQuery {
  int k = 0;
  std::vector<SelectConstraintSpec> constraints;
  /// Wall-clock budget for the ILP fallback (seconds; <= 0 uses the
  /// serving default). Budget-limited non-optimal slates are served but
  /// never cached (their incumbent depends on timing).
  double time_limit_seconds = 0.0;
};

/// Cached outcome of one SELECT query at one generation. Proven-
/// infeasible outcomes are cached too (the proof is a deterministic
/// property of the profile); only budget-limited non-optimal slates
/// stay out.
struct CachedSelect {
  std::vector<CandidateId> selected;
  long long cost = 0;
  bool feasible = false;
  bool used_ilp = false;
  bool optimal = false;
};

/// Per-table, generation-keyed cache of consensus and SELECT results, in
/// two separately bounded LRU tiers:
///
///  - consensus tier (kMaxRunEntries): (method id, ConsensusOptions,
///    generation) -> ConsensusOutput, for RUN, RUN all sweeps, and the
///    A3 leg of EVAL and SELECT;
///  - SELECT tier (kMaxSelectEntries): (SelectQuery, generation) ->
///    CachedSelect.
///
/// Keys are the exact request fields (doubles by bit pattern), compared
/// in full on every lookup, so two distinct requests can never share an
/// entry. Each tier evicts its own least recently used entry, so a flood
/// of distinct SELECTs never evicts the consensus every SELECT miss
/// prefixes, and a DELTA/LIMIT flood stays bounded.
///
/// A profile mutation bumps the table's generation, so a fold commit
/// makes every prior entry unreachable — ContextManager::Drain
/// additionally calls EvictOtherGenerations at each fold boundary (leader
/// commits and follower ApplyReplicated both land there) so dead
/// generations do not accumulate. Inserts must be keyed by the generation
/// the run OBSERVED (ConsensusContext::RunMethod's generation_observed
/// overload, read under the shared gate), never by a later generation()
/// read; lookups may use the seqlock counters — a mid-fold generation has
/// no entries (inserts only happen at fold boundaries), so the worst case
/// is a miss that recomputes, never a stale hit.
///
/// Counter discipline: `hits` increments on a successful lookup (a
/// sweep's only when the whole sweep hits), `misses` only when a
/// completed run is inserted; `entries` counts both tiers.
/// Requests that fail validation or throw never move either counter,
/// preserving the protocol invariant that an ERR response leaves STATS
/// untouched.
///
/// Thread-safe; all methods take an internal mutex.
class ResultCache {
 public:
  /// Four full `RUN all` sweeps (eight methods each).
  static constexpr size_t kMaxRunEntries = 32;
  static constexpr size_t kMaxSelectEntries = 128;

  /// Disabling (a cache-off twin in tests/bench) turns Lookup* into
  /// unconditional misses and Insert* into no-ops, with no counter
  /// movement.
  void set_enabled(bool enabled);

  bool LookupRun(const std::string& method, const ConsensusOptions& options,
                 uint64_t generation, ConsensusOutput* out);
  /// All-or-nothing LookupRun over a `RUN all` sweep, under one lock:
  /// fills `outs` in `methods` order and counts one hit per method only
  /// when every method hits. A partly cached sweep (its caller recomputes
  /// the whole sweep) or an empty `methods` moves no counter.
  bool LookupSweep(const std::vector<const MethodSpec*>& methods,
                   const ConsensusOptions& options, uint64_t generation,
                   std::vector<ConsensusOutput>* outs);
  void InsertRun(const std::string& method, const ConsensusOptions& options,
                 uint64_t generation, const ConsensusOutput& output);

  bool LookupSelect(const SelectQuery& query, uint64_t generation,
                    CachedSelect* out);
  void InsertSelect(const SelectQuery& query, uint64_t generation,
                    const CachedSelect& result);

  /// Drops every entry whose generation differs from `generation`. Called
  /// at fold boundaries with the post-fold generation.
  void EvictOtherGenerations(uint64_t generation);

  uint64_t hits() const;
  uint64_t misses() const;
  size_t entries() const;

 private:
  /// One bounded LRU map. Callers hold the cache mutex.
  template <typename Key, typename Value>
  class LruTier {
   public:
    explicit LruTier(size_t capacity) : capacity_(capacity) {}

    /// The entry under `key`, now most recently used; nullptr on a miss.
    const Value* Find(const Key& key) {
      const auto it = index_.find(key);
      if (it == index_.end()) return nullptr;
      recency_.splice(recency_.begin(), recency_, it->second);
      return &it->second->second;
    }

    /// Inserts or replaces `key`, evicting the least recently used entry
    /// when the tier is full.
    void Put(Key key, Value value) {
      const auto it = index_.find(key);
      if (it != index_.end()) {
        it->second->second = std::move(value);
        recency_.splice(recency_.begin(), recency_, it->second);
        return;
      }
      if (index_.size() >= capacity_) {
        index_.erase(recency_.back().first);
        recency_.pop_back();
      }
      recency_.emplace_front(key, std::move(value));
      index_.emplace(std::move(key), recency_.begin());
    }

    template <typename Predicate>
    void EraseIf(Predicate drop) {
      for (auto it = recency_.begin(); it != recency_.end();) {
        if (drop(it->first)) {
          index_.erase(it->first);
          it = recency_.erase(it);
        } else {
          ++it;
        }
      }
    }

    void Clear() {
      index_.clear();
      recency_.clear();
    }
    size_t size() const { return index_.size(); }

   private:
    using Node = std::pair<Key, Value>;
    size_t capacity_;
    std::list<Node> recency_;  // most recently used first
    std::map<Key, typename std::list<Node>::iterator> index_;
  };

  // Doubles enter keys by bit pattern: exact, and a strict weak order
  // even for NaN. Generation leads both keys.
  using RunKey = std::tuple<uint64_t, std::string, uint64_t, uint64_t>;
  using SelectKey =
      std::tuple<uint64_t, int, std::vector<std::array<int, 4>>, uint64_t>;

  static RunKey MakeRunKey(const std::string& method,
                           const ConsensusOptions& options,
                           uint64_t generation);
  static SelectKey MakeSelectKey(const SelectQuery& query,
                                 uint64_t generation);

  mutable std::mutex mu_;
  bool enabled_ = true;
  LruTier<RunKey, ConsensusOutput> runs_{kMaxRunEntries};
  LruTier<SelectKey, CachedSelect> selects_{kMaxSelectEntries};
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace manirank::serve

#endif  // MANIRANK_SERVE_RESULT_CACHE_H_
