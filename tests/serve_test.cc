// Multi-table serving layer tests: ContextManager semantics (shards,
// coalescing mutation queue, stats) and the serving equivalence contract —
// a scripted multi-table workload replayed through the line protocol must
// produce consensus rankings bit-identical to fresh single-shot contexts
// built over the same surviving profiles.

#include "serve/context_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/context.h"
#include "core/fair_select.h"
#include "core/method_registry.h"
#include "mallows/mallows.h"
#include "serve/protocol.h"
#include "test_util.h"
#include "util/rng.h"

namespace manirank {
namespace {

using serve::ContextManager;
using serve::Dispatcher;

using serve::TableStats;

Ranking SampleFor(uint64_t seed, uint64_t index, int n) {
  Rng rng = MallowsModel::SampleRng(seed, index);
  MallowsModel model(Ranking::Identity(n), 0.5);
  return model.Sample(&rng);
}

TEST(ContextManagerTest, CreateDropHas) {
  ContextManager manager;
  EXPECT_EQ(manager.num_tables(), 0u);
  manager.Create("alpha", MakeCyclicTable(6, 2, 2));
  manager.Create("beta", MakeCyclicTable(8, 2, 2));
  EXPECT_TRUE(manager.Has("alpha"));
  EXPECT_TRUE(manager.Has("beta"));
  EXPECT_FALSE(manager.Has("gamma"));
  EXPECT_EQ(manager.num_tables(), 2u);
  EXPECT_EQ(manager.TableNames(),
            (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_THROW(manager.Create("alpha", MakeCyclicTable(6, 2, 2)),
               std::invalid_argument);
  EXPECT_THROW(manager.Create("", MakeCyclicTable(6, 2, 2)),
               std::invalid_argument);
  manager.Drop("alpha");
  EXPECT_FALSE(manager.Has("alpha"));
  EXPECT_THROW(manager.Drop("alpha"), std::invalid_argument);
  EXPECT_THROW(manager.Stats("alpha"), std::invalid_argument);
}

TEST(ContextManagerTest, AppendsCoalesceUntilTheNextQueryWave) {
  ContextManager manager;
  manager.Create("t", MakeCyclicTable(6, 2, 2),
                 {Ranking::Identity(6), Ranking::Identity(6).Reversed()});
  // Three APPEND requests between query waves → one coalesced pending op.
  for (int i = 0; i < 3; ++i) {
    manager.Append("t", {SampleFor(7, static_cast<uint64_t>(i), 6)});
  }
  TableStats stats = manager.Stats("t");
  EXPECT_EQ(stats.pending_ops, 1u);
  EXPECT_EQ(stats.pending_rankings, 3u);
  EXPECT_EQ(stats.num_rankings, 2u);   // nothing applied yet
  EXPECT_EQ(stats.generation, 0u);

  // A REMOVE breaks the append run; a later APPEND starts a new batch.
  manager.Remove("t", 0);
  manager.Append("t", {SampleFor(7, 10, 6)});
  stats = manager.Stats("t");
  EXPECT_EQ(stats.pending_ops, 3u);
  EXPECT_EQ(stats.pending_rankings, 4u);

  // The query wave drains the whole backlog: 4 adds + 1 remove.
  manager.Run("t", "A4");
  stats = manager.Stats("t");
  EXPECT_EQ(stats.pending_ops, 0u);
  EXPECT_EQ(stats.pending_rankings, 0u);
  EXPECT_EQ(stats.num_rankings, 5u);  // 2 + 4 - 1
  EXPECT_EQ(stats.generation, 5u);    // one bump per ranking added/removed
  EXPECT_EQ(stats.applied_batches, 2u);
  EXPECT_EQ(stats.applied_rankings, 5u);
  EXPECT_EQ(stats.runs, 1u);
}

TEST(ContextManagerTest, ValidationLeavesStateUntouched) {
  ContextManager manager;
  manager.Create("t", MakeCyclicTable(6, 2, 2), {Ranking::Identity(6)});
  const TableStats before = manager.Stats("t");
  // Wrong size, not a permutation, empty batch, bad index, bad table.
  EXPECT_THROW(manager.Append("t", {Ranking::Identity(5)}),
               std::invalid_argument);
  EXPECT_THROW(manager.Append("t", {}), std::invalid_argument);
  EXPECT_THROW(manager.Remove("t", 1), std::out_of_range);
  EXPECT_THROW(manager.Append("nope", {Ranking::Identity(6)}),
               std::invalid_argument);
  EXPECT_THROW(manager.Run("t", "Z9"), std::invalid_argument);
  const TableStats after = manager.Stats("t");
  EXPECT_EQ(after.generation, before.generation);
  EXPECT_EQ(after.pending_ops, before.pending_ops);
  EXPECT_EQ(after.num_rankings, before.num_rankings);
}

TEST(ContextManagerTest, RemoveAddressesTheVirtualProfile) {
  ContextManager manager;
  manager.Create("t", MakeCyclicTable(6, 2, 2), {Ranking::Identity(6)});
  // Profile has 1 applied ranking; queue 2 appends → virtual size 3, so
  // index 2 is legal even though nothing is applied yet.
  manager.Append("t", {SampleFor(9, 0, 6), SampleFor(9, 1, 6)});
  manager.Remove("t", 2);
  EXPECT_THROW(manager.Remove("t", 2), std::out_of_range);  // now virtual 2
  EXPECT_EQ(manager.Flush("t"), 3u);                        // 2 adds + 1 remove
  const TableStats stats = manager.Stats("t");
  EXPECT_EQ(stats.num_rankings, 2u);
  EXPECT_EQ(stats.pending_ops, 0u);
}

TEST(ContextManagerTest, FlushIsIdempotentAndCountsApplications) {
  ContextManager manager;
  manager.Create("t", MakeCyclicTable(6, 2, 2), {Ranking::Identity(6)});
  EXPECT_EQ(manager.Flush("t"), 0u);
  manager.Append("t", {SampleFor(11, 0, 6)});
  EXPECT_EQ(manager.Flush("t"), 1u);
  EXPECT_EQ(manager.Flush("t"), 0u);
}

// --- non-blocking drain scheduling hooks (async front ends) ----------------

TEST(ContextManagerTest, DrainObserverFiresPerExclusiveDrainWithTableName) {
  ContextManager manager;
  manager.Create("alpha", MakeCyclicTable(6, 2, 2), {Ranking::Identity(6)});
  manager.Create("beta", MakeCyclicTable(8, 2, 2), {Ranking::Identity(8)});
  std::vector<std::string> drained;
  manager.SetDrainObserver(
      [&](const std::string& table) { drained.push_back(table); });
  // The empty-queue fast path never claims the exclusive gate, so it
  // must not report a drain either.
  manager.Flush("alpha");
  EXPECT_TRUE(drained.empty());
  EXPECT_FALSE(manager.IsDraining("alpha"));
  // A real backlog fold reports exactly once, with the right name, and
  // the draining flag is clear by the time the observer has fired.
  manager.Append("alpha", {SampleFor(21, 0, 6)});
  manager.Flush("alpha");
  EXPECT_EQ(drained, (std::vector<std::string>{"alpha"}));
  EXPECT_FALSE(manager.IsDraining("alpha"));
  // Draining verbs (Run) report the same way; per-table attribution.
  manager.Append("beta", {SampleFor(22, 0, 8)});
  manager.Run("beta", "A4");
  EXPECT_EQ(drained, (std::vector<std::string>{"alpha", "beta"}));
  // Unknown tables are an advisory "no".
  EXPECT_FALSE(manager.IsDraining("nope"));
  manager.SetDrainObserver(nullptr);
  manager.Append("alpha", {SampleFor(23, 0, 6)});
  manager.Flush("alpha");
  EXPECT_EQ(drained.size(), 2u);  // cleared observer: no further calls
}

// IsDraining's mid-fold visibility is tested through the white-box drain
// seam at the bottom of this file (DrainSchedulingHookTest) — observing
// the advisory flag by racing a poller thread against a real fold is
// inherently timing-dependent and flakes on a loaded single-core box.

// --- the serving equivalence contract --------------------------------------

/// Shadow model of one table: the profile as a plain vector, mutated in
/// lockstep with the protocol script.
struct ShadowTable {
  int n = 0;
  std::vector<Ranking> profile;
};

std::string FormatAppend(const std::string& table,
                         const std::vector<Ranking>& rankings) {
  std::ostringstream os;
  os << "APPEND " << table;
  for (size_t i = 0; i < rankings.size(); ++i) {
    if (i != 0) os << " ;";
    for (CandidateId c : rankings[i].order()) os << ' ' << c;
  }
  return os.str();
}

/// Parses the comma-separated id list of the first `key` field at or after
/// `from` (RUN's consensus=, or SELECT's selected=).
std::vector<CandidateId> ParseConsensusField(
    const std::string& response, size_t from,
    const std::string& key = "consensus=") {
  const size_t at = response.find(key, from);
  std::vector<CandidateId> order;
  EXPECT_NE(at, std::string::npos) << response;
  if (at == std::string::npos) return order;
  std::istringstream is(response.substr(at + key.size()));
  std::string cell;
  while (std::getline(is, cell, ',')) {
    // The consensus field ends at the next space (RUN-all responses pack
    // several method results on one line).
    const size_t space = cell.find(' ');
    if (space != std::string::npos) {
      order.push_back(static_cast<CandidateId>(std::stol(cell.substr(0, space))));
      break;
    }
    order.push_back(static_cast<CandidateId>(std::stol(cell)));
  }
  return order;
}

TEST(ServingEquivalenceTest, ScriptedMultiTableWorkloadMatchesFreshContexts) {
  // The acceptance contract: a scripted workload over 3 tables with
  // interleaved APPEND / RUN / REMOVE, replayed through the line
  // protocol, must produce rankings bit-identical to single-shot
  // contexts freshly built over each table's surviving profile.
  ContextManager manager;
  Dispatcher dispatcher(&manager);
  std::map<std::string, ShadowTable> shadows;
  const std::vector<std::pair<std::string, int>> tables = {
      {"small", 8}, {"medium", 10}, {"wide", 12}};
  for (const auto& [name, n] : tables) {
    std::ostringstream os;
    os << "CREATE " << name << " CYCLIC " << n << " 2 2";
    ASSERT_EQ(dispatcher.Handle(os.str()).rfind("OK", 0), 0u);
    shadows[name] = ShadowTable{n, {}};
  }

  // The fast methods of the sweep (ILP-free), rotated per RUN request.
  const std::vector<std::string> methods = {"A2", "A3", "A4", "B1", "B2",
                                            "B3", "B4"};
  Rng script_rng(42);
  uint64_t sample_index = 0;
  int runs_checked = 0;
  for (int step = 0; step < 120; ++step) {
    auto& [name, n] = tables[script_rng.NextUint64(tables.size())];
    ShadowTable& shadow = shadows[name];
    const uint64_t action = script_rng.NextUint64(10);
    if (action < 5 || shadow.profile.size() < 4) {
      // APPEND a batch of 1..3 rankings.
      std::vector<Ranking> batch;
      const int k = 1 + static_cast<int>(script_rng.NextUint64(3));
      for (int i = 0; i < k; ++i) {
        batch.push_back(SampleFor(77, sample_index++, n));
      }
      const std::string response =
          dispatcher.Handle(FormatAppend(name, batch));
      ASSERT_EQ(response.rfind("OK APPEND", 0), 0u) << response;
      shadow.profile.insert(shadow.profile.end(), batch.begin(), batch.end());
    } else if (action < 7) {
      // REMOVE a random index of the virtual profile.
      const size_t index = script_rng.NextUint64(shadow.profile.size());
      const std::string response = dispatcher.Handle(
          "REMOVE " + name + " " + std::to_string(index));
      ASSERT_EQ(response.rfind("OK REMOVE", 0), 0u) << response;
      shadow.profile.erase(shadow.profile.begin() +
                           static_cast<ptrdiff_t>(index));
    } else {
      // RUN one method; the served consensus must equal a fresh context.
      const std::string& method =
          methods[script_rng.NextUint64(methods.size())];
      const std::string response = dispatcher.Handle(
          "RUN " + name + " " + method + " DELTA 0.2 LIMIT 60");
      ASSERT_EQ(response.rfind("OK RUN", 0), 0u) << response;
      const std::vector<CandidateId> served = ParseConsensusField(response, 0);

      CandidateTable fresh_table = MakeCyclicTable(shadow.n, 2, 2);
      ConsensusContext fresh(shadow.profile, fresh_table);
      ConsensusOptions options;
      options.delta = 0.2;
      options.time_limit_seconds = 60.0;
      const ConsensusOutput expected = fresh.RunMethod(method, options);
      EXPECT_EQ(served, expected.consensus.order())
          << "step " << step << " table " << name << " method " << method;
      ++runs_checked;
    }
  }
  ASSERT_GE(runs_checked, 20);

  // Epilogue: a full RUN-all sweep per table against fresh contexts.
  for (const auto& [name, n] : tables) {
    const ShadowTable& shadow = shadows.at(name);
    ASSERT_GE(shadow.profile.size(), 1u);
    const std::string response =
        dispatcher.Handle("RUN " + name + " all DELTA 0.2 LIMIT 60");
    ASSERT_EQ(response.rfind("OK RUN", 0), 0u) << response;
    CandidateTable fresh_table = MakeCyclicTable(n, 2, 2);
    ConsensusContext fresh(shadow.profile, fresh_table);
    ConsensusOptions options;
    options.delta = 0.2;
    options.time_limit_seconds = 60.0;
    const std::vector<ConsensusOutput> expected = fresh.RunAll(options);
    // Walk the packed response method by method.
    size_t cursor = 0;
    for (size_t i = 0; i < AllMethods().size(); ++i) {
      const std::string tag = " " + AllMethods()[i].id + " ";
      cursor = response.find(tag, cursor);
      ASSERT_NE(cursor, std::string::npos)
          << AllMethods()[i].id << ": " << response;
      EXPECT_EQ(ParseConsensusField(response, cursor),
                expected[i].consensus.order())
          << name << " " << AllMethods()[i].id;
    }
  }
}

TEST(ServingEquivalenceTest, WireIdListsMatchFreshContextAcrossDigitWidths) {
  // RUN's consensus= and SELECT's selected= id lists at n = 1001 cover
  // every decimal width boundary up to four digits (ids 0, 9, 10, 99, 100,
  // 999, 1000); parsed back, they must equal a fresh context's results.
  constexpr int n = 1001;
  ContextManager manager;
  Dispatcher dispatcher(&manager);
  ASSERT_EQ(dispatcher.Handle("CREATE wide CYCLIC 1001 2 2").rfind("OK", 0),
            0u);
  std::vector<Ranking> profile;
  for (uint64_t i = 0; i < 3; ++i) profile.push_back(SampleFor(91, i, n));
  ASSERT_EQ(dispatcher.Handle(FormatAppend("wide", profile))
                .rfind("OK APPEND", 0),
            0u);

  CandidateTable fresh_table = MakeCyclicTable(n, 2, 2);
  ConsensusContext fresh(profile, fresh_table);
  ConsensusOptions options;
  options.time_limit_seconds = 30.0;
  for (const std::string method : {"A3", "A4"}) {
    const std::string response = dispatcher.Handle("RUN wide " + method);
    ASSERT_EQ(response.rfind("OK RUN", 0), 0u) << response;
    const std::vector<CandidateId> served = ParseConsensusField(response, 0);
    ASSERT_TRUE(Ranking::IsValidOrder(served)) << method;
    ASSERT_EQ(served.size(), static_cast<size_t>(n)) << method;
    EXPECT_EQ(served, fresh.RunMethod(method, options).consensus.order())
        << method;
  }

  const std::string response = dispatcher.Handle("SELECT wide 1001");
  ASSERT_EQ(response.rfind("OK SELECT", 0), 0u) << response;
  const std::vector<CandidateId> selected =
      ParseConsensusField(response, 0, "selected=");
  ASSERT_TRUE(Ranking::IsValidOrder(selected));
  EXPECT_EQ(selected,
            FairTopKSelect(fresh.RunMethod("A3", ConsensusOptions()).consensus,
                           n, {})
                .selected);
}

}  // namespace
}  // namespace manirank

// --- drain-failure recovery -------------------------------------------------

namespace manirank::serve {

/// White-box seam (friend of ContextManager): no reachable public path can
/// make a validated backlog throw mid-apply or plant a stale remove, so
/// these tests build the failure states directly.
struct ContextManagerTestPeer {
  /// Queues a remove without validation or virtual-size bookkeeping —
  /// the state a remove is left in when a failed drain dropped the
  /// backlog ops its index assumed.
  static void InjectRemoveRaw(ContextManager& manager,
                              const std::string& name, size_t index) {
    std::shared_ptr<ContextManager::Shard> shard = manager.Find(name);
    std::lock_guard<std::mutex> lock(shard->queue_mu);
    ContextManager::PendingOp op;
    op.is_remove = true;
    op.remove_index = index;
    shard->queue.push_back(std::move(op));
  }

  /// Queues an append whose ranking cannot apply (wrong size), with the
  /// bookkeeping a 1-ranking append would have.
  static void InjectPoisonAppend(ContextManager& manager,
                                 const std::string& name, int wrong_size) {
    std::shared_ptr<ContextManager::Shard> shard = manager.Find(name);
    std::lock_guard<std::mutex> lock(shard->queue_mu);
    ContextManager::PendingOp op;
    op.rankings.push_back(Ranking::Identity(wrong_size));
    shard->queue.push_back(std::move(op));
    shard->queued_append_rankings += 1;
    shard->virtual_size += 1;
  }

  static void Resync(ContextManager& manager, const std::string& name) {
    ContextManager::ResyncQueueAfterFailedApply(*manager.Find(name));
  }

  /// Runs a real drain and invokes `probe` while the exclusive gate is
  /// still held — i.e. at the exact moment a concurrent scheduler's
  /// IsDraining query would need to say "yes". Timing-free alternative
  /// to racing a poller thread against the fold.
  static void DrainWithProbe(ContextManager& manager, const std::string& name,
                             const std::function<void()>& probe) {
    manager.Drain(*manager.Find(name), probe);
  }
};

namespace {

std::vector<Ranking> InitialProfile(int n, size_t count, uint64_t seed) {
  std::vector<Ranking> profile;
  for (size_t i = 0; i < count; ++i) {
    Rng rng = MallowsModel::SampleRng(seed, i);
    profile.push_back(
        MallowsModel(Ranking::Identity(n), 0.5).Sample(&rng));
  }
  return profile;
}

TEST(DrainFailureRecoveryTest, ResyncDropsStaleRemovesInApplicationOrder) {
  // Queue after a hypothetical failed drain: [remove 7 (stale: only 5
  // rankings applied), remove 1, append x1, remove 4 (valid only because
  // the append precedes it)]. The resync must drop exactly the stale op,
  // account it, and leave a queue the next drain applies without a throw.
  ContextManager manager;
  manager.Create("t", MakeCyclicTable(6, 2, 2), InitialProfile(6, 5, 501));
  ContextManagerTestPeer::InjectRemoveRaw(manager, "t", 7);
  ContextManagerTestPeer::InjectRemoveRaw(manager, "t", 1);
  manager.Append("t", InitialProfile(6, 1, 502));
  ContextManagerTestPeer::InjectRemoveRaw(manager, "t", 4);
  ContextManagerTestPeer::Resync(manager, "t");

  TableStats stats = manager.Stats("t");
  EXPECT_EQ(stats.dropped_removes, 1u);
  EXPECT_EQ(stats.pending_ops, 3u);
  EXPECT_EQ(stats.pending_rankings, 1u);
  // 5 applied - remove1 + append - remove4 = 4, with no throw.
  size_t applied = 0;
  EXPECT_NO_THROW(applied = manager.Flush("t"));
  EXPECT_EQ(applied, 3u);
  stats = manager.Stats("t");
  EXPECT_EQ(stats.num_rankings, 4u);
  EXPECT_EQ(stats.pending_ops, 0u);
  EXPECT_NO_THROW(manager.Run("t", "A4"));
}

TEST(DrainSchedulingHookTest, IsDrainingIsVisibleUnderTheExclusiveGate) {
  // The moment a concurrent scheduler's IsDraining query must say "yes"
  // is while the exclusive gate is held for a backlog apply. The drain
  // seam's under-gate probe observes exactly that instant — no thread
  // race, no timing assumptions.
  ContextManager manager;
  manager.Create("t", MakeCyclicTable(6, 2, 2), InitialProfile(6, 2, 601));
  manager.Append("t", InitialProfile(6, 3, 602));
  ASSERT_FALSE(manager.IsDraining("t"));
  bool probed = false;
  ContextManagerTestPeer::DrainWithProbe(manager, "t", [&] {
    probed = true;
    EXPECT_TRUE(manager.IsDraining("t"));
    // Other tables (and unknown names) stay unaffected.
    EXPECT_FALSE(manager.IsDraining("elsewhere"));
  });
  EXPECT_TRUE(probed);
  EXPECT_FALSE(manager.IsDraining("t"));
  const TableStats stats = manager.Stats("t");
  EXPECT_EQ(stats.num_rankings, 5u);
  EXPECT_EQ(stats.pending_ops, 0u);
}

TEST(CacheOnlyProbeTest, RunIsNotServedWhileADrainHoldsTheTable) {
  // The drain below has an empty backlog, so the generation never moves
  // and A3 stays cached at it: only the held apply lock can (and must)
  // keep TryRunCached from serving, while SELECT — non-draining — still
  // hits. The probes run on another thread: the drainer owns the lock.
  ContextManager manager;
  manager.Create("t", MakeCyclicTable(6, 2, 2), InitialProfile(6, 3, 605));
  const MethodSpec* a3 = FindMethod("A3");
  serve::SelectQuery query;
  query.k = 2;
  manager.Run("t", *a3);
  manager.Select("t", query);
  const auto probe = [&](bool* run_served, bool* select_served) {
    std::thread([&] {
      ContextManager::MethodResults results;
      uint64_t generation = 0;
      *run_served = manager.TryRunCached("t", a3, {}, &results, &generation);
      serve::SelectOutcome outcome;
      *select_served = manager.TrySelectCached("t", query, &outcome);
    }).join();
  };
  bool run_served = true;
  bool select_served = false;
  TableStats during;
  ContextManagerTestPeer::DrainWithProbe(manager, "t", [&] {
    const TableStats before = manager.Stats("t");
    probe(&run_served, &select_served);
    during = manager.Stats("t");
    EXPECT_EQ(during.cache_hits, before.cache_hits + 1);  // the SELECT
    EXPECT_EQ(during.runs, before.runs + 1);
  });
  EXPECT_FALSE(run_served);
  EXPECT_TRUE(select_served);
  probe(&run_served, &select_served);
  EXPECT_TRUE(run_served);
  EXPECT_EQ(manager.Stats("t").generation, during.generation);
}

TEST(DrainFailureRecoveryTest, PoisonedBacklogFailsOnceThenRecovers) {
  // End-to-end through the real Drain catch path: a backlog of
  // [valid append x2, poison, remove] throws at the poison; the applied
  // prefix survives, the rest of the stolen backlog is dropped, the
  // bookkeeping resyncs, and the shard keeps serving.
  ContextManager manager;
  manager.Create("t", MakeCyclicTable(6, 2, 2), InitialProfile(6, 4, 503));
  std::vector<Ranking> good = InitialProfile(6, 2, 504);
  const std::vector<Ranking> surviving = [&] {
    std::vector<Ranking> all = InitialProfile(6, 4, 503);
    all.insert(all.end(), good.begin(), good.end());
    return all;
  }();
  manager.Append("t", std::move(good));
  ContextManagerTestPeer::InjectPoisonAppend(manager, "t", 5);
  manager.Remove("t", 6);  // valid against the virtual profile of 7
  EXPECT_THROW(manager.Flush("t"), std::invalid_argument);

  TableStats stats = manager.Stats("t");
  EXPECT_EQ(stats.num_rankings, 6u) << "applied prefix must survive";
  EXPECT_EQ(stats.pending_ops, 0u) << "stolen backlog is dropped";
  EXPECT_EQ(stats.pending_rankings, 0u);
  // The shard is fully servable afterwards, and enqueue validation uses
  // the resynced virtual size (index 6 is now out of range again).
  EXPECT_THROW(manager.Remove("t", 6), std::out_of_range);
  EXPECT_NO_THROW(manager.Remove("t", 5));
  EXPECT_EQ(manager.Flush("t"), 1u);
  ConsensusOptions options;
  options.time_limit_seconds = 60.0;
  const ConsensusOutput served = manager.Run("t", "A4", options);
  std::vector<Ranking> expected_profile(surviving.begin(),
                                        surviving.end() - 1);
  CandidateTable fresh_table = MakeCyclicTable(6, 2, 2);
  ConsensusContext fresh(expected_profile, fresh_table);
  EXPECT_EQ(served.consensus.order(),
            fresh.RunMethod("A4", options).consensus.order());
}

}  // namespace
}  // namespace manirank::serve
