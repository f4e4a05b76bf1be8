// The exclusivity contract, exercised through the real synchronization
// layer: ContextGate semantics, gated ConsensusContext behaviour, and the
// ContextManager gate under multiple threads. Before the serving layer,
// mutating a context mid-RunAll was only caught by a single-thread debug
// check; these tests pin down the promoted behaviour — cross-thread
// mutations block until runs drain, a Flush issued mid-run waits for the
// run, and same-thread re-entrant mutation still throws.

#include "core/gate.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/context.h"
#include "core/method_registry.h"
#include "serve/context_manager.h"
#include "serve/protocol.h"
#include "test_util.h"
#include "util/rng.h"

namespace manirank {
namespace {

using serve::ContextManager;

using serve::TableStats;

/// Two-phase latch: the probe method signals it has started and then
/// parks until the test releases it — a deterministic stand-in for a
/// long-running query wave.
class Latch {
 public:
  void SignalStarted() {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    cv_.notify_all();
  }
  void AwaitStarted() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return started_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  void AwaitRelease() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return released_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool started_ = false;
  bool released_ = false;
};

MethodSpec BlockingProbe(Latch* latch, int n) {
  MethodSpec probe;
  probe.id = "probe";
  probe.name = "blocking-probe";
  probe.run = [latch, n](const ConsensusContext&,
                         const ConsensusOptions&) -> ConsensusOutput {
    latch->SignalStarted();
    latch->AwaitRelease();
    ConsensusOutput out;
    out.consensus = Ranking::Identity(n);
    return out;
  };
  return probe;
}

TEST(ContextGateTest, SharedHoldersAdmitEachOther) {
  ContextGate gate;
  gate.LockShared();
  gate.LockShared();
  EXPECT_EQ(gate.readers_in_flight(), 2);
  gate.UnlockShared();
  gate.UnlockShared();
  gate.LockExclusive();
  EXPECT_TRUE(gate.ThisThreadHoldsExclusive());
  // Re-entrant exclusive: the batch-application path re-acquires.
  gate.LockExclusive();
  gate.UnlockExclusive();
  EXPECT_TRUE(gate.ThisThreadHoldsExclusive());
  gate.UnlockExclusive();
  EXPECT_FALSE(gate.ThisThreadHoldsExclusive());
}

TEST(ContextGateTest, ExclusiveWaitsForReadersAndBlocksNewOnes) {
  ContextGate gate;
  gate.LockShared();
  std::atomic<bool> writer_in{false};
  std::thread writer([&] {
    gate.LockExclusive();
    writer_in.store(true);
    gate.UnlockExclusive();
  });
  // The writer cannot enter while the reader holds the gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_in.load());
  gate.UnlockShared();
  writer.join();
  EXPECT_TRUE(writer_in.load());
}

TEST(GatedContextTest, SameThreadMutationInsideRunStillThrows) {
  // A gated context must keep the deterministic logic_error for the
  // always-a-bug case — blocking would self-deadlock.
  Rng rng(501);
  CandidateTable table = testing::CyclicTable(8, 2, 2);
  std::vector<Ranking> base;
  for (int i = 0; i < 6; ++i) base.push_back(testing::RandomRanking(8, &rng));
  ConsensusContext ctx(base, table);
  ContextGate gate;
  ctx.AttachGate(&gate);
  Ranking extra = testing::RandomRanking(8, &rng);
  MethodSpec probe;
  probe.id = "probe";
  probe.name = "mutating-probe";
  probe.run = [&](const ConsensusContext&,
                  const ConsensusOptions&) -> ConsensusOutput {
    EXPECT_THROW(ctx.AddRanking(extra), std::logic_error);
    EXPECT_THROW(ctx.AddRankings({extra}), std::logic_error);
    EXPECT_THROW(ctx.RemoveRanking(0), std::logic_error);
    ConsensusOutput out;
    out.consensus = Ranking::Identity(8);
    return out;
  };
  ctx.RunMethod(probe);
  EXPECT_EQ(ctx.generation(), 0u);
  // Once the run drains the gate admits the mutation normally.
  EXPECT_NO_THROW(ctx.AddRanking(extra));
  EXPECT_EQ(ctx.generation(), 1u);
}

TEST(GatedContextTest, CrossThreadMutationBlocksUntilRunCompletes) {
  // The promotion itself: with a gate attached, a mutation racing a run
  // from another thread waits for the run instead of throwing.
  Rng rng(503);
  CandidateTable table = testing::CyclicTable(8, 2, 2);
  std::vector<Ranking> base;
  for (int i = 0; i < 5; ++i) base.push_back(testing::RandomRanking(8, &rng));
  ConsensusContext ctx(base, table);
  ContextGate gate;
  ctx.AttachGate(&gate);
  Latch latch;
  const MethodSpec probe = BlockingProbe(&latch, 8);
  std::thread runner([&] { ctx.RunMethod(probe); });
  latch.AwaitStarted();

  std::atomic<bool> mutated{false};
  Ranking extra = testing::RandomRanking(8, &rng);
  std::thread mutator([&] {
    ctx.AddRanking(extra);  // must block, not throw
    mutated.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(mutated.load()) << "mutation interleaved an in-flight run";
  EXPECT_EQ(ctx.generation(), 0u);
  latch.Release();
  runner.join();
  mutator.join();
  EXPECT_TRUE(mutated.load());
  EXPECT_EQ(ctx.generation(), 1u);
  EXPECT_EQ(ctx.num_rankings(), 6u);
}

TEST(ServeGateTest, MutationMidRunIsRejectedThroughTheManagerGate) {
  // The regression demanded by the serving layer: while a query wave is
  // in flight on a table, (1) enqueues are admitted but not applied,
  // (2) a Flush waits for the wave, and (3) the wave's outputs
  // correspond to the pre-mutation profile.
  ContextManager manager;
  std::vector<Ranking> base;
  Rng rng(505);
  for (int i = 0; i < 5; ++i) base.push_back(testing::RandomRanking(8, &rng));
  manager.Create("t", MakeCyclicTable(8, 2, 2), base);

  Latch latch;
  const MethodSpec probe = BlockingProbe(&latch, 8);
  std::thread wave([&] { manager.Run("t", probe); });
  latch.AwaitStarted();

  // Enqueue while the wave runs: admitted, coalesced, NOT applied.
  manager.Append("t", {testing::RandomRanking(8, &rng),
                       testing::RandomRanking(8, &rng)});
  manager.Remove("t", 0);
  TableStats stats = manager.Stats("t");
  EXPECT_EQ(stats.pending_ops, 2u);
  EXPECT_EQ(stats.generation, 0u);
  EXPECT_EQ(stats.num_rankings, 5u);

  // A blocking Flush parks behind the wave.
  std::atomic<bool> flushed{false};
  std::thread flusher([&] {
    EXPECT_EQ(manager.Flush("t"), 3u);  // 2 adds + 1 remove
    flushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(flushed.load()) << "Flush applied mid-run";
  EXPECT_EQ(manager.Stats("t").generation, 0u);

  latch.Release();
  wave.join();
  flusher.join();
  EXPECT_TRUE(flushed.load());
  stats = manager.Stats("t");
  EXPECT_EQ(stats.generation, 3u);
  EXPECT_EQ(stats.num_rankings, 6u);  // 5 + 2 - 1
  EXPECT_EQ(stats.pending_ops, 0u);
}

TEST(ServeGateTest, ReenteringTheServingApiFromAMethodRunFailsFast) {
  // A method body that calls back into the serving API for its own table
  // must get a logic_error, not a self-deadlock on the gate it already
  // holds shared. Enqueue-only requests (Append/Remove/Stats) stay legal.
  ContextManager manager;
  Rng rng(507);
  manager.Create("t", MakeCyclicTable(8, 2, 2),
                 {Ranking::Identity(8), Ranking::Identity(8).Reversed()});
  Ranking extra = testing::RandomRanking(8, &rng);
  MethodSpec probe;
  probe.id = "probe";
  probe.name = "reentrant-probe";
  probe.run = [&](const ConsensusContext&,
                  const ConsensusOptions&) -> ConsensusOutput {
    EXPECT_NO_THROW(manager.Append("t", {extra}));  // enqueue only: fine
    EXPECT_NO_THROW(manager.Stats("t"));            // no drain: fine
    EXPECT_THROW(manager.Flush("t"), std::logic_error);
    EXPECT_THROW(manager.Run("t", "A4"), std::logic_error);
    ConsensusOutput out;
    out.consensus = Ranking::Identity(8);
    return out;
  };
  manager.Run("t", probe);
  // The wave over, the enqueued ranking applies normally.
  EXPECT_EQ(manager.Flush("t"), 1u);
  EXPECT_EQ(manager.Stats("t").num_rankings, 3u);
}

TEST(ServeGateTest, ConcurrentWavesAndMutationsStayConsistent) {
  // Stress: per-table client threads hammer Append/Run/Remove through the
  // manager while the gates serialize application against query waves.
  // Every table must end with exactly the rankings its client kept in its
  // shadow, and the final consensus must equal a fresh context's.
  ContextManager manager;
  constexpr int kTables = 3;
  constexpr int kSteps = 40;
  const int n = 8;
  for (int t = 0; t < kTables; ++t) {
    manager.Create("t" + std::to_string(t), MakeCyclicTable(n, 2, 2),
                   {Ranking::Identity(n)});
  }
  std::vector<std::vector<Ranking>> shadows(kTables, {Ranking::Identity(n)});
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < kTables; ++t) {
    clients.emplace_back([&, t] {
      const std::string name = "t" + std::to_string(t);
      Rng rng(600 + static_cast<uint64_t>(t));
      for (int step = 0; step < kSteps; ++step) {
        const uint64_t action = rng.NextUint64(4);
        if (action == 0 && shadows[t].size() > 2) {
          const size_t index = rng.NextUint64(shadows[t].size());
          manager.Remove(name, index);
          shadows[t].erase(shadows[t].begin() +
                           static_cast<ptrdiff_t>(index));
        } else if (action < 3) {
          Ranking extra = testing::RandomRanking(n, &rng);
          shadows[t].push_back(extra);
          manager.Append(name, {std::move(extra)});
        } else {
          const ConsensusOutput out = manager.Run(name, "A4");
          if (out.consensus.size() != n) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kTables; ++t) {
    const std::string name = "t" + std::to_string(t);
    manager.Flush(name);
    const TableStats stats = manager.Stats(name);
    EXPECT_EQ(stats.num_rankings, shadows[t].size()) << name;
    CandidateTable fresh_table = MakeCyclicTable(n, 2, 2);
    ConsensusContext fresh(shadows[t], fresh_table);
    EXPECT_EQ(manager.Run(name, "A4").consensus.order(),
              fresh.RunMethod("A4").consensus.order())
        << name;
  }
}

}  // namespace
}  // namespace manirank
