// Result-cache + SELECT serving tests: the generation-keyed consensus
// result cache must be invisible in response bytes (a cached hit is
// byte-identical to a cold recompute, pinned by a cache-disabled twin
// replaying the same workload), correct across invalidation (every fold
// moves the generation and strands old entries), and honest in its
// counters. SELECT gets its own fuzz sweep with a generation-only
// invariant: ERR infeasible is the one ERR that follows a successful
// computation, so it may move runs/cache counters while the applied
// state stays put.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "serve/context_manager.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "util/rng.h"

namespace manirank {
namespace {

using serve::CachedSelect;
using serve::ContextManager;
using serve::Dispatcher;
using serve::ResultCache;
using serve::SelectConstraintSpec;
using serve::SelectQuery;
using serve::TableStats;

/// Masks the volatile counter fields of a STATS response — runs= moves
/// with every consensus run and the cache_* fields differ between a
/// cache-enabled and a cache-disabled server by design. Everything else
/// (generation, sizes, pending ops) must stay twin-identical.
std::string MaskCounters(std::string stats) {
  for (const std::string field :
       {" runs=", " cache_hits=", " cache_misses=", " cache_entries="}) {
    const size_t at = stats.find(field);
    if (at == std::string::npos) continue;
    size_t end = at + field.size();
    while (end < stats.size() && stats[end] != ' ') ++end;
    stats.replace(at, end - at, field + "_");
  }
  return stats;
}

/// Extracts the generation= field from a STATS response (or returns the
/// whole response when there is none — e.g. ERR no-such-table — so the
/// value still works as a state fingerprint).
std::string GenerationOf(const std::string& stats) {
  const size_t at = stats.find(" generation=");
  if (at == std::string::npos) return stats;
  size_t end = at + 12;
  while (end < stats.size() && stats[end] != ' ') ++end;
  return stats.substr(at, end - at);
}

class SelectCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dispatcher_ = std::make_unique<Dispatcher>(&manager_);
    ASSERT_TRUE(IsOk(Handle("CREATE t CYCLIC 6 2 3")));
    ASSERT_TRUE(IsOk(Handle("APPEND t 0 1 2 3 4 5 ; 5 4 3 2 1 0 ; "
                            "1 0 3 2 5 4")));
    ASSERT_TRUE(IsOk(Handle("FLUSH t")));
  }

  std::string Handle(const std::string& line) {
    return dispatcher_->Handle(line);
  }
  static bool IsOk(const std::string& r) { return r.rfind("OK", 0) == 0; }
  static bool IsErr(const std::string& r) { return r.rfind("ERR ", 0) == 0; }

  TableStats Stats() { return manager_.Stats("t"); }

  ContextManager manager_;
  std::unique_ptr<Dispatcher> dispatcher_;
};

TEST_F(SelectCacheTest, RepeatRunsHitAndFoldsInvalidate) {
  TableStats s = Stats();
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.cache_misses, 0u);
  EXPECT_EQ(s.cache_entries, 0u);

  const std::string cold = Handle("RUN t A3");
  ASSERT_TRUE(IsOk(cold));
  s = Stats();
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_entries, 1u);

  // A repeat at the same generation is a hit — and byte-identical.
  EXPECT_EQ(Handle("RUN t A3"), cold);
  s = Stats();
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_entries, 1u);

  // A different method is its own key.
  ASSERT_TRUE(IsOk(Handle("RUN t A4")));
  s = Stats();
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 2u);
  EXPECT_EQ(s.cache_entries, 2u);

  // A fold moves the generation and strands every old entry: the next
  // RUN is a miss and the dead generation has been evicted.
  ASSERT_TRUE(IsOk(Handle("APPEND t 2 3 0 1 4 5")));
  ASSERT_TRUE(IsOk(Handle("FLUSH t")));
  s = Stats();
  EXPECT_EQ(s.cache_entries, 0u);
  ASSERT_TRUE(IsOk(Handle("RUN t A3")));
  s = Stats();
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 3u);
  EXPECT_EQ(s.cache_entries, 1u);
}

TEST_F(SelectCacheTest, SelectHitsCacheAndBumpsRunsOncePerServe) {
  const std::string cold = Handle("SELECT t 3 ATTR 0 1 2 3");
  ASSERT_TRUE(IsOk(cold)) << cold;
  // The selection-rate audit rides every OK response: one
  // adverse-impact ratio per constrained grouping and the aggregate
  // four-fifths verdict.
  EXPECT_NE(cold.find(" air="), std::string::npos) << cold;
  EXPECT_NE(cold.find(" four_fifths="), std::string::npos) << cold;
  const uint64_t runs_after_cold = Stats().runs;
  // Cold SELECT ran one consensus (the A3 leg) and inserted two entries:
  // the consensus result and the select outcome.
  EXPECT_EQ(Stats().cache_entries, 2u);

  const std::string warm = Handle("SELECT t 3 ATTR 0 1 2 3");
  EXPECT_EQ(warm, cold);
  // Every served SELECT bumps runs exactly once, hit or cold.
  EXPECT_EQ(Stats().runs, runs_after_cold + 1);
  EXPECT_EQ(Stats().cache_entries, 2u);
  EXPECT_GE(Stats().cache_hits, 1u);

  // A different k is a different key, but shares the cached consensus.
  const uint64_t misses_before = Stats().cache_misses;
  const uint64_t hits_before = Stats().cache_hits;
  ASSERT_TRUE(IsOk(Handle("SELECT t 2 ATTR 0 1 2 3")));
  EXPECT_EQ(Stats().cache_hits, hits_before + 1);    // consensus leg hit
  EXPECT_EQ(Stats().cache_misses, misses_before + 1);  // new select key
  EXPECT_EQ(Stats().cache_entries, 3u);
}

TEST_F(SelectCacheTest, InfeasibleSelectDrawsItsOwnCodeDeterministically) {
  // Attribute 0 group 0 has 3 members; demanding 4 is provably
  // infeasible. The computation SUCCEEDED — this ERR may move counters.
  const uint64_t generation = Stats().generation;
  const std::string first = Handle("SELECT t 4 ATTR 0 0 4 6");
  EXPECT_EQ(first.rfind("ERR infeasible:", 0), 0u) << first;
  // The proof is cached; the repeat must be byte-identical.
  EXPECT_EQ(Handle("SELECT t 4 ATTR 0 0 4 6"), first);
  // The generation never moved.
  EXPECT_EQ(Stats().generation, generation);
}

TEST_F(SelectCacheTest, ErrPathsMoveNoCacheCounters) {
  const TableStats before = Stats();
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"SELECT", "ERR bad-request"},
      {"SELECT t", "ERR bad-request"},
      {"SELECT ghost 3", "ERR no-such-table"},
      {"SELECT t 0", "ERR bad-request"},            // k < 1
      {"SELECT t x", "ERR bad-request"},            // non-numeric k
      {"SELECT t 7", "ERR bad-request"},            // k > n
      {"SELECT t 3 ATTR", "ERR bad-request"},       // clause arity
      {"SELECT t 3 ATTR 0 1 2", "ERR bad-request"},
      {"SELECT t 3 INTER 0 1", "ERR bad-request"},
      {"SELECT t 3 FROB 1", "ERR bad-request"},     // unknown clause
      {"SELECT t 3 ATTR 9 0 1 2", "ERR bad-request"},  // attribute range
      {"SELECT t 3 ATTR 0 9 1 2", "ERR bad-request"},  // group range
      {"SELECT t 3 ATTR 0 0 3 1", "ERR bad-request"},  // min > max
      {"SELECT t 3 LIMIT", "ERR bad-request"},
      {"SELECT t 3 LIMIT -1", "ERR bad-request"},
      {"SELECT t 3 LIMIT NaN", "ERR bad-request"},
  };
  for (const auto& [request, expected_prefix] : cases) {
    const std::string response = Handle(request);
    EXPECT_EQ(response.rfind(expected_prefix, 0), 0u)
        << "request '" << request << "' drew '" << response << "'";
    const TableStats after = Stats();
    EXPECT_EQ(after.cache_hits, before.cache_hits) << request;
    EXPECT_EQ(after.cache_misses, before.cache_misses) << request;
    EXPECT_EQ(after.cache_entries, before.cache_entries) << request;
    EXPECT_EQ(after.runs, before.runs) << request;
    EXPECT_EQ(after.generation, before.generation) << request;
  }
}

TEST_F(SelectCacheTest, DisabledCacheServesWithZeroCounterMovement) {
  manager_.SetResultCacheEnabled(false);
  const std::string a = Handle("RUN t A3");
  const std::string b = Handle("RUN t A3");
  ASSERT_TRUE(IsOk(a));
  EXPECT_EQ(a, b);
  ASSERT_TRUE(IsOk(Handle("SELECT t 3 ATTR 0 1 2 3")));
  const TableStats s = Stats();
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.cache_misses, 0u);
  EXPECT_EQ(s.cache_entries, 0u);
}

TEST(SelectCacheTwinTest, CachedServerIsByteIdenticalToUncachedTwin) {
  // The core bit-exactness contract: an interleaved workload of
  // mutations, folds, runs, sweeps, EVALs and SELECTs must produce the
  // same response bytes whether or not the result cache is on. Only the
  // counter fields of STATS may differ (masked).
  ContextManager cached_manager;
  ContextManager uncached_manager;
  uncached_manager.SetResultCacheEnabled(false);
  Dispatcher cached(&cached_manager);
  Dispatcher uncached(&uncached_manager);

  const std::vector<std::string> script = {
      "CREATE t CYCLIC 6 2 3",
      "APPEND t 0 1 2 3 4 5 ; 5 4 3 2 1 0",
      "FLUSH t",
      "RUN t A3",
      "RUN t A3",  // hit on the cached side
      "RUN t A4",
      "EVAL t 0 1 2 3 4 5",
      "EVAL t 0 1 2 3 4 5",
      "SELECT t 3",
      "SELECT t 3 ATTR 0 1 2 3",
      "SELECT t 3 ATTR 0 1 2 3",  // hit
      "SELECT t 4 ATTR 0 0 4 6",  // infeasible, cached proof
      "SELECT t 4 ATTR 0 0 4 6",
      "SELECT t 2 INTER 0 0 1",
      "STATS t",
      "APPEND t 2 3 0 1 4 5",     // queued...
      "SELECT t 3 ATTR 0 1 2 3",  // ...SELECT must not drain it
      "STATS t",
      "FLUSH t",                  // fold: invalidation point
      "RUN t A3",
      "SELECT t 3 ATTR 0 1 2 3",
      "RUN t all",
      "RUN t all",
      "EVAL t 5 4 3 2 1 0",
      "SELECT t 6 ATTR 1 0 0 2 ATTR 0 1 1 6",
      "REMOVE t 0",
      "FLUSH t",
      "RUN t A3",
      "SELECT t 3 ATTR 0 1 2 3",
      "STATS t",
  };
  for (const std::string& line : script) {
    const std::string a = cached.Handle(line);
    const std::string b = uncached.Handle(line);
    EXPECT_EQ(MaskCounters(a), MaskCounters(b)) << "request '" << line << "'";
  }
  // The cached side actually cached (the twin test would be vacuous
  // against a cache that never engages).
  const TableStats stats = cached_manager.Stats("t");
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  const TableStats twin = uncached_manager.Stats("t");
  EXPECT_EQ(twin.cache_hits, 0u);
  EXPECT_EQ(twin.cache_misses, 0u);
}

TEST(SelectCacheTwinTest, FuzzedSelectLinesKeepGenerationInvariant) {
  // SELECT-focused fuzz: random clause soup against a live table. Every
  // line draws exactly one OK/ERR, never throws, and no SELECT —
  // well-formed or not — ever moves the generation (SELECT is
  // read-only and non-draining). NOTE: full STATS invariance would be
  // wrong here; ERR infeasible legitimately moves runs/cache counters.
  ContextManager manager;
  Dispatcher dispatcher(&manager);
  ASSERT_EQ(dispatcher.Handle("CREATE t CYCLIC 6 2 3")
                .rfind("OK", 0), 0u);
  ASSERT_EQ(dispatcher.Handle("APPEND t 0 1 2 3 4 5 ; 5 4 3 2 1 0")
                .rfind("OK", 0), 0u);
  ASSERT_EQ(dispatcher.Handle("FLUSH t").rfind("OK", 0), 0u);
  const std::string generation = GenerationOf(dispatcher.Handle("STATS t"));

  Rng rng(20260808);
  const std::vector<std::string> vocabulary = {
      "ATTR", "INTER", "LIMIT", "t",  "ghost", "0",   "1",     "2",
      "3",    "6",     "-1",    "x",  "0.5",   "NaN", "99999999999999999999",
      "🙂",   ";",     "",      "A3", "all"};
  int oks = 0;
  int errs = 0;
  for (int round = 0; round < 400; ++round) {
    std::ostringstream line;
    line << "SELECT";
    const int tokens = 1 + static_cast<int>(rng.NextUint64(9));
    for (int i = 0; i < tokens; ++i) {
      line << ' ' << vocabulary[rng.NextUint64(vocabulary.size())];
    }
    std::string response;
    ASSERT_NO_THROW(response = dispatcher.Handle(line.str())) << line.str();
    ASSERT_FALSE(response.empty()) << line.str();
    ASSERT_TRUE(response.rfind("OK", 0) == 0 ||
                response.rfind("ERR ", 0) == 0)
        << "request '" << line.str() << "' drew '" << response << "'";
    if (response.rfind("ERR ", 0) == 0) {
      ++errs;
    } else {
      ++oks;
    }
    EXPECT_EQ(GenerationOf(dispatcher.Handle("STATS t")), generation)
        << "request '" << line.str() << "' moved the generation";
  }
  // The sweep must exercise both outcomes to mean anything.
  EXPECT_GT(errs, 0);
  EXPECT_GT(oks, 0);
}

/// A cached server and a cache-disabled twin fed the same lines: every
/// response must match byte for byte (STATS counters masked), however
/// the cache's tiers fill and evict.
class CacheTierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    uncached_manager_.SetResultCacheEnabled(false);
    for (const std::string line :
         {"CREATE t CYCLIC 6 2 3",
          "APPEND t 0 1 2 3 4 5 ; 5 4 3 2 1 0 ; 1 0 3 2 5 4", "FLUSH t"}) {
      ASSERT_EQ(Handle(line).rfind("OK", 0), 0u) << line;
    }
  }

  std::string Handle(const std::string& line) {
    const std::string response = cached_.Handle(line);
    EXPECT_EQ(MaskCounters(response), MaskCounters(uncached_.Handle(line)))
        << "request '" << line << "'";
    return response;
  }

  /// `count` distinct feasible SELECTs: only the bound of an inert
  /// constraint varies, so no two share a cache key.
  void SelectFlood(int count) {
    for (int i = 0; i < count; ++i) {
      const std::string response =
          Handle("SELECT t 3 ATTR 0 0 0 " + std::to_string(3 + i));
      ASSERT_EQ(response.rfind("OK SELECT", 0), 0u) << response;
    }
  }

  TableStats Stats() { return cached_manager_.Stats("t"); }

  ContextManager cached_manager_;
  ContextManager uncached_manager_;
  Dispatcher cached_{&cached_manager_};
  Dispatcher uncached_{&uncached_manager_};
};

TEST_F(CacheTierTest, DistinctSelectFloodRunsA3OncePerGeneration) {
  // RUN's A3 (default LIMIT 30) and the SELECT/EVAL A3 leg (default
  // options) are distinct consensus keys; both must survive the flood.
  ASSERT_EQ(Handle("RUN t A3").rfind("OK", 0), 0u);
  const TableStats before = Stats();
  const int selects = static_cast<int>(ResultCache::kMaxSelectEntries) + 72;
  SelectFlood(selects);
  TableStats s = Stats();
  // One miss per SELECT slate plus ONE A3 run for the whole flood.
  EXPECT_EQ(s.cache_misses - before.cache_misses,
            static_cast<uint64_t>(selects) + 1);
  EXPECT_EQ(s.cache_entries, ResultCache::kMaxSelectEntries + 2);

  // The consensus entries outlived 200 SELECT inserts.
  ASSERT_EQ(Handle("RUN t A3").rfind("OK", 0), 0u);
  ASSERT_EQ(Handle("EVAL t 0 1 2 3 4 5").rfind("OK", 0), 0u);
  const TableStats after = Stats();
  EXPECT_EQ(after.cache_hits, s.cache_hits + 2);
  EXPECT_EQ(after.cache_misses, s.cache_misses);

  // The newest slate is still cached; the oldest was the LRU victim and
  // recomputes from the cached consensus (one miss, one A3-leg hit).
  s = after;
  Handle("SELECT t 3 ATTR 0 0 0 " + std::to_string(3 + selects - 1));
  EXPECT_EQ(Stats().cache_hits, s.cache_hits + 1);
  EXPECT_EQ(Stats().cache_misses, s.cache_misses);
  s = Stats();
  Handle("SELECT t 3 ATTR 0 0 0 3");
  EXPECT_EQ(Stats().cache_hits, s.cache_hits + 1);
  EXPECT_EQ(Stats().cache_misses, s.cache_misses + 1);
}

TEST_F(CacheTierTest, DeltaFloodStaysWithinTheConsensusTier) {
  for (int i = 0; i < 100; ++i) {
    const std::string line =
        "RUN t A3 DELTA " + std::to_string(0.05 + 0.001 * i);
    ASSERT_EQ(Handle(line).rfind("OK", 0), 0u) << line;
    EXPECT_LE(Stats().cache_entries, ResultCache::kMaxRunEntries) << line;
  }
  EXPECT_EQ(Stats().cache_misses, 100u);
}

TEST_F(CacheTierTest, RunAllSweepHitsWholeAroundSelectFlood) {
  // DELTA 1 keeps the A1 ILP feasible, so all eight outputs are exact and
  // cacheable (at the default delta it is infeasible on this profile).
  const std::string sweep = Handle("RUN t all DELTA 1");
  ASSERT_EQ(sweep.rfind("OK", 0), 0u) << sweep;
  SelectFlood(200);
  const TableStats before = Stats();
  EXPECT_EQ(Handle("RUN t all DELTA 1"), sweep);
  const TableStats after = Stats();
  EXPECT_EQ(after.cache_hits,
            before.cache_hits + cached_manager_.SupportedMethods("t").size());
  EXPECT_EQ(after.cache_misses, before.cache_misses);
}

TEST_F(CacheTierTest, PartlyCachedRunAllSweepCountsNoHits) {
  // A1..A4 cached, the other four supported methods not: the sweep
  // recomputes all eight, so the four cached lookups it throws away must
  // not count as hits.
  for (const char* method : {"A1", "A2", "A3", "A4"}) {
    const std::string line = std::string("RUN t ") + method + " DELTA 1";
    ASSERT_EQ(Handle(line).rfind("OK", 0), 0u) << line;
  }
  ASSERT_EQ(cached_manager_.SupportedMethods("t").size(), 8u);
  const TableStats before = Stats();
  ASSERT_EQ(Handle("RUN t all DELTA 1").rfind("OK", 0), 0u);
  const TableStats after = Stats();
  EXPECT_EQ(after.cache_hits, before.cache_hits);
  EXPECT_EQ(after.cache_misses, before.cache_misses + 8);
  EXPECT_EQ(after.runs, before.runs + 8);
}

/// Dispatcher::TryHandleCached, the cache-only entry an event loop
/// answers RUN / SELECT / EVAL hits with, against a twin that only ever calls
/// Handle: a served probe must return the twin's exact bytes, and a probe
/// that is not served must leave STATS byte-identical (no counter moved)
/// before the fallback Handle catches up. Either way both STATS lines
/// must then agree.
class CacheOnlyProbeTest : public ::testing::Test {
 protected:
  std::string Both(const std::string& line) {
    const std::string response = probed_.Handle(line);
    EXPECT_EQ(response, reference_.Handle(line)) << "request '" << line << "'";
    return response;
  }

  bool Probe(const std::string& line) {
    const std::string stats_before = probed_.Handle("STATS t");
    std::string response;
    const bool served = probed_.TryHandleCached(line, &response);
    if (served) {
      EXPECT_EQ(response, reference_.Handle(line)) << "request '" << line << "'";
    } else {
      EXPECT_TRUE(response.empty()) << "request '" << line << "'";
      EXPECT_EQ(probed_.Handle("STATS t"), stats_before)
          << "unserved probe '" << line << "' moved a counter";
      Both(line);
    }
    EXPECT_EQ(probed_.Handle("STATS t"), reference_.Handle("STATS t"))
        << "after '" << line << "'";
    return served;
  }

  ContextManager probed_manager_;
  ContextManager reference_manager_;
  Dispatcher probed_{&probed_manager_};
  Dispatcher reference_{&reference_manager_};
};

TEST_F(CacheOnlyProbeTest, ServesOnlyCleanHitsWithHandlesBytes) {
  ASSERT_EQ(Both("CREATE t CYCLIC 6 2 3").rfind("OK", 0), 0u);
  Both("APPEND t 0 1 2 3 4 5 ; 5 4 3 2 1 0");
  // Queued rankings: RUN must drain first, so it is never served.
  EXPECT_FALSE(Probe("RUN t A3"));
  EXPECT_TRUE(Probe("RUN t A3"));
  // The cached A3 is still keyed by the applied generation, but an acked
  // APPEND is queued: serving it would skip the fold RUN owes it.
  Both("APPEND t 1 0 3 2 5 4");
  EXPECT_FALSE(Probe("RUN t A3"));
  EXPECT_TRUE(Probe("RUN t A3"));

  // SELECT is non-draining: a queued APPEND does not block its hit, which
  // answers the applied generation exactly like Handle.
  EXPECT_FALSE(Probe("SELECT t 2 ATTR 0 0 1 2"));
  EXPECT_TRUE(Probe("SELECT t 2 ATTR 0 0 1 2"));
  Both("APPEND t 2 3 0 1 4 5");
  EXPECT_TRUE(Probe("SELECT t 2 ATTR 0 0 1 2"));
  // An infeasible outcome is cached too; its hit answers the same ERR.
  EXPECT_FALSE(Probe("SELECT t 1 ATTR 0 0 1 1 ATTR 0 1 1 1"));
  EXPECT_TRUE(Probe("SELECT t 1 ATTR 0 0 1 1 ATTR 0 1 1 1"));

  // RUN all: served only when every supported method hits.
  EXPECT_FALSE(Probe("RUN t all DELTA 1"));
  EXPECT_TRUE(Probe("RUN t all DELTA 1"));
  Both("APPEND t 3 2 1 0 5 4");
  Both("FLUSH t");
  Both("RUN t A3 DELTA 1");
  EXPECT_FALSE(Probe("RUN t all DELTA 1"));  // one of eight cached

  // EVAL is non-draining like SELECT: its A3 leg misses once per
  // generation, then hits, and a queued APPEND does not block the hit.
  EXPECT_FALSE(Probe("EVAL t 0 1 2 3 4 5"));
  EXPECT_TRUE(Probe("EVAL t 0 1 2 3 4 5"));
  Both("APPEND t 4 5 0 1 2 3");
  EXPECT_TRUE(Probe("EVAL t 5 4 3 2 1 0"));

  // Never served: errors, unknown names, and the other verbs.
  for (const std::string line :
       {"RUN t A9", "RUN nosuch A3", "RUN t A3 DELTA", "RUN t A3 DELTA -1",
        "RUN t", "SELECT t 0", "SELECT t 9", "SELECT t 2 ATTR 7 0 0 1",
        "SELECT nosuch 2", "SELECT t 2 BOGUS", "EVAL t 0 1 2",
        "EVAL t 0 1 2 3 4 4", "EVAL nosuch 0 1 2 3 4 5", "EVAL t",
        "STATS t", "FLUSH t", "TABLES", "", "# RUN t A3"}) {
    EXPECT_FALSE(Probe(line)) << "request '" << line << "'";
  }
}

TEST(ResultCacheTest, KeysDifferingInOneFieldNeverShareAnEntry) {
  const ConsensusOptions base_options;
  std::vector<ConsensusOptions> option_variants(2, base_options);
  option_variants[0].delta = std::nextafter(base_options.delta, 1.0);
  option_variants[1].time_limit_seconds =
      std::nextafter(base_options.time_limit_seconds, 1.0);
  const auto marked = [](double mark) {
    ConsensusOutput output;
    output.seconds = mark;
    return output;
  };
  for (const ConsensusOptions& variant : option_variants) {
    ResultCache cache;
    cache.InsertRun("A3", base_options, 1, marked(1.0));
    ConsensusOutput out;
    EXPECT_FALSE(cache.LookupRun("A3", variant, 1, &out));
    cache.InsertRun("A3", variant, 1, marked(2.0));
    EXPECT_EQ(cache.entries(), 2u);
    ASSERT_TRUE(cache.LookupRun("A3", base_options, 1, &out));
    EXPECT_EQ(out.seconds, 1.0);
    ASSERT_TRUE(cache.LookupRun("A3", variant, 1, &out));
    EXPECT_EQ(out.seconds, 2.0);
    EXPECT_FALSE(cache.LookupRun("A4", base_options, 1, &out));
    EXPECT_FALSE(cache.LookupRun("A3", base_options, 2, &out));
  }

  SelectQuery base;
  base.k = 3;
  base.constraints = {{0, 0, 1, 3}, {1, 0, 2, 3}};
  std::vector<SelectQuery> query_variants(6, base);
  query_variants[0].constraints = {{0, 0, 2, 3}, {1, 0, 1, 3}};  // min swap
  query_variants[1].constraints = {{1, 0, 2, 3}, {0, 0, 1, 3}};  // order
  query_variants[2].k = 4;
  query_variants[3].time_limit_seconds = std::nextafter(0.0, 1.0);
  query_variants[4].constraints[0].attribute =
      SelectConstraintSpec::kIntersection;
  query_variants[5].constraints.push_back({0, 1, 0, 3});
  const auto slate = [](CandidateId first) {
    CachedSelect result;
    result.selected = {first};
    return result;
  };
  for (const SelectQuery& variant : query_variants) {
    ResultCache cache;
    cache.InsertSelect(base, 1, slate(1));
    CachedSelect out;
    EXPECT_FALSE(cache.LookupSelect(variant, 1, &out));
    cache.InsertSelect(variant, 1, slate(2));
    EXPECT_EQ(cache.entries(), 2u);
    ASSERT_TRUE(cache.LookupSelect(base, 1, &out));
    EXPECT_EQ(out.selected, std::vector<CandidateId>{1});
    ASSERT_TRUE(cache.LookupSelect(variant, 1, &out));
    EXPECT_EQ(out.selected, std::vector<CandidateId>{2});
    EXPECT_FALSE(cache.LookupSelect(base, 2, &out));
  }
}

TEST(ResultCacheTest, EachTierEvictsItsOwnLeastRecentlyUsedEntry) {
  const auto query = [](int i) {
    SelectQuery q;
    q.k = 1;
    q.constraints = {{0, 0, 0, i}};
    return q;
  };
  const auto options = [](int i) {
    ConsensusOptions o;
    o.delta = 0.001 * i;
    return o;
  };
  ResultCache cache;
  const int runs = static_cast<int>(ResultCache::kMaxRunEntries);
  const int selects = static_cast<int>(ResultCache::kMaxSelectEntries);
  for (int i = 0; i < runs; ++i) cache.InsertRun("A3", options(i), 1, {});
  for (int i = 0; i < selects; ++i) cache.InsertSelect(query(i), 1, {});
  EXPECT_EQ(cache.entries(), ResultCache::kMaxRunEntries +
                                 ResultCache::kMaxSelectEntries);

  // A hit refreshes recency, so the next insert evicts entry 1, not 0 —
  // and a SELECT insert never touches the consensus tier.
  ConsensusOutput run;
  CachedSelect select;
  ASSERT_TRUE(cache.LookupSelect(query(0), 1, &select));
  cache.InsertSelect(query(selects), 1, {});
  EXPECT_TRUE(cache.LookupSelect(query(0), 1, &select));
  EXPECT_FALSE(cache.LookupSelect(query(1), 1, &select));
  for (int i = 0; i < runs; ++i) {
    EXPECT_TRUE(cache.LookupRun("A3", options(i), 1, &run)) << i;
  }

  ASSERT_TRUE(cache.LookupRun("A3", options(0), 1, &run));
  cache.InsertRun("A3", options(runs), 1, {});
  EXPECT_TRUE(cache.LookupRun("A3", options(0), 1, &run));
  EXPECT_FALSE(cache.LookupRun("A3", options(1), 1, &run));
  EXPECT_EQ(cache.entries(), ResultCache::kMaxRunEntries +
                                 ResultCache::kMaxSelectEntries);

  // Fold boundary: only the new generation survives, in both tiers.
  cache.InsertRun("A3", options(0), 2, {});
  cache.InsertSelect(query(0), 2, {});
  cache.EvictOtherGenerations(2);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_TRUE(cache.LookupRun("A3", options(0), 2, &run));
  EXPECT_TRUE(cache.LookupSelect(query(0), 2, &select));
}

}  // namespace
}  // namespace manirank
