// Serving-layer benchmark: K tables served through the multi-table
// ContextManager vs a naive per-request-rebuild server, on the same
// interleaved append/run workload. Writes BENCH_serving.json.
//
// Workload: every table starts with a base profile; each of W waves
// issues A APPEND requests of B rankings each and then one RUN request
// per table. Three scenarios:
//
//   batched            the real serving path, driven through the text
//                      protocol (serve/protocol.h): appends coalesce in
//                      the shard's mutation queue and fold into the
//                      long-lived context as one AddRankings batch per
//                      wave; RUN reuses every warm cache.
//   batched_concurrent the same requests, one client thread per table
//                      against the shared ContextManager — measures the
//                      sharding + per-table gate under real concurrency.
//   per_request_rebuild a naive server holding raw ranking vectors: every
//                      RUN builds a fresh ConsensusContext (cold caches),
//                      which is what serving looked like before the
//                      context layer.
//
// The batched and rebuild paths must produce bit-identical consensus
// rankings; the bench aborts loudly if they ever drift.
//
// An `async` section drives the TCP executor (serve/executor.h) with a
// K-client mixed mutate/query workload over loopback: every client owns
// one "hot" table receiving bulk APPEND backlogs + RUNs (a long
// exclusive drain per wave) and several light tables queried in the same
// pipeline. The executor overlaps the light RUNs with the hot fold
// across its shared worker pool while still delivering responses in
// request order. Every response stream must be bit-identical to a
// synchronous Dispatcher replay — the bench aborts loudly on any drift.
//
// A second section measures the snapshot/restore path (data/snapshot.h):
// a table folded from a large Mallows stream is snapshotted to disk,
// restored into a fresh ContextManager, and compared against the only
// alternative a restarted server has — replaying the whole profile
// through the StreamingAccumulator. Restore reads O(n^2) bytes where
// replay folds O(|R| n^2) work, so it wins by orders of magnitude at the
// default 1M-ranking stream; the restored table must serve the
// precedence/Borda methods bit-identically to the pre-snapshot context.
//
// An `oplog` section prices the durability layer (serve/durability.h):
// the same batched protocol workload runs once plain and once with the
// append-only op log attached (one fsync per fold), giving the log's
// append overhead; then a cold start (snapshot floor + log replay) races
// the only logless alternative — re-streaming the whole append history
// into a fresh manager. Both the durable run and the cold-started
// manager must match the plain path bit-for-bit.
//
// MANIRANK_BENCH_QUICK=1 shrinks the workload for the CI smoke job.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fair_select.h"
#include "manirank.h"
#include "serve/durability.h"
#include "serve/result_cache.h"
#include "util/rng.h"
#include "util/stopwatch.h"

#ifdef MANIRANK_SERVE_HAVE_SOCKETS
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <mutex>
#endif

namespace {

using namespace manirank;

bool QuickMode() {
  const char* env = std::getenv("MANIRANK_BENCH_QUICK");
  return env != nullptr && std::string(env) != "0";
}

struct Workload {
  int tables = 4;
  int n = 60;                 // candidates per table
  int base_rankings = 400;    // initial profile per table
  int waves = 12;             // append+run waves per table
  int appends_per_wave = 5;   // APPEND requests per wave (they coalesce)
  int rankings_per_append = 8;
  const char* method = "A4";  // Fair-Copeland: the fast precedence path
  double theta = 0.6;
};

std::string TableName(int t) { return "t" + std::to_string(t); }

/// Deterministic per-table ranking stream: table t's wave rankings are
/// the same across scenarios, so outputs must match bit-for-bit.
std::vector<std::vector<Ranking>> SampleStreams(const Workload& w) {
  std::vector<std::vector<Ranking>> streams(w.tables);
  for (int t = 0; t < w.tables; ++t) {
    Rng rng(1000 + t);
    std::vector<CandidateId> order(w.n);
    for (int i = 0; i < w.n; ++i) order[i] = i;
    rng.Shuffle(&order);
    MallowsModel model(Ranking(std::move(order)), w.theta);
    const int total = w.base_rankings +
                      w.waves * w.appends_per_wave * w.rankings_per_append;
    streams[t] = model.SampleMany(total, /*seed=*/2000 + t);
  }
  return streams;
}

std::string FormatAppendRequest(const std::string& table,
                                const std::vector<Ranking>& stream,
                                size_t begin, size_t count) {
  std::ostringstream os;
  os << "APPEND " << table;
  for (size_t r = begin; r < begin + count; ++r) {
    if (r != begin) os << " ;";
    for (CandidateId c : stream[r].order()) os << ' ' << c;
  }
  return os.str();
}

/// Consensus order out of an "OK RUN ... consensus=c0,c1,..." response.
std::vector<CandidateId> ParseConsensus(const std::string& response) {
  const size_t at = response.rfind("consensus=");
  std::vector<CandidateId> order;
  if (at == std::string::npos) return order;
  std::istringstream is(response.substr(at + 10));
  std::string cell;
  while (std::getline(is, cell, ',')) {
    order.push_back(static_cast<CandidateId>(std::stol(cell)));
  }
  return order;
}

struct ScenarioResult {
  double seconds = 0.0;
  long requests = 0;
  /// Final RUN consensus per table (equivalence check across scenarios).
  std::vector<std::vector<CandidateId>> final_consensus;
};

/// One table's wave loop through a protocol dispatcher. Returns requests
/// issued; records the last RUN consensus.
long DriveTable(serve::Dispatcher& dispatcher, const Workload& w, int t,
                const std::vector<Ranking>& stream,
                std::vector<CandidateId>* final_consensus) {
  const std::string table = TableName(t);
  long requests = 0;
  size_t next = w.base_rankings;  // base profile was loaded at CREATE
  std::string response;
  for (int wave = 0; wave < w.waves; ++wave) {
    for (int a = 0; a < w.appends_per_wave; ++a) {
      response = dispatcher.Handle(FormatAppendRequest(
          table, stream, next, static_cast<size_t>(w.rankings_per_append)));
      next += static_cast<size_t>(w.rankings_per_append);
      ++requests;
      if (response.rfind("OK", 0) != 0) {
        std::fprintf(stderr, "append failed: %s\n", response.c_str());
        std::abort();
      }
    }
    response = dispatcher.Handle("RUN " + table + " " + w.method);
    ++requests;
    if (response.rfind("OK", 0) != 0) {
      std::fprintf(stderr, "run failed: %s\n", response.c_str());
      std::abort();
    }
  }
  *final_consensus = ParseConsensus(response);
  return requests;
}

/// Seeds a manager with every table's base profile (outside the timer:
/// all scenarios start from a warm, equal footing).
void SeedManager(serve::ContextManager* manager, const Workload& w,
                 const std::vector<std::vector<Ranking>>& streams) {
  for (int t = 0; t < w.tables; ++t) {
    std::vector<Ranking> base(streams[t].begin(),
                              streams[t].begin() + w.base_rankings);
    manager->Create(TableName(t), MakeCyclicTable(w.n, 2, 2),
                    std::move(base));
    // Warm the caches the RUN path reuses.
    manager->Run(TableName(t), w.method);
  }
}

ScenarioResult RunBatched(const Workload& w,
                          const std::vector<std::vector<Ranking>>& streams) {
  serve::ContextManager manager;
  SeedManager(&manager, w, streams);
  serve::Dispatcher dispatcher(&manager);
  ScenarioResult result;
  result.final_consensus.resize(w.tables);
  Stopwatch timer;
  for (int t = 0; t < w.tables; ++t) {
    result.requests +=
        DriveTable(dispatcher, w, t, streams[t], &result.final_consensus[t]);
  }
  result.seconds = timer.Seconds();
  return result;
}

ScenarioResult RunBatchedConcurrent(
    const Workload& w, const std::vector<std::vector<Ranking>>& streams) {
  serve::ContextManager manager;
  SeedManager(&manager, w, streams);
  ScenarioResult result;
  result.final_consensus.resize(w.tables);
  std::vector<long> requests(w.tables, 0);
  Stopwatch timer;
  std::vector<std::thread> clients;
  for (int t = 0; t < w.tables; ++t) {
    clients.emplace_back([&, t] {
      serve::Dispatcher dispatcher(&manager);
      requests[t] = DriveTable(dispatcher, w, t, streams[t],
                               &result.final_consensus[t]);
    });
  }
  for (std::thread& c : clients) c.join();
  result.seconds = timer.Seconds();
  for (long r : requests) result.requests += r;
  return result;
}

ScenarioResult RunRebuild(const Workload& w,
                          const std::vector<std::vector<Ranking>>& streams) {
  // The naive server: raw profiles, fresh context per RUN.
  std::vector<CandidateTable> tables;
  std::vector<std::vector<Ranking>> profiles(w.tables);
  for (int t = 0; t < w.tables; ++t) {
    tables.push_back(MakeCyclicTable(w.n, 2, 2));
    profiles[t].assign(streams[t].begin(),
                       streams[t].begin() + w.base_rankings);
  }
  ScenarioResult result;
  result.final_consensus.resize(w.tables);
  ConsensusOptions options;
  options.time_limit_seconds = 30.0;
  Stopwatch timer;
  for (int t = 0; t < w.tables; ++t) {
    size_t next = static_cast<size_t>(w.base_rankings);
    for (int wave = 0; wave < w.waves; ++wave) {
      for (int a = 0; a < w.appends_per_wave; ++a) {
        for (int r = 0; r < w.rankings_per_append; ++r) {
          profiles[t].push_back(streams[t][next++]);
        }
        ++result.requests;
      }
      ConsensusContext ctx(profiles[t], tables[t]);
      result.final_consensus[t] = ctx.RunMethod(w.method, options).consensus.order();
      ++result.requests;
    }
  }
  result.seconds = timer.Seconds();
  return result;
}

void CheckEquivalent(const Workload& w, const char* label,
                     const ScenarioResult& a, const ScenarioResult& b) {
  for (int t = 0; t < w.tables; ++t) {
    if (a.final_consensus[t] != b.final_consensus[t]) {
      std::fprintf(stderr,
                   "FATAL: %s drifted from the batched path on table %d\n",
                   label, t);
      std::abort();
    }
  }
}

void PrintScenarioJson(std::FILE* f, const char* name,
                       const ScenarioResult& r, bool trailing_comma) {
  const double rps = r.seconds > 0.0 ? r.requests / r.seconds : 0.0;
  std::fprintf(f,
               "  \"%s\": {\"seconds\": %.6f, \"requests\": %ld, "
               "\"throughput_rps\": %.1f}%s\n",
               name, r.seconds, r.requests, rps, trailing_comma ? "," : "");
}

// --- result cache: cached vs uncached read mix, SELECT, large-n EVAL -------

struct SelectCacheBench {
  // Read-heavy mix at a fixed generation, cached vs cache-disabled twin.
  int n = 0;
  int base_rankings = 0;
  long requests = 0;
  double cached_seconds = 0.0;
  double uncached_seconds = 0.0;
  bool equivalent = false;
  // Past-capacity leg: more distinct SELECTs per generation than the
  // SELECT tier holds, over several folds. Every slate misses, but the
  // A3 consensus they prefix must be computed once per generation.
  int generations = 0;
  int flood_selects = 0;
  uint64_t a3_recomputes = 0;
  double flood_cached_seconds = 0.0;
  double flood_uncached_seconds = 0.0;
  // SELECT algorithm split: greedy-certified vs forced ILP fallback.
  int select_n = 0;
  int select_reps = 0;
  double greedy_mean_us = 0.0;
  double ilp_mean_us = 0.0;
  // Large-n EVAL: Borda consensus leg cached, Fenwick tau + fairness per
  // call — the counting paths the cache can NOT absorb.
  int eval_n = 0;
  int eval_rankings = 0;
  int eval_requests = 0;
  double eval_cold_seconds = 0.0;
  double eval_warm_seconds = 0.0;
};

/// Replays one read-heavy request mix through a Dispatcher and returns
/// the responses; `seconds` gets the wall-clock for the whole replay.
std::vector<std::string> ReplayMix(serve::ContextManager* manager,
                                   const std::vector<std::string>& requests,
                                   double* seconds) {
  serve::Dispatcher dispatcher(manager);
  std::vector<std::string> responses;
  responses.reserve(requests.size());
  Stopwatch timer;
  for (const std::string& line : requests) {
    responses.push_back(dispatcher.Handle(line));
  }
  *seconds = timer.Seconds();
  return responses;
}

/// Prices the generation-keyed result cache on the workload it exists
/// for: repeated RUN/EVAL/SELECT against an unchanged table. The twin
/// with the cache disabled recomputes every consensus from scratch; both
/// sides must produce byte-identical responses (the cache must be
/// invisible in the bytes, visible only in the clock).
SelectCacheBench RunSelectCacheBench(bool quick) {
  SelectCacheBench result;
  result.n = quick ? 120 : 400;
  result.base_rankings = quick ? 300 : 2000;
  const int rounds = quick ? 40 : 150;

  // Seed profile: Mallows stream around a shuffled center.
  Rng rng(77);
  std::vector<CandidateId> center(result.n);
  for (int i = 0; i < result.n; ++i) center[i] = i;
  rng.Shuffle(&center);
  MallowsModel model(Ranking(std::move(center)), 0.4);
  const std::vector<Ranking> base =
      model.SampleMany(result.base_rankings, /*seed=*/78);

  // CREATE + the seed profile in 50-ranking APPENDs + FLUSH.
  const auto load_table = [&](const std::string& table,
                              std::vector<std::string>* out) {
    std::ostringstream create;
    create << "CREATE " << table << " CYCLIC " << result.n << " 2 3";
    out->push_back(create.str());
    for (size_t r = 0; r < base.size();) {
      const size_t batch = std::min<size_t>(base.size() - r, 50);
      std::ostringstream append;
      append << "APPEND " << table;
      for (size_t i = 0; i < batch; ++i, ++r) {
        if (i != 0) append << " ;";
        for (CandidateId c : base[r].order()) append << ' ' << c;
      }
      out->push_back(append.str());
    }
    out->push_back("FLUSH " + table);
  };

  std::vector<std::string> requests;
  {
    load_table("mix", &requests);
    std::ostringstream eval;
    eval << "EVAL mix";
    for (int c = 0; c < result.n; ++c) eval << ' ' << c;
    std::ostringstream select;
    select << "SELECT mix " << result.n / 4 << " ATTR 0 0 " << result.n / 10
           << ' ' << result.n;
    for (int round = 0; round < rounds; ++round) {
      requests.push_back("RUN mix A3");
      requests.push_back("RUN mix A4");
      requests.push_back(eval.str());
      requests.push_back(select.str());
    }
  }
  result.requests = static_cast<long>(requests.size());

  serve::ContextManager cached_manager;
  const std::vector<std::string> cached_responses =
      ReplayMix(&cached_manager, requests, &result.cached_seconds);
  serve::ContextManager uncached_manager;
  uncached_manager.SetResultCacheEnabled(false);
  const std::vector<std::string> uncached_responses =
      ReplayMix(&uncached_manager, requests, &result.uncached_seconds);
  result.equivalent = cached_responses == uncached_responses;
  if (!result.equivalent) {
    std::fprintf(stderr,
                 "FATAL: cached responses drifted from the uncached twin\n");
    std::abort();
  }

  result.generations = quick ? 3 : 5;
  result.flood_selects =
      static_cast<int>(serve::ResultCache::kMaxSelectEntries * 3 / 2);
  {
    std::vector<std::string> flood;
    load_table("flood", &flood);
    for (int g = 0; g < result.generations; ++g) {
      // Single-grouping queries: greedy certifies every slate, so each
      // one is cacheable and costs exactly one miss.
      for (int i = 0; i < result.flood_selects; ++i) {
        std::ostringstream select;
        select << "SELECT flood " << 10 + i % 40 << " ATTR 0 0 " << i / 40
               << ' ' << result.n;
        flood.push_back(select.str());
      }
      std::ostringstream append;
      append << "APPEND flood";
      for (CandidateId c : base[g].order()) append << ' ' << c;
      flood.push_back(append.str());
      flood.push_back("FLUSH flood");
    }
    serve::ContextManager flood_cached;
    const std::vector<std::string> cached_flood =
        ReplayMix(&flood_cached, flood, &result.flood_cached_seconds);
    serve::ContextManager flood_uncached;
    flood_uncached.SetResultCacheEnabled(false);
    const std::vector<std::string> uncached_flood =
        ReplayMix(&flood_uncached, flood, &result.flood_uncached_seconds);
    if (cached_flood != uncached_flood) {
      std::fprintf(stderr,
                   "FATAL: past-capacity SELECT responses drifted from the "
                   "uncached twin\n");
      std::abort();
    }
    uint64_t slates = 0;
    for (size_t i = 0; i < flood.size(); ++i) {
      if (flood[i].rfind("SELECT", 0) != 0) continue;
      if (cached_flood[i].find(" algo=greedy ") == std::string::npos) {
        std::fprintf(stderr, "FATAL: flood SELECT not greedy: %s\n",
                     cached_flood[i].c_str());
        std::abort();
      }
      ++slates;
    }
    // Misses are completed runs inserted: one per slate, the rest are
    // the A3 consensus runs.
    result.a3_recomputes =
        flood_cached.Stats("flood").cache_misses - slates;
  }

  // SELECT algorithm split on one consensus: a single-grouping query
  // greedy certifies, and the crafted cross-grouping trap (phase A's
  // cheapest min-cover exhausts another grouping's maximum) forces the
  // branch & bound fallback.
  result.select_n = 24;
  result.select_reps = quick ? 200 : 2000;
  {
    std::vector<Attribute> attrs(2);
    attrs[0].name = "X";
    attrs[0].values = {"x0", "x1"};
    attrs[1].name = "Y";
    attrs[1].values = {"y0", "y1"};
    std::vector<std::vector<AttributeValue>> values;
    for (int c = 0; c < result.select_n; ++c) {
      const AttributeValue x = static_cast<AttributeValue>(c % 2);
      const AttributeValue y =
          static_cast<AttributeValue>(c != 0 && c % 2 == 0 ? 1 : 0);
      values.push_back({x, y});
    }
    const CandidateTable table({attrs[0], attrs[1]}, std::move(values));
    const Grouping& gx = table.attribute_grouping(0);
    const Grouping& gy = table.attribute_grouping(1);
    const Ranking consensus = Ranking::Identity(result.select_n);
    const std::vector<SelectConstraint> greedy_query = {
        {&gx, 1, 2, result.select_n}};
    const std::vector<SelectConstraint> ilp_query = {
        {&gx, 0, 1, result.select_n},
        {&gx, 1, 1, result.select_n},
        {&gy, 0, 0, 1}};
    Stopwatch timer;
    for (int rep = 0; rep < result.select_reps; ++rep) {
      const FairSelectResult r = FairTopKSelect(consensus, 6, greedy_query);
      if (r.used_ilp || !r.feasible) std::abort();
    }
    result.greedy_mean_us = timer.Seconds() * 1e6 / result.select_reps;
    timer.Restart();
    for (int rep = 0; rep < result.select_reps; ++rep) {
      const FairSelectResult r = FairTopKSelect(consensus, 2, ilp_query);
      if (!r.used_ilp || !r.feasible) std::abort();
    }
    result.ilp_mean_us = timer.Seconds() * 1e6 / result.select_reps;
  }

  // Large-n EVAL: A3 needs only Borda points (no O(n^2) precedence
  // matrix), so n reaches 1e4/1e5 — the regime where the Fenwick tau
  // O(n log n) and the per-grouping fairness passes dominate. The first
  // EVAL pays the consensus build; the rest hit the cache and time the
  // counting paths alone.
  result.eval_n = quick ? 10000 : 100000;
  result.eval_rankings = 6;
  result.eval_requests = quick ? 5 : 10;
  {
    serve::ContextManager manager;
    manager.Create("big", MakeCyclicTable(result.eval_n, 2, 3));
    std::vector<Ranking> profile;
    std::vector<CandidateId> order(result.eval_n);
    for (int i = 0; i < result.eval_n; ++i) order[i] = i;
    profile.emplace_back(order);
    for (int r = 1; r < result.eval_rankings; ++r) {
      rng.Shuffle(&order);
      profile.emplace_back(order);
    }
    manager.Append("big", profile);
    manager.Flush("big");
    std::vector<CandidateId> probe(order);
    rng.Shuffle(&probe);
    const Ranking ranking(std::move(probe));
    Stopwatch timer;
    manager.Eval("big", ranking);
    result.eval_cold_seconds = timer.Seconds();
    timer.Restart();
    for (int r = 0; r < result.eval_requests; ++r) {
      manager.Eval("big", ranking);
    }
    result.eval_warm_seconds = timer.Seconds() / result.eval_requests;
  }
  return result;
}

// --- snapshot/restore vs profile replay ------------------------------------

struct SnapshotBench {
  size_t rankings = 0;
  int n = 0;
  double write_seconds = 0.0;
  double restore_seconds = 0.0;
  double replay_seconds = 0.0;
  long snapshot_bytes = 0;
};

/// Cold-start comparison at stream scale: what a restarted server pays to
/// resume serving one table, via RESTORE vs via replaying the profile.
SnapshotBench RunSnapshotBench(bool quick) {
  SnapshotBench result;
  result.n = 60;
  result.rankings = quick ? 20000 : 1000000;
  const uint64_t seed = 4242;
  CandidateTable table = MakeCyclicTable(result.n, 2, 2);
  Rng rng(seed);
  std::vector<CandidateId> modal(result.n);
  for (int i = 0; i < result.n; ++i) modal[i] = i;
  rng.Shuffle(&modal);
  MallowsModel model(Ranking(std::move(modal)), 0.5);
  const auto sample = [&](size_t i) {
    Rng sample_rng = MallowsModel::SampleRng(seed, i);
    return model.Sample(&sample_rng);
  };

  // The live table: folded once (outside the timers; both contenders
  // resume from the same pre-crash state), served, snapshotted.
  StreamingAccumulator acc(result.n,
                           StreamingAccumulator::Track::kBordaAndPrecedence);
  acc.Drain(result.rankings, sample);
  ConsensusContext original(acc.Finish(), table);
  const std::vector<CandidateId> expected_a3 =
      original.RunMethod("A3").consensus.order();
  const std::vector<CandidateId> expected_a4 =
      original.RunMethod("A4").consensus.order();

  const char* path = "serving_snapshot.snap";
  {
    Stopwatch timer;
    WriteTableSnapshotFile(path,
                           TableSnapshot{table, original.Snapshot(), 0, 0});
    result.write_seconds = timer.Seconds();
  }
  {
    std::FILE* f = std::fopen(path, "rb");
    if (f != nullptr) {
      std::fseek(f, 0, SEEK_END);
      result.snapshot_bytes = std::ftell(f);
      std::fclose(f);
    }
  }

  // Contender 1: restore the snapshot into a fresh serving process.
  serve::ContextManager restored;
  {
    Stopwatch timer;
    restored.RestoreTable("t", ReadTableSnapshotFile(path));
    result.restore_seconds = timer.Seconds();
  }
  // Contender 2: replay the profile through the streaming kernel (the
  // fastest replay available — parallel fold, rankings never retained).
  {
    Stopwatch timer;
    StreamingAccumulator replay_acc(
        result.n, StreamingAccumulator::Track::kBordaAndPrecedence);
    replay_acc.Drain(result.rankings, sample);
    ConsensusContext replayed(replay_acc.Finish(), table);
    result.replay_seconds = timer.Seconds();
    if (replayed.RunMethod("A3").consensus.order() != expected_a3) {
      std::fprintf(stderr, "FATAL: replayed A3 drifted from original\n");
      std::abort();
    }
  }
  // The restored table must serve bit-identically to the original.
  if (restored.Run("t", "A3").consensus.order() != expected_a3 ||
      restored.Run("t", "A4").consensus.order() != expected_a4) {
    std::fprintf(stderr, "FATAL: restored table drifted from original\n");
    std::abort();
  }
  std::remove(path);
  return result;
}

// --- op-log durability: append overhead + cold start vs re-stream ----------

struct OpLogBench {
  Workload workload;
  long requests = 0;
  double plain_seconds = 0.0;
  double durable_seconds = 0.0;
  double append_overhead_percent = 0.0;
  uint64_t log_records = 0;
  uint64_t log_bytes = 0;
  double coldstart_seconds = 0.0;   // floor read + log replay, all tables
  double replay_ms = 0.0;           // the log-replay share of the above
  uint64_t replayed_records = 0;
  uint64_t replayed_rankings = 0;
  double restream_seconds = 0.0;    // rebuild by re-folding the history
  double speedup_coldstart_vs_restream = 0.0;
};

/// RunBatchedConcurrent with the durability hook attached: every fold
/// appends one op-log record and fdatasyncs under that table's gate —
/// which is the point of measuring concurrently: one table's sync is
/// device wait the other tables' folds and RUNs overlap. Leaves the
/// durability dir populated for the cold-start leg.
ScenarioResult RunBatchedDurable(
    const Workload& w, const std::vector<std::vector<Ranking>>& streams,
    const std::string& dir, OpLogBench* bench) {
  serve::ContextManager manager;
  serve::DurabilityManager durability(dir, &manager);
  durability.Attach();  // before Create: floors are written at registration
  SeedManager(&manager, w, streams);
  ScenarioResult result;
  result.final_consensus.resize(w.tables);
  std::vector<long> requests(w.tables, 0);
  Stopwatch timer;
  std::vector<std::thread> clients;
  for (int t = 0; t < w.tables; ++t) {
    clients.emplace_back([&, t] {
      serve::Dispatcher dispatcher(&manager);
      requests[t] = DriveTable(dispatcher, w, t, streams[t],
                               &result.final_consensus[t]);
    });
  }
  for (std::thread& c : clients) c.join();
  result.seconds = timer.Seconds();
  for (long r : requests) result.requests += r;
  bench->log_records = 0;
  bench->log_bytes = 0;
  for (int t = 0; t < w.tables; ++t) {
    const auto stats = durability.StatsFor(TableName(t));
    if (!stats.has_value() || !stats->healthy) {
      std::fprintf(stderr, "oplog bench: table %d lost its log\n", t);
      std::abort();
    }
    bench->log_records += stats->log_records;
    bench->log_bytes += stats->log_bytes;
  }
  return result;
}

OpLogBench RunOpLogBench(bool quick) {
  OpLogBench bench;
  // The durability workload is multi-table serving: each table driven by
  // its own client through append waves and Fair-Kemeny RUNs. Overhead
  // is measured on the concurrent driver because that is how the layer
  // is deployed: the one
  // fdatasync per fold happens under ONE table's gate and is pure device
  // wait, so the other tables' folds and queries overlap it. A
  // single-threaded append-only firehose instead serializes every sync
  // behind the (very fast) bit-sliced fold and pays the device latency
  // in full — that shape is priced by log_bytes, not by this ratio.
  // Fair-Kemeny over a near-uniform profile: the exact search is the
  // expensive, deterministic query this workload re-answers after every
  // fold, and n is chosen so one solve costs tens of milliseconds — two
  // decades above the fold's fdatasync, the regime the <=5% overhead
  // claim targets.
  Workload& w = bench.workload;
  w.tables = 2;
  w.n = 13;
  w.base_rankings = 2000;
  w.waves = 5;
  w.appends_per_wave = 4;
  w.rankings_per_append = 10;
  w.method = "A1";
  w.theta = 0.01;
  if (quick) {
    w.n = 12;
    w.base_rankings = 500;
    w.waves = 3;
    w.appends_per_wave = 2;
  }
  const std::vector<std::vector<Ranking>> streams = SampleStreams(w);
  const ScenarioResult batched = RunBatchedConcurrent(w, streams);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("manirank_oplog_bench_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Best-of-5 on both sides of the overhead ratio: the two runs happen at
  // different instants, the quantity reported is their (small)
  // difference, and the exact-search solve time jitters by more than the
  // sync cost being measured.
  constexpr int kReps = 5;
  ScenarioResult durable;
  bench.plain_seconds = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    // (The reference run above is equivalence-only: both sides get the
    // same best-of-kReps treatment so the ratio is rep-symmetric.)
    const ScenarioResult plain = RunBatchedConcurrent(w, streams);
    CheckEquivalent(w, "oplog_plain", plain, batched);
    if (rep == 0 || plain.seconds < bench.plain_seconds) {
      bench.plain_seconds = plain.seconds;
    }
    // Each rep recreates the tables in the same dir: registration starts
    // a fresh floor + log chain, so the dir always holds the last run.
    ScenarioResult result = RunBatchedDurable(w, streams, dir.string(), &bench);
    CheckEquivalent(w, "oplog_durable", result, batched);
    if (rep == 0 || result.seconds < durable.seconds) {
      durable = std::move(result);
    }
  }
  bench.requests = durable.requests;
  bench.durable_seconds = durable.seconds;
  bench.append_overhead_percent =
      bench.plain_seconds > 0.0
          ? 100.0 * (bench.durable_seconds / bench.plain_seconds - 1.0)
          : 0.0;

  // Cold start: what a restarted server pays to resume serving from the
  // floor + log left on disk.
  serve::ContextManager restarted;
  serve::DurabilityManager recovery(dir.string(), &restarted);
  {
    Stopwatch timer;
    const auto report = recovery.ColdStart();
    bench.coldstart_seconds = timer.Seconds();
    if (report.size() != static_cast<size_t>(w.tables)) {
      std::fprintf(stderr, "oplog bench: cold start restored %zu tables\n",
                   report.size());
      std::abort();
    }
    for (const auto& table : report) {
      bench.replay_ms += table.replay_ms;
      bench.replayed_records += table.replayed_records;
      bench.replayed_rankings += table.replayed_rankings;
    }
  }
  // The logless alternative: re-fold the entire append history (base
  // profile + every appended ranking) into a fresh manager.
  serve::ContextManager restreamed;
  {
    Stopwatch timer;
    for (int t = 0; t < w.tables; ++t) {
      std::vector<Ranking> base(streams[t].begin(),
                                streams[t].begin() + w.base_rankings);
      restreamed.Create(TableName(t), MakeCyclicTable(w.n, 2, 2),
                        std::move(base));
      restreamed.Append(
          TableName(t),
          std::vector<Ranking>(streams[t].begin() + w.base_rankings,
                               streams[t].end()));
      restreamed.Flush(TableName(t));
    }
    bench.restream_seconds = timer.Seconds();
  }
  bench.speedup_coldstart_vs_restream =
      bench.coldstart_seconds > 0.0
          ? bench.restream_seconds / bench.coldstart_seconds
          : 0.0;
  // Both recovery paths must serve exactly what the live process served.
  for (int t = 0; t < w.tables; ++t) {
    const auto expected = batched.final_consensus[t];
    if (restarted.Run(TableName(t), w.method).consensus.order() != expected ||
        restreamed.Run(TableName(t), w.method).consensus.order() != expected) {
      std::fprintf(stderr,
                   "FATAL: oplog recovery drifted from the live table %d\n", t);
      std::abort();
    }
  }
  std::filesystem::remove_all(dir);
  return bench;
}

// --- async executor over loopback TCP --------------------------------------

#ifdef MANIRANK_SERVE_HAVE_SOCKETS

struct AsyncWorkload {
  int clients = 3;
  int light_tables = 6;      // per client, next to its one hot table
  int waves = 3;
  int n = 60;                // candidates per table
  int hot_appends = 4;       // bulk APPEND requests per wave (hot table)
  int hot_rankings = 800;    // rankings per bulk APPEND
  int light_rankings = 120;  // rankings appended per light table per wave
  size_t workers = 4;        // executor pool size
};

struct AsyncClientPlan {
  /// Untimed: CREATEs, seed appends, one warmup RUN per table.
  std::vector<std::string> setup;
  /// Timed: one pipelined request block per wave.
  std::vector<std::vector<std::string>> waves;
  /// Per wave: response indices of the light-table RUNs (the latency
  /// probes queued behind the hot fold).
  std::vector<std::vector<size_t>> light_run_indices;
};

struct AsyncScenarioResult {
  double seconds = 0.0;
  long requests = 0;
  double light_latency_mean_ms = 0.0;
  /// Every response line, per client, in wire order (equivalence check).
  std::vector<std::vector<std::string>> responses;
};

std::string AsyncRankingText(int n, int rotation) {
  std::ostringstream os;
  for (int i = 0; i < n; ++i) {
    if (i != 0) os << ' ';
    os << (i + rotation) % n;
  }
  return os.str();
}

/// The per-client request script. Tables are client-owned (disjoint
/// across clients), so each client's response stream is deterministic
/// and bit-comparable against a serial replay.
AsyncClientPlan BuildAsyncPlan(const AsyncWorkload& w, int client) {
  AsyncClientPlan plan;
  const std::string hot = "h" + std::to_string(client);
  std::vector<std::string> lights;
  for (int t = 0; t < w.light_tables; ++t) {
    lights.push_back("l" + std::to_string(client) + "_" + std::to_string(t));
  }
  const std::string cyclic =
      " CYCLIC " + std::to_string(w.n) + " 2 2";
  plan.setup.push_back("CREATE " + hot + cyclic);
  plan.setup.push_back("APPEND " + hot + " " + AsyncRankingText(w.n, client));
  plan.setup.push_back("RUN " + hot + " A4");
  for (const std::string& light : lights) {
    plan.setup.push_back("CREATE " + light + cyclic);
    plan.setup.push_back("APPEND " + light + " " +
                         AsyncRankingText(w.n, client + 1));
    plan.setup.push_back("RUN " + light + " A4");
  }
  for (int wave = 0; wave < w.waves; ++wave) {
    std::vector<std::string> requests;
    std::vector<size_t> light_runs;
    // The hot table's exclusive mutation wave: a bulk backlog that the
    // following RUN folds in one long exclusive drain.
    for (int a = 0; a < w.hot_appends; ++a) {
      std::ostringstream os;
      os << "APPEND " << hot;
      for (int r = 0; r < w.hot_rankings; ++r) {
        if (r != 0) os << " ;";
        os << ' ' << AsyncRankingText(w.n, (wave * 131 + a * 17 + r) % w.n);
      }
      requests.push_back(os.str());
    }
    requests.push_back("RUN " + hot + " A4");
    // The light tables' query waves, pipelined behind the hot work on
    // the same connection: the executor overlaps them with the hot fold
    // instead of head-of-line-blocking them behind it.
    for (const std::string& light : lights) {
      std::ostringstream os;
      os << "APPEND " << light;
      for (int r = 0; r < w.light_rankings; ++r) {
        if (r != 0) os << " ;";
        os << ' ' << AsyncRankingText(w.n, (wave * 37 + r) % w.n);
      }
      requests.push_back(os.str());
      light_runs.push_back(requests.size());  // the RUN pushed next
      requests.push_back("RUN " + light + " A4");
    }
    plan.waves.push_back(std::move(requests));
    plan.light_run_indices.push_back(std::move(light_runs));
  }
  return plan;
}

/// Blocking loopback client used by the async sections.
class AsyncClientSocket {
 public:
  explicit AsyncClientSocket(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      std::fprintf(stderr, "async bench: cannot connect to 127.0.0.1:%d\n",
                   port);
      std::abort();
    }
    // Nagle would hold the pipeline's final sub-MSS segment hostage to
    // the server's delayed ACK (~40 ms) — fatal for a latency bench.
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~AsyncClientSocket() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
#ifdef MSG_NOSIGNAL
                               MSG_NOSIGNAL
#else
                               0
#endif
      );
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        std::fprintf(stderr, "async bench: send failed\n");
        std::abort();
      }
      sent += static_cast<size_t>(n);
    }
  }

  /// Reads `count` response lines, stamping each arrival on `clock`.
  void ReadResponses(size_t count, const Stopwatch& clock,
                     std::vector<std::string>* lines,
                     std::vector<double>* arrival_seconds) {
    size_t got_lines = 0;
    while (got_lines < count) {
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        std::fprintf(stderr, "async bench: connection died mid-response\n");
        std::abort();
      }
      const double now = clock.Seconds();
      buffer_.append(chunk, static_cast<size_t>(n));
      size_t start = 0;
      for (size_t nl = buffer_.find('\n'); nl != std::string::npos;
           nl = buffer_.find('\n', start)) {
        lines->push_back(buffer_.substr(start, nl - start));
        arrival_seconds->push_back(now);
        start = nl + 1;
        ++got_lines;
        if (got_lines == count) break;
      }
      buffer_.erase(0, start);
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Drives the K clients against an already-started executor on `port`
/// and gathers wall-clock + light-RUN latency.
AsyncScenarioResult RunAsyncScenario(const std::vector<AsyncClientPlan>& plans,
                                     int port) {
  AsyncScenarioResult result;
  result.responses.resize(plans.size());
  std::vector<double> latency_sums(plans.size(), 0.0);
  std::vector<long> latency_counts(plans.size(), 0);
  std::vector<long> request_counts(plans.size(), 0);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  Stopwatch total_timer;
  for (size_t c = 0; c < plans.size(); ++c) {
    clients.emplace_back([&, c] {
      const AsyncClientPlan& plan = plans[c];
      AsyncClientSocket socket(port);
      // Untimed setup: CREATE + seed + cache warmup.
      {
        std::string wire;
        for (const std::string& request : plan.setup) {
          wire += request;
          wire += '\n';
        }
        socket.Send(wire);
        std::vector<double> ignored;
        socket.ReadResponses(plan.setup.size(), total_timer,
                             &result.responses[c], &ignored);
      }
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (size_t wave = 0; wave < plan.waves.size(); ++wave) {
        const std::vector<std::string>& requests = plan.waves[wave];
        std::string wire;
        for (const std::string& request : requests) {
          wire += request;
          wire += '\n';
        }
        Stopwatch wave_clock;
        socket.Send(wire);
        std::vector<std::string> lines;
        std::vector<double> arrivals;
        socket.ReadResponses(requests.size(), wave_clock, &lines, &arrivals);
        for (size_t index : plan.light_run_indices[wave]) {
          latency_sums[c] += arrivals[index];
          ++latency_counts[c];
        }
        request_counts[c] += static_cast<long>(requests.size());
        for (std::string& line : lines) {
          result.responses[c].push_back(std::move(line));
        }
      }
    });
  }
  while (ready.load() < static_cast<int>(plans.size())) {
    std::this_thread::yield();
  }
  total_timer.Restart();
  go.store(true);
  for (std::thread& t : clients) t.join();
  result.seconds = total_timer.Seconds();
  double latency_sum = 0.0;
  long latency_count = 0;
  for (size_t c = 0; c < plans.size(); ++c) {
    latency_sum += latency_sums[c];
    latency_count += latency_counts[c];
    result.requests += request_counts[c];
  }
  result.light_latency_mean_ms =
      latency_count > 0 ? 1e3 * latency_sum / latency_count : 0.0;
  return result;
}

/// The ground truth the executor must reproduce bit-for-bit: each
/// client's full request stream replayed through a synchronous
/// Dispatcher. One shared manager is correct because client table sets
/// are disjoint.
std::vector<std::vector<std::string>> AsyncReference(
    const std::vector<AsyncClientPlan>& plans) {
  serve::ContextManager manager;
  serve::Dispatcher dispatcher(&manager);
  std::vector<std::vector<std::string>> responses(plans.size());
  for (size_t c = 0; c < plans.size(); ++c) {
    const auto replay = [&](const std::vector<std::string>& requests) {
      for (const std::string& request : requests) {
        std::string response = dispatcher.Handle(request);
        if (!response.empty()) responses[c].push_back(std::move(response));
      }
    };
    replay(plans[c].setup);
    for (const std::vector<std::string>& wave : plans[c].waves) replay(wave);
  }
  return responses;
}

void CheckAsyncEquivalent(const char* label,
                          const std::vector<std::vector<std::string>>& got,
                          const std::vector<std::vector<std::string>>& want) {
  for (size_t c = 0; c < want.size(); ++c) {
    if (got[c] != want[c]) {
      std::fprintf(stderr,
                   "FATAL: %s response stream drifted from the synchronous "
                   "dispatcher for client %zu\n",
                   label, c);
      std::abort();
    }
  }
}

struct AsyncBench {
  AsyncWorkload workload;
  AsyncScenarioResult executor;
  uint64_t parked = 0;
};

AsyncBench RunAsyncBench(bool quick) {
  AsyncBench bench;
  AsyncWorkload& w = bench.workload;
  // Size the pool to the hardware: with fewer cores than workers the OS
  // just timeslices the overlap away (and charges for the context
  // switches) — on a single-CPU host the executor degrades gracefully to
  // a one-worker pipeline instead of a 4-way thrash.
  w.workers = std::min<size_t>(8, std::max<size_t>(1, DefaultThreadCount()));
  if (quick) {
    // One client on the quick run: CI runners are small, and a lone
    // pipelining client is exactly the head-of-line-blocking shape the
    // executor exists to fix — its light RUNs overlap the hot fold as
    // soon as a second core exists.
    w.clients = 1;
    w.light_tables = 5;
    w.waves = 3;
    w.n = 48;
    w.hot_appends = 3;
    w.hot_rankings = 700;
    w.light_rankings = 100;
  }
  std::vector<AsyncClientPlan> plans;
  for (int c = 0; c < w.clients; ++c) plans.push_back(BuildAsyncPlan(w, c));
  const std::vector<std::vector<std::string>> expected = AsyncReference(plans);

  // Best-of-3 (every repetition equivalence-checked, the fastest
  // wall-clock reported): on a small/noisy host a single background
  // hiccup would otherwise swing the reported time by tens of percent.
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    serve::ContextManager manager;
    serve::ServerOptions options;
    options.workers = w.workers;
    serve::ServeExecutor server(&manager, options);
    std::string error;
    if (!server.Start(&error)) {
      std::fprintf(stderr, "async bench: %s\n", error.c_str());
      std::abort();
    }
    AsyncScenarioResult result = RunAsyncScenario(plans, server.port());
    bench.parked += server.requests_parked();
    server.Shutdown();
    CheckAsyncEquivalent("executor", result.responses, expected);
    if (rep == 0 || result.seconds < bench.executor.seconds) {
      bench.executor = std::move(result);
    }
  }
  return bench;
}

// --- event-loop connection scaling -----------------------------------------
//
// The `async_epoll` section times the executor's one epoll event loop
// under 16/128/512 connections. C clients each pipeline an identical
// read-only STATS stream (served inline on the event loop, so the worker
// pool is idle and the measurement is pure I/O machinery). Every
// connection's response stream is equivalence-checked against a
// synchronous Dispatcher replay; speed is gated out of process by
// perfbench/, not here.

/// Raises RLIMIT_NOFILE toward its hard limit so the 512-connection
/// point fits (each connection costs a client fd + an accepted fd).
void RaiseFdLimit() {
  struct rlimit limit;
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  const rlim_t target = limit.rlim_max == RLIM_INFINITY
                            ? static_cast<rlim_t>(8192)
                            : std::min<rlim_t>(limit.rlim_max, 8192);
  if (limit.rlim_cur < target) {
    limit.rlim_cur = target;
    ::setrlimit(RLIMIT_NOFILE, &limit);
  }
}

size_t MaxAffordableConnections() {
  struct rlimit limit;
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 128;
  const rlim_t slack = 128;
  if (limit.rlim_cur <= slack) return 16;
  return static_cast<size_t>((limit.rlim_cur - slack) / 2);
}

struct EpollScalePoint {
  int connections = 0;
  long requests = 0;  // whole scenario, all connections
  double seconds = 0.0;  // best of `reps`
};

struct EpollScaleBench {
  size_t cores = 0;
  size_t workers = 0;
  int requests_per_connection = 0;
  int reps = 0;
  std::vector<EpollScalePoint> points;
};

/// One scenario: C identical pipelining clients against a fresh server.
/// Returns the wall-clock from the post-connect barrier to the last
/// drained response stream; aborts on any drift from `expected`.
double RunEpollScalePoint(const serve::ServerOptions& options, int connections,
                          const std::vector<std::string>& seed,
                          const std::string& wire,
                          const std::vector<std::string>& expected) {
  serve::ContextManager manager;
  serve::ServeExecutor server(&manager, options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "async_epoll bench: %s\n", error.c_str());
    std::abort();
  }
  {
    AsyncClientSocket seeder(server.port());
    std::string seed_wire;
    for (const std::string& request : seed) {
      seed_wire += request;
      seed_wire += '\n';
    }
    seeder.Send(seed_wire);
    std::vector<std::string> lines;
    std::vector<double> ignored;
    Stopwatch clock;
    seeder.ReadResponses(seed.size(), clock, &lines, &ignored);
    for (const std::string& line : lines) {
      if (line.rfind("OK ", 0) != 0) {
        std::fprintf(stderr, "async_epoll bench: seed failed: %s\n",
                     line.c_str());
        std::abort();
      }
    }
  }
  // Connect everyone first (untimed), then release the pipeline storm
  // through a condvar: 512 yield-spinners would trample the accept path
  // on a small host.
  std::mutex mu;
  std::condition_variable cv;
  bool go = false;
  std::atomic<int> ready{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(connections));
  Stopwatch timer;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      AsyncClientSocket socket(server.port());
      ready.fetch_add(1);
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return go; });
      }
      socket.Send(wire);
      std::vector<std::string> lines;
      std::vector<double> ignored;
      Stopwatch local_clock;
      socket.ReadResponses(expected.size(), local_clock, &lines, &ignored);
      if (lines != expected) mismatches.fetch_add(1);
    });
  }
  while (ready.load() < connections) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> lock(mu);
    timer.Restart();
    go = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
  const double seconds = timer.Seconds();
  server.Shutdown();
  if (mismatches.load() != 0) {
    std::fprintf(stderr,
                 "FATAL: async_epoll (%d connections) response streams "
                 "drifted from the synchronous dispatcher on %d connections\n",
                 connections, mismatches.load());
    std::abort();
  }
  return seconds;
}

EpollScaleBench RunEpollScaleBench(bool quick) {
  RaiseFdLimit();
  EpollScaleBench bench;
  bench.cores = std::max<size_t>(1, DefaultThreadCount());
  bench.requests_per_connection = quick ? 24 : 64;
  bench.reps = 2;

  constexpr int kSeedTables = 8;
  constexpr int kSeedN = 24;
  std::vector<std::string> seed;
  for (int t = 0; t < kSeedTables; ++t) {
    const std::string table = "s" + std::to_string(t);
    seed.push_back("CREATE " + table + " CYCLIC " + std::to_string(kSeedN) +
                   " 2 2");
    seed.push_back("APPEND " + table + " " + AsyncRankingText(kSeedN, t));
    seed.push_back("APPEND " + table + " " + AsyncRankingText(kSeedN, t + 3));
  }
  std::vector<std::string> client_requests;
  for (int r = 0; r < bench.requests_per_connection; ++r) {
    client_requests.push_back("STATS s" + std::to_string(r % kSeedTables));
  }
  std::string wire;
  for (const std::string& request : client_requests) {
    wire += request;
    wire += '\n';
  }
  std::vector<std::string> expected;
  {
    serve::ContextManager manager;
    serve::Dispatcher dispatcher(&manager);
    for (const std::string& request : seed) dispatcher.Handle(request);
    for (const std::string& request : client_requests) {
      expected.push_back(dispatcher.Handle(request));
    }
  }

  serve::ServerOptions options;
  options.workers = 2;
  bench.workers = options.workers;

  const size_t affordable = MaxAffordableConnections();
  for (const int connections : {16, 128, 512}) {
    if (static_cast<size_t>(connections) > affordable) {
      std::fprintf(stderr,
                   "async_epoll bench: skipping %d connections "
                   "(RLIMIT_NOFILE affords %zu)\n",
                   connections, affordable);
      continue;
    }
    EpollScalePoint point;
    point.connections = connections;
    point.requests =
        static_cast<long>(connections) * bench.requests_per_connection;
    for (int rep = 0; rep < bench.reps; ++rep) {
      const double seconds =
          RunEpollScalePoint(options, connections, seed, wire, expected);
      if (rep == 0 || seconds < point.seconds) point.seconds = seconds;
    }
    bench.points.push_back(point);
  }
  return bench;
}

#endif  // MANIRANK_SERVE_HAVE_SOCKETS

}  // namespace

// ---------------------------------------------------------- replication

/// The `replication` section measures read scale-OUT via leader/follower
/// replication with REAL processes: a manirank_serve leader (--log-dir)
/// and K=2 followers (--follow) are forked, each pinned to one worker
/// and one event loop so adding a follower adds capacity the way adding
/// a machine would (not the way adding a thread would). After the
/// followers converge, the same read-heavy RUN/EVAL request list is
/// timed twice — every client on the leader, then round-robin across
/// the followers — and the two response streams are equivalence-checked
/// request by request. The binary is found next to /proc/self/exe (or
/// via MANIRANK_SERVE_BIN); when it cannot be found or spawned the
/// section reports itself skipped instead of failing the bench.
struct ReplicationBench {
  bool skipped = true;
  std::string skip_reason;
  int followers = 0;
  size_t cores = 0;
  int client_threads = 0;
  long requests = 0;
  double leader_only_seconds = 0.0;
  double replicated_seconds = 0.0;
  double speedup = 0.0;
  bool equivalent = false;
};

#ifdef MANIRANK_SERVE_HAVE_SOCKETS

struct ServeProcess {
  pid_t pid = -1;
  int port = 0;
};

std::string FindServeBinary() {
  if (const char* env = std::getenv("MANIRANK_SERVE_BIN")) return env;
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return "";
  const std::filesystem::path sibling = self.parent_path() / "manirank_serve";
  if (!std::filesystem::exists(sibling, ec) || ec) return "";
  return sibling.string();
}

/// Forks `bin` with `args`, reads the child's stderr until the
/// machine-parseable "listening on port N" line (15 s deadline), then
/// keeps draining the pipe on a detached thread so the child can never
/// block on it. pid stays -1 on failure, with *error filled in.
ServeProcess SpawnServe(const std::string& bin, std::vector<std::string> args,
                        std::string* error) {
  ServeProcess proc;
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    *error = "pipe() failed";
    return proc;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    *error = "fork() failed";
    return proc;
  }
  if (pid == 0) {
    ::dup2(pipe_fds[1], 2);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin.c_str()));
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(bin.c_str(), argv.data());
    _exit(127);
  }
  ::close(pipe_fds[1]);
  std::string buffered;
  int port = 0;
  Stopwatch deadline;
  while (port == 0) {
    if (deadline.Seconds() > 15.0) {
      *error = "timed out waiting for 'listening on port N' on stderr";
      break;
    }
    pollfd pfd{pipe_fds[0], POLLIN, 0};
    if (::poll(&pfd, 1, 200) <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(pipe_fds[0], chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = "server exited before reporting its port";
      break;
    }
    buffered.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl = buffered.find('\n'); nl != std::string::npos;
         nl = buffered.find('\n', start)) {
      const std::string line = buffered.substr(start, nl - start);
      start = nl + 1;
      if (line.rfind("listening on port ", 0) == 0) {
        port = std::atoi(line.c_str() + 18);
        break;
      }
    }
    buffered.erase(0, start);
  }
  if (port == 0) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    ::close(pipe_fds[0]);
    return proc;
  }
  std::thread([fd = pipe_fds[0]] {
    char sink[4096];
    while (::read(fd, sink, sizeof(sink)) > 0) {
    }
    ::close(fd);
  }).detach();
  proc.pid = pid;
  proc.port = port;
  return proc;
}

void StopServe(ServeProcess* proc) {
  if (proc->pid < 0) return;
  ::kill(proc->pid, SIGTERM);
  int status = 0;
  ::waitpid(proc->pid, &status, 0);
  proc->pid = -1;
}

/// Minimal blocking line client against a forked server. Unlike the
/// in-process bench sockets it reports failures instead of aborting —
/// a spawned-server hiccup should skip the section, not kill the bench.
class ReplClient {
 public:
  explicit ReplClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~ReplClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  ReplClient(const ReplClient&) = delete;
  ReplClient& operator=(const ReplClient&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
#ifdef MSG_NOSIGNAL
                               MSG_NOSIGNAL
#else
                               0
#endif
      );
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLines(size_t count, std::vector<std::string>* lines) {
    while (lines->size() < count) {
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
      size_t start = 0;
      for (size_t nl = buffer_.find('\n');
           nl != std::string::npos && lines->size() < count;
           nl = buffer_.find('\n', start)) {
        lines->push_back(buffer_.substr(start, nl - start));
        start = nl + 1;
      }
      buffer_.erase(0, start);
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// One fresh connection, pipelined requests, all responses (empty on any
/// I/O failure).
std::vector<std::string> ReplRequest(int port,
                                     const std::vector<std::string>& requests) {
  std::vector<std::string> lines;
  ReplClient client(port);
  if (!client.ok()) return lines;
  std::string wire;
  for (const std::string& request : requests) {
    wire += request;
    wire += '\n';
  }
  if (!client.Send(wire)) return lines;
  if (!client.ReadLines(requests.size(), &lines)) lines.clear();
  return lines;
}

uint64_t ReplStatsGeneration(const std::string& stats) {
  const size_t at = stats.find(" generation=");
  if (at == std::string::npos) return ~0ull;
  return std::strtoull(stats.c_str() + at + 12, nullptr, 10);
}

/// Times the per-thread request plans against `ports[thread % ports]`,
/// collecting every response stream for the equivalence check.
double RunReplicationScenario(
    const std::vector<std::vector<std::string>>& plans,
    const std::vector<int>& ports,
    std::vector<std::vector<std::string>>* responses, bool* io_ok) {
  responses->assign(plans.size(), {});
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  Stopwatch timer;
  for (size_t c = 0; c < plans.size(); ++c) {
    threads.emplace_back([&, c] {
      ReplClient client(ports[c % ports.size()]);
      if (!client.ok()) {
        ok.store(false);
        ready.fetch_add(1);
        return;
      }
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      // Pipeline in bounded chunks: deep enough to keep the server's
      // queue full, shallow enough to bound client buffering.
      constexpr size_t kChunk = 32;
      const std::vector<std::string>& plan = plans[c];
      for (size_t at = 0; at < plan.size() && ok.load(); at += kChunk) {
        const size_t end = std::min(plan.size(), at + kChunk);
        std::string wire;
        for (size_t i = at; i < end; ++i) {
          wire += plan[i];
          wire += '\n';
        }
        std::vector<std::string> lines;
        if (!client.Send(wire) || !client.ReadLines(end - at, &lines)) {
          ok.store(false);
          break;
        }
        for (std::string& line : lines) {
          (*responses)[c].push_back(std::move(line));
        }
      }
    });
  }
  while (ready.load() < static_cast<int>(plans.size())) {
    std::this_thread::yield();
  }
  timer.Restart();
  go.store(true);
  for (std::thread& t : threads) t.join();
  const double seconds = timer.Seconds();
  *io_ok = ok.load();
  return seconds;
}

ReplicationBench RunReplicationBench(bool quick) {
  ReplicationBench bench;
  bench.followers = 2;
  bench.cores = std::thread::hardware_concurrency();
  const std::string bin = FindServeBinary();
  if (bin.empty()) {
    bench.skip_reason =
        "manirank_serve not found next to the bench binary "
        "(set MANIRANK_SERVE_BIN)";
    return bench;
  }
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("manirank_bench_repl_" + std::to_string(::getpid())))
          .string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!std::filesystem::create_directories(dir, ec) || ec) {
    bench.skip_reason = "cannot create temp log dir " + dir;
    return bench;
  }
  // One worker + one event loop per process: the leader-only baseline is
  // a single serving core, so the follower comparison measures scale-out.
  std::string error;
  ServeProcess leader = SpawnServe(
      bin,
      {"--port", "0", "--workers", "1", "--log-dir", dir},
      &error);
  std::vector<ServeProcess> followers;
  const auto cleanup = [&] {
    for (ServeProcess& follower : followers) StopServe(&follower);
    StopServe(&leader);
    std::error_code cleanup_ec;
    std::filesystem::remove_all(dir, cleanup_ec);
  };
  if (leader.pid < 0) {
    bench.skip_reason = "cannot spawn leader: " + error;
    cleanup();
    return bench;
  }

  // Seed one table and fold it (records replicate at fold boundaries).
  const int n = 24;
  const int base_rankings = quick ? 120 : 240;
  const auto rotation_text = [n](int rotation) {
    std::ostringstream os;
    for (int i = 0; i < n; ++i) {
      if (i != 0) os << ' ';
      os << (i + rotation) % n;
    }
    return os.str();
  };
  std::vector<std::string> seed;
  seed.push_back("CREATE t CYCLIC " + std::to_string(n) + " 2 2");
  for (int r = 0; r < base_rankings; r += 12) {
    std::ostringstream os;
    os << "APPEND t";
    for (int i = 0; i < 12; ++i) {
      if (i != 0) os << " ;";
      os << ' ' << rotation_text((r + i) % n);
    }
    seed.push_back(os.str());
  }
  seed.push_back("FLUSH t");
  const std::vector<std::string> seeded = ReplRequest(leader.port, seed);
  if (seeded.size() != seed.size()) {
    bench.skip_reason = "seeding the leader failed";
    cleanup();
    return bench;
  }
  const std::vector<std::string> leader_stats =
      ReplRequest(leader.port, {"STATS t"});
  const uint64_t generation =
      leader_stats.empty() ? ~0ull : ReplStatsGeneration(leader_stats[0]);

  for (int k = 0; k < bench.followers; ++k) {
    ServeProcess follower = SpawnServe(
        bin,
        {"--port", "0", "--workers", "1", "--follow",
         "127.0.0.1:" + std::to_string(leader.port)},
        &error);
    if (follower.pid < 0) {
      bench.skip_reason = "cannot spawn follower: " + error;
      cleanup();
      return bench;
    }
    followers.push_back(follower);
  }
  // Wait for every follower to converge on the leader's generation.
  Stopwatch catchup;
  for (const ServeProcess& follower : followers) {
    for (;;) {
      const std::vector<std::string> stats =
          ReplRequest(follower.port, {"STATS t"});
      if (!stats.empty() && ReplStatsGeneration(stats[0]) == generation &&
          stats[0].find(" replica_connected=1") != std::string::npos) {
        break;
      }
      if (catchup.Seconds() > 30.0) {
        bench.skip_reason = "followers failed to catch up within 30 s";
        cleanup();
        return bench;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  // The read-heavy mix: consensus RUNs on two methods plus EVAL probes.
  bench.client_threads = 4;
  const int per_thread = quick ? 150 : 600;
  std::vector<std::vector<std::string>> plans(bench.client_threads);
  for (int c = 0; c < bench.client_threads; ++c) {
    for (int i = 0; i < per_thread; ++i) {
      switch (i % 4) {
        case 0:
          plans[c].push_back("RUN t A3");
          break;
        case 1:
          plans[c].push_back("EVAL t " + rotation_text((c + i) % n));
          break;
        case 2:
          plans[c].push_back("RUN t A4");
          break;
        default:
          plans[c].push_back("EVAL t " + rotation_text((c * 7 + i) % n));
          break;
      }
      ++bench.requests;
    }
  }
  bool leader_ok = false;
  bool replicated_ok = false;
  std::vector<std::vector<std::string>> leader_responses;
  std::vector<std::vector<std::string>> replicated_responses;
  std::vector<int> follower_ports;
  for (const ServeProcess& follower : followers) {
    follower_ports.push_back(follower.port);
  }
  bench.leader_only_seconds = RunReplicationScenario(
      plans, {leader.port}, &leader_responses, &leader_ok);
  bench.replicated_seconds = RunReplicationScenario(
      plans, follower_ports, &replicated_responses, &replicated_ok);
  cleanup();
  if (!leader_ok || !replicated_ok) {
    bench.skip_reason = "a timed scenario hit an I/O failure";
    return bench;
  }
  bench.equivalent = leader_responses == replicated_responses;
  if (!bench.equivalent) {
    std::fprintf(stderr,
                 "FATAL: follower responses drifted from the leader's on "
                 "the identical read mix\n");
    std::abort();
  }
  bench.speedup = bench.replicated_seconds > 0.0
                      ? bench.leader_only_seconds / bench.replicated_seconds
                      : 0.0;
  bench.skipped = false;
  return bench;
}

#endif  // MANIRANK_SERVE_HAVE_SOCKETS

int main() {
  Workload w;
  if (QuickMode()) {
    // Small enough for a CI smoke run, but the base profile stays large
    // relative to the appended batches — that ratio is what the batched
    // fold exploits, so even the quick run shows the speedup.
    w.tables = 3;
    w.n = 40;
    w.base_rankings = 300;
    w.waves = 4;
    w.appends_per_wave = 3;
    w.rankings_per_append = 5;
  }
  const std::vector<std::vector<Ranking>> streams = SampleStreams(w);

  const ScenarioResult batched = RunBatched(w, streams);
  const ScenarioResult concurrent = RunBatchedConcurrent(w, streams);
  const ScenarioResult rebuild = RunRebuild(w, streams);
  CheckEquivalent(w, "batched_concurrent", concurrent, batched);
  CheckEquivalent(w, "per_request_rebuild", rebuild, batched);
#ifdef MANIRANK_SERVE_HAVE_SOCKETS
  const AsyncBench async = RunAsyncBench(QuickMode());
  const EpollScaleBench epoll_scale = RunEpollScaleBench(QuickMode());
  const ReplicationBench replication = RunReplicationBench(QuickMode());
#endif
  const SnapshotBench snapshot = RunSnapshotBench(QuickMode());
  const double restore_speedup = snapshot.restore_seconds > 0.0
                                     ? snapshot.replay_seconds /
                                           snapshot.restore_seconds
                                     : 0.0;
  const OpLogBench oplog = RunOpLogBench(QuickMode());
  const SelectCacheBench select_cache = RunSelectCacheBench(QuickMode());
  const double cached_speedup =
      select_cache.cached_seconds > 0.0
          ? select_cache.uncached_seconds / select_cache.cached_seconds
          : 0.0;

  const double speedup =
      batched.seconds > 0.0 ? rebuild.seconds / batched.seconds : 0.0;
  const double concurrent_speedup =
      concurrent.seconds > 0.0 ? batched.seconds / concurrent.seconds : 0.0;

  std::FILE* f = std::fopen("BENCH_serving.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_serving.json for writing\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"serving\",\n");
  std::fprintf(f,
               "  \"workload\": {\"tables\": %d, \"n\": %d, "
               "\"base_rankings\": %d, \"waves\": %d, "
               "\"appends_per_wave\": %d, \"rankings_per_append\": %d, "
               "\"method\": \"%s\", \"theta\": %.2f},\n",
               w.tables, w.n, w.base_rankings, w.waves, w.appends_per_wave,
               w.rankings_per_append, w.method, w.theta);
  PrintScenarioJson(f, "batched", batched, true);
  PrintScenarioJson(f, "batched_concurrent", concurrent, true);
  PrintScenarioJson(f, "per_request_rebuild", rebuild, true);
  std::fprintf(f, "  \"speedup_batched_vs_rebuild\": %.3f,\n", speedup);
  std::fprintf(f, "  \"concurrent_scaling\": %.3f,\n", concurrent_speedup);
  std::fprintf(
      f,
      "  \"select_cache\": {\"n\": %d, \"base_rankings\": %d, "
      "\"requests\": %ld,\n"
      "    \"cached_seconds\": %.6f, \"uncached_seconds\": %.6f, "
      "\"speedup_cached\": %.3f, \"equivalent\": %s,\n"
      "    \"generations\": %d, \"flood_selects\": %d, "
      "\"a3_recomputes\": %llu, \"flood_cached_seconds\": %.6f, "
      "\"flood_uncached_seconds\": %.6f,\n"
      "    \"select_n\": %d, \"select_reps\": %d, "
      "\"greedy_mean_us\": %.2f, \"ilp_mean_us\": %.2f,\n"
      "    \"eval_n\": %d, \"eval_rankings\": %d, "
      "\"eval_cold_seconds\": %.6f, \"eval_warm_seconds\": %.6f},\n",
      select_cache.n, select_cache.base_rankings, select_cache.requests,
      select_cache.cached_seconds, select_cache.uncached_seconds,
      cached_speedup, select_cache.equivalent ? "true" : "false",
      select_cache.generations, select_cache.flood_selects,
      static_cast<unsigned long long>(select_cache.a3_recomputes),
      select_cache.flood_cached_seconds, select_cache.flood_uncached_seconds,
      select_cache.select_n, select_cache.select_reps,
      select_cache.greedy_mean_us, select_cache.ilp_mean_us,
      select_cache.eval_n, select_cache.eval_rankings,
      select_cache.eval_cold_seconds, select_cache.eval_warm_seconds);
#ifdef MANIRANK_SERVE_HAVE_SOCKETS
  std::fprintf(
      f,
      "  \"async\": {\"clients\": %d, \"light_tables\": %d, \"waves\": %d, "
      "\"n\": %d, \"hot_appends\": %d, \"hot_rankings\": %d, "
      "\"light_rankings\": %d, \"workers\": %zu, \"parked_requests\": %llu,\n"
      "    \"executor\": {\"seconds\": %.6f, \"requests\": %ld, "
      "\"light_run_latency_ms\": %.3f}},\n",
      async.workload.clients, async.workload.light_tables,
      async.workload.waves, async.workload.n, async.workload.hot_appends,
      async.workload.hot_rankings, async.workload.light_rankings,
      async.workload.workers,
      static_cast<unsigned long long>(async.parked), async.executor.seconds,
      async.executor.requests, async.executor.light_latency_mean_ms);
  std::fprintf(f,
               "  \"async_epoll\": {\"cores\": %zu, \"workers\": %zu, "
               "\"requests_per_connection\": %d, \"reps\": %d,\n"
               "    \"points\": [",
               epoll_scale.cores, epoll_scale.workers,
               epoll_scale.requests_per_connection, epoll_scale.reps);
  for (size_t i = 0; i < epoll_scale.points.size(); ++i) {
    const EpollScalePoint& point = epoll_scale.points[i];
    std::fprintf(f,
                 "%s\n      {\"connections\": %d, \"requests\": %ld, "
                 "\"seconds\": %.6f}",
                 i == 0 ? "" : ",", point.connections, point.requests,
                 point.seconds);
  }
  std::fprintf(f, "]},\n");
  if (replication.skipped) {
    std::fprintf(f,
                 "  \"replication\": {\"skipped\": true, "
                 "\"skip_reason\": \"%s\", \"cores\": %zu},\n",
                 replication.skip_reason.c_str(), replication.cores);
  } else {
    std::fprintf(
        f,
        "  \"replication\": {\"skipped\": false, \"followers\": %d, "
        "\"cores\": %zu, \"client_threads\": %d, \"requests\": %ld,\n"
        "    \"leader_only_seconds\": %.6f, \"replicated_seconds\": %.6f, "
        "\"leader_only_rps\": %.1f, \"replicated_rps\": %.1f,\n"
        "    \"speedup_replicated_vs_leader\": %.3f, \"equivalent\": %s},\n",
        replication.followers, replication.cores, replication.client_threads,
        replication.requests, replication.leader_only_seconds,
        replication.replicated_seconds,
        replication.leader_only_seconds > 0.0
            ? replication.requests / replication.leader_only_seconds
            : 0.0,
        replication.replicated_seconds > 0.0
            ? replication.requests / replication.replicated_seconds
            : 0.0,
        replication.speedup, replication.equivalent ? "true" : "false");
  }
#endif
  std::fprintf(f,
               "  \"snapshot\": {\"rankings\": %zu, \"n\": %d, "
               "\"snapshot_bytes\": %ld, \"write_seconds\": %.6f, "
               "\"restore_seconds\": %.6f, \"replay_seconds\": %.6f, "
               "\"speedup_restore_vs_replay\": %.1f},\n",
               snapshot.rankings, snapshot.n, snapshot.snapshot_bytes,
               snapshot.write_seconds, snapshot.restore_seconds,
               snapshot.replay_seconds, restore_speedup);
  std::fprintf(f,
               "  \"oplog\": {\"tables\": %d, \"n\": %d, "
               "\"base_rankings\": %d, \"waves\": %d, "
               "\"rankings_per_wave\": %d, \"method\": \"%s\",\n"
               "    \"requests\": %ld, \"plain_seconds\": %.6f, "
               "\"durable_seconds\": %.6f, "
               "\"append_overhead_percent\": %.2f,\n"
               "    \"log_records\": %llu, \"log_bytes\": %llu, "
               "\"coldstart_seconds\": %.6f, \"replay_ms\": %.3f, "
               "\"replayed_records\": %llu, \"replayed_rankings\": %llu,\n"
               "    \"restream_seconds\": %.6f, "
               "\"speedup_coldstart_vs_restream\": %.1f}\n",
               oplog.workload.tables, oplog.workload.n,
               oplog.workload.base_rankings, oplog.workload.waves,
               oplog.workload.appends_per_wave *
                   oplog.workload.rankings_per_append,
               oplog.workload.method, oplog.requests, oplog.plain_seconds,
               oplog.durable_seconds,
               oplog.append_overhead_percent,
               static_cast<unsigned long long>(oplog.log_records),
               static_cast<unsigned long long>(oplog.log_bytes),
               oplog.coldstart_seconds, oplog.replay_ms,
               static_cast<unsigned long long>(oplog.replayed_records),
               static_cast<unsigned long long>(oplog.replayed_rankings),
               oplog.restream_seconds, oplog.speedup_coldstart_vs_restream);
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("batched (1 thread):    %.4fs  %ld req\n", batched.seconds,
              batched.requests);
  std::printf("batched (%d threads):   %.4fs  %ld req\n", w.tables,
              concurrent.seconds, concurrent.requests);
  std::printf("per-request rebuild:   %.4fs  %ld req\n", rebuild.seconds,
              rebuild.requests);
  std::printf("batched vs rebuild: %.2fx   concurrent scaling: %.2fx\n",
              speedup, concurrent_speedup);
#ifdef MANIRANK_SERVE_HAVE_SOCKETS
  std::printf("async (%d clients, %d tables each): executor %.4fs "
              "(light RUN %.2fms), parked %llu\n",
              async.workload.clients, 1 + async.workload.light_tables,
              async.executor.seconds, async.executor.light_latency_mean_ms,
              static_cast<unsigned long long>(async.parked));
  for (const EpollScalePoint& point : epoll_scale.points) {
    std::printf("async_epoll %4d conns: %.4fs (%ld req, %zu cores)\n",
                point.connections, point.seconds, point.requests,
                epoll_scale.cores);
  }
  if (replication.skipped) {
    std::printf("replication: skipped (%s)\n",
                replication.skip_reason.c_str());
  } else {
    std::printf(
        "replication (1 leader vs %d followers, %ld reads, %zu cores): "
        "leader-only %.4fs vs replicated %.4fs -> %.2fx, equivalent\n",
        replication.followers, replication.requests, replication.cores,
        replication.leader_only_seconds, replication.replicated_seconds,
        replication.speedup);
  }
#endif
  std::printf("select_cache (n=%d, %d rankings, %ld req): cached %.4fs vs "
              "uncached %.4fs -> %.2fx, equivalent; past capacity %d "
              "SELECTs x %d generations: %llu A3 runs, cached %.4fs vs "
              "uncached %.4fs; SELECT greedy %.1fus vs "
              "ilp %.1fus; EVAL n=%d cold %.4fs warm %.4fs\n",
              select_cache.n, select_cache.base_rankings,
              select_cache.requests, select_cache.cached_seconds,
              select_cache.uncached_seconds, cached_speedup,
              select_cache.flood_selects, select_cache.generations,
              static_cast<unsigned long long>(select_cache.a3_recomputes),
              select_cache.flood_cached_seconds,
              select_cache.flood_uncached_seconds,
              select_cache.greedy_mean_us, select_cache.ilp_mean_us,
              select_cache.eval_n, select_cache.eval_cold_seconds,
              select_cache.eval_warm_seconds);
  std::printf("snapshot restore (%zu rankings, %ld bytes): %.4fs vs "
              "replay %.4fs  ->  %.0fx\n",
              snapshot.rankings, snapshot.snapshot_bytes,
              snapshot.restore_seconds, snapshot.replay_seconds,
              restore_speedup);
  std::printf("oplog: append overhead %.2f%% (plain %.4fs vs durable %.4fs); "
              "cold start %.4fs (%llu records, %llu bytes, replay %.3fms) vs "
              "re-stream %.4fs  ->  %.1fx  ->  BENCH_serving.json\n",
              oplog.append_overhead_percent, oplog.plain_seconds,
              oplog.durable_seconds, oplog.coldstart_seconds,
              static_cast<unsigned long long>(oplog.replayed_records),
              static_cast<unsigned long long>(oplog.log_bytes),
              oplog.replay_ms, oplog.restream_seconds,
              oplog.speedup_coldstart_vs_restream);
  return 0;
}
