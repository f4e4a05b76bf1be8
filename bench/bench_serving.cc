// In-process serving-layer benchmark: the ContextManager, Dispatcher,
// result cache and durability layer driven through direct calls, with no
// sockets. Writes BENCH_serving.json. Serving speed over TCP is measured
// out of process by perfbench/.
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
// A `select_cache` section replays a read-heavy RUN/EVAL/SELECT mix
// against an unchanged table with the result cache on and on a
// cache-disabled twin; every response must be byte-identical. It also
// counts A3 runs under a past-capacity SELECT flood, times greedy vs ILP
// SELECT, and times large-n EVAL.
//
// A `snapshot` section measures the snapshot/restore path
// (data/snapshot.h): a table folded from a large Mallows stream is
// snapshotted to disk, restored into a fresh ContextManager, and compared
// against the only alternative a restarted server has — replaying the
// whole profile through the StreamingAccumulator. Restore reads O(n^2)
// bytes where replay folds O(|R| n^2) work, so it wins by orders of
// magnitude at the default 1M-ranking stream; the restored table must
// serve the precedence/Borda methods bit-identically to the pre-snapshot
// context.
//
// An `oplog` section prices the durability layer (serve/durability.h):
// the same batched protocol workload runs plain and with the append-only
// op log attached (one fsync per fold), giving the log's append overhead;
// then a cold start (snapshot floor + log replay) races the only logless
// alternative — re-streaming the whole append history into a fresh
// manager. Both the durable run and the cold-started manager must match
// the plain path bit-for-bit.
//
// The timed phases behind the CI gates (select_cache cached/uncached,
// snapshot restore/replay, oplog plain/durable) run kTimedReps times,
// alternating contenders, and report the median; every rep runs its
// equivalence check.
//
// MANIRANK_BENCH_QUICK=1 shrinks the workload for the CI smoke job.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/fair_select.h"
#include "manirank.h"
#include "serve/durability.h"
#include "serve/result_cache.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace manirank;
using bench::QuickMode;

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

/// Repetitions of every gated timing. A quick-mode phase lasts a few
/// milliseconds, so one run is a single sample of host noise; the bench
/// reports the median.
constexpr int kTimedReps = 5;

/// Median of per-rep timings.
double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

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

  std::vector<double> cached_seconds;
  std::vector<double> uncached_seconds;
  for (int rep = 0; rep < kTimedReps; ++rep) {
    double seconds = 0.0;
    serve::ContextManager cached_manager;
    const std::vector<std::string> cached_responses =
        ReplayMix(&cached_manager, requests, &seconds);
    cached_seconds.push_back(seconds);
    serve::ContextManager uncached_manager;
    uncached_manager.SetResultCacheEnabled(false);
    const std::vector<std::string> uncached_responses =
        ReplayMix(&uncached_manager, requests, &seconds);
    uncached_seconds.push_back(seconds);
    if (cached_responses != uncached_responses) {
      std::fprintf(stderr,
                   "FATAL: cached responses drifted from the uncached twin\n");
      std::abort();
    }
  }
  result.equivalent = true;
  result.cached_seconds = Median(cached_seconds);
  result.uncached_seconds = Median(uncached_seconds);

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

  std::vector<double> restore_seconds;
  std::vector<double> replay_seconds;
  for (int rep = 0; rep < kTimedReps; ++rep) {
    // Contender 1: restore the snapshot into a fresh serving process.
    serve::ContextManager restored;
    Stopwatch timer;
    restored.RestoreTable("t", ReadTableSnapshotFile(path));
    restore_seconds.push_back(timer.Seconds());
    // The restored table must serve bit-identically to the original.
    if (restored.Run("t", "A3").consensus.order() != expected_a3 ||
        restored.Run("t", "A4").consensus.order() != expected_a4) {
      std::fprintf(stderr, "FATAL: restored table drifted from original\n");
      std::abort();
    }
    // Contender 2: replay the profile through the streaming kernel (the
    // fastest replay available — parallel fold, rankings never retained).
    timer.Restart();
    StreamingAccumulator replay_acc(
        result.n, StreamingAccumulator::Track::kBordaAndPrecedence);
    replay_acc.Drain(result.rankings, sample);
    ConsensusContext replayed(replay_acc.Finish(), table);
    replay_seconds.push_back(timer.Seconds());
    if (replayed.RunMethod("A3").consensus.order() != expected_a3) {
      std::fprintf(stderr, "FATAL: replayed A3 drifted from original\n");
      std::abort();
    }
  }
  result.restore_seconds = Median(restore_seconds);
  result.replay_seconds = Median(replay_seconds);
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

  // Median of kTimedReps alternating plain/durable runs on both sides of
  // the overhead ratio: the two runs happen at different instants, the
  // quantity reported is their (small) difference, and the exact-search
  // solve time jitters by more than the sync cost being measured. (The
  // reference run above is equivalence-only.)
  std::vector<double> plain_seconds;
  std::vector<double> durable_seconds;
  for (int rep = 0; rep < kTimedReps; ++rep) {
    const ScenarioResult plain = RunBatchedConcurrent(w, streams);
    CheckEquivalent(w, "oplog_plain", plain, batched);
    plain_seconds.push_back(plain.seconds);
    // Each rep recreates the tables in the same dir: registration starts
    // a fresh floor + log chain, so the dir always holds the last run.
    const ScenarioResult durable =
        RunBatchedDurable(w, streams, dir.string(), &bench);
    CheckEquivalent(w, "oplog_durable", durable, batched);
    durable_seconds.push_back(durable.seconds);
    bench.requests = durable.requests;
  }
  bench.plain_seconds = Median(plain_seconds);
  bench.durable_seconds = Median(durable_seconds);
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

}  // namespace

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
