#include "streams.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/candidate_table.h"
#include "data/synthetic.h"
#include "mallows/mallows.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using manirank::CandidateTable;
using manirank::Grouping;
using manirank::Ranking;
using manirank::Rng;

/// Independent sub-seed for one use of the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mallows spread around the modal ranking: close enough that the
/// consensus keeps the modal's bias, loose enough that every base ranking
/// differs.
constexpr double kTheta = 0.02;
/// Score bonus of attribute-0 group 0 in the modal ranking. At 0.06 the
/// Borda/Copeland consensus misses parity by a few percent: Make-MR-Fair
/// needs hundreds of swaps at n = 500 (a few ms), not tens of thousands.
constexpr double kBias = 0.06;

/// The modal ranking is the same for every seed, so every seed's profile
/// is about equally unfair and Make-MR-Fair does a similar amount of
/// repair work; the seed picks the samples around it.
manirank::MallowsModel BiasedModel(int n) {
  Rng rng(0x5eedULL);
  std::vector<std::pair<double, int>> scored;
  scored.reserve(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) {
    // CYCLIC tables give candidate c attribute-0 value c % 2; favouring
    // value 0 makes the unconstrained consensus unfair.
    scored.emplace_back(rng.NextDouble() + (c % 2 == 0 ? kBias : 0.0), c);
  }
  std::sort(scored.begin(), scored.end(), std::greater<>());
  std::vector<manirank::CandidateId> order;
  order.reserve(static_cast<size_t>(n));
  for (const auto& [score, c] : scored) order.push_back(c);
  return manirank::MallowsModel(Ranking(std::move(order)), kTheta);
}

std::vector<std::vector<int>> Sample(int n, size_t count, uint64_t seed) {
  const std::vector<Ranking> drawn = BiasedModel(n).SampleMany(count, seed);
  std::vector<std::vector<int>> out;
  out.reserve(drawn.size());
  for (const Ranking& r : drawn) {
    out.emplace_back(r.order().begin(), r.order().end());
  }
  return out;
}

/// Candidate ids as a protocol payload: "c0 c1 ...".
std::string JoinIds(const std::vector<int>& ids) {
  std::string out;
  out.reserve(ids.size() * 4);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) out += ' ';
    out += std::to_string(ids[i]);
  }
  return out;
}

std::string AppendLine(const std::string& table,
                       const std::vector<std::vector<int>>& rankings,
                       size_t begin, size_t end) {
  std::string line = "APPEND " + table;
  for (size_t i = begin; i < end; ++i) {
    line += i == begin ? " " : " ; ";
    line += JoinIds(rankings[i]);
  }
  return line;
}

/// CREATE + base profile in APPEND batches + FLUSH for one table.
void LoadTable(const std::string& table, int n, size_t base,
               uint64_t table_seed, size_t batch,
               std::vector<std::string>* load) {
  load->push_back("CREATE " + table + " CYCLIC " + std::to_string(n) +
                  " 2 3");
  const std::vector<std::vector<int>> rankings =
      Sample(n, base, table_seed);
  for (size_t i = 0; i < base; i += batch) {
    load->push_back(AppendLine(table, rankings, i, std::min(base, i + batch)));
  }
  load->push_back("FLUSH " + table);
}

/// Sizes an open-loop phase and a pool that the closed loop may cycle.
void Schedule(ConnStream* conn, double rate, double open_seconds) {
  conn->open_rate_rps = rate;
  conn->open_count =
      std::max<size_t>(1, static_cast<size_t>(std::llround(rate * open_seconds)));
}

/// One of the eight fixed read_mix SELECT shapes (n = 1000; attribute 0
/// has 2 groups of 500, attribute 1 three of ~333, the intersection six
/// of ~166), all feasible.
const char* const kReadMixSelects[] = {
    "10",
    "20 ATTR 0 1 10 10",
    "50 ATTR 1 2 10 50",
    "30 INTER 5 5 30",
    "100 ATTR 0 1 40 60",
    "40 ATTR 1 0 10 20 ATTR 1 1 10 20",
    "25 INTER 0 0 5 INTER 3 5 25",
    "60 ATTR 0 0 20 40 ATTR 1 1 15 60",
};

WorkloadPlan ReadMix(uint64_t seed, double open_s, double closed_s) {
  WorkloadPlan plan;
  plan.name = "read_mix";
  plan.table = "rm";
  plan.n = 1000;
  plan.base_rankings = 2000;
  plan.profile_seed = SubSeed(seed, 1);
  LoadTable("rm", plan.n, plan.base_rankings, SubSeed(seed, 2), 100, &plan.load);
  const std::vector<std::vector<int>> probe =
      Sample(plan.n, 1, SubSeed(seed, 3));
  plan.warm = {"RUN rm A3", "RUN rm A4"};
  for (const char* shape : kReadMixSelects) {
    plan.warm.push_back(std::string("SELECT rm ") + shape);
  }
  plan.warm.push_back("EVAL rm " + JoinIds(probe[0]));
  plan.warm.push_back("RUN rm A3");
  plan.warm_server.assign(plan.warm.size(), 0);
  constexpr double kRate = 6400.0;
  for (int c = 0; c < 4; ++c) {
    ConnStream conn;
    conn.check = CheckMode::kStateless;
    Schedule(&conn, kRate / 4, open_s);
    Rng rng(SubSeed(seed, 10 + static_cast<uint64_t>(c)));
    const size_t pool = conn.open_count;
    std::vector<int> kinds(pool);
    size_t evals = 0;
    for (int& kind : kinds) {
      // 40% EVAL, 20% each RUN A3, RUN A4, SELECT.
      const uint64_t r = rng.NextUint64(10);
      kind = r < 4 ? 0 : r < 6 ? 1 : r < 8 ? 2 : 3;
      evals += kind == 0;
    }
    const std::vector<std::vector<int>> submitted = Sample(
        plan.n, evals, SubSeed(seed, 20 + static_cast<uint64_t>(c)));
    size_t next_eval = 0;
    for (int kind : kinds) {
      switch (kind) {
        case 0:
          conn.lines.push_back("EVAL rm " + JoinIds(submitted[next_eval++]));
          break;
        case 1:
          conn.lines.push_back("RUN rm A3");
          break;
        case 2:
          conn.lines.push_back("RUN rm A4");
          break;
        default:
          conn.lines.push_back(std::string("SELECT rm ") +
                               kReadMixSelects[rng.NextUint64(8)]);
      }
    }
    plan.conns.push_back(std::move(conn));
  }
  plan.open_seconds = open_s;
  plan.closed_seconds = closed_s;
  return plan;
}

WorkloadPlan IngestFold(uint64_t seed, double open_s, double closed_s) {
  WorkloadPlan plan;
  plan.name = "ingest_fold";
  plan.durable = true;
  plan.table = "if0";
  plan.n = 500;
  plan.base_rankings = 2000;
  plan.profile_seed = SubSeed(seed, 1);
  constexpr double kRate = 400.0;
  // 64 cycles of 4 x APPEND(16) + RUN: the closed loop wraps around and
  // re-appends the same rankings, which the server treats as new ones.
  constexpr size_t kCycles = 64;
  for (int c = 0; c < 4; ++c) {
    const std::string table = "if" + std::to_string(c);
    LoadTable(table, plan.n, plan.base_rankings, SubSeed(seed, 2 + static_cast<uint64_t>(c)), 200, &plan.load);
    plan.warm.push_back("RUN " + table + " A4");
    ConnStream conn;
    conn.check = CheckMode::kSequential;
    Schedule(&conn, kRate / 4, open_s);
    const std::vector<std::vector<int>> fresh =
        Sample(plan.n, kCycles * 64, SubSeed(seed, 10 + static_cast<uint64_t>(c)));
    for (size_t cycle = 0; cycle < kCycles; ++cycle) {
      for (size_t b = 0; b < 4; ++b) {
        const size_t first = cycle * 64 + b * 16;
        conn.lines.push_back(AppendLine(table, fresh, first, first + 16));
      }
      conn.lines.push_back("RUN " + table + " A4");
    }
    plan.conns.push_back(std::move(conn));
  }
  plan.warm.push_back("RUN if0 A4");
  plan.warm_server.assign(plan.warm.size(), 0);
  plan.open_seconds = open_s;
  plan.closed_seconds = closed_s;
  return plan;
}

/// A feasible SELECT clause list over CYCLIC(300, 2, 3). Single-grouping
/// queries are greedy-certified; `trap` builds the multi-grouping shape
/// that greedy's phase A walks into (attribute-0 group X capped at b
/// while an intersection group inside X needs b members and an
/// attribute-1 group partly inside X needs c), which sends the query to
/// branch and bound.
std::string SelectClauses(const CandidateTable& table, Rng* rng, bool trap,
                          int* k_out) {
  const Grouping& a0 = table.attribute_grouping(0);
  const Grouping& a1 = table.attribute_grouping(1);
  const Grouping& inter = table.intersection_grouping();
  std::string out;
  auto clause = [&](const std::string& head, int g, int lo, int hi) {
    out += " " + head + " " + std::to_string(g) + " " + std::to_string(lo) +
           " " + std::to_string(hi);
  };
  if (trap) {
    const int x = static_cast<int>(rng->NextUint64(2));
    // An intersection group inside X, and an attribute-1 group other than
    // that group's own attribute-1 value.
    const manirank::CandidateId in_x =a0.members[x][rng->NextUint64(a0.members[x].size())];
    const int h = inter.group_of[in_x];
    const int y_h = a1.group_of[in_x];
    const int y = (y_h + 1 + static_cast<int>(rng->NextUint64(2))) % 3;
    const int b = 3 + static_cast<int>(rng->NextUint64(6));
    const int c = 3 + static_cast<int>(rng->NextUint64(6));
    const int k = b + c + 5 + static_cast<int>(rng->NextUint64(15));
    *k_out = k;
    clause("ATTR 0", x, 0, b);
    clause("INTER", h, b, b);
    clause("ATTR 1", y, c, k);
    return out;
  }
  const int k = 5 + static_cast<int>(rng->NextUint64(56));
  *k_out = k;
  const uint64_t shape = rng->NextUint64(3);
  const Grouping& grouping = shape == 0 ? a0 : shape == 1 ? a1 : inter;
  const std::string head = shape == 0 ? "ATTR 0" : shape == 1 ? "ATTR 1" : "INTER";
  const int groups = grouping.num_groups();
  // One or two constrained groups, always leaving one group free, with
  // minimums of at most k/3: every group has >= 50 members and k <= 60,
  // so the free group can always fill the slate.
  const int count =
      1 + static_cast<int>(rng->NextUint64(static_cast<uint64_t>(std::min(2, groups - 1))));
  const int first = static_cast<int>(rng->NextUint64(static_cast<uint64_t>(groups)));
  for (int i = 0; i < count; ++i) {
    const int g = (first + i) % groups;
    const int lo = static_cast<int>(rng->NextUint64(static_cast<uint64_t>(k / 3 + 1)));
    const int hi = lo + static_cast<int>(rng->NextUint64(static_cast<uint64_t>(k - lo + 1)));
    clause(head, g, lo, std::max(hi, lo));
  }
  return out;
}

WorkloadPlan SelectFlood(uint64_t seed, double open_s, double closed_s) {
  WorkloadPlan plan;
  plan.name = "select_flood";
  plan.table = "sf0";
  plan.n = 300;
  plan.base_rankings = 300;
  plan.profile_seed = SubSeed(seed, 1);
  const CandidateTable table = manirank::MakeCyclicTable(plan.n, 2, 3);
  constexpr double kRate = 1800.0;
  // The closed loop may run several times faster than the open loop;
  // the pool wraps (at a later generation) if it runs out.
  constexpr size_t kPool = 8000;
  for (int c = 0; c < 4; ++c) {
    const std::string t = "sf" + std::to_string(c);
    LoadTable(t, plan.n, plan.base_rankings, SubSeed(seed, 2 + static_cast<uint64_t>(c)), 300, &plan.load);
    plan.warm.push_back("SELECT " + t + " 10");
    ConnStream conn;
    conn.check = CheckMode::kSequential;
    Schedule(&conn, kRate / 4, open_s);
    Rng rng(SubSeed(seed, 10 + static_cast<uint64_t>(c)));
    const std::vector<std::vector<int>> fresh =
        Sample(plan.n, kPool / 200 + 1, SubSeed(seed, 20 + static_cast<uint64_t>(c)));
    size_t appended = 0;
    while (conn.lines.size() < kPool) {
      if (conn.lines.size() % 200 == 199) {
        // Invalidate this table's cache: one small APPEND, then FLUSH.
        conn.lines.push_back("APPEND " + t + " " + JoinIds(fresh[appended++]));
        conn.lines.push_back("FLUSH " + t);
        continue;
      }
      int k = 0;
      const bool trap = rng.NextUint64(10) == 0;
      const std::string clauses = SelectClauses(table, &rng, trap, &k);
      conn.lines.push_back("SELECT " + t + " " + std::to_string(k) + clauses);
    }
    plan.conns.push_back(std::move(conn));
  }
  plan.warm.push_back("SELECT sf0 10");
  plan.warm_server.assign(plan.warm.size(), 0);
  plan.open_seconds = open_s;
  plan.closed_seconds = closed_s;
  return plan;
}

WorkloadPlan ReplicaFollow(uint64_t seed, double open_s, double closed_s) {
  WorkloadPlan plan;
  plan.name = "replica_follow";
  plan.durable = true;
  plan.follower = true;
  plan.table = "rf";
  // n = 300 keeps the follower's A3 recompute after each fold well under
  // a millisecond, so concurrent misses on the same fold (there is no
  // single-flight fill yet) cost little and the run is about replication.
  plan.n = 300;
  plan.base_rankings = 2000;
  plan.profile_seed = SubSeed(seed, 1);
  LoadTable("rf", plan.n, plan.base_rankings, SubSeed(seed, 2), 200, &plan.load);
  const std::vector<std::vector<int>> probe =
      Sample(plan.n, 1, SubSeed(seed, 3));
  plan.warm = {"RUN rf A3", "EVAL rf " + JoinIds(probe[0]), "RUN rf A3"};
  plan.warm_server = {1, 1, 1};
  // Writer: APPEND(16) + FLUSH cycles to the leader at a fixed rate, in
  // both phases. Every fold invalidates the follower's A3 entries and,
  // with no single-flight fill, each read arriving before the recompute
  // lands recomputes too; a slow fold rate keeps that herd (whose size
  // follows the host's scheduling delays) a small share of the CPU.
  constexpr size_t kCycles = 256;
  ConnStream writer;
  writer.check = CheckMode::kSequential;
  writer.closed_loop = false;
  Schedule(&writer, 10.0, open_s);
  const std::vector<std::vector<int>> fresh =
      Sample(plan.n, kCycles * 16, SubSeed(seed, 10));
  for (size_t cycle = 0; cycle < kCycles; ++cycle) {
    writer.lines.push_back(AppendLine("rf", fresh, cycle * 16, cycle * 16 + 16));
    writer.lines.push_back("FLUSH rf");
  }
  plan.conns.push_back(std::move(writer));
  // Readers on the follower: 40% RUN A3, 30% EVAL, 30% STATS.
  constexpr size_t kPool = 1500;
  for (int c = 0; c < 3; ++c) {
    ConnStream reader;
    reader.server = 1;
    reader.check = CheckMode::kFollower;
    Schedule(&reader, 300.0, open_s);
    Rng rng(SubSeed(seed, 20 + static_cast<uint64_t>(c)));
    const std::vector<std::vector<int>> submitted =
        Sample(plan.n, kPool * 3 / 10 + 1, SubSeed(seed, 30 + static_cast<uint64_t>(c)));
    size_t next_eval = 0;
    for (size_t i = 0; i < kPool; ++i) {
      const uint64_t r = rng.NextUint64(10);
      if (r < 4) {
        reader.lines.push_back("RUN rf A3");
      } else if (r < 7 && next_eval < submitted.size()) {
        reader.lines.push_back("EVAL rf " + JoinIds(submitted[next_eval++]));
      } else {
        reader.lines.push_back("STATS rf");
      }
    }
    plan.conns.push_back(std::move(reader));
  }
  plan.open_seconds = open_s;
  plan.closed_seconds = closed_s;
  return plan;
}

void HashInto(uint64_t* h, const std::string& s) {
  for (unsigned char ch : s) {
    *h ^= ch;
    *h *= 0x100000001b3ULL;
  }
  *h ^= '\n';
  *h *= 0x100000001b3ULL;
}

}  // namespace

std::vector<std::vector<int>> BaseProfile(int n, size_t count, uint64_t seed) {
  return Sample(n, count, seed);
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "read_mix", "ingest_fold", "select_flood", "replica_follow"};
  return names;
}

WorkloadPlan MakePlan(const std::string& workload, uint64_t seed,
                      double seconds) {
  // 60% of the run is the open-loop (latency) phase, 40% closed-loop.
  const double open_s = seconds * 0.6;
  const double closed_s = seconds * 0.4;
  if (workload == "read_mix") return ReadMix(seed, open_s, closed_s);
  if (workload == "ingest_fold") return IngestFold(seed, open_s, closed_s);
  if (workload == "select_flood") return SelectFlood(seed, open_s, closed_s);
  if (workload == "replica_follow") return ReplicaFollow(seed, open_s, closed_s);
  throw std::invalid_argument("unknown workload: " + workload);
}

uint64_t PlanHash(const WorkloadPlan& plan) {
  uint64_t h = 0xcbf29ce484222325ULL;
  HashInto(&h, plan.name);
  for (const std::string& line : plan.load) HashInto(&h, line);
  for (size_t i = 0; i < plan.warm.size(); ++i) {
    HashInto(&h, std::to_string(plan.warm_server[i]) + " " + plan.warm[i]);
  }
  for (const ConnStream& conn : plan.conns) {
    HashInto(&h, std::to_string(conn.server) + " " +
                     std::to_string(static_cast<int>(conn.check)) + " " +
                     std::to_string(conn.open_rate_rps) + " " +
                     std::to_string(conn.open_count) + " " +
                     std::to_string(conn.closed_loop));
    for (const std::string& line : conn.lines) HashInto(&h, line);
  }
  return h;
}

}  // namespace perfbench
