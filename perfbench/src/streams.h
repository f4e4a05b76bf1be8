#ifndef MANIRANK_PERFBENCH_STREAMS_H_
#define MANIRANK_PERFBENCH_STREAMS_H_

// Seeded request streams for the out-of-process load benchmark. A plan is
// a pure function of (workload, seed, seconds): the server only ever sees
// the generated protocol lines, and the same arguments always produce
// byte-identical streams (PlanHash is printed with every result).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// How the load generator verifies a connection's responses.
enum class CheckMode {
  /// History-dependent stream: every response is stored and compared, in
  /// order, against an in-process replay of the same stream.
  kSequential,
  /// Read-only stream over an unchanging table: a response depends only
  /// on the line, so the first response per line is compared against the
  /// replay and every later one against that first.
  kStateless,
  /// Follower reads: like kStateless, keyed by (gen=, line); STATS lines
  /// are only checked for an OK prefix and mined for the generation.
  kFollower,
};

/// One client connection's traffic. Both timed phases consume `lines` in
/// order, wrapping around when the closed-loop phase outruns the pool.
struct ConnStream {
  /// Which server the connection talks to: 0 = leader, 1 = follower.
  int server = 0;
  CheckMode check = CheckMode::kSequential;
  /// Open-loop offered rate of this connection (requests per second).
  double open_rate_rps = 0.0;
  /// Requests sent in the open-loop phase.
  size_t open_count = 0;
  /// False for connections that keep their open-loop schedule during the
  /// closed-loop phase (the replication writer).
  bool closed_loop = true;
  std::vector<std::string> lines;
};

struct WorkloadPlan {
  std::string name;
  /// Lines sent to the leader before timing starts: CREATE, the base
  /// profile's APPEND batches, FLUSH.
  std::vector<std::string> load;
  /// Lines sent after `load` (and after a follower caught up, when there
  /// is one) to fill the caches; set-up ends when their last response
  /// arrives. `warm_server` says which server each goes to.
  std::vector<std::string> warm;
  std::vector<int> warm_server;
  std::vector<ConnStream> conns;
  /// Leader runs with --log-dir; a follower process is spawned.
  bool durable = false;
  bool follower = false;
  /// Table name and shape of the first table (used by the layer probes).
  std::string table;
  int n = 0;
  /// Base-profile rankings per table and the Mallows seed behind them.
  size_t base_rankings = 0;
  uint64_t profile_seed = 0;
  /// Seconds of the open-loop and closed-loop phases.
  double open_seconds = 0.0;
  double closed_seconds = 0.0;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds the plan; throws std::invalid_argument for unknown workloads.
WorkloadPlan MakePlan(const std::string& workload, uint64_t seed,
                      double seconds);

/// FNV-1a 64 over every line of the plan (load, warm, and each
/// connection's stream with its schedule parameters).
uint64_t PlanHash(const WorkloadPlan& plan);

/// The Mallows base profile of one table: `count` rankings over the
/// CYCLIC(n, 2, 3) table, centred on a modal ranking biased towards
/// attribute-0 group 0 so that Make-MR-Fair has repair work to do.
std::vector<std::vector<int>> BaseProfile(int n, size_t count, uint64_t seed);

}  // namespace perfbench

#endif  // MANIRANK_PERFBENCH_STREAMS_H_
