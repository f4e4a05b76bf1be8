#ifndef MANIRANK_PERFBENCH_LADDER_H_
#define MANIRANK_PERFBENCH_LADDER_H_

// The traced run: the layer ladder (the same seeded requests replayed
// through the core functions, ContextManager, Dispatcher::Handle and the
// TCP server, one connection at a time) and fixed-size layer probes.

#include <map>
#include <string>
#include <vector>

#include "streams.h"

namespace perfbench {

struct TraceSetup {
  const WorkloadPlan* plan = nullptr;
  std::string serve_bin;
  std::string self_exe;
  std::vector<int> server_cpus;
  /// Scratch directory for the ladder's servers and the probes' logs.
  std::string work_dir;
};

/// Replays the ladder sample through the four rungs, writes every span
/// (one JSON object per line) to `span_path`, and fills the executor /
/// protocol / manager / core self times, ladder.residue_ratio and
/// trace.overhead_ratio. Prints the per-verb breakdown to `report`.
void RunLadder(const TraceSetup& setup, const std::string& span_path,
               std::map<std::string, double>* metrics,
               std::vector<std::string>* report);

/// Fixed-size probes of the core, LP, durability and replication layers
/// on the workload's table shape.
void RunProbes(const TraceSetup& setup, std::map<std::string, double>* metrics);

/// Microseconds per ranking of one 64-ranking AddRankingsBatch fold at n
/// candidates, under whatever MANIRANK_KERNEL this process runs with.
double ProbeFoldUsPerRanking(int n);

}  // namespace perfbench

#endif  // MANIRANK_PERFBENCH_LADDER_H_
