#ifndef MANIRANK_PERFBENCH_ORACLE_H_
#define MANIRANK_PERFBENCH_ORACLE_H_

// Byte-exact oracle: replays what each connection actually sent through
// an in-process Dispatcher on a fresh ContextManager and compares every
// response the servers gave.

#include <cstdint>
#include <string>
#include <vector>

#include "load.h"
#include "streams.h"

namespace perfbench {

struct OracleOutcome {
  uint64_t compared = 0;
  /// Leader generation after each writer FLUSH (replication workloads).
  std::vector<uint64_t> generation_after_flush;
  /// In-process answer to `final_probe` after the whole replay (empty when
  /// no probe was asked for).
  std::string final_probe_response;
};

/// Mismatches are recorded through result->Fail. Runs up to `threads`
/// replay threads (connections on different tables are independent).
/// `final_probe` is replayed on the first connection's table after that
/// connection's stream.
OracleOutcome RunOracle(const WorkloadPlan& plan,
                        const std::vector<LiveConn>& conns,
                        const std::string& final_probe, size_t threads,
                        LoadResult* result);

}  // namespace perfbench

#endif  // MANIRANK_PERFBENCH_ORACLE_H_
