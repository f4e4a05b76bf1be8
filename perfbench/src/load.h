#ifndef MANIRANK_PERFBENCH_LOAD_H_
#define MANIRANK_PERFBENCH_LOAD_H_

// The timed load phases and the response bookkeeping the oracle checks.

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "streams.h"

namespace perfbench {

enum Verb { kRun, kAppend, kEval, kSelect, kFlush, kStats, kOther, kNumVerbs };
const char* VerbName(int verb);
Verb VerbOf(const std::string& line);

/// Value of the " key=" token in a response line (0 when absent).
uint64_t FieldU64(const std::string& line, const std::string& key);

struct Inflight {
  size_t seq = 0;
  int64_t due_ns = 0;
  Verb verb = kOther;
};

/// One live client connection of the load generator.
struct LiveConn {
  const ConnStream* stream = nullptr;
  int fd = -1;
  /// Requests sent so far; the next request is lines[sent % size].
  size_t sent = 0;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<Inflight> inflight;
  // Per-phase schedule.
  bool open_mode = true;
  size_t phase_target = 0;
  size_t phase_sent = 0;
  double interval_ns = 0.0;
  double offset_ns = 0.0;
  /// kSequential: every response, indexed by seq.
  std::vector<std::string> responses;
  /// kStateless / kFollower: first response per key (see CheckMode).
  std::unordered_map<uint64_t, std::string> first;
};

/// Key of a read-only response: the line's pool index, plus the reported
/// generation for follower reads.
inline uint64_t ReadKey(uint64_t generation, size_t index) {
  return (generation << 24) | static_cast<uint64_t>(index);
}

struct LoadResult {
  /// Open-loop latencies from each request's due time, in ms.
  std::vector<double> open_ms;
  std::array<std::vector<double>, kNumVerbs> open_ms_by_verb;
  /// How late the generator enqueued each open-loop request, in ms.
  std::vector<double> late_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Due time of each open-loop sample (parallel to open_ms).
  std::vector<int64_t> open_due_ns;
  int64_t open_start_ns = 0;
  /// Closed-loop phase: completion time of each response inside the
  /// window.
  std::vector<int64_t> closed_done_ns;
  int64_t closed_start_ns = 0;
  double closed_seconds = 0.0;
  /// Replication: ack time of each leader FLUSH, and every follower STATS
  /// observation (time, generation).
  std::vector<int64_t> flush_acks;
  std::vector<std::pair<int64_t, uint64_t>> follower_generations;
  uint64_t lag_generations_max = 0;
  uint64_t selects = 0;
  uint64_t ilp_selects = 0;

  void Fail(const std::string& why);
};

/// Runs one timed phase over `conns` (already connected). `open` selects
/// the open-loop schedule; otherwise closed-loop connections keep one
/// request outstanding until `seconds` pass.
void RunPhase(std::vector<LiveConn>* conns, bool open, double seconds,
              LoadResult* result);

/// Splits a phase into one-second windows (at least one) by each sample's
/// time and returns the values falling into each; with `values` empty the
/// windows hold one 0 per sample (for counting).
std::vector<std::vector<double>> ByWindow(const std::vector<double>& values,
                                          const std::vector<int64_t>& times_ns,
                                          int64_t start_ns, double seconds);

/// Nearest-rank percentile (p in [0,1]) of unsorted samples.
double Percentile(std::vector<double> samples, double p);
/// True when `count` samples leave at least 10 beyond percentile p.
bool PercentileValid(size_t count, double p);

}  // namespace perfbench

#endif  // MANIRANK_PERFBENCH_LOAD_H_
