#include "oracle.h"

#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "serve/context_manager.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

using manirank::serve::ContextManager;
using manirank::serve::Dispatcher;

struct StoredRead {
  const std::string* line = nullptr;
  const std::string* response = nullptr;
};

/// Thread-safe failure sink for the replay threads.
class Mismatches {
 public:
  explicit Mismatches(LoadResult* result) : result_(result) {}
  void Compare(const std::string& line, const std::string& expected,
               const std::string& got) {
    if (expected == got) return;
    std::lock_guard<std::mutex> lock(mu_);
    result_->Fail("oracle mismatch for '" + line.substr(0, 60) +
                  "': expected '" + expected.substr(0, 100) + "' got '" +
                  got.substr(0, 100) + "'");
  }

 private:
  std::mutex mu_;
  LoadResult* result_;
};

void RunThreads(size_t jobs, size_t threads,
                const std::function<void(size_t)>& job) {
  std::vector<std::thread> pool;
  std::mutex mu;
  size_t next = 0;
  for (size_t t = 0; t < std::min(threads, jobs); ++t) {
    pool.emplace_back([&] {
      for (;;) {
        size_t mine = 0;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (next == jobs) return;
          mine = next++;
        }
        job(mine);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace

OracleOutcome RunOracle(const WorkloadPlan& plan,
                        const std::vector<LiveConn>& conns,
                        const std::string& final_probe, size_t threads,
                        LoadResult* result) {
  OracleOutcome outcome;
  ContextManager manager;
  Dispatcher setup(&manager);
  for (const std::string& line : plan.load) setup.Handle(line);
  for (const std::string& line : plan.warm) setup.Handle(line);
  Mismatches mismatches(result);

  if (plan.follower) {
    // Follower reads are checked against the leader replay at the
    // generation they report: bucket them by generation, then evaluate
    // each bucket right after the writer's FLUSH that produced it (before
    // the next APPEND, so a RUN drains nothing the follower lacked).
    std::map<uint64_t, std::vector<StoredRead>> by_generation;
    for (const LiveConn& conn : conns) {
      if (conn.stream->check != CheckMode::kFollower) continue;
      for (const auto& [key, response] : conn.first) {
        by_generation[key >> 24].push_back(
            {&conn.stream->lines[key & 0xFFFFFF], &response});
      }
    }
    const std::string table = plan.table;
    auto evaluate = [&](uint64_t generation) {
      const auto it = by_generation.find(generation);
      if (it == by_generation.end()) return;
      for (const StoredRead& read : it->second) {
        mismatches.Compare(*read.line, setup.Handle(*read.line),
                           *read.response);
        ++outcome.compared;
      }
      by_generation.erase(it);
    };
    evaluate(manager.Stats(table).generation);
    for (const LiveConn& conn : conns) {
      if (conn.stream->check != CheckMode::kSequential) continue;
      const std::vector<std::string>& lines = conn.stream->lines;
      for (size_t s = 0; s < conn.responses.size(); ++s) {
        const std::string& line = lines[s % lines.size()];
        mismatches.Compare(line, setup.Handle(line), conn.responses[s]);
        ++outcome.compared;
        if (VerbOf(line) == kFlush) {
          const uint64_t generation = manager.Stats(table).generation;
          outcome.generation_after_flush.push_back(generation);
          evaluate(generation);
        }
      }
    }
    for (const auto& [generation, reads] : by_generation) {
      result->Fail("follower answered at gen=" + std::to_string(generation) +
                   ", which the leader replay never reached (" +
                   std::to_string(reads.size()) + " responses)");
    }
    return outcome;
  }

  std::vector<std::string> probe_responses(conns.size());
  std::vector<uint64_t> compared(conns.size(), 0);
  RunThreads(conns.size(), threads, [&](size_t c) {
    Dispatcher dispatcher(&manager);
    const LiveConn& conn = conns[c];
    const std::vector<std::string>& lines = conn.stream->lines;
    if (conn.stream->check == CheckMode::kSequential) {
      for (size_t s = 0; s < conn.responses.size(); ++s) {
        const std::string& line = lines[s % lines.size()];
        mismatches.Compare(line, dispatcher.Handle(line), conn.responses[s]);
        ++compared[c];
      }
    } else {
      for (const auto& [key, response] : conn.first) {
        const std::string& line = lines[key & 0xFFFFFF];
        mismatches.Compare(line, dispatcher.Handle(line), response);
        ++compared[c];
      }
    }
    if (c == 0 && !final_probe.empty()) {
      probe_responses[c] = dispatcher.Handle(final_probe);
    }
  });
  for (uint64_t n : compared) outcome.compared += n;
  outcome.final_probe_response = probe_responses[0];
  return outcome;
}

}  // namespace perfbench
