// Leader/follower replication end-to-end: a ServeExecutor leader with
// the durability layer streams snapshot floors + op-log records to a
// FollowerClient feeding a second ContextManager. The contract under
// test is the equivalence invariant of serve/replica.h — after catching
// up to generation G the follower serves RUN / EVAL bit-identically to
// the leader at G, stays converged while the leader keeps folding
// (including across snapshot-truncation chain rotations, which close
// the stream and force a re-handshake), and keeps serving its last
// consistent fold boundary after the leader dies.

#include "serve/replica.h"

#include <gtest/gtest.h>

#ifdef MANIRANK_SERVE_HAVE_SOCKETS

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/context_manager.h"
#include "serve/durability.h"
#include "serve/executor.h"
#include "serve/protocol.h"
#include "serve_test_util.h"

namespace manirank {
namespace {

namespace fs = std::filesystem;
using serve::ContextManager;
using serve::Dispatcher;
using serve::DurabilityManager;
using serve::FollowerClient;
using serve::ServeExecutor;

uint64_t StatsGeneration(const std::string& stats) {
  const size_t at = stats.find(" generation=");
  if (at == std::string::npos) return ~0ull;
  return std::strtoull(stats.c_str() + at + 12, nullptr, 10);
}

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "manirank_repl_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    durability_.emplace(dir_, &leader_manager_);
    durability_->Attach();
    serve::ServerOptions options;
    options.port = 0;
    options.durability = &*durability_;
    leader_.emplace(&leader_manager_, options);
    std::string error;
    ASSERT_TRUE(leader_->Start(&error)) << error;
  }

  void TearDown() override {
    if (follower_.has_value()) follower_->Shutdown();
    if (leader_.has_value()) leader_->Shutdown();
    fs::remove_all(dir_);
  }

  void StartFollower() {
    FollowerClient::Options options;
    options.port = leader_->port();
    options.reconnect_ms = 100;
    options.discover_ms = 100;
    follower_.emplace(&follower_manager_, options);
    std::string error;
    ASSERT_TRUE(follower_->Start(&error)) << error;
  }

  /// STATS through a local dispatcher over the follower's manager — the
  /// same code path manirank_serve --follow serves remotely.
  std::string FollowerStats(const std::string& table) {
    Dispatcher dispatcher(&follower_manager_);
    return dispatcher.Handle("STATS " + table);
  }

  bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return pred();
  }

  /// Caught up = the follower has the table, at the given generation,
  /// with zero reported lag on a live stream.
  bool FollowerConverged(const std::string& table, uint64_t generation) {
    const std::string stats = FollowerStats(table);
    return stats.rfind("OK", 0) == 0 &&
           StatsGeneration(stats) == generation &&
           stats.find(" replica_lag_generations=0 ") != std::string::npos &&
           stats.find(" replica_connected=1") != std::string::npos;
  }

  std::string dir_;
  ContextManager leader_manager_;
  ContextManager follower_manager_;
  std::optional<DurabilityManager> durability_;
  std::optional<ServeExecutor> leader_;
  std::optional<FollowerClient> follower_;
};

TEST_F(ReplicationTest, FollowerCatchesUpAndServesBitIdentically) {
  testing::Client client(leader_->port());
  const std::vector<std::string> setup = {
      "CREATE t CYCLIC 6 2 3",
      "APPEND t 0 1 2 3 4 5 ; 5 4 3 2 1 0",
      "APPEND t 2 0 4 1 5 3",
      "FLUSH t",  // records commit at fold boundaries only
  };
  ASSERT_TRUE(client.Send(testing::JoinRequests(setup)));
  for (const std::string& response : client.ReadLines(setup.size())) {
    ASSERT_EQ(response.rfind("OK", 0), 0u) << response;
  }

  StartFollower();
  ASSERT_TRUE(WaitUntil([&] { return FollowerConverged("t", 3); }))
      << FollowerStats("t");

  // The core contract: RUN-all, EVAL and SELECT byte-identical at
  // generation 3. SELECT is follower-servable (read-only, non-draining)
  // and both sides go through their own result caches — repeats pin the
  // hit path to the same bytes as the cold path.
  ASSERT_TRUE(client.Send("RUN t all\nEVAL t 0 1 2 3 4 5\n"
                          "SELECT t 3 ATTR 0 0 1 3\n"
                          "SELECT t 3 ATTR 0 0 1 3\n"));
  const std::vector<std::string> leader_reads = client.ReadLines(4);
  Dispatcher follower_dispatcher(&follower_manager_);
  EXPECT_EQ(follower_dispatcher.Handle("RUN t all"), leader_reads[0]);
  EXPECT_EQ(follower_dispatcher.Handle("EVAL t 0 1 2 3 4 5"),
            leader_reads[1]);
  EXPECT_EQ(follower_dispatcher.Handle("SELECT t 3 ATTR 0 0 1 3"),
            leader_reads[2]);
  EXPECT_EQ(leader_reads[3], leader_reads[2]);  // leader hit == cold
  EXPECT_EQ(follower_dispatcher.Handle("SELECT t 3 ATTR 0 0 1 3"),
            leader_reads[2]);  // follower hit == leader cold

  // Followers are read-only replicas.
  EXPECT_EQ(follower_dispatcher.Handle("APPEND t 0 1 2 3 4 5")
                .rfind("ERR readonly", 0),
            0u);
  EXPECT_EQ(follower_dispatcher.Handle("REMOVE t 0").rfind("ERR readonly", 0),
            0u);
  const std::string stats = FollowerStats("t");
  EXPECT_NE(stats.find(" role=follower "), std::string::npos) << stats;
}

TEST_F(ReplicationTest, FollowerTailsFoldsAcrossChainRotations) {
  testing::Client client(leader_->port());
  const std::vector<std::string> setup = {
      "CREATE t CYCLIC 6 2 3",
      // GENERATIONS 1: EVERY fold truncates the log into a fresh chain,
      // so each one closes the replication stream — the follower must
      // re-handshake its way through all of them and still converge.
      "SNAPSHOT-POLICY t GENERATIONS 1",
      "APPEND t 0 1 2 3 4 5",
      "FLUSH t",
  };
  ASSERT_TRUE(client.Send(testing::JoinRequests(setup)));
  for (const std::string& response : client.ReadLines(setup.size())) {
    ASSERT_EQ(response.rfind("OK", 0), 0u) << response;
  }
  StartFollower();
  ASSERT_TRUE(WaitUntil([&] { return FollowerConverged("t", 1); }))
      << FollowerStats("t");

  const std::vector<std::string> rotations = {
      "5 4 3 2 1 0", "2 0 4 1 5 3", "3 1 4 0 5 2", "1 2 3 4 5 0"};
  uint64_t generation = 1;
  for (const std::string& ranking : rotations) {
    ASSERT_TRUE(client.Send("APPEND t " + ranking + "\nFLUSH t\n"));
    for (const std::string& response : client.ReadLines(2)) {
      ASSERT_EQ(response.rfind("OK", 0), 0u) << response;
    }
    ++generation;
    ASSERT_TRUE(WaitUntil([&] { return FollowerConverged("t", generation); }))
        << "after fold " << generation << ": " << FollowerStats("t");
    ASSERT_TRUE(client.Send("RUN t all\n"));
    Dispatcher follower_dispatcher(&follower_manager_);
    EXPECT_EQ(follower_dispatcher.Handle("RUN t all"),
              client.ReadLines(1)[0])
        << "diverged at generation " << generation;
  }
}

TEST_F(ReplicationTest, FollowerKeepsServingAfterLeaderDies) {
  testing::Client client(leader_->port());
  const std::vector<std::string> setup = {
      "CREATE t CYCLIC 6 2 3",
      "APPEND t 0 1 2 3 4 5 ; 2 0 4 1 5 3",
      "FLUSH t",
  };
  ASSERT_TRUE(client.Send(testing::JoinRequests(setup)));
  for (const std::string& response : client.ReadLines(setup.size())) {
    ASSERT_EQ(response.rfind("OK", 0), 0u) << response;
  }
  StartFollower();
  ASSERT_TRUE(WaitUntil([&] { return FollowerConverged("t", 2); }))
      << FollowerStats("t");
  Dispatcher follower_dispatcher(&follower_manager_);
  const std::string reference = follower_dispatcher.Handle("RUN t all");
  ASSERT_EQ(reference.rfind("OK", 0), 0u) << reference;

  // The leader goes away entirely (graceful here; the CI smoke covers
  // kill -9 of a whole process — from the follower's end both are the
  // same event: the stream dies).
  leader_->Shutdown();
  leader_.reset();

  // The follower notices the loss and reports it, but keeps serving its
  // last consistent fold boundary — bit-identically.
  ASSERT_TRUE(WaitUntil([&] {
    return FollowerStats("t").find(" replica_connected=0") !=
           std::string::npos;
  })) << FollowerStats("t");
  const std::string stats = FollowerStats("t");
  EXPECT_NE(stats.find(" role=follower "), std::string::npos) << stats;
  EXPECT_EQ(StatsGeneration(stats), 2u) << stats;
  EXPECT_EQ(follower_dispatcher.Handle("RUN t all"), reference);
  EXPECT_EQ(follower_dispatcher.Handle("APPEND t 0 1 2 3 4 5")
                .rfind("ERR readonly", 0),
            0u);
  // Shutdown of the client leaves the replicated tables serving too.
  follower_->Shutdown();
  EXPECT_EQ(follower_dispatcher.Handle("RUN t all"), reference);
}

TEST_F(ReplicationTest, FollowerDiscoversTablesCreatedAfterItStarted) {
  StartFollower();  // nothing to replicate yet
  testing::Client client(leader_->port());
  const std::vector<std::string> setup = {
      "CREATE late CYCLIC 5 2 2",
      "APPEND late 0 1 2 3 4 ; 4 3 2 1 0",
      "FLUSH late",
  };
  ASSERT_TRUE(client.Send(testing::JoinRequests(setup)));
  for (const std::string& response : client.ReadLines(setup.size())) {
    ASSERT_EQ(response.rfind("OK", 0), 0u) << response;
  }
  ASSERT_TRUE(WaitUntil([&] { return FollowerConverged("late", 2); }))
      << FollowerStats("late");
  ASSERT_TRUE(client.Send("RUN late all\n"));
  Dispatcher follower_dispatcher(&follower_manager_);
  EXPECT_EQ(follower_dispatcher.Handle("RUN late all"),
            client.ReadLines(1)[0]);
}

/// Leader-side REPLICATE failure modes through the executor's
/// ScheduleLine interception: a refused handshake answers one ERR line
/// and leaves the connection serving ordinary requests.
TEST_F(ReplicationTest, LeaderRejectsMalformedReplicateAndKeepsServing) {
  testing::Client client(leader_->port());
  ASSERT_TRUE(client.Send("CREATE t CYCLIC 6 2 2\n"
                          "REPLICATE ghost\n"
                          "REPLICATE\n"
                          "REPLICATE t extra\n"
                          // \v and \f are not separators: these name
                          // tables "t\v" and "t\f", which do not exist.
                          "REPLICATE t\v\n"
                          "REPLICATE t\f\n"
                          "STATS t\n"));
  const std::vector<std::string> lines = client.ReadLines(7);
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[0].rfind("OK CREATE t", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("ERR no-such-table", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("ERR bad-request", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3].rfind("ERR bad-request", 0), 0u) << lines[3];
  EXPECT_EQ(lines[4], "ERR no-such-table: no such table: t\v");
  EXPECT_EQ(lines[5], "ERR no-such-table: no such table: t\f");
  EXPECT_EQ(lines[6].rfind("OK STATS t ", 0), 0u) << lines[6];
}

/// A SECONDS snapshot policy is driven only by the executor: the loop's
/// epoll timeout notices the deadline and a worker runs the pass (STATS
/// executes inline and never evaluates policies). The log must keep
/// truncating with no further writes, in both lives of a restarted
/// executor — a dedup flag left set by the first life would silence the
/// second, and one never cleared after a pass would stop the second
/// truncation of each life.
TEST_F(ReplicationTest, SecondsPolicyFiresFromTheExecutorTimerAcrossRestart) {
  const auto truncations = [](const std::string& stats) {
    const size_t at = stats.find(" oplog_truncations=");
    if (at == std::string::npos) return ~0ull;
    return std::strtoull(stats.c_str() + at + 19, nullptr, 10);
  };
  for (int life = 0; life < 2; ++life) {
    SCOPED_TRACE("life " + std::to_string(life));
    if (life == 1) {
      leader_->Shutdown();
      std::string error;
      ASSERT_TRUE(leader_->Start(&error)) << error;
    }
    testing::Client client(leader_->port());
    std::vector<std::string> setup = {"APPEND t 0 1 2 3 4 5",
                                      "SNAPSHOT-POLICY t SECONDS 0.2",
                                      "STATS t"};
    if (life == 0) setup.insert(setup.begin(), "CREATE t CYCLIC 6 2 3");
    ASSERT_TRUE(client.Send(testing::JoinRequests(setup)));
    const std::vector<std::string> lines = client.ReadLines(setup.size());
    ASSERT_EQ(lines.size(), setup.size());
    for (const std::string& line : lines) {
      ASSERT_EQ(line.rfind("OK", 0), 0u) << line;
    }
    const uint64_t before = truncations(lines.back());
    ASSERT_NE(before, ~0ull) << lines.back();
    std::string stats;
    ASSERT_TRUE(WaitUntil([&] {
      if (!client.Send("STATS t\n")) return false;
      stats = client.ReadLines(1).at(0);
      const uint64_t now = truncations(stats);
      return now != ~0ull && now >= before + 2;
    })) << stats;
  }
}

}  // namespace
}  // namespace manirank

#endif  // MANIRANK_SERVE_HAVE_SOCKETS
