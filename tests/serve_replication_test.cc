// Leader/follower replication end-to-end: a ServeExecutor leader with
// the durability layer streams snapshot floors + op-log records to a
// FollowerClient feeding a second ContextManager. The contract under
// test is the equivalence invariant of serve/replica.h — after catching
// up to generation G the follower serves RUN / EVAL bit-identically to
// the leader at G, stays converged while the leader keeps folding
// (including across snapshot-truncation chain rotations, which close
// the stream and force a re-handshake, and across a leader log whose
// head is already inside its floor), and keeps serving its last
// consistent fold boundary after the leader dies.

#include "serve/replica.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "data/snapshot.h"
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
using serve::ReadOnlyTableError;
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

  /// Ends the leader's first life; its files stay in dir_.
  void StopLeader() {
    stopped_port_ = leader_->port();
    leader_->Shutdown();
    leader_.reset();
    leader_manager_.SetDurabilityHook(nullptr);
    durability_.reset();
  }

  /// Boots the leader's second life from dir_ alone: a fresh manager
  /// cold-started by a fresh DurabilityManager, served by a new executor
  /// on the stopped leader's port, where the follower reconnects.
  void StartLeaderFromDisk() {
    restarted_manager_.emplace();
    restarted_durability_.emplace(dir_, &*restarted_manager_);
    cold_start_ = restarted_durability_->ColdStart();
    restarted_durability_->Attach();
    serve::ServerOptions options;
    options.port = stopped_port_;
    options.durability = &*restarted_durability_;
    leader_.emplace(&*restarted_manager_, options);
    std::string error;
    ASSERT_TRUE(leader_->Start(&error)) << error;
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
  /// The leader's second life (StartLeaderFromDisk).
  std::optional<ContextManager> restarted_manager_;
  std::optional<DurabilityManager> restarted_durability_;
  std::vector<DurabilityManager::RestoredTable> cold_start_;
  int stopped_port_ = 0;
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

  // Every rotation swaps a new floor in under live traffic. The swap is
  // one step: the table never goes missing, and it is a follower the
  // whole time, so an external APPEND can never land in it.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> appends{0};
  std::atomic<uint64_t> accepted_appends{0};
  std::atomic<uint64_t> other_append_errors{0};
  std::atomic<uint64_t> stats_reads{0};
  std::atomic<uint64_t> missing_tables{0};
  std::thread appender([&] {
    while (!stop.load()) {
      try {
        follower_manager_.Append("t", {Ranking({0, 1, 2, 3, 4, 5})});
        ++accepted_appends;
      } catch (const ReadOnlyTableError&) {
      } catch (const std::exception&) {
        ++other_append_errors;
      }
      ++appends;
      std::this_thread::yield();
    }
  });
  std::thread reader([&] {
    while (!stop.load()) {
      try {
        follower_manager_.Stats("t");
      } catch (const std::exception&) {
        ++missing_tables;
      }
      ++stats_reads;
      std::this_thread::yield();
    }
  });

  const std::vector<std::string> rotations = {
      "5 4 3 2 1 0", "2 0 4 1 5 3", "3 1 4 0 5 2", "1 2 3 4 5 0",
      "4 0 5 1 3 2", "0 2 1 4 3 5", "5 3 1 0 2 4", "2 4 0 5 1 3",
      "1 5 2 3 0 4", "3 0 2 5 4 1", "4 5 3 2 0 1", "0 3 5 1 4 2"};
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
  stop.store(true);
  appender.join();
  reader.join();
  EXPECT_GT(appends.load(), 0u);
  EXPECT_GT(stats_reads.load(), 0u);
  EXPECT_EQ(accepted_appends.load(), 0u);
  EXPECT_EQ(other_append_errors.load(), 0u);
  EXPECT_EQ(missing_tables.load(), 0u);
}

TEST_F(ReplicationTest, FollowerSkipsALeaderLogHeadAlreadyInsideTheFloor) {
  testing::Client client(leader_->port());
  const std::vector<std::string> setup = {
      "CREATE t CYCLIC 6 2 3",
      "APPEND t 0 1 2 3 4 5 ; 5 4 3 2 1 0",
      "FLUSH t",
      "APPEND t 2 0 4 1 5 3",
      "REMOVE t 0",
      "FLUSH t",
  };
  ASSERT_TRUE(client.Send(testing::JoinRequests(setup)));
  for (const std::string& response : client.ReadLines(setup.size())) {
    ASSERT_EQ(response.rfind("OK", 0), 0u) << response;
  }
  // The crash image of OpLogTest.CrashWindowBetweenSnapshotAndTruncation-
  // Heals, made on the live leader: a new floor lands over t.snap but the
  // log is not truncated, so every record in it is already inside the
  // floor. The folds below then append past the floor.
  WriteTableSnapshotFile(
      dir_ + "/t.snap",
      leader_manager_.SnapshotTable("t", serve::SnapshotMode::kExact));
  const std::vector<std::string> more = {"APPEND t 3 1 4 0 5 2", "FLUSH t"};
  ASSERT_TRUE(client.Send(testing::JoinRequests(more)));
  for (const std::string& response : client.ReadLines(more.size())) {
    ASSERT_EQ(response.rfind("OK", 0), 0u) << response;
  }

  // The handshake ships that floor and log: the follower must skip the
  // log's head and apply its tail.
  StartFollower();
  ASSERT_TRUE(WaitUntil([&] { return FollowerConverged("t", 5); }))
      << FollowerStats("t");
  ASSERT_TRUE(client.Send("RUN t all\n"));
  Dispatcher follower_dispatcher(&follower_manager_);
  EXPECT_EQ(follower_dispatcher.Handle("RUN t all"), client.ReadLines(1)[0]);

  // Now start a leader on that image: its cold start skips the same head,
  // keeps appending to the same log, and the re-handshaked follower
  // converges on it too.
  StopLeader();
  StartLeaderFromDisk();
  ASSERT_EQ(cold_start_.size(), 1u);
  EXPECT_GT(cold_start_[0].skipped_records, 0u);
  EXPECT_GT(cold_start_[0].replayed_records, 0u);
  testing::Client restarted(leader_->port());
  const std::vector<std::string> last = {"REMOVE t 1", "FLUSH t"};
  ASSERT_TRUE(restarted.Send(testing::JoinRequests(last)));
  for (const std::string& response : restarted.ReadLines(last.size())) {
    ASSERT_EQ(response.rfind("OK", 0), 0u) << response;
  }
  ASSERT_TRUE(WaitUntil([&] { return FollowerConverged("t", 6); }))
      << FollowerStats("t");
  ASSERT_TRUE(restarted.Send("RUN t all\n"));
  EXPECT_EQ(follower_dispatcher.Handle("RUN t all"),
            restarted.ReadLines(1)[0]);
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
/// A std::ostream sink the follower's log thread writes while the test
/// thread reads it.
class SyncLog : public std::streambuf {
 public:
  std::string Text() const {
    std::lock_guard<std::mutex> lock(mu_);
    return text_;
  }

 protected:
  int overflow(int c) override {
    if (c != traits_type::eof()) {
      const char ch = static_cast<char>(c);
      xsputn(&ch, 1);
    }
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::lock_guard<std::mutex> lock(mu_);
    text_.append(s, static_cast<size_t>(n));
    return n;
  }

 private:
  mutable std::mutex mu_;
  std::string text_;
};

/// A header whose byte count carries a sign must be refused, not read
/// as 2^64 - 1 (which would leave the follower waiting on a live link
/// for bytes that never come). The fake leader answers TABLES with one
/// table, answers REPLICATE with "snapshot_bytes=-1", and keeps every
/// connection open.
TEST(ReplicationHandshakeTest, FollowerRefusesASignedByteCount) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 16), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  std::atomic<bool> stop{false};
  std::vector<int> conns;
  std::mutex conns_mu;
  std::vector<std::thread> handlers;
  std::thread acceptor([&] {
    for (;;) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0 || stop.load()) {
        if (fd >= 0) ::close(fd);
        return;
      }
      std::lock_guard<std::mutex> lock(conns_mu);
      conns.push_back(fd);
      handlers.emplace_back([fd] {
        std::string buffer;
        char chunk[256];
        for (;;) {
          const ssize_t n = ::read(fd, chunk, sizeof(chunk));
          if (n <= 0) return;
          buffer.append(chunk, static_cast<size_t>(n));
          for (size_t nl; (nl = buffer.find('\n')) != std::string::npos;) {
            const std::string line = buffer.substr(0, nl);
            buffer.erase(0, nl + 1);
            const std::string reply =
                line == "TABLES" ? "OK TABLES 1 t\n"
                : line == "REPLICATE t"
                    ? "OK REPLICATE t snapshot_bytes=-1 log_bytes=0\n"
                    : "ERR bad-request\n";
            if (::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL) < 0) {
              return;
            }
          }
        }
      });
    }
  });

  SyncLog sink;
  std::ostream log(&sink);
  ContextManager follower_manager;
  FollowerClient::Options options;
  options.port = ntohs(addr.sin_port);
  options.log = &log;
  options.reconnect_ms = 100;
  options.discover_ms = 100;
  std::optional<FollowerClient> follower;
  follower.emplace(&follower_manager, options);
  ASSERT_TRUE(follower->Start());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  const std::string refused =
      "follower: table 't': leader refused replication: OK REPLICATE t "
      "snapshot_bytes=-1 log_bytes=0";
  while (sink.Text().find(refused) == std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(sink.Text().find(refused), std::string::npos) << sink.Text();
  EXPECT_FALSE(follower_manager.Has("t"));

  follower->Shutdown();
  stop.store(true);
  ::shutdown(listener, SHUT_RDWR);
  ::close(listener);
  acceptor.join();
  {
    std::lock_guard<std::mutex> lock(conns_mu);
    for (const int fd : conns) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : handlers) t.join();
  for (const int fd : conns) ::close(fd);
}

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
