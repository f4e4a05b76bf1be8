// Scheduling-focused tests for the ServeExecutor (serve/executor.h): a
// 256-connection pipelined burst on its one epoll loop that must stay
// bit-identical to the synchronous Dispatcher, the METRICS response
// surface, file-descriptor exhaustion (a loud startup failure that leaks
// no fd; an idle, not spinning, loop on a full fd table), and the
// weighted-fair-queue guarantee that a saturated table cannot starve a
// light table's request behind its backlog.

#include "serve/executor.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/context_manager.h"
#include "serve/protocol.h"
#include "serve_test_util.h"
#include "test_util.h"

namespace manirank {
namespace {

using serve::ContextManager;
using serve::Dispatcher;
using serve::ServeExecutor;
using serve::ServerOptions;
using testing::Client;
using testing::SyncReference;

/// Raises RLIMIT_NOFILE toward the hard limit and returns how many
/// loopback connections the burst test can afford: each costs two fds
/// (client + accepted), plus slack for gtest, listeners, and pipes.
size_t AffordableConnections(size_t wanted) {
  struct rlimit limit;
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 64;
  rlim_t target = limit.rlim_max == RLIM_INFINITY
                      ? static_cast<rlim_t>(4096)
                      : std::min<rlim_t>(limit.rlim_max, 4096);
  if (limit.rlim_cur < target) {
    limit.rlim_cur = target;
    ::setrlimit(RLIMIT_NOFILE, &limit);
    ::getrlimit(RLIMIT_NOFILE, &limit);
  }
  const rlim_t slack = 96;
  if (limit.rlim_cur <= slack) return 8;
  const size_t affordable = static_cast<size_t>((limit.rlim_cur - slack) / 2);
  return std::min(wanted, affordable);
}

/// Each connection owns one table, so every response is deterministic
/// per connection no matter how the loops interleave the streams.
std::vector<std::string> PerConnectionWorkload(size_t index) {
  const std::string table = "burst" + std::to_string(index);
  return {
      "CREATE " + table + " CYCLIC 6 2 2",
      "APPEND " + table + " 0 1 2 3 4 5 ; 5 4 3 2 1 0",
      "RUN " + table + " A3",
      "STATS " + table,
      "REMOVE " + table + " 0",
      "FLUSH " + table,
      "STATS " + table,
      "DROP " + table,
  };
}

/// 256 concurrent pipelined connections against the executor's one
/// event loop. Every connection's response stream must be bit-identical
/// to a synchronous replay of its own requests.
TEST(ServeSchedulingTest, BurstBitIdentical) {
  ContextManager manager;
  ServerOptions options;
  options.workers = 3;
  ServeExecutor server(&manager, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const size_t kConnections = AffordableConnections(256);
  ASSERT_GE(kConnections, 8u);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kConnections);
  for (size_t i = 0; i < kConnections; ++i) {
    clients.emplace_back([&, i] {
      const std::vector<std::string> requests = PerConnectionWorkload(i);
      ContextManager reference_manager;
      const std::vector<std::string> expected =
          SyncReference(requests, &reference_manager);
      Client client(static_cast<int>(server.port()));
      if (!client.Send(testing::JoinRequests(requests))) {
        mismatches.fetch_add(1);
        return;
      }
      client.HalfClose();
      const std::vector<std::string> received = client.ReadLinesUntilEof();
      if (received != expected) mismatches.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0) << "of " << kConnections << " connections";

  // The accept counter must account for every connection.
  Client probe(static_cast<int>(server.port()));
  ASSERT_TRUE(probe.Send("METRICS\n"));
  const std::vector<std::string> metrics = probe.ReadLines(1);
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].rfind("OK METRICS poller=", 0), 0u) << metrics[0];
  EXPECT_NE(metrics[0].find(" accepted=" +
                            std::to_string(kConnections + 1) + " "),
            std::string::npos)
      << metrics[0];
  server.Shutdown();
}

/// METRICS is only answerable by the executor front end; the synchronous
/// Dispatcher (stdin / --script replay) reports unavailable.
TEST(ServeSchedulingTest, MetricsSurface) {
  ContextManager manager;
  Dispatcher sync_dispatcher(&manager);
  EXPECT_EQ(sync_dispatcher.Handle("METRICS").rfind("ERR unavailable:", 0),
            0u);
  EXPECT_EQ(sync_dispatcher.Handle("METRICS now").rfind("ERR bad-request:", 0),
            0u);

  ServerOptions options;
  options.workers = 2;
  ServeExecutor server(&manager, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client(static_cast<int>(server.port()));
  ASSERT_TRUE(client.Send("STATS nosuch\nMETRICS\n"));
  const std::vector<std::string> lines = client.ReadLines(2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("ERR no-such-table:", 0), 0u) << lines[0];
  // poller= stays: perfbench reads it into its JSON.
  EXPECT_EQ(lines[1].rfind("OK METRICS poller=epoll workers=", 0), 0u)
      << lines[1];
  for (const char* field :
       {" workers=", " accepted=", " served=", " inline=", " parked_drains=",
        " bytes_in=", " bytes_out=", " backpressure_stalls=",
        " emfile_rejected="}) {
    EXPECT_NE(lines[1].find(field), std::string::npos)
        << "missing " << field << " in " << lines[1];
  }
  for (const char* gone : {" io_loops=", " loop0="}) {
    EXPECT_EQ(lines[1].find(gone), std::string::npos)
        << "leftover " << gone << " in " << lines[1];
  }
  server.Shutdown();
}

/// This process's open descriptors, by number (the listing's own
/// directory fd excluded).
std::set<int> OpenFds() {
  std::set<int> fds;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return fds;
  const int self = ::dirfd(dir);
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const int fd = std::atoi(entry->d_name);
    if (fd != self) fds.insert(fd);
  }
  ::closedir(dir);
  return fds;
}

/// The RLIMIT_NOFILE value under which exactly `k` more fds can be
/// opened. The limit bounds fd numbers, and a new fd takes the lowest
/// free number, so it sits at the (k+1)-th number not in `open`.
rlim_t LimitLeavingFree(const std::set<int>& open, int k) {
  int limit = 0;
  for (int free_below = 0; open.count(limit) != 0 || free_below < k;
       ++limit) {
    if (open.count(limit) == 0) ++free_below;
  }
  return static_cast<rlim_t>(limit);
}

/// Start opens five descriptors: the listener socket, the wake pipe's
/// two ends, the epoll set, and the emergency reserve. Capping
/// RLIMIT_NOFILE so that only k more fit (k = 0..4) makes socket,
/// pipe2, epoll_create1 and the reserve fail in turn. Each failure must
/// be loud (false plus an error naming the failed step) and must close
/// every fd opened before it; with the limit restored, Start succeeds.
TEST(ServeSchedulingTest, StartFailsLoudlyAndLeaksNoFdUnderFdLimit) {
  const char* const kFailedStep[] = {"socket", "wake pipe", "wake pipe",
                                     "epoll_create1", "emergency fd"};
  ContextManager manager;
  ServerOptions options;
  options.workers = 1;
  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  for (int k = 0; k <= 4; ++k) {
    const std::set<int> before = OpenFds();
    ASSERT_FALSE(before.empty()) << "/proc/self/fd unreadable";
    struct rlimit capped = saved;
    capped.rlim_cur = LimitLeavingFree(before, k);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &capped), 0) << "k=" << k;
    std::string error;
    bool started;
    {
      ServeExecutor server(&manager, options);
      started = server.Start(&error);
    }
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
    EXPECT_FALSE(started) << "k=" << k;
    EXPECT_NE(error.find(kFailedStep[k]), std::string::npos)
        << "k=" << k << ": " << error;
    EXPECT_EQ(OpenFds(), before) << "k=" << k << ": " << error;
  }
  ServeExecutor server(&manager, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client(static_cast<int>(server.port()));
  ASSERT_TRUE(client.Send("TABLES\n"));
  const std::vector<std::string> lines = client.ReadLines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("OK TABLES", 0), 0u) << lines[0];
  server.Shutdown();
}

/// Linux accept() reports EMFILE on a full fd table even when nobody is
/// waiting in the backlog. The emergency-fd path must then let the loop
/// go idle instead of spinning on the empty backlog: with Start's five
/// fds exactly filling the table, an idle server burns (almost) no CPU,
/// and it serves normally once descriptors free up.
TEST(ServeSchedulingTest, FullFdTableLeavesTheLoopIdle) {
  ContextManager manager;
  ServerOptions options;
  options.workers = 1;
  ServeExecutor server(&manager, options);
  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit capped = saved;
  capped.rlim_cur = LimitLeavingFree(OpenFds(), 5);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &capped), 0);
  std::string error;
  const bool started = server.Start(&error);
  const auto cpu_ms = [] {
    timespec now{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return now.tv_sec * 1e3 + now.tv_nsec / 1e6;
  };
  const double cpu_before = cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double idle_cpu_ms = cpu_ms() - cpu_before;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_TRUE(started) << error;
  // A spinning accept loop burns the whole 500 ms window.
  EXPECT_LT(idle_cpu_ms, 150.0);

  Client client(static_cast<int>(server.port()));
  ASSERT_TRUE(client.Send("TABLES\n"));
  const std::vector<std::string> lines = client.ReadLines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("OK TABLES", 0), 0u) << lines[0];
  server.Shutdown();
}

/// Polls until the server has read and scheduled `bytes` request bytes
/// (ServeExecutor::bytes_received), so the caller can order arrivals.
bool WaitForBytesReceived(const ServeExecutor& server, uint64_t bytes) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.bytes_received() < bytes) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Weighted fair queuing: with a single worker pinned down by a
/// long-running exact solve, eight queued RUNs against the hot table
/// must not starve a later RUN against a light table — the light lane's
/// virtual start time beats the hot lane's accumulated drain weight, so
/// the light response arrives after at most a couple of hot ones.
/// Arrival-order FIFO (the old scheduler) would serve all eight hot
/// requests first.
TEST(ServeSchedulingTest, LightTableNotStarvedBehindHotBacklog) {
  ContextManager manager;
  ServerOptions options;
  options.workers = 1;
  ServeExecutor server(&manager, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    // "slow" and "slow2" are sized so the exact Fair-Kemeny solve runs
    // into its time limit: four strongly conflicting rankings over 40
    // candidates.
    std::vector<std::string> setup = {
        "CREATE slow CYCLIC 40 2 2",
        "CREATE slow2 CYCLIC 40 2 2",
        "CREATE hot CYCLIC 8 2 2",
        "CREATE light CYCLIC 8 2 2",
        "APPEND hot 0 1 2 3 4 5 6 7",
        "APPEND light 7 6 5 4 3 2 1 0",
    };
    std::string forward, backward, evens;
    for (int i = 0; i < 40; ++i) {
      forward += (i ? " " : "") + std::to_string(i);
      backward += (i ? " " : "") + std::to_string(39 - i);
      evens += (i ? " " : "") + std::to_string((i * 2) % 40 + (i >= 20));
    }
    for (const char* table : {"slow", "slow2"}) {
      setup.push_back(std::string("APPEND ") + table + " " + forward + " ; " +
                      backward);
      setup.push_back(std::string("APPEND ") + table + " " + evens);
    }
    Client setup_client(static_cast<int>(server.port()));
    ASSERT_TRUE(setup_client.Send(testing::JoinRequests(setup)));
    for (const std::string& line : setup_client.ReadLines(setup.size())) {
      ASSERT_EQ(line.rfind("OK ", 0), 0u) << line;
    }
  }
  uint64_t received = server.bytes_received();

  // Occupy the single worker for ~1 second...
  const std::string blocker_line = "RUN slow A1 LIMIT 1.0\n";
  Client blocker(static_cast<int>(server.port()));
  ASSERT_TRUE(blocker.Send(blocker_line));
  received += blocker_line.size();
  ASSERT_TRUE(WaitForBytesReceived(server, received));

  // ...queue eight hot-table RUNs from eight connections...
  const std::string hot_line = "RUN hot A3\n";
  std::vector<std::unique_ptr<Client>> hot_clients;
  for (int i = 0; i < 8; ++i) {
    hot_clients.push_back(
        std::make_unique<Client>(static_cast<int>(server.port())));
    ASSERT_TRUE(hot_clients.back()->Send(hot_line));
  }
  received += 8 * hot_line.size();
  ASSERT_TRUE(WaitForBytesReceived(server, received));

  // ...then one light-table RUN, arriving last. A second blocker on a
  // fresh table rides right behind it and pins the worker again once the
  // light response is out, so the hot responses already sent at that
  // moment are exactly those the server answered before the light one.
  Client light(static_cast<int>(server.port()));
  ASSERT_TRUE(light.Send("RUN light A3\nRUN slow2 A1 LIMIT 1.0\n"));
  const std::vector<std::string> light_lines = light.ReadLines(1);
  int hot_before_light = 0;
  for (const auto& hot : hot_clients) {
    char byte;
    if (::recv(hot->fd(), &byte, 1, MSG_PEEK | MSG_DONTWAIT) == 1) {
      ++hot_before_light;
    }
  }
  ASSERT_EQ(light_lines.size(), 1u);
  EXPECT_EQ(light_lines[0].rfind("OK RUN light", 0), 0u) << light_lines[0];
  // WFQ serves the light request right after the in-flight hot one;
  // allow generous slack, while FIFO would reach 8 here.
  EXPECT_LE(hot_before_light, 4);

  for (const auto& hot : hot_clients) {
    const std::vector<std::string> lines = hot->ReadLines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].rfind("OK RUN hot", 0), 0u) << lines[0];
  }
  const std::vector<std::string> blocker_lines = blocker.ReadLines(1);
  ASSERT_EQ(blocker_lines.size(), 1u);
  EXPECT_EQ(blocker_lines[0].rfind("OK RUN slow", 0), 0u) << blocker_lines[0];
  const std::vector<std::string> slow2_lines = light.ReadLines(1);
  ASSERT_EQ(slow2_lines.size(), 1u);
  EXPECT_EQ(slow2_lines[0].rfind("OK RUN slow2", 0), 0u) << slow2_lines[0];
  server.Shutdown();
}

}  // namespace
}  // namespace manirank
