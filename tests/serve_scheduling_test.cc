// Scheduling-focused tests for the multi-event-loop ServeExecutor
// (serve/executor.h): a 256-connection pipelined burst that must stay
// bit-identical to the synchronous Dispatcher under BOTH poller backends
// (forced via MANIRANK_POLLER), the METRICS response surface, and the
// weighted-fair-queue guarantee that a saturated table cannot starve a
// light table's request behind its backlog.

#include "serve/executor.h"

#include <gtest/gtest.h>

#ifdef MANIRANK_SERVE_HAVE_SOCKETS

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/context_manager.h"
#include "serve/protocol.h"
#include "serve_test_util.h"
#include "test_util.h"
#include "util/event_poller.h"

namespace manirank {
namespace {

using serve::ContextManager;
using serve::Dispatcher;
using serve::ServeExecutor;
using serve::ServerOptions;
using testing::Client;
using testing::ScopedPollerEnv;
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

/// 256 concurrent pipelined connections against a sharded executor
/// (io_threads=2 exercises SO_REUSEPORT accept distribution even on one
/// core). Every connection's response stream must be bit-identical to a
/// synchronous replay of its own requests.
void ExpectBurstBitIdentical(const char* poller_env,
                             const char* expect_poller) {
  ScopedPollerEnv scoped(poller_env);
  ContextManager manager;
  ServerOptions options;
  options.workers = 3;
  options.io_threads = 2;
  ServeExecutor server(&manager, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  EXPECT_STREQ(server.poller_name(), expect_poller);
  EXPECT_EQ(server.io_loops(), 2u);

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

  // The per-loop accept counters must account for every connection.
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

TEST(ServeSchedulingTest, BurstBitIdenticalUnderPoll) {
  ExpectBurstBitIdentical("poll", "poll");
}

TEST(ServeSchedulingTest, BurstBitIdenticalUnderEpoll) {
#if MANIRANK_HAVE_EPOLL
  ExpectBurstBitIdentical("epoll", "epoll");
#else
  // Forcing epoll on a platform without it falls back to poll (with a
  // one-time warning); the wire contract must hold regardless.
  ExpectBurstBitIdentical("epoll", "poll");
#endif
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
  EXPECT_EQ(lines[1].rfind("OK METRICS poller=", 0), 0u) << lines[1];
  for (const char* field :
       {" io_loops=", " workers=", " accepted=", " served=", " inline=",
        " parked_drains=", " bytes_in=", " bytes_out=",
        " backpressure_stalls=", " emfile_rejected=", " loop0="}) {
    EXPECT_NE(lines[1].find(field), std::string::npos)
        << "missing " << field << " in " << lines[1];
  }
  server.Shutdown();
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
  options.io_threads = 1;
  ServeExecutor server(&manager, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    // "slow" is sized so the exact Fair-Kemeny solve runs into its time
    // limit: four strongly conflicting rankings over 40 candidates.
    std::vector<std::string> setup = {
        "CREATE slow CYCLIC 40 2 2",
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
    setup.push_back("APPEND slow " + forward + " ; " + backward);
    setup.push_back("APPEND slow " + evens);
    Client setup_client(static_cast<int>(server.port()));
    ASSERT_TRUE(setup_client.Send(testing::JoinRequests(setup)));
    for (const std::string& line : setup_client.ReadLines(setup.size())) {
      ASSERT_EQ(line.rfind("OK ", 0), 0u) << line;
    }
  }

  // Occupy the single worker for ~1 second...
  Client blocker(static_cast<int>(server.port()));
  ASSERT_TRUE(blocker.Send("RUN slow A1 LIMIT 1.0\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // ...queue eight hot-table RUNs from eight connections...
  std::vector<std::unique_ptr<Client>> hot_clients;
  for (int i = 0; i < 8; ++i) {
    hot_clients.push_back(
        std::make_unique<Client>(static_cast<int>(server.port())));
    ASSERT_TRUE(hot_clients.back()->Send("RUN hot A3\n"));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  // ...then one light-table RUN, arriving last.
  Client light(static_cast<int>(server.port()));
  ASSERT_TRUE(light.Send("RUN light A3\n"));

  std::atomic<int> hot_done{0};
  std::vector<std::thread> readers;
  for (auto& hot : hot_clients) {
    readers.emplace_back([&hot, &hot_done] {
      const std::vector<std::string> lines = hot->ReadLines(1);
      ASSERT_EQ(lines.size(), 1u);
      EXPECT_EQ(lines[0].rfind("OK RUN hot", 0), 0u) << lines[0];
      hot_done.fetch_add(1);
    });
  }
  const std::vector<std::string> light_lines = light.ReadLines(1);
  const int hot_before_light = hot_done.load();
  ASSERT_EQ(light_lines.size(), 1u);
  EXPECT_EQ(light_lines[0].rfind("OK RUN light", 0), 0u) << light_lines[0];
  // WFQ serves the light request right after the in-flight hot one;
  // allow generous slack for reader-thread scheduling, while FIFO would
  // reach 8 here.
  EXPECT_LE(hot_before_light, 4);

  for (std::thread& t : readers) t.join();
  const std::vector<std::string> blocker_lines = blocker.ReadLines(1);
  ASSERT_EQ(blocker_lines.size(), 1u);
  EXPECT_EQ(blocker_lines[0].rfind("OK RUN slow", 0), 0u) << blocker_lines[0];
  server.Shutdown();
}

}  // namespace
}  // namespace manirank

#endif  // MANIRANK_SERVE_HAVE_SOCKETS
