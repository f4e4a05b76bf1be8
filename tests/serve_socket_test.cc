// End-to-end loopback-TCP tests for the serving front end
// (serve/executor.h): the async ServeExecutor. The serving equivalence
// contract extends to the wire: a pipelined client must receive exactly
// one response line per request, in request order, bit-identical to
// replaying the same request stream through a synchronous Dispatcher —
// no matter how the executor overlaps the work across its pool. Also
// covered: a RUN parked behind another connection's long backlog fold,
// the final request arriving without a trailing newline, the
// 16 MiB oversize-line rejection (the client must actually RECEIVE the
// ERR — half-close + drain, not an immediate close/RST), read
// backpressure under a huge pipelined burst, and graceful shutdown.

#include "serve/executor.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/context_manager.h"
#include "serve/protocol.h"
#include "serve_test_util.h"
#include "util/rng.h"

namespace manirank {
namespace {

using serve::ContextManager;
using serve::Dispatcher;
using serve::ServeExecutor;
using serve::ServerOptions;

using testing::Client;
using testing::JoinRequests;
using testing::MixedWorkload;
using testing::SyncReference;

TEST(ServeSocketTest, ExecutorServesMixedWorkloadBitIdentical) {
  ContextManager manager;
  ServeExecutor server(&manager, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // n stays small enough that the exact methods inside "RUN all" solve
  // outright: a run cut off by the 30 s default time limit would be both
  // slow and (worse) potentially nondeterministic across replays.
  const std::vector<std::string> requests = MixedWorkload("t", 10, 40);
  ContextManager reference_manager;
  const std::vector<std::string> expected =
      SyncReference(requests, &reference_manager);

  Client client(server.port());
  ASSERT_TRUE(client.Send(JoinRequests(requests)));
  client.HalfClose();
  EXPECT_EQ(client.ReadLinesUntilEof(), expected);
  server.Shutdown();
}

/// Multi-client pipelining: every client owns its tables, so each
/// response stream must be bit-identical to a serial replay even though
/// the executor interleaves all clients over a small shared pool — and
/// the hot tables' bulk folds force real drains mid-traffic.
TEST(ServeSocketTest, ExecutorMultiClientPipelinedInOrder) {
  ContextManager manager;
  ServerOptions options;
  options.workers = 3;  // fewer workers than clients: forced sharing
  ServeExecutor server(&manager, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kClients = 5;
  std::vector<std::vector<std::string>> requests;
  std::vector<std::vector<std::string>> expected;
  ContextManager reference_manager;
  requests.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    requests.push_back(MixedWorkload("c" + std::to_string(c), 10, 25));
  }
  for (int c = 0; c < kClients; ++c) {
    // One shared reference manager: the clients' tables are disjoint, so
    // serial per-client replay is the unique correct outcome... except
    // TABLES, which sees every client's tables — drop it from this
    // scenario to keep the comparison exact.
    auto& reqs = requests[c];
    reqs.pop_back();  // TABLES
    expected.push_back(SyncReference(reqs, &reference_manager));
  }

  std::vector<std::vector<std::string>> received(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      if (!client.Send(JoinRequests(requests[c]))) return;
      client.HalfClose();
      received[c] = client.ReadLinesUntilEof();
    });
  }
  for (std::thread& t : clients) t.join();
  uint64_t total_expected = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(received[c], expected[c]) << "client " << c;
    total_expected += expected[c].size();
  }
  // Comment/blank lines draw no response and are never scheduled, so the
  // served counter must land exactly on the answered-request count.
  EXPECT_EQ(server.requests_served(), total_expected);
  server.Shutdown();
}

/// Two clients hammering the SAME table: responses are timing-dependent
/// (generation counters move under each other), so assert protocol shape
/// and per-connection ordering only. Whether a RUN parks here depends on
/// timing; ExecutorParksRunBehindLongFold forces the park path.
TEST(ServeSocketTest, ExecutorSharedTableConcurrentRuns) {
  ContextManager manager;
  ServerOptions options;
  options.workers = 4;
  ServeExecutor server(&manager, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    Client setup(server.port());
    ASSERT_TRUE(setup.Send("CREATE shared CYCLIC 10 2 2\n"
                           "APPEND shared 0 1 2 3 4 5 6 7 8 9\n"));
    const std::vector<std::string> lines = setup.ReadLines(2);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].rfind("OK CREATE", 0), 0u) << lines[0];
    setup.HalfClose();
    setup.ReadLinesUntilEof();
  }

  constexpr int kClients = 4;
  constexpr int kRounds = 12;
  std::vector<std::thread> clients;
  std::vector<int> ok_counts(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      std::string wire;
      for (int r = 0; r < kRounds; ++r) {
        wire += "APPEND shared 9 8 7 6 5 4 3 2 1 0\n";
        wire += "RUN shared A4\n";
      }
      if (!client.Send(wire)) return;
      client.HalfClose();
      const std::vector<std::string> lines = client.ReadLinesUntilEof();
      if (lines.size() != 2 * kRounds) return;
      for (int r = 0; r < kRounds; ++r) {
        // In-order delivery: responses alternate APPEND/RUN exactly as
        // requested, whatever the cross-client interleaving did.
        if (lines[2 * r].rfind("OK APPEND shared", 0) == 0 &&
            lines[2 * r + 1].rfind("OK RUN shared", 0) == 0) {
          ++ok_counts[c];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(ok_counts[c], kRounds) << "client " << c;
  }
  server.Shutdown();
}

/// A RUN arriving while another connection's RUN is folding a long backlog
/// must park on the IsDraining hook (not block a pool worker on the
/// exclusive gate), be released by the drain observer, and answer exactly
/// what a synchronous Dispatcher replay answers.
TEST(ServeSocketTest, ExecutorParksRunBehindLongFold) {
  // The precedence fold of 12000 rankings at n = 300 takes a few hundred
  // ms, far longer than the second connection needs to land its RUN.
  constexpr int kCandidates = 300;
  constexpr int kBacklog = 12000;
  std::vector<Ranking> backlog;
  backlog.reserve(kBacklog);
  Rng rng(31);
  std::vector<CandidateId> order(kCandidates);
  for (int i = 0; i < kCandidates; ++i) order[i] = i;
  for (int r = 0; r < kBacklog; ++r) {
    rng.Shuffle(&order);
    backlog.emplace_back(order);
  }
  // Same state on both managers: a warm precedence matrix (RUN A4), so
  // the backlog fold pays the O(n^2)-per-ranking delta, then the backlog
  // queued but not folded.
  const auto seed = [&](ContextManager* manager) {
    Dispatcher dispatcher(manager);
    EXPECT_EQ(dispatcher.Handle("CREATE t CYCLIC 300 2 2").rfind("OK", 0), 0u);
    manager->Append("t", {backlog.front()});
    EXPECT_EQ(dispatcher.Handle("RUN t A4").rfind("OK", 0), 0u);
    manager->Append("t", backlog);
  };
  ContextManager reference_manager;
  seed(&reference_manager);
  const std::vector<std::string> expected = SyncReference(
      {"RUN t A3", "RUN t A3", "RUN t A4"}, &reference_manager);
  ASSERT_EQ(expected.size(), 3u);

  ContextManager manager;
  seed(&manager);
  ServerOptions options;
  options.workers = 2;
  ServeExecutor server(&manager, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client a(server.port());
  Client b(server.port());
  ASSERT_TRUE(a.Send("RUN t A3\n"));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!manager.IsDraining("t")) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the backlog fold never started";
    std::this_thread::yield();
  }
  ASSERT_TRUE(b.Send("RUN t A3\n"));
  // A4 is still cached at the pre-fold generation: a RUN sent mid-fold
  // must not be answered from that entry on the loop.
  Client c(server.port());
  ASSERT_TRUE(c.Send("RUN t A4\n"));
  a.HalfClose();
  b.HalfClose();
  c.HalfClose();
  EXPECT_EQ(a.ReadLinesUntilEof(),
            std::vector<std::string>{expected[0]});
  EXPECT_EQ(b.ReadLinesUntilEof(),
            std::vector<std::string>{expected[1]});
  EXPECT_EQ(c.ReadLinesUntilEof(),
            std::vector<std::string>{expected[2]});
  EXPECT_GE(server.requests_parked(), 1u);
  server.Shutdown();
}

/// Sends one request line and reads its response.
std::string Ask(Client* client, const std::string& line) {
  if (!client->Send(line + "\n")) return "<send failed>";
  const std::vector<std::string> lines = client->ReadLines(1);
  return lines.empty() ? "<no response>" : lines[0];
}

/// The inline= counter of a METRICS response.
uint64_t InlineServed(const std::string& metrics) {
  const size_t at = metrics.find(" inline=");
  EXPECT_NE(at, std::string::npos) << metrics;
  return at == std::string::npos ? 0 : std::stoull(metrics.substr(at + 8));
}

/// RUN and SELECT cache hits are answered on the event loop; none may be
/// stale or reordered. Once connection B's APPEND is acked, A's next RUN
/// owes the fold and must answer the next generation; a SELECT sent
/// while B's APPEND is still queued answers the applied generation.
/// Every response must equal a synchronous Dispatcher replay.
TEST(ServeSocketTest, ExecutorLoopCacheHitsAreNeverStale) {
  ContextManager manager;
  ServeExecutor server(&manager, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // {connection, request}; each request is answered before the next one
  // is sent, so no request has an in-flight predecessor.
  const std::vector<std::pair<char, std::string>> script = {
      {'a', "CREATE t CYCLIC 8 2 2"},
      {'a', "APPEND t 0 1 2 3 4 5 6 7 ; 7 6 5 4 3 2 1 0"},
      {'a', "RUN t A3"},  // drains, misses
      {'a', "RUN t A3"},  // hit
      {'b', "APPEND t 1 0 3 2 5 4 7 6"},
      {'a', "RUN t A3"},  // owes B's fold: the next generation
      {'a', "SELECT t 3 ATTR 0 0 1 2"},
      {'a', "SELECT t 3 ATTR 0 0 1 2"},  // hit
      {'b', "APPEND t 2 3 0 1 6 7 4 5"},
      {'a', "SELECT t 3 ATTR 0 0 1 2"},  // hit at the applied generation
      {'a', "STATS t"},
      {'a', "RUN t A3"},  // folds B's second APPEND
  };
  std::vector<std::string> requests;
  for (const auto& [conn, line] : script) requests.push_back(line);
  ContextManager reference_manager;
  const std::vector<std::string> expected =
      SyncReference(requests, &reference_manager);
  ASSERT_EQ(expected.size(), script.size());

  Client a(server.port());
  Client b(server.port());
  const uint64_t inline_before = InlineServed(Ask(&a, "METRICS"));
  for (size_t i = 0; i < script.size(); ++i) {
    EXPECT_EQ(Ask(script[i].first == 'a' ? &a : &b, script[i].second),
              expected[i])
        << "request " << i << ": " << script[i].second;
  }
  // The generation counts folded rankings: two, then B's one.
  EXPECT_NE(expected[3].find(" gen=2 "), std::string::npos) << expected[3];
  EXPECT_NE(expected[5].find(" gen=3 "), std::string::npos) << expected[5];
  EXPECT_NE(expected[9].find(" gen=3 "), std::string::npos) << expected[9];
  // Three cache hits, three APPENDs and one STATS ran on the loop.
  EXPECT_EQ(InlineServed(Ask(&a, "METRICS")) - inline_before, 7u);
  a.HalfClose();
  b.HalfClose();
  EXPECT_TRUE(a.ReadLinesUntilEof().empty());
  EXPECT_TRUE(b.ReadLinesUntilEof().empty());
  server.Shutdown();
}

/// METRICS inline= advances by exactly the RUN/SELECT/EVAL cache hits
/// (plus the light verbs) of a mixed hit/miss/ERR script, and a probe
/// that is not served moves no counter: the table's STATS line equals
/// the synchronous replay's.
TEST(ServeSocketTest, ExecutorInlineCountsExactlyTheCacheHits) {
  ContextManager manager;
  ServeExecutor server(&manager, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const std::vector<std::string> setup = {
      "CREATE t CYCLIC 6 2 3",
      "APPEND t 0 1 2 3 4 5 ; 5 4 3 2 1 0 ; 1 0 3 2 5 4", "FLUSH t"};
  // {request, answered on the loop}: a cache hit, or a light verb
  const std::vector<std::pair<std::string, bool>> script = {
      {"EVAL t 0 1 2 3 4 5", false},  // first EVAL after the FLUSH: a miss
      {"RUN t A3", false},
      {"RUN t A3", true},
      {"RUN t A4", false},
      {"RUN t A4", true},
      {"RUN t all DELTA 1", false},
      {"RUN t all DELTA 1", true},
      {"RUN t A9", false},
      {"RUN nosuch A3", false},
      {"RUN t A3 DELTA -1", false},
      {"SELECT t 2", false},
      {"SELECT t 2", true},
      {"SELECT t 0", false},
      {"SELECT t 2 ATTR 7 0 0 1", false},
      {"SELECT t 1 ATTR 0 0 1 1 ATTR 0 1 1 1", false},  // ERR infeasible
      {"SELECT t 1 ATTR 0 0 1 1 ATTR 0 1 1 1", true},
      {"EVAL t 0 1 2 3 4 5", true},
      {"EVAL t 5 4 3 2 1 0", true},
      {"EVAL t 0 1 2 3 4 4", false},  // ERR bad-ranking
      {"EVAL nosuch 0 1 2 3 4 5", false},
      // A fold moves the generation: the next EVAL misses, then hits.
      {"APPEND t 2 3 0 1 4 5", true},
      {"FLUSH t", false},
      {"EVAL t 0 1 2 3 4 5", false},
      {"EVAL t 0 1 2 3 4 5", true},
  };
  std::vector<std::string> requests = setup;
  uint64_t on_loop = 0;
  for (const auto& [line, inline_served] : script) {
    requests.push_back(line);
    on_loop += inline_served ? 1 : 0;
  }
  requests.push_back("STATS t");
  ContextManager reference_manager;
  const std::vector<std::string> expected =
      SyncReference(requests, &reference_manager);
  ASSERT_EQ(expected.size(), requests.size());

  Client client(server.port());
  for (size_t i = 0; i < setup.size(); ++i) {
    ASSERT_EQ(Ask(&client, requests[i]), expected[i]) << requests[i];
  }
  const uint64_t inline_before = InlineServed(Ask(&client, "METRICS"));
  for (size_t i = setup.size(); i + 1 < requests.size(); ++i) {
    EXPECT_EQ(Ask(&client, requests[i]), expected[i]) << requests[i];
  }
  EXPECT_EQ(InlineServed(Ask(&client, "METRICS")) - inline_before, on_loop);
  EXPECT_EQ(Ask(&client, "STATS t"), expected.back());
  client.HalfClose();
  EXPECT_TRUE(client.ReadLinesUntilEof().empty());
  server.Shutdown();
}

TEST(ServeSocketTest, ExecutorScoresOneEvalHitPerLoopPass) {
  ContextManager manager;
  ServeExecutor server(&manager, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const std::vector<std::string> setup = {
      "CREATE t CYCLIC 6 2 3",
      "APPEND t 0 1 2 3 4 5 ; 5 4 3 2 1 0 ; 1 0 3 2 5 4", "FLUSH t",
      "EVAL t 0 1 2 3 4 5"};  // fills the A3 cache
  const std::vector<std::string> burst = {
      "EVAL t 5 4 3 2 1 0", "EVAL t 1 0 3 2 5 4", "EVAL t 0 1 2 3 4 5"};
  std::vector<std::string> requests = setup;
  requests.insert(requests.end(), burst.begin(), burst.end());
  ContextManager reference_manager;
  const std::vector<std::string> expected =
      SyncReference(requests, &reference_manager);
  ASSERT_EQ(expected.size(), requests.size());

  Client client(server.port());
  for (size_t i = 0; i < setup.size(); ++i) {
    ASSERT_EQ(Ask(&client, requests[i]), expected[i]) << requests[i];
  }
  const uint64_t inline_before = InlineServed(Ask(&client, "METRICS"));
  // Three cache hits in one send reach the loop in one pass: it scores
  // the first and hands the other two to the workers.
  std::string bytes;
  for (const std::string& line : burst) bytes += line + "\n";
  ASSERT_TRUE(client.Send(bytes));
  EXPECT_EQ(client.ReadLines(burst.size()),
            std::vector<std::string>(expected.begin() + setup.size(),
                                     expected.end()));
  EXPECT_EQ(InlineServed(Ask(&client, "METRICS")) - inline_before, 1u);
  client.HalfClose();
  EXPECT_TRUE(client.ReadLinesUntilEof().empty());
  server.Shutdown();
}

TEST(ServeSocketTest, ExecutorAnswersFinalRequestWithoutNewline) {
  ContextManager manager;
  ServeExecutor server(&manager, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client(server.port());
  ASSERT_TRUE(client.Send("CREATE t CYCLIC 6 2 2\nSTATS t"));  // no '\n'
  client.HalfClose();
  const std::vector<std::string> lines = client.ReadLinesUntilEof();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "OK CREATE t candidates=6 rankings=0");
  EXPECT_EQ(lines[1].rfind("OK STATS t ", 0), 0u) << lines[1];
  server.Shutdown();
}

TEST(ServeSocketTest, ExecutorDeliversOversizeLineError) {
  ContextManager manager;
  ServeExecutor server(&manager, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client(server.port());
  // A valid pipelined request first: its response must still arrive
  // before the oversize rejection.
  ASSERT_TRUE(client.Send("CREATE t CYCLIC 6 2 2\n"));
  // 17 MiB with no newline: the server must answer with the ERR line and
  // an orderly EOF — the half-close + drain fix; an immediate close()
  // would RST the unread junk away along with the response.
  const std::string junk(17u << 20, 'x');
  ASSERT_TRUE(client.Send(junk));
  client.HalfClose();
  const std::vector<std::string> lines = client.ReadLinesUntilEof();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "OK CREATE t candidates=6 rankings=0");
  EXPECT_EQ(lines[1], "ERR bad-request: request line exceeds 16 MiB");
  server.Shutdown();
}

/// A pipelined burst far beyond the in-flight budget: the executor stops
/// reading the socket (backpressure) instead of buffering without bound,
/// and still answers everything, in order, once the client drains.
TEST(ServeSocketTest, ExecutorBackpressuredBurstAnswersEverythingInOrder) {
  ContextManager manager;
  ServerOptions options;
  options.workers = 2;
  options.max_inflight_per_connection = 8;
  options.max_buffered_response_bytes = 1u << 14;
  ServeExecutor server(&manager, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kRequests = 4000;
  Client client(server.port());
  ASSERT_TRUE(client.Send("CREATE a CYCLIC 6 2 2\nCREATE b CYCLIC 8 2 2\n"));
  ASSERT_EQ(client.ReadLines(2).size(), 2u);

  // Writer and reader must run concurrently: with reading stopped on the
  // server side, the client's send() itself eventually blocks on the
  // kernel buffers — the test would deadlock if it wrote everything
  // before reading anything.
  std::thread writer([&] {
    std::string wire;
    for (int i = 0; i < kRequests / 2; ++i) {
      wire += "STATS a\nSTATS b\n";
    }
    client.Send(wire);
    client.HalfClose();
  });
  const std::vector<std::string> lines = client.ReadLinesUntilEof();
  writer.join();
  ASSERT_EQ(lines.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    const char* prefix = (i % 2 == 0) ? "OK STATS a " : "OK STATS b ";
    ASSERT_EQ(lines[i].rfind(prefix, 0), 0u)
        << "response " << i << ": " << lines[i];
  }
  server.Shutdown();
}

TEST(ServeSocketTest, ExecutorGracefulShutdownWithIdleClient) {
  ContextManager manager;
  ServeExecutor server(&manager, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client(server.port());
  ASSERT_TRUE(client.Send("CREATE t CYCLIC 6 2 2\n"));
  ASSERT_EQ(client.ReadLines(1).size(), 1u);

  // Shutdown with the client still connected: the server half-closes,
  // the client sees a clean EOF (no junk, no reset) and disconnects,
  // and Shutdown returns.
  std::thread stopper([&] { server.Shutdown(); });
  const std::vector<std::string> tail = client.ReadLinesUntilEof();
  EXPECT_TRUE(tail.empty());
  ::shutdown(client.fd(), SHUT_RDWR);
  stopper.join();

  // A fresh connection must now be refused.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  EXPECT_NE(::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ::close(probe);
}

/// One executor object must survive a Start → Shutdown → Start cycle
/// with its internal state (wake flag, stopping flag, pipes) fully
/// reset — a stale wake_pending_ from the first life would silently
/// swallow every wakeup of the second.
TEST(ServeSocketTest, ExecutorRestartsAfterShutdown) {
  ContextManager manager;
  ServeExecutor server(&manager, ServerOptions{});
  std::string error;
  for (int life = 0; life < 2; ++life) {
    ASSERT_TRUE(server.Start(&error)) << "life " << life << ": " << error;
    Client client(server.port());
    const std::string table = "t" + std::to_string(life);
    ASSERT_TRUE(client.Send("CREATE " + table +
                            " CYCLIC 6 2 2\nAPPEND " + table +
                            " 0 1 2 3 4 5\nRUN " + table + " A4\n"));
    const std::vector<std::string> lines = client.ReadLines(3);
    ASSERT_EQ(lines.size(), 3u) << "life " << life;
    EXPECT_EQ(lines[2].rfind("OK RUN " + table, 0), 0u) << lines[2];
    client.HalfClose();
    client.ReadLinesUntilEof();
    server.Shutdown();
  }
  // The table created in the first life survives on the shared manager.
  EXPECT_TRUE(manager.Has("t0"));
  EXPECT_TRUE(manager.Has("t1"));
}

/// Shutdown must wait for in-flight requests and flush their responses:
/// the client half-closes (its whole pipeline is submitted), the server
/// is shut down mid-execution, and every ACCEPTED request's response
/// must still arrive. Requests the I/O thread had not yet read off the
/// socket when the shutdown landed are allowed to be dropped (that is
/// the documented contract), so the received stream must be a prefix of
/// the expected one — bit-identical as far as it goes, ending in an
/// orderly EOF, never garbage or a reset.
TEST(ServeSocketTest, ExecutorShutdownDrainsInFlightRequests) {
  ContextManager manager;
  ServerOptions options;
  options.workers = 2;
  ServeExecutor server(&manager, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const std::vector<std::string> requests = MixedWorkload("d", 10, 30);
  ContextManager reference_manager;
  const std::vector<std::string> expected =
      SyncReference(requests, &reference_manager);

  Client client(server.port());
  ASSERT_TRUE(client.Send(JoinRequests(requests)));
  client.HalfClose();
  // Wait for the first response, so the pipeline is demonstrably in
  // flight, then race shutdown against the rest on purpose.
  const std::vector<std::string> first = client.ReadLines(1);
  ASSERT_EQ(first.size(), 1u);
  std::thread stopper([&] { server.Shutdown(); });
  std::vector<std::string> received = first;
  for (std::string& line : client.ReadLinesUntilEof()) {
    received.push_back(std::move(line));
  }
  stopper.join();
  ASSERT_LE(received.size(), expected.size());
  for (size_t i = 0; i < received.size(); ++i) {
    EXPECT_EQ(received[i], expected[i]) << "response " << i;
  }
  EXPECT_GE(received.size(), 1u);
}

}  // namespace
}  // namespace manirank
