#ifndef MANIRANK_TESTS_SERVE_TEST_UTIL_H_
#define MANIRANK_TESTS_SERVE_TEST_UTIL_H_

// Shared helpers for the loopback-TCP serving tests (serve_socket_test,
// serve_scheduling_test): a blocking line client with receive timeout,
// the synchronous-Dispatcher ground truth every server must match
// bit-identically, and the deterministic mixed workload generator.

#include "serve/executor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/context_manager.h"
#include "serve/protocol.h"

namespace manirank::testing {

/// Blocking loopback client with a receive timeout, so a server bug
/// fails the test instead of hanging it.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0) << std::strerror(errno);
    timeval timeout{};
    timeout.tv_sec = 120;  // generous: the TSan job runs these too
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0)
        << std::strerror(errno);
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t w = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      sent += static_cast<size_t>(w);
    }
    return true;
  }

  void HalfClose() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until EOF and splits into lines (the trailing newline of the
  /// last response is consumed; an unterminated tail would be kept as a
  /// final element, which no correct server produces). Bytes already
  /// buffered by an earlier ReadLines call are consumed first.
  std::vector<std::string> ReadLinesUntilEof() {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        ADD_FAILURE() << "recv: " << std::strerror(errno);
        break;
      }
      if (n == 0) break;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    std::vector<std::string> lines;
    std::istringstream is(buffer_);
    buffer_.clear();
    std::string line;
    while (std::getline(is, line)) lines.push_back(line);
    return lines;
  }

  /// Reads exactly `n` newline-terminated lines (without closing).
  /// Pipelined responses beyond the n-th stay buffered for later calls.
  std::vector<std::string> ReadLines(size_t n) {
    std::vector<std::string> lines;
    char chunk[65536];
    for (;;) {
      size_t start = 0;
      for (size_t nl = buffer_.find('\n');
           nl != std::string::npos && lines.size() < n;
           nl = buffer_.find('\n', start)) {
        lines.push_back(buffer_.substr(start, nl - start));
        start = nl + 1;
      }
      buffer_.erase(0, start);
      if (lines.size() == n) break;
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        ADD_FAILURE() << "recv: "
                      << (got == 0 ? "unexpected EOF"
                                   : std::strerror(errno))
                      << " after " << lines.size() << "/" << n << " lines";
        break;
      }
      buffer_.append(chunk, static_cast<size_t>(got));
    }
    return lines;
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The ground truth the wire must match: the same request lines replayed
/// through a synchronous Dispatcher (skipping blank/comment no-response
/// lines, exactly as the servers do).
inline std::vector<std::string> SyncReference(
    const std::vector<std::string>& requests, serve::ContextManager* manager) {
  serve::Dispatcher dispatcher(manager);
  std::vector<std::string> responses;
  for (const std::string& request : requests) {
    std::string response = dispatcher.Handle(request);
    if (!response.empty()) responses.push_back(std::move(response));
  }
  return responses;
}

inline std::string JoinRequests(const std::vector<std::string>& requests) {
  std::string wire;
  for (const std::string& request : requests) {
    wire += request;
    wire += '\n';
  }
  return wire;
}

/// A deterministic mixed workload over tables owned by `prefix`: CREATE,
/// appends (some bulk), RUNs on several tables, STATS, REMOVE, FLUSH.
/// Distinct tables make cross-request overlap observable while keeping
/// every response bit-deterministic.
inline std::vector<std::string> MixedWorkload(const std::string& prefix, int n,
                                              int bulk_rankings) {
  std::vector<std::string> requests;
  const std::string hot = prefix + "_hot";
  const std::string cold_a = prefix + "_a";
  const std::string cold_b = prefix + "_b";
  for (const std::string& table : {hot, cold_a, cold_b}) {
    requests.push_back("CREATE " + table + " CYCLIC " + std::to_string(n) +
                       " 2 2");
  }
  const auto ranking_text = [n](int rotation) {
    std::ostringstream os;
    for (int i = 0; i < n; ++i) {
      if (i != 0) os << ' ';
      os << (i + rotation) % n;
    }
    return os.str();
  };
  for (int wave = 0; wave < 3; ++wave) {
    // A bulk append backlog on the hot table makes its next RUN drain a
    // real batch (the executor's park-while-draining path)...
    std::ostringstream bulk;
    bulk << "APPEND " << hot;
    for (int r = 0; r < bulk_rankings; ++r) {
      if (r != 0) bulk << " ;";
      bulk << ' ' << ranking_text((wave * bulk_rankings + r) % n);
    }
    requests.push_back(bulk.str());
    requests.push_back("RUN " + hot + " A4");
    // ...while the cold tables' traffic is free to overlap it.
    for (const std::string& table : {cold_a, cold_b}) {
      requests.push_back("APPEND " + table + " " + ranking_text(wave));
      requests.push_back("RUN " + table + " A3");
      requests.push_back("STATS " + table);
    }
    requests.push_back("# comment between waves");
    requests.push_back("");
  }
  requests.push_back("REMOVE " + hot + " 0");
  requests.push_back("FLUSH " + hot);
  requests.push_back("RUN " + hot + " all");
  requests.push_back("STATS " + hot);
  requests.push_back("TABLES");
  return requests;
}

}  // namespace manirank::testing

#endif  // MANIRANK_TESTS_SERVE_TEST_UTIL_H_
