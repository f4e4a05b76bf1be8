#include "serve/replica.h"

#include <netdb.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <ostream>
#include <string_view>
#include <utility>

#include "data/op_log.h"
#include "data/snapshot.h"
#include "serve/protocol.h"

namespace manirank::serve {
namespace {

bool SendAllFd(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t w = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    sent += static_cast<size_t>(w);
  }
  return true;
}

/// Appends one read(2) worth of bytes to *buffer; false on EOF/error.
/// `counter`, when given, accumulates raw bytes received (the
/// replica_bytes_streamed stat).
bool ReadMoreFd(int fd, std::string* buffer, uint64_t* counter = nullptr) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
    if (counter != nullptr) *counter += static_cast<uint64_t>(n);
    return true;
  }
}

/// Pops one '\n'-terminated line off *buffer (reading more as needed),
/// leaving the remainder — for the REPLICATE handshake, the head of the
/// binary payload — in *buffer.
bool ReadLineFd(int fd, std::string* buffer, std::string* line,
                uint64_t* counter = nullptr) {
  for (;;) {
    const size_t newline = buffer->find('\n');
    if (newline != std::string::npos) {
      *line = buffer->substr(0, newline);
      buffer->erase(0, newline + 1);
      return true;
    }
    // No protocol line is remotely this long; treat it as a broken peer.
    if (buffer->size() > (1u << 20)) return false;
    if (!ReadMoreFd(fd, buffer, counter)) return false;
  }
}

/// Parses a whole token as a decimal u64: digits only — no sign, no
/// space — and no overflow.
bool ParseU64(std::string_view token, uint64_t* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return !token.empty() && ec == std::errc() && ptr == end;
}

/// Parses "OK REPLICATE <table> snapshot_bytes=<N> log_bytes=<M>", and
/// nothing after it.
bool ParseHandshakeHeader(const std::string& line, const std::string& table,
                          uint64_t* snapshot_bytes, uint64_t* log_bytes) {
  RequestTokenizer tokens(line);
  const auto parse_kv = [&tokens](std::string_view key, uint64_t* out) {
    const std::string_view kv = tokens.Next();
    return kv.size() > key.size() && kv.substr(0, key.size()) == key &&
           kv[key.size()] == '=' && ParseU64(kv.substr(key.size() + 1), out);
  };
  return tokens.Next() == "OK" && tokens.Next() == "REPLICATE" &&
         tokens.Next() == table && parse_kv("snapshot_bytes", snapshot_bytes) &&
         parse_kv("log_bytes", log_bytes) && tokens.Next().empty();
}

}  // namespace

FollowerClient::FollowerClient(ContextManager* manager, Options options)
    : manager_(manager), options_(std::move(options)) {
  if (options_.reconnect_ms < 1) options_.reconnect_ms = 1;
  if (options_.discover_ms < 1) options_.discover_ms = 1;
}

FollowerClient::~FollowerClient() { Shutdown(); }

bool FollowerClient::Start(std::string* error) {
  if (started_) {
    if (error != nullptr) *error = "follower already started";
    return false;
  }
  stopping_.store(false);
  started_ = true;
  discover_thread_ = std::thread([this] { DiscoverLoop(); });
  return true;
}

void FollowerClient::Shutdown() {
  if (!started_) return;
  stopping_.store(true);
  sleep_cv_.notify_all();
  {
    // shutdown() (not close) interrupts the blocked reads; each thread
    // still owns its descriptor and closes it on the way out.
    std::lock_guard<std::mutex> lock(mu_);
    if (discover_fd_ >= 0) ::shutdown(discover_fd_, SHUT_RDWR);
    for (auto& [name, session] : sessions_) {
      if (session->fd >= 0) ::shutdown(session->fd, SHUT_RDWR);
    }
  }
  if (discover_thread_.joinable()) discover_thread_.join();
  // The discovery thread is down, so sessions_ is stable to iterate
  // without the lock (session threads never mutate the map).
  for (auto& [name, session] : sessions_) {
    if (session->thread.joinable()) session->thread.join();
  }
  started_ = false;
}

int FollowerClient::ConnectToLeader() {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string port = std::to_string(options_.port);
  if (::getaddrinfo(options_.host.c_str(), port.c_str(), &hints, &result) !=
      0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  return fd;
}

void FollowerClient::SleepMs(int ms) {
  std::unique_lock<std::mutex> lock(sleep_mu_);
  sleep_cv_.wait_for(lock, std::chrono::milliseconds(ms),
                     [this] { return stopping_.load(); });
}

void FollowerClient::Log(const std::string& line) {
  if (options_.log == nullptr) return;
  std::lock_guard<std::mutex> lock(log_mu_);
  *options_.log << line << "\n";
}

void FollowerClient::DiscoverLoop() {
  while (!stopping_.load()) {
    const int fd = ConnectToLeader();
    if (fd < 0) {
      SleepMs(options_.reconnect_ms);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load()) {
        ::close(fd);
        return;
      }
      discover_fd_ = fd;
    }
    std::string buffer;
    bool first = true;
    while (!stopping_.load()) {
      if (!first) SleepMs(options_.discover_ms);
      first = false;
      if (stopping_.load()) break;
      if (!SendAllFd(fd, "TABLES\n")) break;
      std::string line;
      if (!ReadLineFd(fd, &buffer, &line)) break;
      // "OK TABLES <count> <name>..."
      RequestTokenizer tokens(line);
      uint64_t count = 0;
      if (tokens.Next() != "OK" || tokens.Next() != "TABLES" ||
          !ParseU64(tokens.Next(), &count)) {
        continue;
      }
      for (std::string_view token = tokens.Next(); !token.empty();
           token = tokens.Next()) {
        const std::string name(token);
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_.load() || sessions_.count(name) != 0) continue;
        auto session = std::make_unique<Session>();
        Session* raw = session.get();
        sessions_.emplace(name, std::move(session));
        const std::string table = name;
        raw->thread =
            std::thread([this, table, raw] { TableSession(table, raw); });
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      discover_fd_ = -1;
    }
    ::close(fd);
  }
}

void FollowerClient::TableSession(const std::string& table,
                                  Session* session) {
  // Cumulative across reconnects: the staleness story must survive the
  // link flapping.
  uint64_t total_bytes = 0;
  uint64_t leader_generation = 0;
  while (!stopping_.load()) {
    const int fd = ConnectToLeader();
    if (fd < 0) {
      manager_->SetReplicaProgress(table, leader_generation, total_bytes,
                                   false);
      SleepMs(options_.reconnect_ms);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load()) {
        ::close(fd);
        return;
      }
      session->fd = fd;
    }
    StreamOnce(table, fd, &total_bytes, &leader_generation);
    {
      std::lock_guard<std::mutex> lock(mu_);
      session->fd = -1;
    }
    ::close(fd);
    // Stream down (leader death, chain rotation, torn stream): keep
    // serving the last consistent fold boundary, observably stale.
    manager_->SetReplicaProgress(table, leader_generation, total_bytes,
                                 false);
    if (stopping_.load()) break;
    SleepMs(options_.reconnect_ms);
  }
}

void FollowerClient::StreamOnce(const std::string& table, int fd,
                                uint64_t* total_bytes,
                                uint64_t* leader_generation) {
  if (!SendAllFd(fd, "REPLICATE " + table + "\n")) return;
  std::string buffer;
  std::string header;
  if (!ReadLineFd(fd, &buffer, &header, total_bytes)) return;
  uint64_t snapshot_bytes = 0;
  uint64_t log_bytes = 0;
  if (!ParseHandshakeHeader(header, table, &snapshot_bytes, &log_bytes)) {
    Log("follower: table '" + table + "': leader refused replication: " +
        header);
    return;
  }
  while (buffer.size() < snapshot_bytes) {
    if (!ReadMoreFd(fd, &buffer, total_bytes)) return;
  }
  // Swap the new floor in. Handshakes re-ship the complete state, so a
  // re-handshake (rotation, torn stream, reconnect) replaces the table
  // rather than patching it — in one step, already a follower, so reads
  // never miss the table and external writes never land in it. What
  // follows is exactly cold start's floor + replay.
  uint64_t floor_generation = 0;
  uint64_t floor_rankings = 0;
  try {
    TableSnapshot snapshot =
        DecodeTableSnapshot(std::string_view(buffer).substr(0, snapshot_bytes));
    floor_generation = snapshot.summary.generation;
    floor_rankings = static_cast<uint64_t>(snapshot.summary.num_rankings);
    manager_->RestoreFollower(table, std::move(snapshot));
  } catch (const std::exception& e) {
    Log("follower: table '" + table + "': cannot restore floor: " +
        e.what());
    return;
  }
  buffer.erase(0, snapshot_bytes);
  if (floor_generation > *leader_generation) {
    *leader_generation = floor_generation;
  }
  manager_->SetReplicaProgress(table, *leader_generation, *total_bytes,
                               true);
  Log("follower: table '" + table + "': restored floor at generation " +
      std::to_string(floor_generation) + " (" +
      std::to_string(floor_rankings) + " rankings), replaying log");
  // Everything after the floor is one continuous op-log byte stream:
  // the committed prefix from the handshake, then records as the leader
  // folds them. One cursor verifies it all and one FloorChain chains it
  // to the floor — the same pair cold start uses.
  OpLogCursor cursor("replication stream of table '" + table + "'");
  FloorChain chain(floor_generation, floor_rankings);
  bool chain_checked = false;
  bool caught_up = false;
  try {
    for (;;) {
      if (!buffer.empty()) {
        cursor.Feed(buffer.data(), buffer.size());
        buffer.clear();
      }
      for (;;) {
        OpRecord record;
        const OpLogCursor::Status status = cursor.Next(&record);
        if (!chain_checked && cursor.header_ready()) {
          chain_checked = true;
          const std::string refused = chain.CheckBase(
              cursor.base_generation(), cursor.base_rankings());
          if (!refused.empty()) {
            Log("follower: table '" + table + "': streamed log " + refused +
                " — re-handshaking");
            return;
          }
        }
        if (status == OpLogCursor::Status::kNeedMore) break;
        if (status == OpLogCursor::Status::kTorn) {
          // A mid-stream frame that can never verify: the link corrupted
          // it (the leader only ships committed bytes). Reconnect for a
          // fresh handshake.
          Log("follower: table '" + table + "': torn stream (" +
              cursor.TornDetail() + "), re-handshaking");
          return;
        }
        const FloorChain::Verdict verdict = chain.Classify(record);
        if (verdict == FloorChain::Verdict::kSkip) continue;
        if (verdict == FloorChain::Verdict::kStraddle) {
          Log("follower: table '" + table +
              "': streamed record straddles the snapshot boundary — "
              "re-handshaking");
          return;
        }
        *leader_generation = chain.generation();
        manager_->SetReplicaProgress(table, chain.generation(),
                                     *total_bytes, true);
        manager_->ApplyReplicated(table, std::move(record));
      }
      if (!caught_up && chain_checked &&
          cursor.clean_bytes() + cursor.pending_bytes() >= log_bytes) {
        caught_up = true;
        Log("follower: table '" + table + "': caught up at generation " +
            std::to_string(std::max(chain.generation(), floor_generation)) +
            ", tailing the leader");
      }
      if (!ReadMoreFd(fd, &buffer, total_bytes)) return;  // EOF: reconnect
    }
  } catch (const std::exception& e) {
    // OpLogFormatError (bad stream header) or an apply rejection (the
    // table was dropped/replaced locally): drop the link and retry with
    // a fresh handshake.
    Log("follower: table '" + table + "': stream failed: " + e.what() +
        " — re-handshaking");
    return;
  }
}

}  // namespace manirank::serve
