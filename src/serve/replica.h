#ifndef MANIRANK_SERVE_REPLICA_H_
#define MANIRANK_SERVE_REPLICA_H_

/// \file
/// Follower side of leader/follower replication: a FollowerClient
/// connects to a leader's socket front end, discovers its tables
/// (TABLES over a control connection), and opens one REPLICATE stream
/// per table. Each stream ships the table's v2 snapshot floor plus the
/// committed op log (serve/protocol.h documents the wire format — the
/// exact on-disk byte format, FNV-1a checksums and all), which the
/// session verifies with the same OpLogCursor cold start uses, chains to
/// the floor with the same FloorChain, and folds through the same
/// ContextManager::ApplyReplicated — one record per fold. Cold start,
/// crash recovery, and follower catch-up are therefore ONE verification
/// + apply path.
///
/// Replicated tables are registered as followers (TableRole::kFollower):
/// external mutations draw "ERR readonly:", while RUN / STATS / EVAL
/// serve bit-identically to the leader at the replicated generation.
///
/// Failure model: any stream end — leader death, chain rotation after a
/// snapshot truncation, a torn or non-chaining stream — drops the
/// connection and retries a FULL re-handshake with backoff. Between
/// attempts the follower keeps serving its last consistently folded
/// state; STATS surfaces replica_connected=0 and the last observed
/// leader generation so the staleness is bounded AND observable. A
/// re-handshake replaces the table with the new floor before replaying,
/// in one step: ContextManager::RestoreFollower builds the shard already
/// marked a follower and swaps it in with a single map update under the
/// manager's lifecycle lock, so reads never see the table missing and
/// external writes never reach a not-yet-follower shard.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "serve/context_manager.h"

namespace manirank::serve {

class FollowerClient {
 public:
  struct Options {
    /// Leader address (the host manirank_serve --follow parses).
    std::string host = "127.0.0.1";
    int port = 0;
    /// Progress/diagnostic lines (nullptr = quiet; serve_main passes
    /// stderr). Writes are serialized internally.
    std::ostream* log = nullptr;
    /// Backoff between reconnect attempts of one session, and between
    /// control-connection rebuilds.
    int reconnect_ms = 500;
    /// Period of the control connection's TABLES discovery poll.
    int discover_ms = 1000;
  };

  /// `manager` is borrowed and must outlive this object; replicated
  /// tables are registered into it as followers.
  FollowerClient(ContextManager* manager, Options options);
  ~FollowerClient();
  FollowerClient(const FollowerClient&) = delete;
  FollowerClient& operator=(const FollowerClient&) = delete;

  /// Starts the discovery thread (which spawns one session thread per
  /// leader table). Does NOT wait for catch-up: tables appear and
  /// converge as their streams land; poll the manager's stats to detect
  /// catch-up. Only fails when already started.
  bool Start(std::string* error = nullptr);

  /// Stops every session: closes the sockets, joins the threads. The
  /// replicated tables REMAIN in the manager, serving their last folded
  /// state (still marked followers).
  void Shutdown();

 private:
  struct Session {
    std::thread thread;
    int fd = -1;  ///< live socket, guarded by mu_ (Shutdown interrupts it)
  };

  /// Control loop: keeps one connection polling TABLES and spawns a
  /// session for every table it has not seen yet.
  void DiscoverLoop();
  /// Per-table loop: handshake + stream + apply, reconnecting with
  /// backoff forever (until Shutdown).
  void TableSession(const std::string& table, Session* session);
  /// One connect-to-EOF episode; returns when the stream ends for any
  /// reason. Accumulates into *total_bytes / *leader_generation across
  /// episodes.
  void StreamOnce(const std::string& table, int fd, uint64_t* total_bytes,
                  uint64_t* leader_generation);
  int ConnectToLeader();
  /// Interruptible sleep: wakes early on Shutdown.
  void SleepMs(int ms);
  void Log(const std::string& line);

  ContextManager* manager_;
  Options options_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  mutable std::mutex mu_;  ///< guards sessions_ and every Session::fd
  std::unordered_map<std::string, std::unique_ptr<Session>> sessions_;
  std::thread discover_thread_;
  int discover_fd_ = -1;  ///< guarded by mu_
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::mutex log_mu_;
};

}  // namespace manirank::serve

#endif  // MANIRANK_SERVE_REPLICA_H_
