#include "serve/executor.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>

#include "serve/durability.h"
#include "util/threading.h"

namespace manirank::serve {
namespace {

/// Longest request line eligible for the loop-thread inline fast path.
/// Small enough that parsing + a non-blocking table op cannot stall the
/// loop's other connections; anything bigger goes to the workers. The cap
/// also bounds an EVAL hit's O(n log n) scoring on the loop: a 4,096-byte
/// line holds about n = 1000 ids, which cost about 25 us to tokenize,
/// check and score.
constexpr size_t kInlineMaxLineBytes = 4096;

/// EVAL hits the loop may score in one service pass, and only in a pass
/// that services a single connection. A pass with several connections
/// means requests queued up behind the loop; their EVALs go to the
/// workers, which share the scoring, so the loop's share of it shrinks
/// as load grows instead of capping throughput at one core.
constexpr int kLoopEvalsPerPass = 1;

/// WFQ billing: one draining verb (RUN/FLUSH — seconds of gate-holding
/// work) costs this many virtual slots, a light verb costs one. A hot
/// table's parked-then-released drain backlog therefore advances its
/// lane's virtual finish time 8x faster than a light table's STATS
/// stream, and the light request sorts ahead of the backlog.
constexpr uint64_t kDrainWeight = 8;

/// Middle WFQ tier for the compute verbs (EVAL / SELECT): read-only —
/// they never hold the exclusive gate — but they run a consensus method
/// (or an ILP fallback) on a cold result cache, so they are billed
/// heavier than STATS/APPEND yet lighter than a drain.
constexpr uint64_t kComputeWeight = 4;

/// Heap order of the WFQ ready queue: a min-heap on (vstart, arrival).
constexpr auto kLaterEntry = [](const auto& a, const auto& b) {
  return a.vstart > b.vstart || (a.vstart == b.vstart && a.arrival > b.arrival);
};

/// Nagle off for accepted connections: with it on, a pipelining client's
/// final sub-MSS segment can stall ~40 ms behind the peer's delayed ACK
/// whenever the server has no response traffic to piggyback ACKs on —
/// which is exactly the quiet stretch while a big fold executes.
void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void Fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
}

/// Binds and listens (nonblocking) on 127.0.0.1:<port> (0 = ephemeral),
/// reporting the actually-bound port. Returns the listener fd, or -1 with
/// *error set.
int OpenListener(int port, int* bound_port, std::string* error) {
  const int listener =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listener < 0) {
    Fail(error, "socket");
    return -1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      // 511 absorbs a whole connection-storm burst (the scaling bench
      // opens 512 sockets at once); a short backlog would drop SYNs into
      // 1s retransmit limbo on loopback.
      ::listen(listener, 511) < 0) {
    Fail(error, "bind/listen on 127.0.0.1:" + std::to_string(port));
    ::close(listener);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    Fail(error, "getsockname");
    ::close(listener);
    return -1;
  }
  *bound_port = static_cast<int>(ntohs(addr.sin_port));
  return listener;
}

/// Per-pass byte budget for one replication pump: bounds both the file
/// read on the loop thread and the response-buffer growth per stream.
constexpr size_t kReplPumpBytes = 256u << 10;

/// Registers `fd` with the loop's epoll set, edge-triggered (EPOLLET): a
/// readiness level is reported once per edge, so every consumer drains
/// to EAGAIN or latches the readiness itself. EPOLLRDHUP turns a peer
/// half-close into an input edge. `data` comes back in every event.
bool EpollAdd(int epfd, int fd, bool want_write, void* data) {
  epoll_event event{};
  event.events = EPOLLIN | EPOLLRDHUP | EPOLLET | (want_write ? EPOLLOUT : 0u);
  event.data.ptr = data;
  return ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &event) == 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// ServeExecutor
// ---------------------------------------------------------------------------

/// One queued request: scheduling metadata plus the intra-connection
/// dependency edges that serialize same-table and barrier requests.
/// Owned by live_nodes_; destroyed in CompleteLocked.
struct ServeExecutor::Request {
  std::shared_ptr<Conn> conn;
  uint64_t seq = 0;
  /// Global arrival stamp: FIFO tie-break within one WFQ virtual slot.
  uint64_t arrival = 0;
  std::string line;
  std::string table;
  bool barrier = false;
  bool draining = false;
  /// Compute verb (EVAL / SELECT): a miss never executes on the loop (a
  /// cold-cache consensus run there would stall every connection);
  /// billed kComputeWeight in the WFQ.
  bool compute = false;
  /// RUN / SELECT / EVAL: returned to the loop for a result-cache probe
  /// when dependency-free (see ExecuteNode); a miss takes the worker
  /// path.
  bool cacheable = false;
  /// EVAL: a hit still scores the ranking, so it is probed on the loop
  /// only while the pass's budget lasts (kLoopEvalsPerPass).
  bool hit_computes = false;
  /// Non-empty: respond with this without executing (oversize ERR).
  std::string synthetic_response;
  /// Unfinished predecessors; dispatched when this reaches zero.
  size_t deps = 0;
  std::vector<Request*> dependents;
};

struct ServeExecutor::Conn {
  explicit Conn(int fd) : fd(fd) {}

  /// Mutated only by the loop thread, and only under write_mu
  /// (FlushConn reads it under write_mu from any thread).
  int fd;

  // --- touched only by the loop thread ---
  std::string in_buffer;
  /// Reading and scheduling new requests (false after client EOF, an
  /// oversize line, or executor shutdown).
  bool scheduling_reads = true;
  bool saw_eof = false;
  /// Response stream flushed and half-closed; reading-and-discarding
  /// until the client closes (so close() never turns into an RST that
  /// destroys the tail of the response stream).
  bool discarding = false;
  /// Edge-triggered readiness latch: epoll reported the fd readable and
  /// it has not been drained to EAGAIN since.
  bool read_ready = false;
  /// An error/hangup edge not yet acted on.
  bool saw_error = false;
  /// Already queued on the loop's service list (dedupe flag).
  bool in_service = false;
  /// Currently counted as backpressure-stalled (counts transitions, not
  /// service passes).
  bool stalled = false;
  /// During shutdown a discarding client gets a bounded linger to close
  /// its end, then is dropped — one idle peer must not hang Shutdown().
  std::chrono::steady_clock::time_point discard_deadline{};
  /// During shutdown, once every request has executed, a client that
  /// stops reading its buffered responses gets a bounded flush window
  /// before being dropped — same rationale as discard_deadline.
  std::chrono::steady_clock::time_point flush_deadline{};

  /// Leader-side replication stream state (guarded by sched_mu_, like
  /// the response buffer it feeds). Non-null from the REPLICATE
  /// interception until CloseConn (or a refused handshake).
  struct Repl {
    std::string table;
    uint64_t chain = 0;   ///< truncation counter naming the chain
    uint64_t offset = 0;  ///< next committed log byte to ship
    /// Header + floor + log prefix appended to pending_out; the loop may
    /// start pumping.
    bool handshake_done = false;
  };

  // --- guarded by sched_mu_ ---
  std::unique_ptr<Repl> repl;
  uint64_t next_seq = 0;   // next request sequence number to assign
  uint64_t next_send = 0;  // next sequence number to sequence to the wire
  /// Bytes of parsed request lines not yet executed (the request-side
  /// backpressure budget).
  size_t queued_line_bytes = 0;
  /// Finished responses waiting for an earlier sequence number.
  std::map<uint64_t, std::string> finished_out_of_order;
  /// Every unfinished request of this connection (barrier dependencies).
  std::vector<Request*> unfinished;
  /// Last unfinished request per table — the tail of each serial chain.
  std::unordered_map<std::string, Request*> last_by_table;
  Request* last_barrier = nullptr;
  /// Sequenced response bytes not yet handed to the sender (stage one of
  /// the two-buffer flush; stage two is `sending` under write_mu).
  std::string pending_out;
  /// pending_out plus the unsent remainder of `sending`: the response-
  /// side backpressure budget, maintained here so the loop can read it
  /// under sched_mu_ alone.
  size_t unsent_bytes = 0;
  /// Write error: the peer is gone; discard completions silently.
  bool dead = false;
  /// Already on the loop's notify list (dedupe flag).
  bool notified = false;

  // --- guarded by write_mu ---
  /// Serializes send() against fd close. Lock order: write_mu BEFORE
  /// sched_mu_; never acquire write_mu while holding sched_mu_.
  std::mutex write_mu;
  /// Bytes in flight to the kernel (swapped out of pending_out); the
  /// send() syscalls run under write_mu only, so a slow flush never
  /// blocks the global scheduler.
  std::string sending;
  size_t send_offset = 0;
};

/// The event loop: epoll set + listener + wake pipe + emergency fd +
/// every accepted connection. Its destructor closes whichever of its own
/// fds are still open (a failed Start, or Shutdown after the join).
struct ServeExecutor::IoLoop {
  ~IoLoop() {
    for (int fd : {listener, wake_fds[0], wake_fds[1], emergency_fd, epfd}) {
      if (fd >= 0) ::close(fd);
    }
  }

  int epfd = -1;
  int listener = -1;
  int wake_fds[2] = {-1, -1};
  /// Reserved fd burned to accept-then-reject on EMFILE/ENFILE.
  int emergency_fd = -1;
  std::atomic<bool> wake_pending{false};
  std::thread thread;
  /// Event-data sentinels distinguishing the wake pipe and listener from
  /// connection pointers.
  char wake_tag = 0;
  char listener_tag = 0;

  // --- touched only by the loop thread ---
  std::map<int, std::shared_ptr<Conn>> conns;
  /// Connections queued for a service pass (deduped via Conn::in_service).
  std::vector<std::shared_ptr<Conn>> pending;
  bool accept_ready = false;
  std::chrono::steady_clock::time_point accept_backoff_until{};
  /// EVAL hits this service pass may still score on the loop; a miss
  /// spends none.
  int eval_budget = 0;

  // --- guarded by sched_mu_ ---
  /// Connections with completion-side news for the loop; ground truth
  /// for cross-thread wakeups (the wake pipe is only the doorbell).
  std::vector<std::shared_ptr<Conn>> notify;
};

ServeExecutor::ServeExecutor(ContextManager* manager, ServerOptions options)
    : manager_(manager), options_(options), dispatcher_(manager) {
  if (options_.workers == 0) options_.workers = DefaultThreadCount();
  options_.workers = std::min(std::max<size_t>(1, options_.workers),
                              kMaxThreads);
  options_.max_inflight_per_connection =
      std::max<size_t>(1, options_.max_inflight_per_connection);
  options_.max_buffered_response_bytes =
      std::max<size_t>(4096, options_.max_buffered_response_bytes);
  dispatcher_.set_metrics_provider([this] { return MetricsResponse(); });
  // The executor drives RunDuePolicies from the loop's epoll timeout and
  // the drain observer — never inline on the loop thread.
  dispatcher_.set_durability(options_.durability,
                             /*inline_policy_eval=*/false);
}

ServeExecutor::~ServeExecutor() { Shutdown(); }

size_t ServeExecutor::workers() const { return options_.workers; }

uint64_t ServeExecutor::requests_served() const {
  std::lock_guard<std::mutex> lock(sched_mu_);
  return counters_.served;
}

uint64_t ServeExecutor::requests_parked() const {
  std::lock_guard<std::mutex> lock(sched_mu_);
  return counters_.parked_drains;
}

uint64_t ServeExecutor::bytes_received() const {
  std::lock_guard<std::mutex> lock(sched_mu_);
  return counters_.bytes_in;
}

bool ServeExecutor::Start(std::string* error) {
  if (started_) {
    if (error != nullptr) *error = "executor already started";
    return false;
  }
  // Every fd below belongs to `loop` until it is installed, so each
  // failure return closes exactly what this call opened.
  auto loop = std::make_unique<IoLoop>();
  loop->listener = OpenListener(options_.port, &port_, error);
  if (loop->listener < 0) return false;
  if (::pipe2(loop->wake_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    Fail(error, "wake pipe");
    return false;
  }
  loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
  if (loop->epfd < 0) {
    Fail(error, "epoll_create1");
    return false;
  }
  loop->emergency_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (loop->emergency_fd < 0) {
    Fail(error, "emergency fd (open /dev/null)");
    return false;
  }
  if (!EpollAdd(loop->epfd, loop->wake_fds[0], false, &loop->wake_tag) ||
      !EpollAdd(loop->epfd, loop->listener, false, &loop->listener_tag)) {
    Fail(error, "epoll_ctl");
    return false;
  }
  // Sweep the backlog once at startup regardless of edges (connects
  // racing Start).
  loop->accept_ready = true;
  loop_ = std::move(loop);
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    workers_stop_ = false;
    // A drain observed after the previous life's workers stopped may have
    // left the flag set with no pass queued to clear it.
    policy_eval_scheduled_ = false;
    policy_eval_queued_ = false;
    counters_ = Counters{};
  }
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  // Park-instead-of-block for draining verbs (see DispatchLocked); the
  // observer releases parked requests the moment the fold ends.
  manager_->SetDrainObserver(
      [this](const std::string& table) { OnDrainFinished(table); });
  stopping_.store(false);
  parked_flushed_ = false;
  started_ = true;
  loop_->thread = std::thread([this] { LoopMain(); });
  if (options_.log != nullptr) {
    *options_.log << "manirank_serve executor listening on 127.0.0.1:"
                  << port_ << " (" << options_.workers << " workers, epoll)\n";
  }
  return true;
}

void ServeExecutor::Shutdown() {
  if (!started_) return;
  stopping_.store(true);
  WakeLoop();
  // The loop exits only once every connection is closed, i.e. every
  // accepted request has executed and flushed.
  if (loop_->thread.joinable()) loop_->thread.join();
  // The workers then drain whatever stragglers belong to already-aborted
  // connections; those completions may still ring the loop doorbell, so
  // the wake pipe stays open until after the workers are down.
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    workers_stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  manager_->SetDrainObserver(nullptr);
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    parked_.clear();
    ready_.clear();
    live_nodes_.clear();
    table_vfinish_.clear();
    virtual_time_ = 0;
    repl_streams_.clear();
    handshakes_.clear();
  }
  loop_.reset();  // closes the wake pipe, reserve fd and epoll set
  started_ = false;
}

void ServeExecutor::WakeLoop() {
  if (loop_->wake_pending.exchange(true)) return;
  const char byte = 1;
  // Nonblocking; a full pipe means a wakeup is already in flight. A lost
  // byte is harmless: the notify list under sched_mu_ is the ground
  // truth and is re-checked at the top of every loop iteration.
  [[maybe_unused]] const ssize_t w = ::write(loop_->wake_fds[1], &byte, 1);
}

void ServeExecutor::LoopMain() {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  std::vector<std::shared_ptr<Conn>> work;
  for (;;) {
    const bool stopping = stopping_.load();
    bool have_repl_streams;
    if (stopping && loop_->listener >= 0) {
      ::epoll_ctl(loop_->epfd, EPOLL_CTL_DEL, loop_->listener, nullptr);
      ::close(loop_->listener);
      loop_->listener = -1;
      loop_->accept_ready = false;
    }
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      if (stopping && !parked_flushed_) {
        // No further drains may come to release parked requests once the
        // request inflow stops — dispatch them now; they execute, at
        // worst briefly blocking on a finishing fold, and their clients
        // still get responses before half-close.
        parked_flushed_ = true;
        for (auto& [table, nodes] : parked_) {
          for (Request* node : nodes) EnqueueReadyLocked(node);
        }
        parked_.clear();
      }
      for (const std::shared_ptr<Conn>& conn : loop_->notify) {
        conn->notified = false;
        if (!conn->in_service) {
          conn->in_service = true;
          loop_->pending.push_back(conn);
        }
      }
      loop_->notify.clear();
      // Pump every live replication stream this pass; the 200 ms poll
      // tick below caps the latency between passes.
      for (const std::shared_ptr<Conn>& conn : repl_streams_) {
        if (!conn->in_service) {
          conn->in_service = true;
          loop_->pending.push_back(conn);
        }
      }
      have_repl_streams = !repl_streams_.empty();
    }
    if (stopping) {
      // Tick every connection so shutdown transitions and linger
      // deadlines advance even without fd events.
      for (auto& [fd, conn] : loop_->conns) {
        if (!conn->in_service) {
          conn->in_service = true;
          loop_->pending.push_back(conn);
        }
      }
    }
    work.clear();
    work.swap(loop_->pending);
    // Clear the dedupe flags before servicing: a connection that needs
    // another pass (read budget, self-unblocked flush) re-queues itself
    // onto the pending list for the next iteration.
    for (const std::shared_ptr<Conn>& conn : work) conn->in_service = false;
    loop_->eval_budget = work.size() == 1 ? kLoopEvalsPerPass : 0;
    for (const std::shared_ptr<Conn>& conn : work) ServiceConn(conn);
    if (stopping && loop_->conns.empty()) break;
    const bool backing_off =
        std::chrono::steady_clock::now() < loop_->accept_backoff_until;
    if (loop_->accept_ready && !backing_off) AcceptReady();
    int timeout_ms;
    if (!loop_->pending.empty()) {
      timeout_ms = 0;  // more service work already queued
    } else if (stopping) {
      timeout_ms = 100;  // tick linger deadlines
    } else if (loop_->accept_ready) {
      timeout_ms = 50;  // resume accepting after the backoff expires
    } else if (have_repl_streams) {
      // Replication poll tick: bounds the latency of rotation detection
      // and of any pump notification lost to a race. The drain observer
      // is the fast path; this is the backstop.
      timeout_ms = 200;
    } else {
      timeout_ms = -1;
    }
    if (options_.durability != nullptr && !stopping) {
      // The loop doubles as the snapshot-policy timer: bound its wait by
      // the earliest SECONDS deadline and hand due work to the workers —
      // the loop thread itself never snapshots (a truncation drains a
      // whole table under its exclusive gate).
      const int64_t due_ms = options_.durability->NextDeadlineMs();
      if (due_ms == 0) {
        SchedulePolicyEval();
      } else if (due_ms > 0) {
        const int bounded =
            static_cast<int>(std::min<int64_t>(due_ms, 60 * 1000));
        if (timeout_ms < 0 || bounded < timeout_ms) timeout_ms = bounded;
      }
    }
    int ready = ::epoll_wait(loop_->epfd, events, kMaxEvents, timeout_ms);
    if (ready < 0) {
      if (errno != EINTR) break;  // epoll failed: abandon ship (teardown)
      ready = 0;
    }
    for (int i = 0; i < ready; ++i) {
      void* const data = events[i].data.ptr;
      if (data == &loop_->wake_tag) {
        char drain[64];
        while (::read(loop_->wake_fds[0], drain, sizeof(drain)) > 0) {
        }
        // Drain THEN clear: a doorbell rung after this store writes a
        // fresh byte; one rung in the window loses its byte but its
        // notify entry is drained next iteration anyway.
        loop_->wake_pending.store(false);
        continue;
      }
      if (data == &loop_->listener_tag) {
        loop_->accept_ready = true;
        continue;
      }
      // A connection. The pointer is safe: closes happen only in the
      // service phase, which runs before epoll_wait, and EPOLL_CTL_DEL
      // precedes every close — so no event in this batch refers to a
      // freed Conn. EPOLLRDHUP (peer half-close) counts as readable: the
      // read surfaces the EOF.
      Conn* raw = static_cast<Conn*>(data);
      const auto it = loop_->conns.find(raw->fd);
      if (it == loop_->conns.end() || it->second.get() != raw) continue;
      const std::shared_ptr<Conn>& conn = it->second;
      const uint32_t flags = events[i].events;
      const bool error = (flags & (EPOLLERR | EPOLLHUP)) != 0;
      if (error || (flags & (EPOLLIN | EPOLLRDHUP)) != 0) {
        conn->read_ready = true;
      }
      if (error) conn->saw_error = true;
      if (!conn->in_service) {
        conn->in_service = true;
        loop_->pending.push_back(conn);
      }
    }
  }
  // Defensive teardown for the epoll-failure exit: Shutdown's cleanup
  // assumes the loop closed every connection.
  for (auto& [fd, conn] : loop_->conns) {
    ::epoll_ctl(loop_->epfd, EPOLL_CTL_DEL, fd, nullptr);
    {
      std::lock_guard<std::mutex> wlock(conn->write_mu);
      ::close(fd);
      conn->fd = -1;
      conn->sending.clear();
      conn->send_offset = 0;
    }
    std::lock_guard<std::mutex> lock(sched_mu_);
    conn->dead = true;
    conn->pending_out.clear();
    conn->unsent_bytes = 0;
  }
  loop_->conns.clear();
  if (loop_->listener >= 0) {
    ::close(loop_->listener);
    loop_->listener = -1;
  }
}

void ServeExecutor::AcceptReady() {
  loop_->accept_ready = false;
  for (;;) {
    const int fd = ::accept4(loop_->listener, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE) {
        // Linux allocates the fd before it looks at the backlog, so a
        // full fd table reports EMFILE even with nobody waiting.
        if (RejectOverloadedAccept()) continue;
        return;
      }
      if (errno == ENOBUFS || errno == ENOMEM) {
        // Transient kernel memory pressure: the pending connection stays
        // queued. Back off briefly; accept_ready keeps the timed retry
        // alive (mandatory under edge triggering — no new edge will
        // announce the already-queued backlog).
        loop_->accept_backoff_until = std::chrono::steady_clock::now() +
                                      std::chrono::milliseconds(50);
        loop_->accept_ready = true;
        return;
      }
      return;  // listener closed or fatal
    }
    SetNoDelay(fd);
    auto conn = std::make_shared<Conn>(fd);
    // Both directions, edge-triggered, registered once for life.
    if (!EpollAdd(loop_->epfd, fd, true, conn.get())) {
      ::close(fd);
      continue;
    }
    // Data may have raced the registration; force one read attempt.
    conn->read_ready = true;
    conn->in_service = true;
    loop_->conns.emplace(fd, conn);
    loop_->pending.push_back(std::move(conn));
    std::lock_guard<std::mutex> lock(sched_mu_);
    ++counters_.accepted;
  }
}

bool ServeExecutor::RejectOverloadedAccept() {
  // Out of descriptors: burn the reserve to accept into the freed slot,
  // tell the client why, and hang up — a loud rejection instead of a
  // connect that hangs in the backlog until an fd frees.
  if (loop_->emergency_fd >= 0) {
    ::close(loop_->emergency_fd);
    loop_->emergency_fd = -1;
  }
  const int fd = ::accept4(loop_->listener, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
  const bool backlog_empty =
      fd < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  if (fd >= 0) {
    // Nonblocking throughout: this path must never park the loop on a
    // hostile peer. The one-line ERR fits any socket buffer; the brief
    // drain reduces (but cannot eliminate) the close-with-unread-RST
    // window.
    const char msg[] = "ERR unavailable: server out of file descriptors\n";
    [[maybe_unused]] const ssize_t w = ::send(fd, msg, sizeof(msg) - 1,
                                              MSG_NOSIGNAL);
    ::shutdown(fd, SHUT_WR);
    char chunk[256];
    while (::read(fd, chunk, sizeof(chunk)) > 0) {
    }
    ::close(fd);
    std::lock_guard<std::mutex> lock(sched_mu_);
    ++counters_.emfile_rejected;
  } else if (!backlog_empty) {
    // Even the emergency slot did not cover it (another thread won the
    // fd); fall back to a timed retry.
    loop_->accept_backoff_until = std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(50);
    loop_->accept_ready = true;
  }
  loop_->emergency_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  // Only a rejection keeps the accept loop going: an empty backlog waits
  // for the next listener edge, a timed retry for its backoff.
  return fd >= 0;
}

void ServeExecutor::ServiceConn(const std::shared_ptr<Conn>& conn) {
  if (conn->fd < 0) return;  // closed earlier in this service batch
  const bool stopping = stopping_.load();
  const auto requeue = [&] {
    if (!conn->in_service) {
      conn->in_service = true;
      loop_->pending.push_back(conn);
    }
  };
  const auto can_read_locked = [&] {
    return conn->next_seq - conn->next_send <
               options_.max_inflight_per_connection &&
           conn->unsent_bytes <= options_.max_buffered_response_bytes &&
           conn->queued_line_bytes <= kMaxBufferedRequestBytes;
  };
  bool dead;
  bool can_read;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    dead = conn->dead;
    can_read = can_read_locked();
  }
  if (dead) {
    CloseConn(conn);
    return;
  }
  if (stopping && conn->scheduling_reads) {
    // Stop reading new requests; a partial line that never got its
    // newline is abandoned, accepted requests still complete.
    conn->scheduling_reads = false;
    conn->in_buffer.clear();
  }
  if (conn->discarding) {
    if (conn->read_ready) {
      // Draining after half-close: eat bytes until the client closes,
      // then finish the connection.
      char chunk[4096];
      for (;;) {
        const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
        if (n > 0) continue;
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          conn->read_ready = false;
          conn->saw_error = false;
          break;
        }
        CloseConn(conn);  // EOF or error: fully closed now
        return;
      }
    }
  } else if (conn->scheduling_reads && conn->read_ready) {
    // saw_error overrides the backpressure gate: the peer is gone, so
    // read through it — the read surfaces EOF/ECONNRESET and retires the
    // connection now instead of once the budget recovers.
    if (!can_read && !conn->saw_error) {
      if (!conn->stalled) {
        conn->stalled = true;
        std::lock_guard<std::mutex> lock(sched_mu_);
        ++counters_.backpressure_stalls;
      }
    } else {
      conn->stalled = false;
      conn->saw_error = false;
      switch (HandleReadable(conn)) {
        case ReadStatus::kAborted:
          return;  // connection closed
        case ReadStatus::kDrained:
          conn->read_ready = false;
          break;
        case ReadStatus::kBudget:
          requeue();  // fair round-robin: let other connections run
          break;
        case ReadStatus::kBackpressured:
          if (!conn->stalled) {
            conn->stalled = true;
            std::lock_guard<std::mutex> lock(sched_mu_);
            ++counters_.backpressure_stalls;
          }
          break;
        case ReadStatus::kEof:
          break;
      }
    }
  }
  {
    bool is_repl;
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      is_repl = conn->repl != nullptr;
    }
    if (is_repl) {
      if (stopping) {
        // Replication streams never finish on their own — close them
        // outright; the follower treats EOF as "reconnect and
        // re-handshake" (against whoever serves the durable dir next).
        FlushConn(conn);
        CloseConn(conn);
        return;
      }
      if (PumpReplication(conn)) return;  // chain rotated: closed
    }
  }
  FlushConn(conn);
  bool now_dead;
  bool now_can_read;
  bool all_executed;
  size_t unsent;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    now_dead = conn->dead;
    now_can_read = can_read_locked();
    unsent = conn->unsent_bytes;
    // A replication stream keeps the connection open indefinitely — it
    // must never take the all-flushed half-close path below.
    all_executed = !conn->scheduling_reads && conn->unfinished.empty() &&
                   conn->finished_out_of_order.empty() &&
                   conn->repl == nullptr;
  }
  if (now_dead) {
    CloseConn(conn);
    return;
  }
  if (!conn->discarding) {
    if (all_executed && unsent == 0) {
      // Every accepted request is answered and flushed: response stream
      // complete.
      if (conn->saw_eof) {
        // The client already half-closed: nothing in flight either way.
        CloseConn(conn);
        return;
      }
      // Oversize ERR or shutdown: half-close and drain so the client
      // receives the full response stream and an orderly EOF, never a
      // reset.
      ::shutdown(conn->fd, SHUT_WR);
      conn->discarding = true;
      conn->read_ready = true;  // force one drain pass
      requeue();
    } else if (conn->saw_error && !conn->scheduling_reads) {
      // Peer hangup while not reading: the remaining responses are
      // undeliverable; close now.
      CloseConn(conn);
      return;
    } else if (conn->scheduling_reads && conn->read_ready && now_can_read) {
      // Readiness is latched and the budget allows reading — requeue
      // rather than wait for a fresh edge that may never come (the
      // typical case: our own flush just restored the response budget
      // while the client sits blocked in send(), producing no new
      // edges). A stale latch costs one EAGAIN read, which clears it.
      requeue();
    }
  }
  if (stopping) {
    const auto now = std::chrono::steady_clock::now();
    if (conn->discarding) {
      if (conn->discard_deadline == decltype(now){}) {
        conn->discard_deadline = now + std::chrono::seconds(1);
      } else if (now >= conn->discard_deadline) {
        CloseConn(conn);
        return;
      }
    } else if (all_executed && unsent > 0) {
      // Everything has executed but the client is not reading its
      // responses; bound the flush — a dead reader with a full socket
      // buffer must not hang Shutdown().
      if (conn->flush_deadline == decltype(now){}) {
        conn->flush_deadline = now + std::chrono::seconds(5);
      } else if (now >= conn->flush_deadline) {
        CloseConn(conn);
        return;
      }
    }
  }
}

ServeExecutor::ReadStatus ServeExecutor::HandleReadable(
    const std::shared_ptr<Conn>& conn) {
  // Per-pass fairness budget: one connection streaming data at full
  // speed (e.g. a firehose of comment lines, which never trip the
  // in-flight backpressure because they draw no response) must not pin
  // the loop — after the budget, requeue so accepts, other reads, and
  // flushes interleave.
  constexpr size_t kReadBudgetPerWakeup = 256u << 10;
  size_t consumed = 0;
  char chunk[16384];
  for (;;) {
    if (consumed >= kReadBudgetPerWakeup) return ReadStatus::kBudget;
    const ssize_t got = ::read(conn->fd, chunk, sizeof(chunk));
    if (got > 0) {
      consumed += static_cast<size_t>(got);
      std::string& buffer = conn->in_buffer;
      // Invariant: the retained buffer never contains '\n', so only the
      // new chunk needs scanning (O(L) total for an L-byte line).
      const size_t scan_from = buffer.size();
      buffer.append(chunk, static_cast<size_t>(got));
      if (buffer.size() > kMaxRequestBytes &&
          buffer.find('\n', scan_from) == std::string::npos) {
        ScheduleOversize(conn);
        return ReadStatus::kEof;
      }
      size_t start = 0;
      for (;;) {
        const size_t newline = buffer.find('\n', std::max(start, scan_from));
        if (newline == std::string::npos) break;
        Request* inline_node =
            ScheduleLine(conn, buffer.substr(start, newline - start));
        start = newline + 1;
        if (inline_node != nullptr) ExecuteNode(inline_node, true);
        if (!conn->scheduling_reads) {
          // REPLICATE flipped the connection into a replication stream
          // mid-chunk: stop parsing. A follower sends nothing after the
          // verb, so any residual bytes are protocol garbage — drop them.
          conn->in_buffer.clear();
          std::lock_guard<std::mutex> lock(sched_mu_);
          counters_.bytes_in += static_cast<uint64_t>(got);
          return ReadStatus::kEof;
        }
      }
      buffer.erase(0, start);
      bool over;
      {
        // Soft backpressure check between chunks: everything already
        // read is scheduled, but stop pulling more once over budget.
        std::lock_guard<std::mutex> lock(sched_mu_);
        counters_.bytes_in += static_cast<uint64_t>(got);
        over = conn->next_seq - conn->next_send >=
                   options_.max_inflight_per_connection ||
               conn->unsent_bytes > options_.max_buffered_response_bytes ||
               conn->queued_line_bytes > kMaxBufferedRequestBytes;
      }
      if (over) return ReadStatus::kBackpressured;
    } else if (got == 0) {
      conn->saw_eof = true;
      conn->scheduling_reads = false;
      conn->read_ready = false;
      // A final request may arrive without a trailing newline before
      // the client half-closes; answer it rather than dropping it.
      if (!conn->in_buffer.empty()) {
        Request* inline_node = ScheduleLine(conn, std::move(conn->in_buffer));
        conn->in_buffer.clear();
        if (inline_node != nullptr) ExecuteNode(inline_node, true);
      }
      return ReadStatus::kEof;
    } else {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return ReadStatus::kDrained;
      }
      CloseConn(conn);
      return ReadStatus::kAborted;
    }
  }
}

ServeExecutor::Request* ServeExecutor::ScheduleLine(
    const std::shared_ptr<Conn>& conn, std::string&& line) {
  RequestClass cls = ClassifyRequest(line);
  // Blank/comment lines get no response and need no scheduling.
  if (cls.no_response) return nullptr;
  std::lock_guard<std::mutex> lock(sched_mu_);
  std::string synthetic;
  if (cls.replicate && options_.durability != nullptr && !stopping_.load()) {
    // A valid REPLICATE flips this connection into a replication stream.
    // Invalid variants (arity, unknown table, no durability) fall through
    // to the dispatcher, which answers the precise ERR; the "streaming
    // front end" rejection it would give a VALID request never surfaces
    // here because that case is intercepted.
    // Split exactly as the dispatcher splits it, so both agree on which
    // table (if any) a REPLICATE line names.
    RequestTokenizer tokenizer(line);
    tokenizer.Next();  // REPLICATE
    const std::string table(tokenizer.Next());
    if (!table.empty() && tokenizer.Next().empty() && manager_->Has(table)) {
      if (conn->unfinished.empty() && conn->repl == nullptr) {
        // We are on the loop thread (the only ScheduleLine
        // caller), so flipping the read-side flag here is safe;
        // HandleReadable stops parsing the moment it observes it.
        conn->scheduling_reads = false;
        conn->repl = std::make_unique<Conn::Repl>();
        conn->repl->table = table;
        repl_streams_.push_back(conn);
        // The worker cannot observe a half-built stream: it pops the
        // handshake under sched_mu_ (held here).
        handshakes_.push_back(conn);
        work_cv_.notify_one();
        ++counters_.repl_sessions;
        return nullptr;
      } else {
        // Pipelined predecessors would interleave their responses into
        // the binary stream; refuse (ordered after them, as a barrier).
        synthetic =
            "ERR conflict: REPLICATE must be the only request in flight "
            "on its connection";
      }
    }
  }
  auto owned = std::make_unique<Request>();
  Request* node = owned.get();
  node->conn = conn;
  node->seq = conn->next_seq++;
  node->arrival = next_arrival_++;
  node->line = std::move(line);
  conn->queued_line_bytes += node->line.size();
  node->table = std::move(cls.table);
  node->barrier = cls.barrier;
  node->draining = cls.draining;
  node->compute = cls.compute;
  node->cacheable = cls.cacheable;
  node->hit_computes = cls.hit_computes;
  node->synthetic_response = std::move(synthetic);
  live_nodes_.emplace(node, std::move(owned));
  const auto depend_on = [node](Request* pred) {
    if (pred != nullptr) {
      pred->dependents.push_back(node);
      ++node->deps;
    }
  };
  if (node->barrier) {
    // Orders against everything in flight on this connection, and
    // (via last_barrier) everything that arrives later.
    for (Request* pred : conn->unfinished) depend_on(pred);
    conn->last_barrier = node;
  } else {
    // Same-table requests form a serial chain (arrival order); the
    // barrier edge keeps namespace verbs totally ordered around them.
    // The two predecessors are necessarily distinct nodes: a barrier is
    // never registered in last_by_table.
    const auto it = conn->last_by_table.find(node->table);
    depend_on(it != conn->last_by_table.end() ? it->second : nullptr);
    depend_on(conn->last_barrier);
    conn->last_by_table[node->table] = node;
  }
  conn->unfinished.push_back(node);
  if (node->deps == 0) {
    const bool light = !node->draining && !node->compute;
    if (!node->barrier && (light || node->cacheable) && !stopping_.load() &&
        node->line.size() <= kInlineMaxLineBytes &&
        (!node->hit_computes || loop_->eval_budget > 0)) {
      // Loop-thread fast path for a small dependency-free per-table verb,
      // skipping the worker handoff and its wakeups: a light verb (STATS,
      // small APPEND, REMOVE — all non-blocking on the gate) executes
      // where it was parsed, and a RUN / SELECT / EVAL is answered there
      // if it hits the result cache (an EVAL only while the pass's
      // budget lasts). The caller executes the returned node.
      return node;
    }
    DispatchLocked(node);
  }
  return nullptr;
}

void ServeExecutor::ScheduleOversize(const std::shared_ptr<Conn>& conn) {
  conn->scheduling_reads = false;
  conn->read_ready = false;
  conn->in_buffer.clear();
  conn->in_buffer.shrink_to_fit();
  std::lock_guard<std::mutex> lock(sched_mu_);
  auto owned = std::make_unique<Request>();
  Request* node = owned.get();
  node->conn = conn;
  node->seq = conn->next_seq++;
  node->arrival = next_arrival_++;
  node->barrier = true;
  node->synthetic_response = "ERR bad-request: request line exceeds 16 MiB";
  live_nodes_.emplace(node, std::move(owned));
  for (Request* pred : conn->unfinished) {
    pred->dependents.push_back(node);
    ++node->deps;
  }
  conn->last_barrier = node;
  conn->unfinished.push_back(node);
  // Once this response flushes (after every pipelined predecessor), the
  // loop half-closes and drains — the client reliably receives the ERR
  // rather than a reset.
  if (node->deps == 0) DispatchLocked(node);
}

void ServeExecutor::DispatchLocked(Request* node) {
  if (!node->synthetic_response.empty()) {
    CompleteLocked(node, node->synthetic_response, /*notify_loop=*/true);
    return;
  }
  if (!stopping_.load() && node->draining && !node->table.empty() &&
      manager_->IsDraining(node->table)) {
    // The table's backlog is mid-fold: executing now would just block a
    // worker on the exclusive gate. Park; OnDrainFinished (the
    // manager's drain observer) re-dispatches the moment the fold ends.
    // No lost wakeup: the manager clears its draining flag before the
    // observer fires, and the observer takes sched_mu_, so it cannot
    // run between our check and this insertion.
    parked_[node->table].push_back(node);
    ++counters_.parked_drains;
    return;
  }
  EnqueueReadyLocked(node);
}

void ServeExecutor::EnqueueReadyLocked(Request* node) {
  // Weighted fair queuing over per-table lanes ("" = the barrier lane).
  // The request's virtual start is where its lane's previous request
  // finished, but never behind the global clock — a lane idle past the
  // clock gets its stale finish time snapped forward, so a light table's
  // fresh request starts "now" and sorts ahead of a hot table's billed
  // backlog, where plain arrival-order FIFO would queue it behind every
  // entry of that backlog.
  uint64_t& vfinish = table_vfinish_[node->barrier ? std::string()
                                                  : node->table];
  const uint64_t vstart = std::max(virtual_time_, vfinish);
  vfinish = vstart + (node->draining ? kDrainWeight
                                     : node->compute ? kComputeWeight : 1);
  ReadyEntry entry;
  entry.vstart = vstart;
  entry.arrival = node->arrival;
  entry.node = node;
  ready_.push_back(entry);
  std::push_heap(ready_.begin(), ready_.end(), kLaterEntry);
  work_cv_.notify_one();
}

void ServeExecutor::WorkerMain() {
  std::unique_lock<std::mutex> lock(sched_mu_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return workers_stop_ || !handshakes_.empty() || policy_eval_queued_ ||
             !ready_.empty();
    });
    if (!handshakes_.empty()) {
      const std::shared_ptr<Conn> conn = std::move(handshakes_.front());
      handshakes_.pop_front();
      lock.unlock();
      StartReplication(conn);
    } else if (policy_eval_queued_) {
      policy_eval_queued_ = false;
      lock.unlock();
      RunPolicyPass();
    } else if (!ready_.empty()) {
      std::pop_heap(ready_.begin(), ready_.end(), kLaterEntry);
      const ReadyEntry entry = ready_.back();
      ready_.pop_back();
      // Advance the WFQ clock to the dispatched start time; lanes that
      // idled past it snap forward on their next enqueue.
      virtual_time_ = std::max(virtual_time_, entry.vstart);
      lock.unlock();
      ExecuteNode(entry.node, /*inline_on_loop=*/false);
    } else {
      return;  // workers_stop_ and every queued job has run
    }
    lock.lock();
  }
}

void ServeExecutor::ExecuteNode(Request* node, bool inline_on_loop) {
  const std::shared_ptr<Conn> conn = node->conn;
  std::string response;
  bool served = true;
  try {
    if (inline_on_loop && node->cacheable) {
      // Non-blocking: a RUN / SELECT / EVAL is served here only on a
      // clean result-cache hit, with the bytes Handle would write.
      served = dispatcher_.TryHandleCached(node->line, &response);
    } else {
      response = dispatcher_.Handle(node->line);
    }
  } catch (...) {
    // Handle() maps every failure to an ERR response; this is a belt for
    // the contract so one rogue exception cannot kill a worker (or the
    // loop, on the inline path).
    response = "ERR internal: unexpected exception in request execution";
  }
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    if (!served) {
      // Not served from the cache (and nothing moved): the worker path,
      // exactly as if ScheduleLine had dispatched the node — park behind
      // a fold, or the fair queue at the verb's weight.
      DispatchLocked(node);
      return;
    }
    if (inline_on_loop) {
      ++counters_.inline_served;
      if (node->hit_computes) --loop_->eval_budget;
    }
    CompleteLocked(node, std::move(response), !inline_on_loop);
  }
  // Flush from the worker instead of waiting for the loop: on an
  // oversubscribed CPU the busy workers can starve the loop for a whole
  // scheduling quantum, which would batch every response toward the end
  // of a pipeline. The socket is nonblocking, so this never stalls a
  // worker; leftovers fall back to the loop's writability handling. The
  // inline path skips it — its ServiceConn flushes right after, batching
  // every response parsed from the same chunk into one send.
  if (!inline_on_loop) FlushConn(conn);
}

void ServeExecutor::CompleteLocked(Request* node, std::string response,
                                   bool notify_loop) {
  const std::shared_ptr<Conn> conn = node->conn;
  conn->queued_line_bytes -= node->line.size();
  if (conn->last_barrier == node) conn->last_barrier = nullptr;
  if (!node->barrier) {
    const auto it = conn->last_by_table.find(node->table);
    if (it != conn->last_by_table.end() && it->second == node) {
      conn->last_by_table.erase(it);
    }
  }
  conn->unfinished.erase(
      std::remove(conn->unfinished.begin(), conn->unfinished.end(), node),
      conn->unfinished.end());
  for (Request* dependent : node->dependents) {
    if (--dependent->deps == 0) DispatchLocked(dependent);
  }
  if (!conn->dead) {
    conn->finished_out_of_order.emplace(node->seq, std::move(response));
    SequenceLocked(*conn);
  }
  ++counters_.served;
  // Output may be flushable, reads resumable, or the connection
  // finishable — let the loop re-evaluate (skipped on the inline
  // path: the loop is the caller and re-evaluates at the end of this
  // very service pass).
  if (notify_loop) NotifyLoopLocked(conn);
  live_nodes_.erase(node);  // destroys *node
}

void ServeExecutor::SequenceLocked(Conn& conn) {
  // Completion order is whatever the workers produced; the wire order is
  // the request order. Append every response whose turn has come.
  for (auto it = conn.finished_out_of_order.find(conn.next_send);
       it != conn.finished_out_of_order.end();
       it = conn.finished_out_of_order.find(conn.next_send)) {
    if (!it->second.empty()) {
      conn.pending_out += it->second;
      conn.pending_out += '\n';
      conn.unsent_bytes += it->second.size() + 1;
    }
    conn.finished_out_of_order.erase(it);
    ++conn.next_send;
  }
}

void ServeExecutor::NotifyLoopLocked(const std::shared_ptr<Conn>& conn) {
  if (conn->notified) return;
  conn->notified = true;
  loop_->notify.push_back(conn);
  WakeLoop();
}

void ServeExecutor::OnDrainFinished(const std::string& table) {
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    const auto it = parked_.find(table);
    if (it != parked_.end()) {
      for (Request* node : it->second) EnqueueReadyLocked(node);
      parked_.erase(it);
    }
    // A finished fold is exactly when this table's replication streams
    // have new committed bytes: push a pump pass to the loop so
    // replication latency tracks fold latency, not the 200 ms backstop.
    for (const std::shared_ptr<Conn>& conn : repl_streams_) {
      if (conn->repl != nullptr && conn->repl->handshake_done &&
          conn->repl->table == table) {
        NotifyLoopLocked(conn);
      }
    }
  }
  // A finished drain is exactly when a GENERATIONS policy can newly come
  // due — the generation only moves at fold boundaries.
  if (options_.durability != nullptr && !stopping_.load()) {
    SchedulePolicyEval();
  }
}

void ServeExecutor::SchedulePolicyEval() {
  if (options_.durability == nullptr) return;
  std::lock_guard<std::mutex> lock(sched_mu_);
  if (policy_eval_scheduled_) return;
  policy_eval_scheduled_ = true;
  policy_eval_queued_ = true;
  work_cv_.notify_one();
}

void ServeExecutor::RunPolicyPass() {
  try {
    options_.durability->RunDuePolicies();
  } catch (...) {
    // Per-table failures are already swallowed inside; nothing else may
    // escape onto a worker.
  }
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    policy_eval_scheduled_ = false;
  }
  // Re-check after the clear: a deadline that came due during the pass
  // (or a drain that raced the flag) must not wait for the next loop
  // wakeup.
  if (!stopping_.load() && options_.durability->NextDeadlineMs() == 0) {
    SchedulePolicyEval();
  }
}

void ServeExecutor::StartReplication(const std::shared_ptr<Conn>& conn) {
  std::string table;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    if (conn->repl == nullptr || conn->dead) return;
    table = conn->repl->table;
  }
  // File reads happen here on the worker, never under sched_mu_.
  DurabilityManager::ReplicationHandshake handshake;
  std::string err;
  try {
    handshake = options_.durability->TakeHandshake(table);
  } catch (const std::invalid_argument& e) {
    err = std::string("ERR no-such-table: ") + e.what();
  } catch (const std::exception& e) {
    err = std::string("ERR io: ") + e.what();
  }
  std::lock_guard<std::mutex> lock(sched_mu_);
  if (conn->repl == nullptr || conn->dead) return;
  if (!err.empty()) {
    // Refused handshake: answer the ERR and revert to a normal (idle,
    // no-longer-reading) connection — the loop half-closes after the
    // flush, exactly like an oversize rejection.
    conn->pending_out += err;
    conn->pending_out += '\n';
    conn->unsent_bytes += err.size() + 1;
    conn->repl.reset();
    repl_streams_.erase(
        std::remove(repl_streams_.begin(), repl_streams_.end(), conn),
        repl_streams_.end());
    NotifyLoopLocked(conn);
    return;
  }
  std::ostringstream head;
  head << "OK REPLICATE " << table
       << " snapshot_bytes=" << handshake.snapshot_bytes.size()
       << " log_bytes=" << handshake.log_bytes.size() << "\n";
  const std::string header = head.str();
  const size_t added = header.size() + handshake.snapshot_bytes.size() +
                       handshake.log_bytes.size();
  conn->pending_out += header;
  conn->pending_out += handshake.snapshot_bytes;
  conn->pending_out += handshake.log_bytes;
  conn->unsent_bytes += added;
  conn->repl->chain = handshake.chain;
  conn->repl->offset = handshake.committed_bytes;
  conn->repl->handshake_done = true;
  counters_.repl_bytes += added;
  NotifyLoopLocked(conn);
}

bool ServeExecutor::PumpReplication(const std::shared_ptr<Conn>& conn) {
  std::string table;
  uint64_t chain;
  uint64_t offset;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    if (conn->repl == nullptr || !conn->repl->handshake_done || conn->dead) {
      return false;
    }
    if (conn->unsent_bytes > options_.max_buffered_response_bytes) {
      // Slow follower: the stream honors the same response-byte budget
      // as everything else; the 200 ms tick retries once bytes drain.
      return false;
    }
    table = conn->repl->table;
    chain = conn->repl->chain;
    offset = conn->repl->offset;
  }
  std::string chunk;
  if (options_.durability->PollReplication(table, chain, &offset,
                                           kReplPumpBytes, &chunk) ==
      DurabilityManager::ReplicationPoll::kRotated) {
    // Snapshot truncation, DROP, or an unhealthy log: bytes at this
    // offset no longer mean anything on the wire. Deliver what was
    // already buffered (best effort), then close so the follower
    // re-handshakes against the new floor.
    FlushConn(conn);
    CloseConn(conn);
    return true;
  }
  if (chunk.empty()) return false;
  std::lock_guard<std::mutex> lock(sched_mu_);
  if (conn->repl == nullptr || conn->dead) return false;
  conn->repl->offset = offset;
  conn->pending_out += chunk;
  conn->unsent_bytes += chunk.size();
  counters_.repl_bytes += chunk.size();
  return false;
}

void ServeExecutor::FlushConn(const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> wlock(conn->write_mu);
  if (conn->fd < 0) return;
  size_t sent_total = 0;
  bool peer_gone = false;
  for (;;) {
    if (conn->send_offset >= conn->sending.size()) {
      conn->sending.clear();
      conn->send_offset = 0;
      std::lock_guard<std::mutex> lock(sched_mu_);
      if (conn->dead || conn->pending_out.empty()) break;
      conn->sending.swap(conn->pending_out);
    }
    const ssize_t n = ::send(conn->fd, conn->sending.data() + conn->send_offset,
                             conn->sending.size() - conn->send_offset,
                             MSG_NOSIGNAL);
    if (n > 0) {
      conn->send_offset += static_cast<size_t>(n);
      sent_total += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Peer gone: the remaining responses are undeliverable. Only flag it
    // — fd lifecycle (close + conns erase) belongs to the loop thread
    // alone, otherwise a reused descriptor number could alias a freshly
    // accepted connection.
    peer_gone = true;
    conn->sending.clear();
    conn->send_offset = 0;
    break;
  }
  if (sent_total == 0 && !peer_gone) return;
  std::lock_guard<std::mutex> lock(sched_mu_);
  conn->unsent_bytes -= std::min(conn->unsent_bytes, sent_total);
  counters_.bytes_out += sent_total;
  if (peer_gone && !conn->dead) {
    conn->dead = true;
    conn->pending_out.clear();
    conn->unsent_bytes = 0;
    NotifyLoopLocked(conn);
  }
}

void ServeExecutor::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conn->fd >= 0) {
    ::epoll_ctl(loop_->epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
    loop_->conns.erase(conn->fd);
    std::lock_guard<std::mutex> wlock(conn->write_mu);
    ::close(conn->fd);
    conn->fd = -1;
    conn->sending.clear();
    conn->send_offset = 0;
  }
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    conn->dead = true;
    conn->pending_out.clear();
    conn->unsent_bytes = 0;
    if (conn->repl != nullptr) {
      conn->repl.reset();
      repl_streams_.erase(
          std::remove(repl_streams_.begin(), repl_streams_.end(), conn),
          repl_streams_.end());
    }
  }
  conn->scheduling_reads = false;
  conn->discarding = false;
}

std::string ServeExecutor::MetricsResponse() const {
  // METRICS is a barrier verb, so it runs on a worker holding no executor
  // lock.
  Counters s;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    s = counters_;
  }
  std::ostringstream out;
  out << "OK METRICS poller=epoll workers=" << options_.workers
      << " accepted=" << s.accepted << " served=" << s.served
      << " inline=" << s.inline_served
      << " parked_drains=" << s.parked_drains
      << " bytes_in=" << s.bytes_in << " bytes_out=" << s.bytes_out
      << " backpressure_stalls=" << s.backpressure_stalls
      << " emfile_rejected=" << s.emfile_rejected
      << " repl_sessions=" << s.repl_sessions
      << " repl_bytes_streamed=" << s.repl_bytes;
  {
    // Result-cache totals across every table (hits/misses move only on
    // served lookups and completed runs — see serve/result_cache.h).
    const ContextManager::CacheTotals cache = manager_->ResultCacheTotals();
    out << " result_cache_hits=" << cache.hits
        << " result_cache_misses=" << cache.misses
        << " result_cache_entries=" << cache.entries;
  }
  if (options_.durability != nullptr) {
    out << options_.durability->MetricsSuffix();
  }
  return out.str();
}

}  // namespace manirank::serve
