#ifndef MANIRANK_SERVE_EXECUTOR_H_
#define MANIRANK_SERVE_EXECUTOR_H_

/// \file
/// The TCP front end for the multi-table serving layer: the async
/// ServeExecutor. It speaks the newline-delimited protocol of
/// serve/protocol.h over loopback TCP and shares one ContextManager across
/// every connection.
///
/// ## Why an executor
///
/// MANI-Rank consensus runs are seconds-long gate holds: a RUN first
/// drains the table's mutation backlog under the exclusive gate, then
/// runs the method under the shared gate. A handler that executes each
/// connection's pipeline strictly serially lets one big request
/// head-of-line-block every request queued behind it on that connection
/// — even requests for completely unrelated tables.
///
/// The ServeExecutor splits the connection handler into
///
///  - one edge-triggered epoll event loop that owns the listener and
///    every accepted connection, so all per-connection I/O state is
///    single-writer (and TSan-clean). The loop never runs a consensus
///    method or waits on a table lock — it moves bytes, plus the
///    non-blocking fast path below — so accepts and every socket stay
///    live during the heaviest fold, and one loop keeps up with the
///    handful of pipelining analyst connections the server is built
///    for; and
///  - options.workers worker threads owned by the executor. They sleep
///    on one condition variable paired with the scheduler lock and pop
///    the weighted-fair ready queue directly, so a request crosses one
///    queue and one lock between the loop and its worker. The same
///    workers pick up the two non-request jobs (replication handshakes
///    and the deduplicated snapshot-policy pass). They are plain threads,
///    not ParallelFor pool workers, so an engine kernel a request enters
///    still fans out. Small per-table requests with no in-flight
///    predecessor skip the handoff: STATS, APPEND and REMOVE execute
///    inline on the loop, and a RUN, SELECT or EVAL whose consensus the
///    result cache already holds is answered there too (a non-blocking
///    probe; anything else takes the worker path unchanged). An EVAL is
///    probed there only in a service pass that handles one connection,
///    and at most one per pass: under load its scoring stays with the
///    workers.
///
/// Scheduling preserves the observable semantics of serial execution:
/// requests addressing the same table execute in arrival order, requests
/// addressing different tables commute (shards share no state) and run
/// concurrently, and namespace verbs — plus SNAPSHOT, whose destination
/// path is a shared resource outside the table key — act as per-connection barriers (see
/// ClassifyRequest in serve/protocol.h). Responses are sequenced through
/// a per-connection in-order queue, so a pipelined client still receives
/// exactly one response line per request, in request order — the
/// response stream is bit-identical to the synchronous dispatcher's,
/// while the server-side work overlaps.
///
/// Worker shares are dealt per TABLE, not per request: the worker-bound
/// ready queue is a weighted-fair-queuing heap keyed by per-table
/// virtual start times (a draining verb bills kDrainWeight slots, a
/// compute verb — EVAL/SELECT, which may run a consensus method on a
/// cold result cache — kComputeWeight, a light verb one), so a hot
/// table's deep backlog cannot starve a light table's single request —
/// the light request's virtual start snaps to the current virtual time
/// and sorts ahead of the backlog's already-billed slots, where plain
/// arrival-order FIFO would queue it behind every one of them. No
/// consensus method runs on the event loop: the loop answers a RUN,
/// SELECT or EVAL only from the result cache (ContextManager::
/// TryRunCached / TrySelectCached / TryEvalCached — a RUN only when no
/// fold is queued or running on its table; an EVAL hit then scores the
/// submitted ranking there, about 25 us per n = 1000 line to tokenize,
/// check, and run tau and fairness, which the 4,096-byte inline line cap
/// bounds), and a miss — a cold-cache consensus run, SELECT's ILP
/// fallback — is dispatched to a worker exactly as before.
///
/// Draining verbs additionally consult the ContextManager's non-blocking
/// scheduling hooks: a RUN or FLUSH aimed at a table whose backlog is
/// mid-fold is parked and re-dispatched by the drain observer instead
/// of blocking a worker, so one table's exclusive mutation wave
/// cannot absorb every worker. (SNAPSHOT drains too, but runs as a
/// barrier — alone on its connection — so it never stacks workers.)
///
/// ## Backpressure
///
/// A connection stops being read while it has
/// max_inflight_per_connection parsed-but-unanswered requests or more
/// than max_buffered_response_bytes of unflushed response bytes; the
/// kernel socket buffer then pushes back on the client the normal TCP
/// way. (The cap is soft: every complete line already read in the
/// current chunk is still scheduled.)
///
/// ## Accept-time resource exhaustion
///
/// The loop holds one reserved emergency fd (/dev/null). On
/// EMFILE/ENFILE the loop closes it, accepts the pending connection into
/// the freed slot, answers "ERR unavailable: ..." and closes, then
/// reopens the reserve — a client sees a loud rejection instead of a
/// connect that hangs in the backlog until an fd frees.
///
/// ## Observability
///
/// The executor counts connections accepted, requests served and
/// served-inline, bytes in/out, backpressure stalls, parked drains and
/// EMFILE rejections. Every counter is bumped under the scheduler lock,
/// and the METRICS verb copies them under that lock, so one response is
/// one consistent snapshot.
///
/// ## Shutdown
///
/// Shutdown() (and the destructor) stop accepting and reading, let every
/// in-flight request finish, flush its response, half-close each
/// connection (shutdown(SHUT_WR)) so the client actually receives the
/// tail of the stream, and join the event loop and every worker. A client
/// that never closes its end after the half-close is given a bounded
/// linger (~1 s) and then dropped, so one idle or hostile connection
/// cannot hang the shutdown. The same flush-then-half-close discipline
/// answers an oversize request line: the client receives the ERR
/// response and an orderly EOF, never a connection reset.
///
/// ## Replication streams
///
/// With a durability layer attached, a REPLICATE request flips its
/// connection into a leader-side replication stream (serve/protocol.h
/// documents the wire format). The handshake (snapshot floor + committed
/// log prefix, read from the durable files by DurabilityManager::
/// TakeHandshake) is built on a worker; from then on the event loop
/// pumps newly committed log bytes into the ordinary response
/// buffer, so replication rides the same edge-triggered write path and
/// response-byte backpressure as every other connection. Pump triggers:
/// the drain observer (a finished fold is exactly when new committed
/// bytes exist) plus a bounded 200 ms poll tick while streams are live —
/// the tick also notices chain rotations (snapshot truncation, DROP),
/// which close the stream so the follower re-handshakes. Streams are
/// closed outright at shutdown; followers treat any EOF as "reconnect
/// and re-handshake".

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/context_manager.h"
#include "serve/protocol.h"

namespace manirank::serve {

class DurabilityManager;

/// Longest admissible request line. Generous for big APPEND batches, but
/// a client streaming bytes with no newline must not grow server memory
/// without bound.
inline constexpr size_t kMaxRequestBytes = 16u << 20;

/// Bytes of parsed-but-unexecuted request lines per connection before the
/// reader stops polling that socket — without this a client could
/// pipeline 64 nearly-16 MiB APPENDs and pin ~1 GiB per connection. Two
/// maximum-size lines fit; one over-cap line is always admitted (soft
/// cap), so a single kMaxRequestBytes request still works.
inline constexpr size_t kMaxBufferedRequestBytes = 2 * kMaxRequestBytes;

/// Knobs for the ServeExecutor.
struct ServerOptions {
  /// Loopback port to bind; 0 asks the kernel for an ephemeral port
  /// (read it back via port() — this is how the tests and bench run).
  int port = 0;
  /// Executor worker threads; 0 = DefaultThreadCount() (at least 1).
  size_t workers = 0;
  /// Parsed-but-unanswered requests per connection before the reader
  /// stops polling that socket.
  size_t max_inflight_per_connection = 64;
  /// Unflushed response bytes per connection before the same.
  size_t max_buffered_response_bytes = 4u << 20;
  /// Announce "listening on 127.0.0.1:<port>" to this stream (nullptr =
  /// quiet; serve_main passes stderr).
  std::ostream* log = nullptr;
  /// Optional durability layer (serve/durability.h), borrowed. Enables
  /// SNAPSHOT-POLICY on every connection, appends oplog_* tokens to
  /// METRICS, drives the time-based policy timer from the event loop's
  /// epoll timeout, and re-evaluates generation policies after each
  /// finished drain.
  DurabilityManager* durability = nullptr;
};

/// Async request pipeline: one epoll event loop + executor-owned workers +
/// per-connection in-order response queues. See the file comment for the
/// model. All public methods are safe to call from one controlling
/// thread (the usual Start / wait / Shutdown lifecycle); the accessors
/// are additionally safe from any thread while the executor runs.
class ServeExecutor {
 public:
  explicit ServeExecutor(ContextManager* manager, ServerOptions options = {});
  ~ServeExecutor();
  ServeExecutor(const ServeExecutor&) = delete;
  ServeExecutor& operator=(const ServeExecutor&) = delete;

  /// Binds the listener on 127.0.0.1:<port>, opens the loop's wake pipe,
  /// epoll set and emergency fd, registers the drain observer, and starts
  /// the event loop and the workers. On failure (including fd exhaustion:
  /// socket, pipe2, epoll_create1, ...) reports into `*error`, closes
  /// every fd it opened, and returns false.
  bool Start(std::string* error = nullptr);

  /// The bound port (after Start); useful with options.port == 0.
  int port() const { return port_; }

  /// Graceful shutdown (see file comment). Safe to call twice; the
  /// destructor calls it.
  void Shutdown();

  size_t workers() const;
  /// Requests whose responses were completed since the last Start
  /// (diagnostics).
  uint64_t requests_served() const;
  /// Requests parked on the IsDraining hook instead of blocking a
  /// worker, since the last Start (diagnostics).
  uint64_t requests_parked() const;
  /// Request bytes read from clients since the last Start (METRICS
  /// bytes_in). A chunk counts only once every request line in it is
  /// scheduled, so tests wait on it to order arrivals.
  uint64_t bytes_received() const;

 private:
  struct Conn;
  struct IoLoop;
  struct Request;
  /// The METRICS counters; every field is guarded by sched_mu_.
  struct Counters {
    uint64_t accepted = 0;
    uint64_t served = 0;
    uint64_t inline_served = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t backpressure_stalls = 0;
    uint64_t parked_drains = 0;
    uint64_t emfile_rejected = 0;
    uint64_t repl_sessions = 0;  ///< REPLICATE streams accepted
    uint64_t repl_bytes = 0;     ///< handshake + streamed log bytes
  };
  /// Worker-bound ready-queue entry: a min-heap on (vstart, arrival).
  /// vstart is the request's weighted-fair-queuing virtual start time —
  /// see EnqueueReadyLocked; arrival breaks ties back to strict FIFO.
  struct ReadyEntry {
    uint64_t vstart = 0;
    uint64_t arrival = 0;
    Request* node = nullptr;
  };
  enum class ReadStatus { kDrained, kBudget, kBackpressured, kEof, kAborted };

  void LoopMain();
  void WakeLoop();
  void ServiceConn(const std::shared_ptr<Conn>& conn);
  void AcceptReady();
  /// EMFILE/ENFILE: burn the reserved emergency fd to accept, reject
  /// loudly, reopen the reserve. Returns true when a connection was
  /// rejected (the caller keeps accepting), false when the backlog was
  /// empty or a timed retry was scheduled.
  bool RejectOverloadedAccept();
  ReadStatus HandleReadable(const std::shared_ptr<Conn>& conn);
  /// Classifies and registers one request line. Returns a node the
  /// CALLER must pass to ExecuteNode inline (loop-thread fast path), or
  /// nullptr when the request was queued for the workers / parked /
  /// answered.
  Request* ScheduleLine(const std::shared_ptr<Conn>& conn, std::string&& line);
  void ScheduleOversize(const std::shared_ptr<Conn>& conn);
  /// sched_mu_ held: dispatch a dependency-free request (park, answer a
  /// synthetic, or enqueue for the workers).
  void DispatchLocked(Request* node);
  /// sched_mu_ held: stamp the WFQ virtual start time, push onto the
  /// ready heap, and wake one worker.
  void EnqueueReadyLocked(Request* node);
  /// Worker thread body: sleeps on work_cv_ until a handshake, a policy
  /// pass or a ready request is queued, and runs it with no executor
  /// lock held. Returns once Shutdown asks the workers to stop and no
  /// work is left.
  void WorkerMain();
  /// Executes one node's request (no executor lock held), completes it,
  /// and — on the worker path — flushes the response. On the loop a
  /// cacheable node (RUN / SELECT / EVAL) is only probed against the
  /// result cache; when not served it is dispatched to the workers
  /// instead.
  void ExecuteNode(Request* node, bool inline_on_loop);
  /// sched_mu_ held: record the response, resolve dependents, sequence,
  /// bump counters, and (unless the caller IS the loop) queue the
  /// connection for service on the loop.
  void CompleteLocked(Request* node, std::string response, bool notify_loop);
  static void SequenceLocked(Conn& conn);
  /// sched_mu_ held: add the connection to the loop's notify list
  /// (deduplicated) and wake the loop.
  void NotifyLoopLocked(const std::shared_ptr<Conn>& conn);
  void OnDrainFinished(const std::string& table);
  /// Queues one DurabilityManager::RunDuePolicies pass for the workers,
  /// deduplicated: at most one pass is queued/running at a time (policy
  /// snapshots drain whole tables — stacking them would absorb the
  /// workers). RunPolicyPass re-checks for newly due work after clearing
  /// the flag, so a deadline arriving mid-pass is never lost.
  void SchedulePolicyEval();
  /// Worker entry for the queued policy pass.
  void RunPolicyPass();
  /// Worker entry for a replication handshake: reads the snapshot
  /// floor + committed log prefix (TakeHandshake) and appends the header
  /// line plus both raw payloads to the connection's response buffer —
  /// the stream then continues via PumpReplication on the loop.
  void StartReplication(const std::shared_ptr<Conn>& conn);
  /// Loop-thread only: appends newly committed log bytes (bounded per
  /// pass, gated by the response-byte budget) to a live replication
  /// stream. Returns true when the connection was closed (chain
  /// rotation — the follower must re-handshake).
  bool PumpReplication(const std::shared_ptr<Conn>& conn);
  /// Any-thread response flusher: two-buffer scheme, so the send()
  /// syscalls run under the connection's write lock only — never under
  /// the global scheduler lock. Lock order: write_mu before sched_mu_.
  void FlushConn(const std::shared_ptr<Conn>& conn);
  /// Loop-thread only: deregister, close, and forget a connection.
  void CloseConn(const std::shared_ptr<Conn>& conn);
  /// One-line counter snapshot for the METRICS verb: copies the counters
  /// under sched_mu_, so the caller must not hold it.
  std::string MetricsResponse() const;

  ContextManager* manager_;
  ServerOptions options_;
  /// Stateless over the shared manager, so every connection's requests
  /// may execute through it on different workers simultaneously.
  Dispatcher dispatcher_;
  int port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  /// The event loop's fds, thread, and loop-thread state; created by
  /// Start, destroyed by Shutdown.
  std::unique_ptr<IoLoop> loop_;

  /// One scheduling lock for parse-side (event loop) and completion-side
  /// (workers) bookkeeping, the workers' job queues and the counters.
  /// Scheduling operations are micro-sized compared to request execution,
  /// which never holds it — and response flushing happens under
  /// per-connection write locks, not this one.
  mutable std::mutex sched_mu_;
  /// Workers sleep here (paired with sched_mu_) until work is queued or
  /// workers_stop_ is set.
  std::condition_variable work_cv_;
  /// Set by Shutdown once the loop has joined: workers finish every
  /// queued job, then exit.
  bool workers_stop_ = false;
  /// Owns every unfinished request; executing workers hold raw pointers,
  /// so nodes die only in CompleteLocked (or teardown after the workers
  /// have drained).
  std::unordered_map<Request*, std::unique_ptr<Request>> live_nodes_;
  /// Dependency-free requests awaiting a worker: WFQ min-heap (see
  /// ReadyEntry). With every worker busy the pop order is the per-table
  /// weighted fair order; idle workers still take everything
  /// immediately.
  std::vector<ReadyEntry> ready_;
  uint64_t next_arrival_ = 0;
  /// WFQ clock: the largest virtual start time ever popped. A table
  /// idle past this point has its stale vfinish snapped forward, so
  /// fresh light-table requests sort ahead of a hot table's billed
  /// backlog.
  uint64_t virtual_time_ = 0;
  /// Per-table virtual finish times ("" = barrier lane). Bounded by the
  /// number of distinct table names seen; cleared on Shutdown.
  std::unordered_map<std::string, uint64_t> table_vfinish_;
  /// Draining requests parked while their table's backlog folds;
  /// released by OnDrainFinished.
  std::unordered_map<std::string, std::vector<Request*>> parked_;
  /// One global parked-queue flush when shutdown begins.
  bool parked_flushed_ = false;
  /// Live replication streams (handshake pending or done). The loop
  /// queues each for a pump pass every iteration (the 200 ms tick keeps
  /// iterations coming while one is live), and the drain observer
  /// notifies the streams of the folded table. Entries leave in
  /// CloseConn or on a refused handshake.
  std::vector<std::shared_ptr<Conn>> repl_streams_;
  /// Replication streams whose handshake no worker has picked up yet.
  std::deque<std::shared_ptr<Conn>> handshakes_;
  /// SchedulePolicyEval dedup flag: a pass is queued or running (see its
  /// comment). Reset by Start.
  bool policy_eval_scheduled_ = false;
  /// A pass is queued and no worker has picked it up yet.
  bool policy_eval_queued_ = false;
  Counters counters_;
  /// Declared after everything the workers touch; Shutdown joins them.
  std::vector<std::thread> workers_;
};

}  // namespace manirank::serve

#endif  // MANIRANK_SERVE_EXECUTOR_H_
