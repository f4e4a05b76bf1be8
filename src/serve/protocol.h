#ifndef MANIRANK_SERVE_PROTOCOL_H_
#define MANIRANK_SERVE_PROTOCOL_H_

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

#include "core/candidate_table.h"
#include "serve/context_manager.h"

namespace manirank::serve {

/// Line-oriented request protocol over a ContextManager. One request per
/// line, one response line per request; responses start with "OK" or
/// "ERR <code>:". Blank lines and lines starting with '#' are skipped
/// (no response). The same grammar is served by the manirank_serve binary
/// (stdin, --script, or socket) and bench_serving.
///
/// Grammar (tokens as split by RequestTokenizer below; ';' separates
/// rankings in an APPEND payload and may be glued to a number):
///
///   CREATE   <table> FILE <table.csv> [RANKINGS <rankings.csv>]
///   CREATE   <table> CYCLIC <n> <d0> <d1>
///   APPEND   <table> <c0> <c1> ... [; <c0> <c1> ...]*
///   REMOVE   <table> <index>
///   RUN      <table> <method|all> [DELTA <d>] [LIMIT <seconds>]
///   EVAL     <table> <c0> <c1> ...
///   SELECT   <table> <k> [ATTR <a> <g> <min> <max>]*
///                        [INTER <g> <min> <max>]* [LIMIT <seconds>]
///   STATS    <table>
///   FLUSH    <table>
///   SNAPSHOT <table> <path> [EXACT]
///   SNAPSHOT-POLICY <table> GENERATIONS <n> | SECONDS <s> | OFF
///   RESTORE  <table> <path>
///   DROP     <table>
///   TABLES
///   METRICS
///   REPLICATE <table>
///
/// CREATE..CYCLIC builds the deterministic two-attribute table where
/// candidate i carries values (i % d0, (i / d0) % d1) — handy for scripts
/// and tests that need no CSV files. APPEND payloads are candidate ids
/// best-first and must form a permutation of 0..n-1. REMOVE addresses the
/// *virtual* profile (applied rankings plus queued mutations). RUN drains
/// the table's mutation queue, then runs one registry method (or every
/// method the table supports for "all") and reports each consensus as
/// "<id> sat=<0|1> consensus=<c0,c1,...>". STATS never drains — its
/// generation counter moves only when mutations are actually applied, so
/// clients can use it to verify that a rejected request changed nothing.
///
/// SNAPSHOT drains the table's queue and writes its summarized state to a
/// versioned, checksummed binary file (data/snapshot.h); RESTORE registers
/// a new table from such a file without replaying the profile. A restored
/// table is *summarized*: it serves every precedence/Borda-based method
/// bit-identically to the snapshotted one, but rejects REMOVE and the
/// base-ranking baselines (B2-B4), and "RUN <table> all" sweeps only the
/// supported subset. With the EXACT token the snapshot additionally
/// carries the retained profile (format v2): restoring it yields a full
/// retained table serving all eight methods and REMOVE, bit-identically.
/// EXACT is rejected (ERR conflict) on tables that are themselves
/// summarized — their profile was folded away.
///
/// EVAL scores a client-submitted ranking against the live table without
/// mutating anything: the consensus comparison runs A3 Fair-Borda under
/// the shared gate (servable on every table flavor, followers included),
/// Kendall tau against that consensus is one inversion-counting pass, and
/// the submitted ranking's own fairness (ARP per attribute, IRP last)
/// comes from one favored-pair pass over every constrained grouping.
/// A hit on the cached consensus may be answered on an async front end's
/// event loop (Dispatcher::TryHandleCached). Response:
/// "OK EVAL <table> gen=<g> method=A3 tau=<t> ntau=<x>
/// parity=<p0,p1,...> max_parity=<m> fpr=<...> ifpr_max=<g>:<v>
/// ifpr_min=<g>:<v>". fpr= lists the per-group favored pair rate
/// (Definition 4) for every constrained grouping, grouping-major: ','
/// separates groups within a grouping, ';' separates groupings (the
/// order matches parity= — one attribute per entry, intersection last
/// when the table has more than one attribute). ifpr_max/ifpr_min name
/// the most and least favored group of the LAST constrained grouping
/// (the intersectional breakdown) as <group-index>:<fpr>. Like STATS it
/// does not drain the mutation queue — it observes the applied profile
/// at gen=.
///
/// SELECT serves a constrained fair top-k slate: the best k candidates
/// of the table's A3 consensus (cost = sum of consensus positions)
/// subject to count constraints. ATTR <a> <g> <min> <max> bounds how
/// many selected candidates may come from group <g> of attribute <a>'s
/// grouping; INTER <g> <min> <max> does the same for the intersectional
/// grouping; clauses repeat and combine. LIMIT bounds the wall clock of
/// the exact fallback. Resolution is greedy repair first (optimal
/// whenever all constraints target one grouping), with a branch & bound
/// ILP fallback when greedy cannot certify a slate — run on the worker
/// pool like every compute verb, never on an event loop (only a result
/// cache hit is answered there). Response:
/// "OK SELECT <table> gen=<g> k=<k> method=A3 algo=<greedy|ilp>
/// optimal=<0|1> cost=<c> air=<a0;a1;...> four_fifths=<0|1>
/// selected=<c0,c1,...>" (selected in consensus order). air= is the
/// served slate's adverse-impact ratio per constrained grouping
/// (attributes in order, intersection last when the table has more than
/// one attribute): min over groups of the group's selection rate in the
/// slate divided by the max — the EEOC audit from
/// core/selection_metrics.h, recomputed from the slate on every serve.
/// four_fifths=1 iff every grouping's ratio clears 0.8. A well-formed query with no feasible slate answers "ERR
/// infeasible:"; like EVAL the verb is read-only, non-draining, and
/// servable on every table flavor including followers.
///
/// Result cache. RUN, EVAL's consensus leg, and SELECT are served
/// through a per-table result cache keyed by the exact request fields
/// plus the generation — a consensus tier (method, options) and a SELECT
/// tier (parsed query), each its own bounded LRU: repeated queries over
/// an unchanged profile skip the consensus method entirely, and any fold
/// commit (leader mutation wave or follower replication apply)
/// invalidates by moving the generation.
/// Responses are byte-identical hit or miss — only nondeterministic
/// results (budget-limited inexact solves) bypass the cache. STATS
/// reports per-table cache_hits= / cache_misses= / cache_entries=;
/// METRICS aggregates result_cache_* across tables.
///
/// REPLICATE switches the connection into a replication stream (leader
/// side): the response line "OK REPLICATE <table> snapshot_bytes=<N>
/// log_bytes=<M>" is followed by N raw bytes of the table's v2 snapshot
/// floor, M raw bytes of the committed op log (header + records), and
/// then committed log records streamed continuously as folds land. The
/// stream carries the exact on-disk byte format — FNV-1a checksums and
/// all — so a follower verifies it with the same OpLogCursor that cold
/// start uses. When the leader truncates the log (snapshot policy) or
/// drops the table, it CLOSES the stream; the follower reconnects and
/// re-handshakes against the new floor. Only socket front ends with the
/// --log-dir durability layer serve it; others answer ERR unavailable.
/// Mutations on follower tables are rejected with "ERR readonly:".
///
/// SNAPSHOT-POLICY arms per-table automatic snapshot truncation of the
/// durability op log (serve/durability.h): GENERATIONS <n> truncates
/// after the profile generation advances n past the current floor,
/// SECONDS <s> after s seconds of wall time since the last truncation
/// (fractions allowed), OFF disarms. Requires the --log-dir durability
/// layer; front ends without it answer "ERR unavailable:". The timer
/// runs off the serving loop's own clock — no extra threads.
///
/// Error codes: unknown-verb, bad-request (arity / malformed numbers),
/// no-such-table, table-exists (CREATE/RESTORE onto a taken name — a
/// distinct code so clients can retry idempotently), unknown-method,
/// bad-ranking, bad-index, empty-table (RUN/SNAPSHOT on a table with no
/// applied or queued rankings), infeasible (a well-formed SELECT whose
/// constraints admit no size-k slate — the only ERR that follows a
/// successful computation, so it may move the runs/cache counters while
/// the generation stays untouched), bad-snapshot (RESTORE from a corrupt,
/// truncated, or version-mismatched file; the manager state is untouched),
/// io, conflict, unavailable (METRICS on a front end without an
/// executor, or an EMFILE-rejected connect). SNAPSHOT probes its write target before draining, so an
/// ERR io implies no state change unless the stream itself failed
/// mid-write — the completed drain then stands, exactly as a FLUSH would
/// (RUN, FLUSH, and SNAPSHOT are the draining verbs; their queue
/// application is a success in its own right, never rolled back by a
/// later failure in the same request).
///
/// METRICS reports the executor's counters (connections, requests,
/// bytes, stalls, result-cache totals; see ServeExecutor::MetricsResponse);
/// it answers "ERR unavailable:" on front ends without an executor
/// (stdin / --script replay), which have no event loop to report on.
///
/// With durability attached, STATS gains oplog_* fields (committed log
/// records/bytes, truncations, cold-start replay counters, health) for
/// tables with durability state. On follower tables STATS additionally
/// reports role=follower, replica_lag_generations (leader generation
/// last heard minus local), replica_bytes_streamed, and
/// replica_connected — trailing fields, so leader output is unchanged.
class DurabilityManager;

/// The one request tokenizer, shared by Dispatcher, ClassifyRequest and
/// the executor's REPLICATE interception, so every front end splits a
/// line the same way. Request grammar:
///
///  - Tokens are separated by runs of ' ', '\t' and '\r'. No other byte
///    separates: '\v', '\f' and '\n' are token bytes ("t\v" names the
///    table "t\v").
///  - ';' is always a token of its own, glued or not: "0 1;2" is the four
///    tokens "0" "1" ";" "2".
///  - An integer field (candidate id, REMOVE index, SELECT k and clause
///    fields, CYCLIC sizes, GENERATIONS) accepts exactly the tokens that
///    strtol(token, 10) consumes whole: leading '\v' / '\f' / '\n', an
///    optional '+' or '-', then decimal digits, leading zeros allowed.
///    Hex, exponents, trailing bytes and values outside `long` are
///    rejected. Candidate ids must then lie in [0, INT32_MAX] (the
///    CandidateId range); each field applies its own bounds the same way.
///
/// Responses format integers with std::to_chars and doubles as printf's
/// "%g" (precision 6, an ostream's default), so the bytes match what an
/// std::ostringstream would write.
///
/// Tokens are views into the line: nothing is allocated, and the line
/// must outlive them.
class RequestTokenizer {
 public:
  explicit RequestTokenizer(std::string_view line) : line_(line) {}

  /// The next token, or an empty view once the line is exhausted.
  std::string_view Next() {
    while (pos_ < line_.size() && IsSeparator(line_[pos_])) ++pos_;
    const size_t begin = pos_;
    if (begin == line_.size()) return {};
    if (line_[pos_++] != ';') {
      while (pos_ < line_.size() && !IsSeparator(line_[pos_]) &&
             line_[pos_] != ';') {
        ++pos_;
      }
    }
    return line_.substr(begin, pos_ - begin);
  }

  /// Bytes not yet consumed (an upper bound on what Next can return).
  size_t remaining() const { return line_.size() - pos_; }

 private:
  static bool IsSeparator(char c) {
    return c == ' ' || c == '\t' || c == '\r';
  }

  std::string_view line_;
  size_t pos_ = 0;
};

class Dispatcher {
 public:
  explicit Dispatcher(ContextManager* manager) : manager_(manager) {}

  /// Handles one request line and returns the response line (no trailing
  /// newline). Returns an empty string for blank/comment lines. Never
  /// throws: every failure maps to an "ERR <code>: <detail>" response and
  /// leaves the addressed table's applied state unchanged.
  std::string Handle(const std::string& line);

  /// Replays a whole stream: one response line per request line, written
  /// to `out`. With `echo`, each request is echoed first, prefixed "> ".
  /// Returns the number of ERR responses. Stops early when `out` fails
  /// (e.g. the reader closed the pipe and SIGPIPE is ignored): serving
  /// into a dead sink would silently drop every later response, so the
  /// caller must check `out` afterwards and report the I/O failure.
  int ServeStream(std::istream& in, std::ostream& out, bool echo = false);

  /// Answers a RUN, SELECT or EVAL line from the result cache alone,
  /// without blocking, draining or running a consensus method
  /// (ContextManager::TryRunCached / TrySelectCached / TryEvalCached; an
  /// EVAL hit still pays its own tau and fairness pass). Returns true
  /// with `*response` set to exactly the bytes Handle would return now —
  /// the two share one parser and one formatter — and the same counter
  /// movement. Returns false, with nothing moved, for every other verb, a
  /// malformed request, or anything that is not a cache hit; the caller
  /// then calls Handle. For front ends that drive snapshot policies
  /// themselves (no inline policy tick, see set_durability).
  bool TryHandleCached(const std::string& line, std::string* response);

  /// Installs the METRICS data source. The serving executor points its
  /// dispatcher at its counter snapshot; front ends that
  /// leave it unset answer METRICS with "ERR unavailable:". Must be set
  /// before the dispatcher handles requests (not thread-safe against a
  /// concurrent Handle).
  void set_metrics_provider(std::function<std::string()> provider) {
    metrics_provider_ = std::move(provider);
  }

  /// Attaches the durability layer: enables SNAPSHOT-POLICY, adds
  /// oplog_* fields to STATS. With `inline_policy_eval`, due snapshot
  /// policies are evaluated after each handled request — the right mode
  /// for single-threaded front ends (stdin, script replay) that have no
  /// event loop to run the timer; the executor passes false and drives
  /// RunDuePolicies from its loops instead. Must be set before the
  /// dispatcher handles requests (not thread-safe against a concurrent
  /// Handle). The durability object is borrowed, not owned.
  void set_durability(DurabilityManager* durability,
                      bool inline_policy_eval) {
    durability_ = durability;
    inline_policy_eval_ = inline_policy_eval;
  }

 private:
  /// The whole verb switch — Handle minus the inline policy tick.
  std::string HandleRequest(const std::string& line);

  ContextManager* manager_;
  std::function<std::string()> metrics_provider_;
  DurabilityManager* durability_ = nullptr;
  bool inline_policy_eval_ = false;
};

/// Scheduling metadata an async front end needs about one request line —
/// derived from the verb alone, without executing anything. Used to
/// overlap a connection's pipelined requests while preserving the
/// semantics of executing them one at a time in arrival order:
///
///  - Two requests addressing the SAME table must execute in arrival
///    order (`table` is the scheduling key).
///  - Requests addressing different tables commute — shards share no
///    state — and may execute concurrently.
///  - A `barrier` request (namespace verbs CREATE / RESTORE / DROP /
///    TABLES, SNAPSHOT — whose destination path is a shared resource
///    the table key cannot order — SNAPSHOT-POLICY, whose truncation
///    side effects span the durability dir, plus anything unparseable)
///    orders
///    against EVERY other request on the connection: it runs alone,
///    after all predecessors and before all successors.
///  - A `draining` verb (RUN / FLUSH) may block for a whole exclusive
///    backlog fold; schedulers pair this with
///    ContextManager::IsDraining to park instead of blocking a worker.
///  - A `compute` verb (EVAL / SELECT) runs a consensus method (or an
///    ILP fallback) without draining: cheap on a warm result cache but
///    unboundedly expensive cold, so schedulers bill it a middle
///    fair-queue weight and execute a miss off event-loop threads.
///  - A `cacheable` verb (RUN / SELECT / EVAL) may be answered on an
///    event loop by Dispatcher::TryHandleCached when the result cache
///    holds its consensus; anything else it executes like its
///    draining/compute class.
struct RequestClass {
  /// Scheduling key; empty for barriers and no-response lines.
  std::string table;
  /// Orders against every in-flight request of the connection.
  bool barrier = false;
  /// May block on the table's exclusive gate (RUN / FLUSH).
  bool draining = false;
  /// Method-running read-only verb (EVAL / SELECT): executed off the
  /// event loop (save a cache hit), billed kComputeWeight in the fair
  /// queue.
  bool compute = false;
  /// RUN / SELECT / EVAL: Dispatcher::TryHandleCached may answer it from
  /// the result cache without blocking.
  bool cacheable = false;
  /// EVAL: even a cache hit scores the submitted ranking (tau and
  /// fairness, O(n log n); about 25 us at n = 1000), so an event loop
  /// bounds how many it answers itself.
  bool hit_computes = false;
  /// Blank or comment line: Dispatcher::Handle returns no response and
  /// the request needs no scheduling at all.
  bool no_response = false;
  /// REPLICATE: a streaming front end must intercept the line instead of
  /// dispatching it (the connection becomes a binary stream). Classified
  /// as a barrier too, so a non-streaming front end that dispatches it
  /// anyway still orders it safely (and answers ERR unavailable).
  bool replicate = false;
};

RequestClass ClassifyRequest(const std::string& line);

}  // namespace manirank::serve

#endif  // MANIRANK_SERVE_PROTOCOL_H_
