#ifndef MANIRANK_SERVE_DURABILITY_H_
#define MANIRANK_SERVE_DURABILITY_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/op_log.h"
#include "serve/context_manager.h"

namespace manirank::serve {

/// Exact-profile durability for a ContextManager: every table gets a
/// snapshot *floor* (`<dir>/<table>.snap`, format v2 — exact for
/// retained tables) plus an append-only op log (`<dir>/<table>.oplog`)
/// holding the delta folded since that floor. The ContextManager calls
/// it at exact fold boundaries (one fsync per fold; see
/// SetDurabilityHook); a cold start restores floor + replay and serves
/// bit-identically to the process that died — including after a kill -9
/// mid-stream, where the torn tail of the log is detected, reported, and
/// truncated to the last clean record.
///
/// Chain invariant: the log's header binds it to the floor it chains
/// from (base generation / ranking count). A snapshot truncation writes
/// the new floor FIRST and recreates the log second, both while the
/// table's exclusive gate is held — so a crash anywhere in the window
/// leaves either {old floor, old log} or {new floor, old log} or
/// {new floor, new log}; the middle state is healed at cold start by
/// skipping the already-snapshotted prefix of the log (record generation
/// deltas make the boundary exact).
///
/// Failure policy: a log write/fsync failure marks the table UNHEALTHY —
/// serving continues (in-memory state is authoritative), the log is
/// closed (a gap must never be appended over — valid-looking records
/// after missing ops would replay a wrong profile), STATS surfaces
/// `oplog_healthy 0`, and the next successful snapshot truncation starts
/// a fresh chain and restores health. Ops folded while unhealthy are
/// recoverable only from that next snapshot onward.
///
/// Threading: fold-group calls arrive serialized per table (under the
/// table's exclusive gate); everything else (policies, stats,
/// metrics) may be called from any thread. Lock order is
/// gate -> map mu_ -> entry mu; no call here ever takes a lock and then
/// re-enters a serving verb except SnapshotNow, which enters
/// SnapshotTable *before* taking any DurabilityManager lock.
class DurabilityManager {
 public:
  /// Automatic snapshot-truncation policy for one table
  /// (SNAPSHOT-POLICY verb). kGenerations triggers after the table's
  /// profile generation advances `every_generations` past the current
  /// floor; kSeconds after `every_seconds` of wall time since the last
  /// truncation.
  struct Policy {
    enum class Kind { kOff, kGenerations, kSeconds };
    Kind kind = Kind::kOff;
    uint64_t every_generations = 0;
    double every_seconds = 0.0;
  };

  /// STATS / METRICS view of one table's durability state.
  struct TableDurability {
    uint64_t log_records = 0;   ///< committed records in the current log
    uint64_t log_bytes = 0;     ///< durable bytes in the current log
    uint64_t truncations = 0;   ///< snapshot truncations since startup
    uint64_t replayed_records = 0;   ///< records replayed at cold start
    uint64_t replayed_rankings = 0;  ///< rankings inside those records
    double replay_ms = 0.0;          ///< cold-start replay wall time
    bool healthy = true;
    Policy policy;
  };

  /// One table's cold-start outcome (ColdStart's report).
  struct RestoredTable {
    std::string table;
    bool summarized = false;  ///< restored without the retained profile
    uint64_t snapshot_rankings = 0;
    uint64_t replayed_records = 0;
    uint64_t replayed_rankings = 0;
    uint64_t skipped_records = 0;  ///< already inside the floor (crash window)
    double replay_ms = 0.0;
    /// Non-empty when the log ended in a torn (partially written) record:
    /// the description of what was dropped. The table still restored —
    /// from the clean prefix.
    std::string torn_tail;
  };

  /// `dir` must exist and be writable; the manager is borrowed and must
  /// outlive this object.
  DurabilityManager(std::string dir, ContextManager* manager);

  /// Lists `dir` (ListTableDir, which reports removed temp files through
  /// `removed_temp_files` when given) and restores every table found
  /// (snapshot floor, then op-log replay) into the manager. Must run
  /// BEFORE Attach (the fold path must not observe its own replay);
  /// throws std::runtime_error on unusable state — a listing failure, an
  /// orphaned op log with no snapshot, a log that does not chain from its
  /// snapshot, or a corrupt (not merely torn) file. A torn log tail is
  /// NOT an error: it is truncated, reported in the result, and recovery
  /// proceeds from the clean prefix.
  std::vector<RestoredTable> ColdStart(
      std::vector<std::string>* removed_temp_files = nullptr);

  /// Attaches this object to the manager's fold path and writes floors
  /// for any manager tables that do not have one yet (tables imported
  /// via --restore-dir before durability engaged). Call once, after
  /// ColdStart, before serving starts.
  void Attach();

  /// Sets the automatic truncation policy for a durable table. Throws
  /// std::invalid_argument for tables without durability state.
  void SetPolicy(const std::string& table, const Policy& policy);

  /// Snapshots the table now and truncates its log (one exclusive-gate
  /// hold; see class comment for the crash window). Propagates
  /// snapshot/serving errors; a failure leaves the old chain intact and
  /// still recoverable.
  void SnapshotNow(const std::string& table);

  /// Milliseconds until the earliest due time-based policy, 0 when one
  /// is already due, -1 when none is armed. Event loops bound their poll
  /// timeout with this — the policy timer runs off the serving loop's
  /// clock, no extra threads.
  int64_t NextDeadlineMs() const;

  /// Evaluates every table's policy and snapshots the due ones. Returns
  /// how many tables were snapshotted. Per-table failures are recorded
  /// (the policy re-arms) and never propagate.
  size_t RunDuePolicies();

  /// Durability stats for one table; nullopt when the table has none.
  std::optional<TableDurability> StatsFor(const std::string& table) const;

  /// Aggregate " key=value" tokens (oplog_* namespace, leading space)
  /// appended to the single-line METRICS response.
  std::string MetricsSuffix() const;

  const std::string& dir() const { return dir_; }

  // --- replication source (leader side) -------------------------------
  //
  // The durable files double as the replication stream: a follower's
  // handshake ships the snapshot floor plus the committed log prefix,
  // then the session tails committed log bytes as folds land. A chain is
  // identified by the entry's truncation counter — a snapshot truncation
  // (or drop) ROTATES the chain, and sessions on the old chain must
  // close so the follower re-handshakes against the new floor (records
  // a lagging follower missed live only inside that new floor).

  /// One replication handshake: a consistent {snapshot floor, committed
  /// log prefix} pair plus the coordinates the stream continues from.
  struct ReplicationHandshake {
    std::string snapshot_bytes;  ///< serialized v2 snapshot (the floor)
    std::string log_bytes;       ///< committed log: header + records
    uint64_t chain = 0;          ///< truncation counter naming the chain
    uint64_t committed_bytes = 0;  ///< log offset the stream resumes at
  };

  enum class ReplicationPoll { kData, kRotated };

  /// Builds the handshake for one durable table. The pair is consistent:
  /// the chain is re-validated after the file reads and the read retried
  /// if a truncation raced them. Throws std::invalid_argument when the
  /// table has no durability state and std::runtime_error when it is
  /// unhealthy or a file cannot be read.
  ReplicationHandshake TakeHandshake(const std::string& table);

  /// Appends up to `max_bytes` of committed log bytes at *offset on
  /// chain `chain` to *out, advancing *offset. Returns kRotated when the
  /// chain was truncated, marked unhealthy, or dropped — the caller
  /// closes the stream and the follower re-handshakes. kData otherwise
  /// (possibly with zero new bytes).
  ReplicationPoll PollReplication(const std::string& table, uint64_t chain,
                                  uint64_t* offset, size_t max_bytes,
                                  std::string* out);

  // --- fold group ------------------------------------------------------
  //
  // Called from inside ContextManager's drain while the table's EXCLUSIVE
  // gate is held: each op is logged immediately before it applies (in
  // fold order), AbortLastOp fires when the just-logged op's apply threw
  // (drop its record; earlier ops of the fold stay logged), and exactly
  // one CommitFold ends every fold, successful or not. Folds of one table
  // are serialized by the gate. These MUST NOT throw: a durability
  // failure must not fail the in-memory apply — it marks the table
  // unhealthy instead (see class comment).
  void LogAppend(const std::string& table, const std::vector<Ranking>& batch);
  void LogRemove(const std::string& table, uint64_t index);
  void AbortLastOp(const std::string& table);
  void CommitFold(const std::string& table);

  // --- lifecycle group -------------------------------------------------
  //
  // Called under the manager's lifecycle lock, before the table becomes
  // visible (resp. after it is gone). `floor` is the table's complete
  // state at registration (retained tables get an exact floor).
  // OnTableRegistered MAY throw: the CREATE/RESTORE then fails cleanly
  // with nothing registered — a table whose durability floor cannot be
  // written is never served.
  void OnTableRegistered(const std::string& table, const TableSnapshot& floor);
  void OnTableDropped(const std::string& table);

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    mutable std::mutex mu;
    /// Null while unhealthy (closed on write failure; see class comment).
    std::unique_ptr<OpLogWriter> writer;
    Policy policy;
    bool healthy = true;
    std::string last_error;
    uint64_t truncations = 0;
    uint64_t replayed_records = 0;
    uint64_t replayed_rankings = 0;
    double replay_ms = 0.0;
    Clock::time_point last_truncation;
  };

  std::string SnapshotPathFor(const std::string& table) const;
  std::string LogPathFor(const std::string& table) const;
  std::shared_ptr<Entry> FindEntry(const std::string& table) const;
  /// Marks the entry unhealthy and closes its writer (fold path).
  static void MarkUnhealthy(Entry& entry, const std::string& error);
  /// Restores one scanned table (ColdStart body).
  RestoredTable RestoreOne(const std::string& table, bool has_log);
  /// Entry lookup that inserts a fresh entry when absent.
  std::shared_ptr<Entry> FindOrCreateEntry(const std::string& table);

  const std::string dir_;
  ContextManager* const manager_;
  mutable std::mutex mu_;  ///< guards entries_ (the map only)
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
};

/// True when `name` can be used as a durability file stem: non-empty, no
/// path separators or NUL, not "." / "..". Tables failing this cannot be
/// created while durability is attached (the floor write refuses).
bool IsDurableTableName(const std::string& name);

/// One table stored in a table directory (see ListTableDir).
struct TableDirEntry {
  std::string table;
  bool has_snapshot = false;  ///< `<dir>/<table>.snap` exists
  bool has_log = false;       ///< `<dir>/<table>.oplog` exists
};

/// The one rule for which files in a directory are tables, shared by
/// both cold starts (--restore-dir and --log-dir). Returns every table
/// with a `<table>.snap` or `<table>.oplog` file, sorted by name; other
/// files are ignored. Leftover durable-write temp files from a crashed
/// writer (`*.tmp.<pid>.<seq>`) are never tables: each is unlinked and
/// its path appended to `removed_temp_files` when given, suffixed with
/// " (remove failed: <why>)" when the unlink failed. Throws
/// std::runtime_error when `dir` is not a listable directory, when
/// listing fails midway, and for a .snap / .oplog file whose stem fails
/// IsDurableTableName (`.snap`, `..snap`, ...), naming that file.
std::vector<TableDirEntry> ListTableDir(
    const std::string& dir, std::vector<std::string>* removed_temp_files);

}  // namespace manirank::serve

#endif  // MANIRANK_SERVE_DURABILITY_H_
