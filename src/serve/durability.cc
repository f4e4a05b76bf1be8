#include "serve/durability.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "data/durable_file.h"
#include "data/snapshot.h"

namespace manirank::serve {
namespace {

namespace fs = std::filesystem;

constexpr char kSnapshotExt[] = ".snap";
constexpr char kLogExt[] = ".oplog";

/// Reads bytes [offset, offset + want) of `path`. Short results are
/// returned as-is — the caller re-validates the chain and decides.
std::string ReadFileRange(const std::string& path, uint64_t offset,
                          size_t want) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("cannot open for replication: " + path);
  }
  is.seekg(static_cast<std::streamoff>(offset));
  std::string out(want, '\0');
  is.read(out.data(), static_cast<std::streamsize>(want));
  out.resize(static_cast<size_t>(std::max<std::streamsize>(0, is.gcount())));
  return out;
}

std::string SlurpWholeFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) {
    throw std::runtime_error("cannot open for replication: " + path);
  }
  const std::streamoff size = is.tellg();
  is.seekg(0);
  std::string out(static_cast<size_t>(std::max<std::streamoff>(0, size)),
                  '\0');
  is.read(out.data(), static_cast<std::streamsize>(out.size()));
  if (is.gcount() != static_cast<std::streamsize>(out.size())) {
    throw std::runtime_error("short read for replication: " + path);
  }
  return out;
}

}  // namespace

bool IsDurableTableName(const std::string& name) {
  if (name.empty() || name == "." || name == "..") return false;
  for (const char c : name) {
    if (c == '/' || c == '\\' || c == '\0') return false;
  }
  return true;
}

DurabilityManager::DurabilityManager(std::string dir, ContextManager* manager)
    : dir_(std::move(dir)), manager_(manager) {}

std::string DurabilityManager::SnapshotPathFor(
    const std::string& table) const {
  return dir_ + "/" + table + kSnapshotExt;
}

std::string DurabilityManager::LogPathFor(const std::string& table) const {
  return dir_ + "/" + table + kLogExt;
}

std::shared_ptr<DurabilityManager::Entry> DurabilityManager::FindEntry(
    const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(table);
  return it == entries_.end() ? nullptr : it->second;
}

std::shared_ptr<DurabilityManager::Entry> DurabilityManager::FindOrCreateEntry(
    const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<Entry>& slot = entries_[table];
  if (slot == nullptr) slot = std::make_shared<Entry>();
  return slot;
}

void DurabilityManager::MarkUnhealthy(Entry& entry, const std::string& error) {
  // The writer is CLOSED, not retried: after a failed append/commit the
  // on-disk log may be missing ops the context already applied, and
  // appending later folds over that gap would produce a log whose records
  // all validate yet replay a wrong profile — strictly worse than a log
  // that is honestly short. The next successful snapshot truncation
  // starts a fresh chain and restores health.
  entry.healthy = false;
  entry.last_error = error;
  entry.writer.reset();
}

// --- cold start -------------------------------------------------------------

std::vector<TableDirEntry> ListTableDir(
    const std::string& dir, std::vector<std::string>* removed_temp_files) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw std::runtime_error("not a directory: " + dir);
  }
  std::map<std::string, TableDirEntry> tables;  // sorted: iteration is not
  fs::directory_iterator it(dir, ec);
  if (ec) {
    throw std::runtime_error("cannot list " + dir + ": " + ec.message());
  }
  for (const fs::directory_iterator end; it != end; it.increment(ec)) {
    const fs::path path = it->path();
    const std::string filename = path.filename().string();
    if (LooksLikeDurableTempFile(filename)) {
      // A crashed writer's half-written temp: its rename never happened,
      // so the content is garbage by construction. Skipping alone would
      // leak one file per crash forever — unlink it.
      std::error_code remove_ec;
      fs::remove(path, remove_ec);
      if (removed_temp_files != nullptr) {
        removed_temp_files->push_back(
            path.string() +
            (remove_ec ? " (remove failed: " + remove_ec.message() + ")"
                       : ""));
      }
      continue;
    }
    // Suffix match, not fs::path::extension(): the latter reads ".snap"
    // as a dotfile with no extension. This is the exact inverse of the
    // `<dir>/<table><ext>` paths the writers produce.
    const std::string_view name = filename;
    for (const std::string_view ext : {kSnapshotExt, kLogExt}) {
      if (name.size() < ext.size() ||
          name.substr(name.size() - ext.size()) != ext) {
        continue;
      }
      const std::string table(name.substr(0, name.size() - ext.size()));
      if (!IsDurableTableName(table)) {
        throw std::runtime_error("cannot derive a table name from " +
                                 path.string());
      }
      TableDirEntry& entry = tables[table];
      entry.table = table;
      (ext == kSnapshotExt ? entry.has_snapshot : entry.has_log) = true;
    }
  }
  // A failed increment(ec) lands the iterator ON the end iterator, so the
  // loop simply stops — the error is only visible here. Ignoring it would
  // serve a partial table set.
  if (ec) {
    throw std::runtime_error("error while listing " + dir + ": " +
                             ec.message());
  }
  std::vector<TableDirEntry> out;
  out.reserve(tables.size());
  for (auto& [table, entry] : tables) out.push_back(std::move(entry));
  return out;
}

std::vector<DurabilityManager::RestoredTable> DurabilityManager::ColdStart(
    std::vector<std::string>* removed_temp_files) {
  const std::vector<TableDirEntry> tables =
      ListTableDir(dir_, removed_temp_files);
  for (const TableDirEntry& entry : tables) {
    if (!entry.has_snapshot) {
      // Registration writes the snapshot floor strictly before creating
      // the log, and Drop removes the log before... the pair is only
      // ever snapshot-then-log. A log with no snapshot is therefore not
      // a crash artifact — refuse to guess at its floor.
      throw std::runtime_error("orphaned op log (no snapshot floor): " +
                               LogPathFor(entry.table));
    }
  }
  std::vector<RestoredTable> restored;
  for (const TableDirEntry& entry : tables) {
    restored.push_back(RestoreOne(entry.table, entry.has_log));
  }
  return restored;
}

DurabilityManager::RestoredTable DurabilityManager::RestoreOne(
    const std::string& table, bool has_log) {
  RestoredTable report;
  report.table = table;
  TableSnapshot snapshot = ReadTableSnapshotFile(SnapshotPathFor(table));
  const int n = snapshot.table.num_candidates();
  const uint64_t floor_generation = snapshot.summary.generation;
  const uint64_t floor_rankings =
      static_cast<uint64_t>(snapshot.summary.num_rankings);
  report.snapshot_rankings = floor_rankings;
  const TableStats stats = manager_->RestoreTable(table, std::move(snapshot));
  report.summarized = stats.summarized;

  auto entry = std::make_shared<Entry>();
  entry->last_truncation = Clock::now();
  if (!has_log) {
    // Snapshot without a log: the crash landed between the floor write
    // and the log creation (or an operator copied a bare snapshot in).
    // Start a fresh chain from the floor.
    entry->writer = OpLogWriter::Create(LogPathFor(table), n,
                                        floor_generation, floor_rankings);
  } else {
    const std::string log_path = LogPathFor(table);
    OpLogContents contents;
    // OpenExisting validates the header, finds the clean tail, truncates
    // any torn record in place, and leaves the writer positioned to
    // append — the file is read exactly once.
    entry->writer = OpLogWriter::OpenExisting(log_path, n, &contents);
    report.torn_tail = contents.torn_tail;
    FloorChain chain(floor_generation, floor_rankings);
    const std::string refused =
        chain.CheckBase(contents.base_generation, contents.base_rankings);
    if (!refused.empty()) {
      throw std::runtime_error("op log " + log_path + " " + refused +
                               " — unusable state");
    }
    const auto start = Clock::now();
    for (OpRecord& record : contents.records) {
      const FloorChain::Verdict verdict = chain.Classify(record);
      if (verdict == FloorChain::Verdict::kSkip) {
        ++report.skipped_records;
        continue;
      }
      if (verdict == FloorChain::Verdict::kStraddle) {
        throw std::runtime_error(
            "op log " + log_path +
            " has a record straddling the snapshot boundary at "
            "generation " + std::to_string(floor_generation) +
            " — unusable state");
      }
      try {
        if (record.kind == OpRecord::Kind::kAppend) {
          report.replayed_rankings += record.rankings.size();
        }
        // One record = one fold, exactly as a follower applies it: each
        // record was one applied coalesced batch (or one remove) in the
        // original process, so applied_batches comes back exactly.
        manager_->ApplyReplicated(table, std::move(record));
      } catch (const std::exception& e) {
        // The record passed its checksum, so this is not a torn tail —
        // a checksum-valid record the manager rejects means the log does
        // not describe this snapshot's table. Refuse the whole restore.
        throw std::runtime_error("op log " + log_path +
                                 " replay failed at record " +
                                 std::to_string(report.replayed_records) +
                                 ": " + e.what());
      }
      ++report.replayed_records;
    }
    report.replay_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    entry->replayed_records = report.replayed_records;
    entry->replayed_rankings = report.replayed_rankings;
    entry->replay_ms = report.replay_ms;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[table] = std::move(entry);
  }
  return report;
}

void DurabilityManager::Attach() {
  manager_->SetDurabilityHook(this);
  // Tables already in the manager without durability state (imported via
  // --restore-dir, or registered before this attach) get a floor now, so
  // the very first crash after attach is already recoverable.
  for (const std::string& table : manager_->TableNames()) {
    if (FindEntry(table) != nullptr) continue;
    if (!IsDurableTableName(table)) {
      throw std::runtime_error("table name cannot be persisted: " + table);
    }
    SnapshotNow(table);
  }
}

// --- snapshot policy --------------------------------------------------------

void DurabilityManager::SnapshotNow(const std::string& table) {
  if (!IsDurableTableName(table)) {
    throw std::invalid_argument("table name cannot be persisted: " + table);
  }
  manager_->SnapshotTable(
      table, SnapshotMode::kAuto, [&](const TableSnapshot& snap) {
        // Both steps run while the table's exclusive gate is held, so no
        // fold can land between the floor and the truncation. Order is
        // load-bearing: floor first — a crash after it leaves
        // {new floor, old log}, which ColdStart heals by skipping the
        // already-snapshotted log prefix. Truncating first would lose
        // the un-snapshotted delta outright.
        WriteTableSnapshotFile(SnapshotPathFor(table), snap);
        std::unique_ptr<OpLogWriter> writer = OpLogWriter::Create(
            LogPathFor(table), snap.table.num_candidates(),
            snap.summary.generation,
            static_cast<uint64_t>(snap.summary.num_rankings));
        const std::shared_ptr<Entry> entry = FindOrCreateEntry(table);
        std::lock_guard<std::mutex> lock(entry->mu);
        entry->writer = std::move(writer);
        entry->healthy = true;
        entry->last_error.clear();
        ++entry->truncations;
        entry->last_truncation = Clock::now();
      });
}

void DurabilityManager::SetPolicy(const std::string& table,
                                  const Policy& policy) {
  const std::shared_ptr<Entry> entry = FindEntry(table);
  if (entry == nullptr) {
    throw std::invalid_argument("no durability state for table: " + table);
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  entry->policy = policy;
}

int64_t DurabilityManager::NextDeadlineMs() const {
  int64_t best = -1;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [table, entry] : entries_) {
    std::lock_guard<std::mutex> elock(entry->mu);
    if (entry->policy.kind != Policy::Kind::kSeconds) continue;
    const auto deadline =
        entry->last_truncation +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(entry->policy.every_seconds));
    const int64_t ms =
        std::max<int64_t>(0, std::chrono::duration_cast<std::chrono::milliseconds>(
                                 deadline - now)
                                 .count());
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

size_t DurabilityManager::RunDuePolicies() {
  // Collect the due set under the locks, snapshot outside them —
  // SnapshotNow drains the table under its exclusive gate, which must
  // never nest inside mu_/entry->mu (the fold path takes them the other
  // way around).
  std::vector<std::string> due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Clock::time_point now = Clock::now();
    for (const auto& [table, entry] : entries_) {
      std::lock_guard<std::mutex> elock(entry->mu);
      switch (entry->policy.kind) {
        case Policy::Kind::kOff:
          break;
        case Policy::Kind::kSeconds: {
          const auto elapsed = std::chrono::duration<double>(
                                   now - entry->last_truncation)
                                   .count();
          if (elapsed >= entry->policy.every_seconds) due.push_back(table);
          break;
        }
        case Policy::Kind::kGenerations: {
          if (entry->writer == nullptr) {
            // Unhealthy with a policy armed: a truncation is the healing
            // step, take it at the next opportunity.
            due.push_back(table);
            break;
          }
          uint64_t generation = 0;
          try {
            generation = manager_->Stats(table).generation;
          } catch (const std::exception&) {
            break;  // dropped concurrently; the entry is on its way out
          }
          if (generation >= entry->writer->base_generation() +
                                entry->policy.every_generations) {
            due.push_back(table);
          }
          break;
        }
      }
    }
  }
  size_t snapshotted = 0;
  for (const std::string& table : due) {
    try {
      SnapshotNow(table);
      ++snapshotted;
    } catch (const std::exception& e) {
      // Policy work must never take the serving loop down. Record the
      // failure; the policy stays armed and retries at the next
      // evaluation, and the old chain remains recoverable.
      const std::shared_ptr<Entry> entry = FindEntry(table);
      if (entry != nullptr) {
        std::lock_guard<std::mutex> lock(entry->mu);
        entry->last_error = e.what();
      }
    }
  }
  return snapshotted;
}

std::optional<DurabilityManager::TableDurability> DurabilityManager::StatsFor(
    const std::string& table) const {
  const std::shared_ptr<Entry> entry = FindEntry(table);
  if (entry == nullptr) return std::nullopt;
  TableDurability out;
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->writer != nullptr) {
    out.log_records = entry->writer->records();
    out.log_bytes = entry->writer->bytes();
  }
  out.truncations = entry->truncations;
  out.replayed_records = entry->replayed_records;
  out.replayed_rankings = entry->replayed_rankings;
  out.replay_ms = entry->replay_ms;
  out.healthy = entry->healthy;
  out.policy = entry->policy;
  return out;
}

std::string DurabilityManager::MetricsSuffix() const {
  uint64_t tables = 0;
  uint64_t records = 0;
  uint64_t bytes = 0;
  uint64_t truncations = 0;
  uint64_t replayed = 0;
  uint64_t unhealthy = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [table, entry] : entries_) {
      std::lock_guard<std::mutex> elock(entry->mu);
      ++tables;
      if (entry->writer != nullptr) {
        records += entry->writer->records();
        bytes += entry->writer->bytes();
      }
      truncations += entry->truncations;
      replayed += entry->replayed_records;
      if (!entry->healthy) ++unhealthy;
    }
  }
  std::string out;
  out += " oplog_tables=" + std::to_string(tables);
  out += " oplog_records=" + std::to_string(records);
  out += " oplog_bytes=" + std::to_string(bytes);
  out += " oplog_truncations=" + std::to_string(truncations);
  out += " oplog_replayed_records=" + std::to_string(replayed);
  out += " oplog_unhealthy=" + std::to_string(unhealthy);
  return out;
}

// --- replication source -----------------------------------------------------

DurabilityManager::ReplicationHandshake DurabilityManager::TakeHandshake(
    const std::string& table) {
  for (int attempt = 0;; ++attempt) {
    const std::shared_ptr<Entry> entry = FindEntry(table);
    if (entry == nullptr) {
      throw std::invalid_argument("no durability state for table: " + table);
    }
    uint64_t chain = 0;
    uint64_t committed = 0;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      if (entry->writer == nullptr) {
        throw std::runtime_error("durability for table '" + table +
                                 "' is unhealthy: " + entry->last_error);
      }
      chain = entry->truncations;
      committed = entry->writer->bytes();
    }
    ReplicationHandshake hs;
    // Files are read OUTSIDE entry->mu so a large handshake never stalls
    // the fold path's CommitFold; consistency comes from re-validating
    // the chain below (WriteFileDurably replaces files by rename, so a
    // racing truncation gives us the NEW files — detectably).
    hs.snapshot_bytes = SlurpWholeFile(SnapshotPathFor(table));
    hs.log_bytes = ReadFileRange(LogPathFor(table), 0, committed);
    hs.chain = chain;
    hs.committed_bytes = committed;
    bool consistent = hs.log_bytes.size() == committed;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      consistent = consistent && entry->writer != nullptr &&
                   entry->truncations == chain;
    }
    if (consistent) return hs;
    if (attempt >= 100) {
      throw std::runtime_error(
          "replication handshake kept racing truncations: " + table);
    }
  }
}

DurabilityManager::ReplicationPoll DurabilityManager::PollReplication(
    const std::string& table, uint64_t chain, uint64_t* offset,
    size_t max_bytes, std::string* out) {
  const std::shared_ptr<Entry> entry = FindEntry(table);
  if (entry == nullptr) return ReplicationPoll::kRotated;  // dropped
  uint64_t committed = 0;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    // Unhealthy counts as rotated: the chain is broken and heals only
    // via the next truncation, which rotates anyway.
    if (entry->writer == nullptr || entry->truncations != chain) {
      return ReplicationPoll::kRotated;
    }
    committed = entry->writer->bytes();
  }
  if (*offset >= committed) return ReplicationPoll::kData;
  const size_t want =
      static_cast<size_t>(std::min<uint64_t>(max_bytes, committed - *offset));
  std::string chunk;
  try {
    chunk = ReadFileRange(LogPathFor(table), *offset, want);
  } catch (const std::exception&) {
    return ReplicationPoll::kRotated;  // file replaced/unreadable mid-poll
  }
  {
    // A truncation may have atomically replaced the path between the
    // committed-size read and the file read, handing us bytes of the NEW
    // chain at an old offset. Re-validate before trusting the chunk.
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->writer == nullptr || entry->truncations != chain) {
      return ReplicationPoll::kRotated;
    }
  }
  if (chunk.size() != want) return ReplicationPoll::kRotated;
  out->append(chunk);
  *offset += want;
  return ReplicationPoll::kData;
}

// --- fold and lifecycle groups ----------------------------------------------

void DurabilityManager::LogAppend(const std::string& table,
                                  const std::vector<Ranking>& batch) {
  const std::shared_ptr<Entry> entry = FindEntry(table);
  if (entry == nullptr) return;
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->writer == nullptr) return;  // unhealthy: chain already broken
  try {
    entry->writer->BufferAppend(batch);
  } catch (const std::exception& e) {
    MarkUnhealthy(*entry, e.what());
  }
}

void DurabilityManager::LogRemove(const std::string& table, uint64_t index) {
  const std::shared_ptr<Entry> entry = FindEntry(table);
  if (entry == nullptr) return;
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->writer == nullptr) return;
  try {
    entry->writer->BufferRemove(index);
  } catch (const std::exception& e) {
    MarkUnhealthy(*entry, e.what());
  }
}

void DurabilityManager::AbortLastOp(const std::string& table) {
  const std::shared_ptr<Entry> entry = FindEntry(table);
  if (entry == nullptr) return;
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->writer == nullptr) return;
  entry->writer->AbortLast();
}

void DurabilityManager::CommitFold(const std::string& table) {
  const std::shared_ptr<Entry> entry = FindEntry(table);
  if (entry == nullptr) return;
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->writer == nullptr) return;
  try {
    entry->writer->Commit();
  } catch (const std::exception& e) {
    MarkUnhealthy(*entry, e.what());
  }
}

void DurabilityManager::OnTableRegistered(const std::string& table,
                                          const TableSnapshot& floor) {
  if (!IsDurableTableName(table)) {
    throw std::invalid_argument("table name cannot be persisted: " + table);
  }
  const std::string snap_path = SnapshotPathFor(table);
  const std::string log_path = LogPathFor(table);
  try {
    // Floor first, log second — the only order ColdStart can heal (a
    // lone snapshot gets a fresh log; a lone log is unusable).
    WriteTableSnapshotFile(snap_path, floor);
    auto entry = std::make_shared<Entry>();
    entry->writer = OpLogWriter::Create(
        log_path, floor.table.num_candidates(), floor.summary.generation,
        static_cast<uint64_t>(floor.summary.num_rankings));
    entry->last_truncation = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      entries_[table] = std::move(entry);
    }
  } catch (...) {
    // The CREATE/RESTORE is about to fail: leave no ghost files behind,
    // or the next cold start would resurrect a table the client was told
    // does not exist.
    std::remove(snap_path.c_str());
    std::remove(log_path.c_str());
    throw;
  }
}

void DurabilityManager::OnTableDropped(const std::string& table) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.erase(table);
  }
  // Retire the files so a restart cannot resurrect the dropped table.
  // Unlinks are made durable the same way the writes were: parent-dir
  // fsync (best-effort — a failure here means the drop may reappear
  // after a crash, which DROP-again handles).
  std::remove(SnapshotPathFor(table).c_str());
  std::remove(LogPathFor(table).c_str());
  try {
    FsyncParentDir(SnapshotPathFor(table));
  } catch (const std::exception&) {
  }
}

}  // namespace manirank::serve
