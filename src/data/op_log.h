#ifndef MANIRANK_DATA_OP_LOG_H_
#define MANIRANK_DATA_OP_LOG_H_

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ranking.h"

namespace manirank {

/// Per-table append-only op log: the delta a serving shard has folded
/// since its snapshot floor, written at exact fold boundaries so a cold
/// start can replay it and recover the *retained* profile bit-exactly
/// (snapshot = floor, log = everything since). Same discipline as
/// data/snapshot.h: magic + version + FNV-1a-64 checksums, all integers
/// little-endian.
///
/// File layout:
///
///   header   magic "MRNKOPLG" (8) | version u32 | num_candidates u32 |
///            base_generation u64 | base_rankings u64 |
///            crc u64 (FNV-1a over the 32 header bytes before it)
///   record*  length u32 | body | crc u64 (FNV-1a over length+body)
///
///   body     kind u8 (1 = APPEND, 2 = REMOVE)
///            APPEND: count u32, then count rankings of n u32 ids each
///            REMOVE: index u64
///
/// base_generation / base_rankings bind the log to the snapshot it
/// chains from: a reader must refuse a log whose base does not match its
/// floor, and skip the already-snapshotted records a crash between the
/// snapshot write and the log truncation leaves at its head (FloorChain
/// below holds both rules). One APPEND record corresponds to one applied
/// coalesced batch — replaying record-by-record therefore reproduces not
/// just the profile but the shard's applied_batches bookkeeping.
///
/// The per-record checksum covers the length prefix too, so a torn tail
/// (the crash artifact: a record the writer never finished) is always
/// detected — framing or checksum failures at the tail are reported as a
/// recoverable torn tail, while a checksum-VALID record with malformed
/// contents (impossible as a partial-write artifact) is corruption and
/// throws OpLogFormatError.
inline constexpr char kOpLogMagic[8] = {'M', 'R', 'N', 'K',
                                        'O', 'P', 'L', 'G'};
inline constexpr uint32_t kOpLogVersion = 1;
/// Header bytes including the trailing header checksum.
inline constexpr size_t kOpLogHeaderBytes = 8 + 4 + 4 + 8 + 8 + 8;

/// Thrown for damage that cannot be a crash artifact: bad magic /
/// version / header checksum, or a checksum-valid record whose body is
/// malformed (bad kind, non-permutation ranking, length mismatch). A
/// torn tail is NOT this error — see OpLogContents::torn_tail.
class OpLogFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One logged mutation, in fold order.
struct OpRecord {
  enum class Kind : uint8_t { kAppend = 1, kRemove = 2 };
  Kind kind = Kind::kAppend;
  /// kAppend: the batch, in append order (one record per applied batch).
  std::vector<Ranking> rankings;
  /// kRemove: profile index at the time the remove folded.
  uint64_t remove_index = 0;
};

/// A validated read of a whole op log.
struct OpLogContents {
  uint32_t num_candidates = 0;
  uint64_t base_generation = 0;
  uint64_t base_rankings = 0;
  /// Clean records, in fold order.
  std::vector<OpRecord> records;
  /// Empty for a cleanly ended log. Otherwise a human-readable
  /// description of the torn (partially written) tail — the crash left a
  /// record the writer never completed; `records` holds exactly the
  /// clean prefix and recovery proceeds from it.
  std::string torn_tail;
  /// Byte offset of the end of the last clean record (== file size when
  /// the log ended cleanly). A writer reopening the log truncates to it.
  uint64_t clean_bytes = 0;
};

/// Reads and validates the log at `path`. Throws std::runtime_error when
/// the file cannot be opened and OpLogFormatError for non-crash damage
/// (see above); a torn tail is reported, not thrown.
OpLogContents ReadOpLogFile(const std::string& path);

/// Incremental, push-style op-log verifier: feed bytes as they arrive
/// (from a file slurp or a replication socket), pull verified records one
/// at a time. Cold start, crash recovery, and follower catch-up all run
/// their bytes through this one class, so every consumer applies exactly
/// the same header / framing / checksum / body validation.
///
/// The caller interprets the two non-record statuses by source:
///
///   kNeedMore  the buffered tail is an incomplete frame. A streaming
///              reader waits for more bytes; a file reader at EOF treats
///              a non-empty tail as the torn-tail crash artifact.
///   kTorn      a complete frame failed verification (checksum mismatch,
///              or a length prefix over the cap — no amount of further
///              input can make it parse). A file reader treats this as a
///              torn tail too; a streaming reader must drop the
///              connection and re-handshake. Sticky once returned.
///
/// Next() throws OpLogFormatError exactly where the whole-file reader
/// does: bad magic / version / header checksum, and checksum-valid
/// records with malformed bodies.
class OpLogCursor {
 public:
  enum class Status { kRecord, kNeedMore, kTorn };

  /// `path` is used only in error/torn-tail messages.
  explicit OpLogCursor(std::string path = std::string());

  /// Appends bytes to the cursor's input. Cheap; no parsing happens here.
  void Feed(const char* data, size_t size);

  /// Attempts to verify and yield the next record (parsing the header
  /// first if it has not been seen yet). On kRecord, `*record` holds the
  /// verified record.
  Status Next(OpRecord* record);

  /// True once the 40-byte header has been parsed and validated; the
  /// base_* accessors are meaningful only after that.
  bool header_ready() const { return header_ready_; }
  uint32_t num_candidates() const { return num_candidates_; }
  uint64_t base_generation() const { return base_generation_; }
  uint64_t base_rankings() const { return base_rankings_; }

  /// Byte offset of the end of the last verified record (header
  /// included) — the same clean-prefix boundary OpLogContents reports.
  uint64_t clean_bytes() const { return clean_bytes_; }
  /// Verified records yielded so far.
  uint64_t records() const { return records_; }
  /// Fed bytes beyond the clean boundary (the incomplete / torn tail).
  uint64_t pending_bytes() const { return buffer_.size() - off_; }

  /// Human-readable description of the pending tail, in the same format
  /// OpLogContents::torn_tail uses. Empty when the input ends cleanly.
  std::string TornDetail() const;

 private:
  Status Step(OpRecord* record);

  std::string path_;
  std::string buffer_;
  /// Consumed prefix of buffer_ (compacted away periodically).
  size_t off_ = 0;
  bool header_ready_ = false;
  bool torn_ = false;
  uint32_t num_candidates_ = 0;
  uint64_t base_generation_ = 0;
  uint64_t base_rankings_ = 0;
  uint64_t clean_bytes_ = 0;
  uint64_t records_ = 0;
};

/// The rules that chain an op log onto the snapshot floor it is replayed
/// over. Cold start (serve/durability.cc) and follower catch-up
/// (serve/replica.cc) both run every log through one FloorChain, so they
/// accept, skip and refuse exactly the same records; each caller only
/// chooses how to fail. Check the header once (CheckBase), then classify
/// every verified record in log order (Classify).
///
/// A log may chain from a base OLDER than its floor: a crash between the
/// snapshot write and the log truncation leaves {new floor, old log},
/// whose head records are already folded into the floor. The context
/// bumps its generation once per ranking added or removed (an APPEND of
/// k rankings advances it by k, a REMOVE by 1) and floors are taken at
/// fold boundaries, so the cumulative generation finds that prefix
/// exactly. A record that crosses the floor's generation means the pair
/// does not describe one table.
class FloorChain {
 public:
  enum class Verdict {
    kSkip,      ///< already folded into the floor
    kApply,     ///< past the floor: fold it
    kStraddle,  ///< crosses the floor: the log does not chain
  };

  FloorChain(uint64_t floor_generation, uint64_t floor_rankings)
      : floor_generation_(floor_generation), floor_rankings_(floor_rankings) {}

  /// Checks the log header against the floor and starts counting at its
  /// base. Returns an empty string when the log chains; otherwise why it
  /// does not (its base is newer than the floor, or names the floor's
  /// generation with another profile size), phrased to follow the log's
  /// name.
  std::string CheckBase(uint64_t base_generation, uint64_t base_rankings);

  /// Classifies the next record. kSkip and kApply advance generation()
  /// past it; after kStraddle the caller must stop.
  Verdict Classify(const OpRecord& record);

  /// Profile generation after the last skipped or applied record.
  uint64_t generation() const { return generation_; }

 private:
  uint64_t floor_generation_;
  uint64_t floor_rankings_;
  uint64_t generation_ = 0;
};

/// Append-side handle over one table's op log. Records are *buffered*
/// per fold (BufferAppend / BufferRemove, one call per applied op) and
/// made durable by a single Commit — write + fsync — at the fold
/// boundary, so a whole coalesced drain costs one fsync. AbortLast drops
/// the most recently buffered record (the op whose apply threw). Not
/// thread-safe: the serving layer calls it under the table's exclusive
/// gate, which already serializes folds.
class OpLogWriter {
 public:
  /// Creates (or atomically replaces) the log at `path` with a fresh
  /// header — used at table creation and at every snapshot truncation.
  /// The header lands via WriteFileDurably, so a crash mid-truncation
  /// leaves either the old log or the new empty one, never a torn file.
  static std::unique_ptr<OpLogWriter> Create(const std::string& path,
                                             int num_candidates,
                                             uint64_t base_generation,
                                             uint64_t base_rankings);

  /// Opens an existing log for append: validates the header (the
  /// candidate count must match), scans for the clean tail, truncates a
  /// torn tail in place (ftruncate + fsync), and positions at the end.
  /// When `contents` is non-null the scanned records (and the torn-tail
  /// report, if any) are returned through it, so a cold start reads the
  /// file once. Throws like ReadOpLogFile, plus std::invalid_argument on
  /// a candidate-count mismatch.
  static std::unique_ptr<OpLogWriter> OpenExisting(const std::string& path,
                                                   int num_candidates,
                                                   OpLogContents* contents);

  ~OpLogWriter();
  OpLogWriter(const OpLogWriter&) = delete;
  OpLogWriter& operator=(const OpLogWriter&) = delete;

  /// Buffers one APPEND record over the batch (not yet durable).
  void BufferAppend(const std::vector<Ranking>& rankings);
  /// Buffers one REMOVE record (not yet durable).
  void BufferRemove(uint64_t index);
  /// Drops the most recently buffered, uncommitted record.
  void AbortLast();
  /// Writes every buffered record and fsyncs the file. Throws
  /// std::runtime_error on I/O failure (buffered records are kept, so a
  /// caller may retry); no-op when nothing is buffered.
  void Commit();

  const std::string& path() const { return path_; }
  uint64_t base_generation() const { return base_generation_; }
  uint64_t base_rankings() const { return base_rankings_; }
  /// Durable (committed) bytes in the file, header included.
  uint64_t bytes() const { return bytes_; }
  /// Durable (committed) records.
  uint64_t records() const { return records_; }

 private:
  OpLogWriter(std::string path, int fd, int num_candidates,
              uint64_t base_generation, uint64_t base_rankings,
              uint64_t bytes, uint64_t records);

  std::string path_;
  int fd_ = -1;
  int num_candidates_ = 0;
  uint64_t base_generation_ = 0;
  uint64_t base_rankings_ = 0;
  uint64_t bytes_ = 0;
  uint64_t records_ = 0;
  /// Encoded-but-uncommitted records and their start offsets within the
  /// buffer (for AbortLast).
  std::string buffer_;
  std::vector<size_t> record_starts_;
};

}  // namespace manirank

#endif  // MANIRANK_DATA_OP_LOG_H_
