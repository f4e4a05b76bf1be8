#include "data/op_log.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "data/durable_file.h"

namespace manirank {
namespace {

/// Caps a single record's declared body length. The serving layer logs
/// one record per applied coalesced batch, which is bounded by what fits
/// in memory anyway; the cap only stops a corrupt length prefix from
/// driving a multi-gigabyte allocation before the checksum check runs.
constexpr uint32_t kMaxRecordBodyBytes = 1u << 30;
/// Mirrors the snapshot reader's table cap (snapshot.cc kMaxCandidates).
constexpr uint32_t kMaxOpLogCandidates = 1u << 20;

std::string EncodeHeader(int num_candidates, uint64_t base_generation,
                         uint64_t base_rankings) {
  std::string header(kOpLogMagic, sizeof(kOpLogMagic));
  PutU32(&header, kOpLogVersion);
  PutU32(&header, static_cast<uint32_t>(num_candidates));
  PutU64(&header, base_generation);
  PutU64(&header, base_rankings);
  PutU64(&header, Fnv1a64(header.data(), header.size()));
  return header;
}

/// Ends the frame that starts at `frame_start` in `out` (length | body,
/// already written): appends its crc.
void FinishFrame(std::string* out, size_t frame_start) {
  PutU64(out, Fnv1a64(out->data() + frame_start, out->size() - frame_start));
}

/// Parses one checksum-verified record body. Throws OpLogFormatError —
/// the checksum already passed, so malformed contents are corruption (or
/// a writer bug), never a torn write.
OpRecord ParseBody(const char* body, uint32_t len, uint32_t n,
                   size_t record_index) {
  const auto fail = [record_index](const std::string& what) -> OpRecord {
    throw OpLogFormatError("op log record " + std::to_string(record_index) +
                           " is corrupt (checksum-valid but malformed): " +
                           what);
  };
  if (len < 1) return fail("empty body");
  OpRecord record;
  const uint8_t kind = static_cast<unsigned char>(body[0]);
  if (kind == static_cast<uint8_t>(OpRecord::Kind::kAppend)) {
    record.kind = OpRecord::Kind::kAppend;
    if (len < 5) return fail("APPEND body shorter than its count");
    const uint32_t count = GetU32(body + 1);
    const uint64_t expect =
        5 + static_cast<uint64_t>(count) * static_cast<uint64_t>(n) * 4;
    if (count == 0) return fail("APPEND with zero rankings");
    if (expect != len) {
      return fail("APPEND body length does not match its ranking count");
    }
    record.rankings.reserve(count);
    const char* cursor = body + 5;
    std::vector<CandidateId> order(n);
    for (uint32_t i = 0; i < count; ++i) {
      for (uint32_t p = 0; p < n; ++p) {
        const uint32_t id = GetU32(cursor);
        cursor += 4;
        if (id >= n) return fail("candidate id out of range");
        order[p] = static_cast<CandidateId>(id);
      }
      if (!Ranking::IsValidOrder(order)) {
        return fail("APPEND ranking is not a permutation");
      }
      record.rankings.emplace_back(order);
    }
  } else if (kind == static_cast<uint8_t>(OpRecord::Kind::kRemove)) {
    record.kind = OpRecord::Kind::kRemove;
    if (len != 9) return fail("REMOVE body must be exactly 9 bytes");
    record.remove_index = GetU64(body + 1);
  } else {
    return fail("unknown record kind " + std::to_string(kind));
  }
  return record;
}

/// Parses header + records out of a whole file's bytes by pumping the
/// incremental cursor over the whole buffer — the file path and the
/// streaming path share one verifier. Shared by the reader and
/// OpenExisting's tail scan.
OpLogContents ParseOpLog(const std::string& buffer, const std::string& path) {
  OpLogCursor cursor(path);
  cursor.Feed(buffer.data(), buffer.size());
  OpLogContents contents;
  OpRecord record;
  for (;;) {
    const OpLogCursor::Status status = cursor.Next(&record);
    if (status == OpLogCursor::Status::kRecord) {
      contents.records.push_back(std::move(record));
      continue;
    }
    if (!cursor.header_ready()) {
      throw OpLogFormatError("op log shorter than its header: " + path);
    }
    // At EOF both an incomplete frame (kNeedMore with bytes pending) and
    // a frame that failed verification (kTorn) are the torn-tail crash
    // artifact: recovery keeps the clean prefix.
    if (status == OpLogCursor::Status::kTorn || cursor.pending_bytes() > 0) {
      contents.torn_tail = cursor.TornDetail();
    }
    break;
  }
  contents.num_candidates = cursor.num_candidates();
  contents.base_generation = cursor.base_generation();
  contents.base_rankings = cursor.base_rankings();
  contents.clean_bytes = cursor.clean_bytes();
  return contents;
}

}  // namespace

OpLogContents ReadOpLogFile(const std::string& path) {
  const std::optional<std::string> bytes = ReadFileBytes(path);
  if (!bytes) throw std::runtime_error("cannot open op log: " + path);
  return ParseOpLog(*bytes, path);
}

OpLogCursor::OpLogCursor(std::string path) : path_(std::move(path)) {}

void OpLogCursor::Feed(const char* data, size_t size) {
  buffer_.append(data, size);
}

OpLogCursor::Status OpLogCursor::Next(OpRecord* record) {
  if (torn_) return Status::kTorn;
  const Status status = Step(record);
  if (status == Status::kTorn) torn_ = true;
  // Compact the consumed prefix once it dominates the buffer, so a
  // long-lived streaming cursor does not hold every byte it ever saw.
  if (off_ > (1u << 18) && off_ > buffer_.size() - off_) {
    buffer_.erase(0, off_);
    off_ = 0;
  }
  return status;
}

OpLogCursor::Status OpLogCursor::Step(OpRecord* record) {
  if (!header_ready_) {
    if (buffer_.size() - off_ < kOpLogHeaderBytes) return Status::kNeedMore;
    const char* header = buffer_.data() + off_;
    if (std::memcmp(header, kOpLogMagic, sizeof(kOpLogMagic)) != 0) {
      throw OpLogFormatError(
          "op log has bad magic (not a MANI-Rank op log): " + path_);
    }
    const size_t header_body = kOpLogHeaderBytes - 8;
    const uint64_t header_crc = GetU64(header + header_body);
    if (header_crc != Fnv1a64(header, header_body)) {
      throw OpLogFormatError("op log header checksum mismatch: " + path_);
    }
    const uint32_t version = GetU32(header + 8);
    if (version != kOpLogVersion) {
      throw OpLogFormatError("op log version " + std::to_string(version) +
                             " is not supported (expected " +
                             std::to_string(kOpLogVersion) + "): " + path_);
    }
    num_candidates_ = GetU32(header + 12);
    base_generation_ = GetU64(header + 16);
    base_rankings_ = GetU64(header + 24);
    if (num_candidates_ == 0 || num_candidates_ > kMaxOpLogCandidates) {
      throw OpLogFormatError("op log candidate count out of range: " +
                             std::to_string(num_candidates_));
    }
    header_ready_ = true;
    off_ += kOpLogHeaderBytes;
    clean_bytes_ = kOpLogHeaderBytes;
  }
  const size_t remaining = buffer_.size() - off_;
  if (remaining < 4) return Status::kNeedMore;
  const char* frame_start = buffer_.data() + off_;
  const uint32_t len = GetU32(frame_start);
  // A length over the cap can never verify no matter how many more bytes
  // arrive — unlike a short frame, this is terminal even for a stream.
  if (len > kMaxRecordBodyBytes) return Status::kTorn;
  const uint64_t frame = 4 + static_cast<uint64_t>(len) + 8;
  if (frame > remaining) return Status::kNeedMore;
  const uint64_t stored = GetU64(frame_start + 4 + len);
  if (stored != Fnv1a64(frame_start, 4 + len)) return Status::kTorn;
  *record = ParseBody(frame_start + 4, len, num_candidates_,
                      static_cast<size_t>(records_));
  off_ += frame;
  clean_bytes_ += frame;
  ++records_;
  return Status::kRecord;
}

std::string OpLogCursor::TornDetail() const {
  const size_t remaining = buffer_.size() - off_;
  if (header_ready_ && remaining == 0 && !torn_) return std::string();
  std::string what;
  if (!header_ready_) {
    what = "partial header (" + std::to_string(remaining) + " bytes)";
  } else if (remaining < 4) {
    what = "partial length prefix (" + std::to_string(remaining) + " bytes)";
  } else {
    const uint32_t len = GetU32(buffer_.data() + off_);
    const uint64_t frame = 4 + static_cast<uint64_t>(len) + 8;
    if (len > kMaxRecordBodyBytes) {
      what = "record length " + std::to_string(len) + " exceeds the cap";
    } else if (frame > remaining) {
      what = "record frame of " + std::to_string(frame) +
             " bytes exceeds the " + std::to_string(remaining) +
             " bytes remaining";
    } else {
      what = "record checksum mismatch";
    }
  }
  return "torn record " + std::to_string(records_) + " at byte " +
         std::to_string(clean_bytes_) + ": " + what;
}

std::string FloorChain::CheckBase(uint64_t base_generation,
                                  uint64_t base_rankings) {
  generation_ = base_generation;
  if (base_generation > floor_generation_) {
    return "chains from generation " + std::to_string(base_generation) +
           ", newer than its snapshot floor (generation " +
           std::to_string(floor_generation_) + ")";
  }
  if (base_generation == floor_generation_ &&
      base_rankings != floor_rankings_) {
    return "disagrees with its snapshot floor on the profile size at "
           "generation " + std::to_string(floor_generation_);
  }
  return std::string();
}

FloorChain::Verdict FloorChain::Classify(const OpRecord& record) {
  const uint64_t delta = record.kind == OpRecord::Kind::kRemove
                             ? 1
                             : static_cast<uint64_t>(record.rankings.size());
  if (generation_ + delta <= floor_generation_) {
    generation_ += delta;
    return Verdict::kSkip;
  }
  if (generation_ < floor_generation_) return Verdict::kStraddle;
  generation_ += delta;
  return Verdict::kApply;
}

OpLogWriter::OpLogWriter(std::string path, int fd, int num_candidates,
                         uint64_t base_generation, uint64_t base_rankings,
                         uint64_t bytes, uint64_t records)
    : path_(std::move(path)),
      fd_(fd),
      num_candidates_(num_candidates),
      base_generation_(base_generation),
      base_rankings_(base_rankings),
      bytes_(bytes),
      records_(records) {}

OpLogWriter::~OpLogWriter() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<OpLogWriter> OpLogWriter::Create(const std::string& path,
                                                 int num_candidates,
                                                 uint64_t base_generation,
                                                 uint64_t base_rankings) {
  const std::string header =
      EncodeHeader(num_candidates, base_generation, base_rankings);
  // Atomic + durable replacement: a crash mid-truncation leaves either
  // the previous log (still chained to the previous snapshot) or the
  // fresh empty one — never a torn header.
  WriteFileDurably(path, header);
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("cannot open op log for append: " + path + ": " +
                             std::strerror(errno));
  }
  return std::unique_ptr<OpLogWriter>(
      new OpLogWriter(path, fd, num_candidates, base_generation,
                      base_rankings, header.size(), 0));
}

std::unique_ptr<OpLogWriter> OpLogWriter::OpenExisting(
    const std::string& path, int num_candidates, OpLogContents* contents) {
  OpLogContents scanned = ReadOpLogFile(path);
  if (scanned.num_candidates != static_cast<uint32_t>(num_candidates)) {
    throw std::invalid_argument(
        "op log candidate count " + std::to_string(scanned.num_candidates) +
        " does not match the table's " + std::to_string(num_candidates) +
        ": " + path);
  }
  // O_APPEND like Create's handle: after any ftruncate rewind, writes
  // land at the (new) end of file without bookkeeping a seek position.
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("cannot open op log for append: " + path + ": " +
                             std::strerror(errno));
  }
  // Truncate a torn tail before appending anything: the next record must
  // start exactly at the clean boundary, or the tail's garbage bytes
  // would frame-shift everything written after them.
  if (!scanned.torn_tail.empty()) {
    if (::ftruncate(fd, static_cast<off_t>(scanned.clean_bytes)) != 0 ||
        ::fsync(fd) != 0) {
      const int saved = errno;
      ::close(fd);
      throw std::runtime_error("cannot truncate torn op log tail: " + path +
                               ": " + std::strerror(saved));
    }
  }
  if (::lseek(fd, static_cast<off_t>(scanned.clean_bytes), SEEK_SET) < 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error("cannot seek op log: " + path + ": " +
                             std::strerror(saved));
  }
  auto writer = std::unique_ptr<OpLogWriter>(new OpLogWriter(
      path, fd, num_candidates, scanned.base_generation,
      scanned.base_rankings, scanned.clean_bytes, scanned.records.size()));
  if (contents != nullptr) *contents = std::move(scanned);
  return writer;
}

void OpLogWriter::BufferAppend(const std::vector<Ranking>& rankings) {
  const size_t start = buffer_.size();
  size_t ids = 0;
  for (const Ranking& r : rankings) ids += static_cast<size_t>(r.size());
  const size_t body_bytes = 5 + 4 * ids;
  // The frame goes straight into the buffer, reserved once.
  const size_t frame_end = start + 4 + body_bytes + 8;
  if (buffer_.capacity() < frame_end) {
    buffer_.reserve(std::max(frame_end, 2 * buffer_.capacity()));
  }
  record_starts_.push_back(start);
  PutU32(&buffer_, static_cast<uint32_t>(body_bytes));
  buffer_.push_back(static_cast<char>(OpRecord::Kind::kAppend));
  PutU32(&buffer_, static_cast<uint32_t>(rankings.size()));
  for (const Ranking& r : rankings) {
    PutU32Ids(&buffer_, r.order().data(), r.order().size());
  }
  FinishFrame(&buffer_, start);
}

void OpLogWriter::BufferRemove(uint64_t index) {
  const size_t start = buffer_.size();
  record_starts_.push_back(start);
  PutU32(&buffer_, 9);
  buffer_.push_back(static_cast<char>(OpRecord::Kind::kRemove));
  PutU64(&buffer_, index);
  FinishFrame(&buffer_, start);
}

void OpLogWriter::AbortLast() {
  if (record_starts_.empty()) return;
  buffer_.resize(record_starts_.back());
  record_starts_.pop_back();
}

void OpLogWriter::Commit() {
  if (buffer_.empty()) return;
  size_t done = 0;
  while (done < buffer_.size()) {
    const ssize_t n = ::write(fd_, buffer_.data() + done,
                              buffer_.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A short write may have landed a partial frame: the on-disk tail
      // is now torn, exactly like a crash — the next open truncates it.
      // Rewind our own offset so a retried Commit does not double-write
      // the prefix after the torn bytes.
      const int saved = errno;
      if (done > 0) {
        (void)::ftruncate(fd_, static_cast<off_t>(bytes_));
        (void)::lseek(fd_, static_cast<off_t>(bytes_), SEEK_SET);
      }
      throw std::runtime_error("op log append failed: " + path_ + ": " +
                               std::strerror(saved));
    }
    done += static_cast<size_t>(n);
  }
  // fdatasync, not fsync: record data plus the metadata needed to read
  // it back (the file size) is exactly what recovery requires —
  // timestamps are not — and skipping the timestamp journal commit
  // roughly halves the per-fold latency on ext4.
  if (::fdatasync(fd_) != 0) {
    // Same rewind as the write-failure path: the records reached the
    // page cache but are not durable, and they stay buffered for a
    // retry — without the rewind that retry would append them twice.
    const int saved = errno;
    (void)::ftruncate(fd_, static_cast<off_t>(bytes_));
    (void)::lseek(fd_, static_cast<off_t>(bytes_), SEEK_SET);
    throw std::runtime_error("op log fdatasync failed: " + path_ + ": " +
                             std::strerror(saved));
  }
  bytes_ += buffer_.size();
  records_ += record_starts_.size();
  buffer_.clear();
  record_starts_.clear();
}

}  // namespace manirank
