// Op-log and durability-layer tests: the length-prefixed checksummed
// record format of data/op_log.h (round trips, torn-tail recovery at
// EVERY byte boundary of the final record, corruption rejection), the
// crash-durable file helpers of data/durable_file.h, and the
// DurabilityManager end-to-end contract — a table cold-started from
// snapshot floor + op-log replay serves the full RUN-all sweep (B2-B4
// included) bit-identically to the process that died, including across
// the snapshot-written-but-log-not-yet-truncated crash window.

#include "data/op_log.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "data/durable_file.h"
#include "data/snapshot.h"
#include "mallows/mallows.h"
#include "serve/context_manager.h"
#include "serve/durability.h"
#include "serve/protocol.h"
#include "test_util.h"
#include "util/rng.h"

namespace manirank {
namespace {

namespace fs = std::filesystem;
using serve::ContextManager;
using serve::Dispatcher;
using serve::DurabilityManager;

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void WriteAllBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out) << path;
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

/// A fresh empty directory per test, removed on teardown.
class OpLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "manirank_oplog_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

std::vector<Ranking> SampleRankings(int n, int count, uint64_t seed) {
  Rng rng(seed);
  return MallowsModel(testing::RandomRanking(n, &rng), 0.5)
      .SampleMany(count, seed);
}

// ---------------------------------------------------------------- writer

TEST_F(OpLogTest, WriterRoundTripsHeaderAndRecords) {
  const std::string path = Path("t.oplog");
  const std::vector<Ranking> batch_a = SampleRankings(6, 2, 1);
  const std::vector<Ranking> batch_b = SampleRankings(6, 1, 2);
  {
    auto writer = OpLogWriter::Create(path, 6, /*base_generation=*/7,
                                      /*base_rankings=*/3);
    EXPECT_EQ(writer->records(), 0u);
    writer->BufferAppend(batch_a);
    writer->BufferRemove(1);
    writer->BufferAppend(batch_b);
    writer->Commit();
    EXPECT_EQ(writer->records(), 3u);
    EXPECT_EQ(writer->bytes(), fs::file_size(path));
  }
  const OpLogContents contents = ReadOpLogFile(path);
  EXPECT_EQ(contents.num_candidates, 6u);
  EXPECT_EQ(contents.base_generation, 7u);
  EXPECT_EQ(contents.base_rankings, 3u);
  EXPECT_TRUE(contents.torn_tail.empty());
  EXPECT_EQ(contents.clean_bytes, fs::file_size(path));
  ASSERT_EQ(contents.records.size(), 3u);
  EXPECT_EQ(contents.records[0].kind, OpRecord::Kind::kAppend);
  ASSERT_EQ(contents.records[0].rankings.size(), batch_a.size());
  for (size_t i = 0; i < batch_a.size(); ++i) {
    EXPECT_EQ(contents.records[0].rankings[i].order(), batch_a[i].order());
  }
  EXPECT_EQ(contents.records[1].kind, OpRecord::Kind::kRemove);
  EXPECT_EQ(contents.records[1].remove_index, 1u);
  EXPECT_EQ(contents.records[2].kind, OpRecord::Kind::kAppend);
  EXPECT_EQ(contents.records[2].rankings[0].order(), batch_b[0].order());
}

// The APPEND record bytes are pinned: these FNV-1a 64 values and lengths
// were recorded from the writer before the retained profile went compact,
// so any change to the on-disk encoding fails here.
TEST_F(OpLogTest, AppendRecordBytesArePinned) {
  struct Pin {
    int n;
    int count;
    uint64_t fnv;
    size_t bytes;
  };
  for (const Pin& pin : {Pin{7, 20, 0xb446564ad885e885ull, 577},
                        Pin{500, 16, 0x8dbd6628bd3ed974ull, 32017}}) {
    const std::string path = Path("pin" + std::to_string(pin.n) + ".oplog");
    {
      auto writer = OpLogWriter::Create(path, pin.n, /*base_generation=*/5,
                                        /*base_rankings=*/5);
      writer->BufferAppend(SampleRankings(pin.n, pin.count, 700 + pin.n));
      writer->Commit();
    }
    const std::string record = ReadAllBytes(path).substr(kOpLogHeaderBytes);
    EXPECT_EQ(record.size(), pin.bytes) << "n=" << pin.n;
    EXPECT_EQ(Fnv1a64(record.data(), record.size()), pin.fnv)
        << "n=" << pin.n << " fnv=0x" << std::hex
        << Fnv1a64(record.data(), record.size());
  }
}

TEST_F(OpLogTest, EmptyCommitIsANoop) {
  const std::string path = Path("t.oplog");
  auto writer = OpLogWriter::Create(path, 4, 0, 0);
  const uint64_t header_bytes = writer->bytes();
  writer->Commit();
  EXPECT_EQ(writer->bytes(), header_bytes);
  EXPECT_EQ(fs::file_size(path), header_bytes);
}

TEST_F(OpLogTest, AbortLastDropsTheBufferedRecordOnly) {
  const std::string path = Path("t.oplog");
  auto writer = OpLogWriter::Create(path, 4, 0, 0);
  writer->BufferAppend(SampleRankings(4, 1, 3));
  writer->BufferRemove(0);
  writer->AbortLast();  // the remove's apply threw — retract it
  writer->Commit();
  const OpLogContents contents = ReadOpLogFile(path);
  ASSERT_EQ(contents.records.size(), 1u);
  EXPECT_EQ(contents.records[0].kind, OpRecord::Kind::kAppend);
}

TEST_F(OpLogTest, OpenExistingResumesAppending) {
  const std::string path = Path("t.oplog");
  {
    auto writer = OpLogWriter::Create(path, 5, 2, 1);
    writer->BufferAppend(SampleRankings(5, 2, 4));
    writer->Commit();
  }
  OpLogContents scanned;
  {
    auto writer = OpLogWriter::OpenExisting(path, 5, &scanned);
    EXPECT_EQ(scanned.records.size(), 1u);
    EXPECT_TRUE(scanned.torn_tail.empty());
    EXPECT_EQ(writer->base_generation(), 2u);
    EXPECT_EQ(writer->base_rankings(), 1u);
    EXPECT_EQ(writer->records(), 1u);
    writer->BufferRemove(0);
    writer->Commit();
    EXPECT_EQ(writer->records(), 2u);
  }
  EXPECT_EQ(ReadOpLogFile(path).records.size(), 2u);
  // Candidate-count mismatch: the log chains from a different table.
  EXPECT_THROW(OpLogWriter::OpenExisting(path, 9, nullptr),
               std::invalid_argument);
}

// ------------------------------------------------------ torn-tail sweep

TEST_F(OpLogTest, TruncationAtEveryByteOfFinalRecordRecoversThePrefix) {
  const std::string path = Path("t.oplog");
  {
    auto writer = OpLogWriter::Create(path, 5, 0, 0);
    writer->BufferAppend(SampleRankings(5, 1, 5));
    writer->BufferRemove(0);
    writer->BufferAppend(SampleRankings(5, 2, 6));
    writer->Commit();
  }
  const std::string full = ReadAllBytes(path);
  ASSERT_EQ(ReadOpLogFile(path).records.size(), 3u);
  // Find the clean boundary after record 2 (= the start of the final
  // record) by re-writing only the first two records.
  uint64_t boundary = 0;
  {
    const std::string probe = Path("probe.oplog");
    auto writer = OpLogWriter::Create(probe, 5, 0, 0);
    writer->BufferAppend(SampleRankings(5, 1, 5));
    writer->BufferRemove(0);
    writer->Commit();
    boundary = writer->bytes();
  }
  ASSERT_LT(boundary, full.size());
  const std::string cut_path = Path("cut.oplog");
  for (size_t cut = boundary; cut < full.size(); ++cut) {
    WriteAllBytes(cut_path, full.substr(0, cut));
    const OpLogContents contents = ReadOpLogFile(cut_path);
    ASSERT_EQ(contents.records.size(), 2u) << "cut at byte " << cut;
    EXPECT_EQ(contents.clean_bytes, boundary) << "cut at byte " << cut;
    if (cut == boundary) {
      EXPECT_TRUE(contents.torn_tail.empty());
    } else {
      EXPECT_FALSE(contents.torn_tail.empty()) << "cut at byte " << cut;
    }
  }
  // The whole file, untruncated, still reads all three.
  EXPECT_EQ(ReadOpLogFile(path).records.size(), 3u);
}

TEST_F(OpLogTest, CorruptByteInFinalRecordIsATornTailNeverAWedge) {
  const std::string path = Path("t.oplog");
  uint64_t boundary = 0;
  {
    auto writer = OpLogWriter::Create(path, 4, 0, 0);
    writer->BufferAppend(SampleRankings(4, 1, 7));
    writer->Commit();
    boundary = writer->bytes();
    writer->BufferAppend(SampleRankings(4, 1, 8));
    writer->Commit();
  }
  const std::string full = ReadAllBytes(path);
  const std::string hurt_path = Path("hurt.oplog");
  for (size_t at = boundary; at < full.size(); ++at) {
    std::string hurt = full;
    hurt[at] = static_cast<char>(hurt[at] ^ 0x5a);
    WriteAllBytes(hurt_path, hurt);
    // A flipped byte breaks the record checksum (or its framing): the
    // reader reports a torn tail and hands back exactly the clean
    // prefix — it must never throw for tail damage.
    const OpLogContents contents = ReadOpLogFile(hurt_path);
    EXPECT_EQ(contents.records.size(), 1u) << "flip at byte " << at;
    EXPECT_FALSE(contents.torn_tail.empty()) << "flip at byte " << at;
    EXPECT_EQ(contents.clean_bytes, boundary) << "flip at byte " << at;
  }
}

TEST_F(OpLogTest, OpenExistingTruncatesTheTornTailInPlace) {
  const std::string path = Path("t.oplog");
  uint64_t boundary = 0;
  {
    auto writer = OpLogWriter::Create(path, 4, 0, 0);
    writer->BufferAppend(SampleRankings(4, 1, 9));
    writer->Commit();
    boundary = writer->bytes();
  }
  // Simulate a crash mid-append: garbage after the last clean record.
  WriteAllBytes(path, ReadAllBytes(path) + "\x07torn-garbage");
  OpLogContents scanned;
  auto writer = OpLogWriter::OpenExisting(path, 4, &scanned);
  EXPECT_FALSE(scanned.torn_tail.empty());
  EXPECT_EQ(scanned.records.size(), 1u);
  EXPECT_EQ(fs::file_size(path), boundary);  // truncated in place
  // Appending after the truncation frames cleanly.
  writer->BufferRemove(0);
  writer->Commit();
  const OpLogContents contents = ReadOpLogFile(path);
  EXPECT_TRUE(contents.torn_tail.empty());
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_EQ(contents.records[1].kind, OpRecord::Kind::kRemove);
}

// --------------------------------------------------- incremental cursor

/// The every-offset truncation sweep again, but through the incremental
/// cursor — the shared verifier that cold start, crash recovery, and
/// follower catch-up all run on. A prefix cut at EVERY byte of the final
/// record must yield exactly the clean two-record prefix, with the tail
/// reported as incomplete (kNeedMore), never as corruption.
TEST_F(OpLogTest, CursorEveryOffsetTruncationSweepRecoversThePrefix) {
  const std::string path = Path("t.oplog");
  {
    auto writer = OpLogWriter::Create(path, 5, 0, 0);
    writer->BufferAppend(SampleRankings(5, 1, 5));
    writer->BufferRemove(0);
    writer->BufferAppend(SampleRankings(5, 2, 6));
    writer->Commit();
  }
  const std::string full = ReadAllBytes(path);
  uint64_t boundary = 0;
  {
    const std::string probe = Path("probe.oplog");
    auto writer = OpLogWriter::Create(probe, 5, 0, 0);
    writer->BufferAppend(SampleRankings(5, 1, 5));
    writer->BufferRemove(0);
    writer->Commit();
    boundary = writer->bytes();
  }
  ASSERT_LT(boundary, full.size());
  for (size_t cut = boundary; cut < full.size(); ++cut) {
    OpLogCursor cursor("sweep");
    cursor.Feed(full.data(), cut);
    OpRecord record;
    size_t yielded = 0;
    while (cursor.Next(&record) == OpLogCursor::Status::kRecord) ++yielded;
    EXPECT_EQ(yielded, 2u) << "cut at byte " << cut;
    EXPECT_EQ(cursor.Next(&record), OpLogCursor::Status::kNeedMore)
        << "cut at byte " << cut;
    EXPECT_EQ(cursor.clean_bytes(), boundary) << "cut at byte " << cut;
    EXPECT_EQ(cursor.pending_bytes(), cut - boundary) << "cut at byte "
                                                      << cut;
    if (cut == boundary) {
      EXPECT_TRUE(cursor.TornDetail().empty()) << "cut at byte " << cut;
    } else {
      EXPECT_FALSE(cursor.TornDetail().empty()) << "cut at byte " << cut;
    }
    // Feeding the withheld suffix completes the third record: a cut is
    // an *incomplete* frame, and the cursor resumes exactly where the
    // stream paused — the property follower tailing rides on.
    cursor.Feed(full.data() + cut, full.size() - cut);
    EXPECT_EQ(cursor.Next(&record), OpLogCursor::Status::kRecord)
        << "cut at byte " << cut;
    EXPECT_EQ(cursor.clean_bytes(), full.size()) << "cut at byte " << cut;
    EXPECT_EQ(cursor.Next(&record), OpLogCursor::Status::kNeedMore);
    EXPECT_TRUE(cursor.TornDetail().empty());
  }
}

/// Byte-at-a-time feeding (the worst possible packetization of a
/// replication stream) must yield exactly what the whole-file reader
/// sees: same header, same records, same clean boundary.
TEST_F(OpLogTest, CursorByteAtATimeFeedMatchesTheWholeFileReader) {
  const std::string path = Path("t.oplog");
  {
    auto writer = OpLogWriter::Create(path, 6, /*base_generation=*/4,
                                      /*base_rankings=*/2);
    writer->BufferAppend(SampleRankings(6, 2, 10));
    writer->BufferRemove(1);
    writer->BufferAppend(SampleRankings(6, 1, 11));
    writer->Commit();
  }
  const std::string full = ReadAllBytes(path);
  const OpLogContents slurped = ReadOpLogFile(path);
  OpLogCursor cursor(path);
  std::vector<OpRecord> streamed;
  for (size_t i = 0; i < full.size(); ++i) {
    cursor.Feed(full.data() + i, 1);
    OpRecord record;
    while (cursor.Next(&record) == OpLogCursor::Status::kRecord) {
      streamed.push_back(record);
    }
  }
  ASSERT_TRUE(cursor.header_ready());
  EXPECT_EQ(cursor.num_candidates(), slurped.num_candidates);
  EXPECT_EQ(cursor.base_generation(), slurped.base_generation);
  EXPECT_EQ(cursor.base_rankings(), slurped.base_rankings);
  EXPECT_EQ(cursor.clean_bytes(), slurped.clean_bytes);
  EXPECT_EQ(cursor.pending_bytes(), 0u);
  EXPECT_TRUE(cursor.TornDetail().empty());
  ASSERT_EQ(streamed.size(), slurped.records.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].kind, slurped.records[i].kind) << i;
    EXPECT_EQ(streamed[i].remove_index, slurped.records[i].remove_index)
        << i;
    ASSERT_EQ(streamed[i].rankings.size(), slurped.records[i].rankings.size())
        << i;
    for (size_t j = 0; j < streamed[i].rankings.size(); ++j) {
      EXPECT_EQ(streamed[i].rankings[j].order(),
                slurped.records[i].rankings[j].order())
          << i << "," << j;
    }
  }
}

/// A complete-but-corrupt frame is kTorn, kTorn is sticky, and feeding
/// more bytes never resurrects the stream — the follower's cue to drop
/// the connection and re-handshake rather than guess at a resync point.
TEST_F(OpLogTest, CursorTornStatusIsStickyAcrossFurtherFeeds) {
  const std::string path = Path("t.oplog");
  uint64_t boundary = 0;
  {
    auto writer = OpLogWriter::Create(path, 4, 0, 0);
    writer->BufferAppend(SampleRankings(4, 1, 12));
    writer->Commit();
    boundary = writer->bytes();
    writer->BufferAppend(SampleRankings(4, 1, 13));
    writer->BufferRemove(0);
    writer->Commit();
  }
  std::string hurt = ReadAllBytes(path);
  hurt[boundary + 5] = static_cast<char>(hurt[boundary + 5] ^ 0x5a);
  OpLogCursor cursor(path);
  cursor.Feed(hurt.data(), hurt.size());
  OpRecord record;
  ASSERT_EQ(cursor.Next(&record), OpLogCursor::Status::kRecord);
  EXPECT_EQ(cursor.Next(&record), OpLogCursor::Status::kTorn);
  EXPECT_EQ(cursor.clean_bytes(), boundary);
  EXPECT_FALSE(cursor.TornDetail().empty());
  // Sticky: more input (even the pristine bytes) changes nothing.
  const std::string clean = ReadAllBytes(path);
  cursor.Feed(clean.data(), clean.size());
  EXPECT_EQ(cursor.Next(&record), OpLogCursor::Status::kTorn);
  EXPECT_EQ(cursor.clean_bytes(), boundary);
  EXPECT_EQ(cursor.records(), 1u);
}

// ------------------------------------------------- corruption rejection

TEST_F(OpLogTest, HeaderDamageIsCorruptionNotATornTail) {
  const std::string path = Path("t.oplog");
  { OpLogWriter::Create(path, 4, 0, 0); }
  const std::string full = ReadAllBytes(path);
  const std::string hurt_path = Path("hurt.oplog");
  // Shorter than the header.
  WriteAllBytes(hurt_path, full.substr(0, kOpLogHeaderBytes - 1));
  EXPECT_THROW(ReadOpLogFile(hurt_path), OpLogFormatError);
  // Bad magic.
  std::string bad_magic = full;
  bad_magic[0] = 'X';
  WriteAllBytes(hurt_path, bad_magic);
  EXPECT_THROW(ReadOpLogFile(hurt_path), OpLogFormatError);
  // Flipped header checksum.
  std::string bad_crc = full;
  bad_crc[kOpLogHeaderBytes - 1] =
      static_cast<char>(bad_crc[kOpLogHeaderBytes - 1] ^ 0x5a);
  WriteAllBytes(hurt_path, bad_crc);
  EXPECT_THROW(ReadOpLogFile(hurt_path), OpLogFormatError);
}

TEST_F(OpLogTest, ChecksumValidButMalformedRecordIsCorruption) {
  const std::string path = Path("t.oplog");
  { OpLogWriter::Create(path, 4, 0, 0); }
  // Hand-craft a record with a VALID checksum but a nonsense kind: this
  // cannot be a partial-write artifact, so it must throw, not be
  // reported as a torn tail.
  std::string file = ReadAllBytes(path);
  std::string frame;
  PutU32(&frame, 1);           // length
  frame.push_back('\x07');     // kind 7: not APPEND, not REMOVE
  PutU64(&frame, Fnv1a64(frame.data(), frame.size()));
  WriteAllBytes(path, file + frame);
  EXPECT_THROW(ReadOpLogFile(path), OpLogFormatError);
}

// ------------------------------------------------------------ floor chain

OpRecord AppendOf(int count) {
  OpRecord record;
  record.kind = OpRecord::Kind::kAppend;
  record.rankings = SampleRankings(4, count, 11);
  return record;
}

OpRecord RemoveOf(uint64_t index) {
  OpRecord record;
  record.kind = OpRecord::Kind::kRemove;
  record.remove_index = index;
  return record;
}

TEST_F(OpLogTest, FloorChainChecksTheLogBaseAgainstTheFloor) {
  FloorChain chain(/*floor_generation=*/5, /*floor_rankings=*/3);
  EXPECT_NE(chain.CheckBase(6, 3), "");  // newer than the floor
  EXPECT_NE(chain.CheckBase(5, 4), "");  // the floor's generation, other size
  EXPECT_EQ(chain.CheckBase(5, 3), "");  // the floor's own chain
  EXPECT_EQ(chain.CheckBase(2, 9), "");  // older: the crash window
  EXPECT_EQ(chain.generation(), 2u);
}

TEST_F(OpLogTest, FloorChainSkipsRecordsInsideTheFloorAndAppliesTheRest) {
  using Verdict = FloorChain::Verdict;
  FloorChain chain(5, 3);
  ASSERT_EQ(chain.CheckBase(2, 2), "");
  EXPECT_EQ(chain.Classify(AppendOf(2)), Verdict::kSkip);  // 2 -> 4
  EXPECT_EQ(chain.Classify(RemoveOf(0)), Verdict::kSkip);  // 4 -> 5
  EXPECT_EQ(chain.generation(), 5u);
  EXPECT_EQ(chain.Classify(AppendOf(3)), Verdict::kApply);  // 5 -> 8
  EXPECT_EQ(chain.Classify(RemoveOf(1)), Verdict::kApply);  // 8 -> 9
  EXPECT_EQ(chain.generation(), 9u);

  FloorChain fresh(5, 3);
  ASSERT_EQ(fresh.CheckBase(5, 3), "");
  EXPECT_EQ(fresh.Classify(RemoveOf(0)), Verdict::kApply);
  EXPECT_EQ(fresh.generation(), 6u);
}

TEST_F(OpLogTest, FloorChainFlagsARecordStraddlingTheFloor) {
  FloorChain chain(5, 3);
  ASSERT_EQ(chain.CheckBase(4, 2), "");
  EXPECT_EQ(chain.Classify(AppendOf(2)), FloorChain::Verdict::kStraddle);
  EXPECT_EQ(chain.generation(), 4u);
}

// ------------------------------------------------- durable-file helpers

TEST_F(OpLogTest, DurableTempFileConvention) {
  EXPECT_TRUE(LooksLikeDurableTempFile("t.snap.tmp.123.4"));
  EXPECT_TRUE(LooksLikeDurableTempFile("t.oplog.tmp.99.0"));
  EXPECT_FALSE(LooksLikeDurableTempFile("t.snap"));
  EXPECT_FALSE(LooksLikeDurableTempFile("t.oplog"));
  EXPECT_FALSE(LooksLikeDurableTempFile("t.tmp.123"));       // no counter
  EXPECT_FALSE(LooksLikeDurableTempFile("t.tmp.abc.4"));     // non-digit pid
  EXPECT_FALSE(LooksLikeDurableTempFile("tmp.123.4"));       // no stem dot
  const std::string a = NextDurableTempPath(Path("x.snap"));
  const std::string b = NextDurableTempPath(Path("x.snap"));
  EXPECT_NE(a, b);  // unique per call, so writers never collide
  EXPECT_TRUE(LooksLikeDurableTempFile(fs::path(a).filename().string()));
}

TEST_F(OpLogTest, WriteFileDurablyRoundTrip) {
  const std::string src = Path("src.bin");
  WriteFileDurably(src, "payload-1");
  EXPECT_EQ(ReadAllBytes(src), "payload-1");
  WriteFileDurably(src, "payload-2");  // atomic replace
  EXPECT_EQ(ReadAllBytes(src), "payload-2");
  // No temp debris left behind by either write.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_FALSE(
        LooksLikeDurableTempFile(entry.path().filename().string()))
        << entry.path();
  }
}

TEST_F(OpLogTest, WriteFileDurablyRenameFailureUnlinksTheTempFile) {
  // rename(2) cannot replace a non-empty directory with a file, so the
  // write reaches its rename step and fails there.
  const std::string target = Path("occupied");
  fs::create_directory(target);
  WriteFileDurably(target + "/keep.bin", "kept");
  try {
    WriteFileDurably(target, "payload");
    ADD_FAILURE() << "renaming onto a non-empty directory must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot rename"), std::string::npos)
        << e.what();
  }
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_FALSE(
        LooksLikeDurableTempFile(entry.path().filename().string()))
        << entry.path();
  }
  EXPECT_TRUE(fs::is_directory(target));
  EXPECT_EQ(ReadAllBytes(target + "/keep.bin"), "kept");
}

// ------------------------------------------- DurabilityManager end-to-end

/// Drives the same request lines through a durable dispatcher and a
/// plain in-memory twin, asserting bit-identical responses throughout.
struct TwinHarness {
  ContextManager durable_manager;
  ContextManager twin_manager;
  std::optional<DurabilityManager> durability;
  std::optional<Dispatcher> durable;
  Dispatcher twin{&twin_manager};

  explicit TwinHarness(const std::string& dir) {
    durability.emplace(dir, &durable_manager);
    durability->Attach();
    durable.emplace(&durable_manager);
    durable->set_durability(&*durability, /*inline_policy_eval=*/true);
  }

  void Drive(const std::vector<std::string>& requests) {
    for (const std::string& request : requests) {
      ASSERT_EQ(StripOplogFields(durable->Handle(request)),
                StripOplogFields(twin.Handle(request)))
          << request;
    }
  }

  /// STATS gains oplog_* fields only on the durable side; everything
  /// before them must match bit-for-bit.
  static std::string StripOplogFields(std::string response) {
    const size_t at = response.find(" oplog_");
    if (at != std::string::npos) response.resize(at);
    return response;
  }
};

std::vector<std::string> DurabilityWorkload(int n) {
  std::vector<std::string> requests;
  requests.push_back("CREATE t CYCLIC " + std::to_string(n) + " 2 2");
  const auto rotation = [n](int r) {
    std::ostringstream os;
    for (int i = 0; i < n; ++i) {
      if (i != 0) os << ' ';
      os << (i + r) % n;
    }
    return os.str();
  };
  requests.push_back("APPEND t " + rotation(0));
  requests.push_back("APPEND t " + rotation(1) + " ; " + rotation(3));
  requests.push_back("FLUSH t");
  requests.push_back("APPEND t " + rotation(2));
  requests.push_back("REMOVE t 1");
  requests.push_back("FLUSH t");
  requests.push_back("APPEND t " + rotation(4) + " ; " + rotation(5) + " ; " +
                     rotation(1));
  requests.push_back("FLUSH t");
  return requests;
}

TEST_F(OpLogTest, ColdStartServesBitIdenticallyToANeverRestartedTwin) {
  TwinHarness harness(dir_);
  harness.Drive(DurabilityWorkload(7));
  const std::string reference = harness.twin.Handle("RUN t all");
  ASSERT_EQ(harness.durable->Handle("RUN t all"), reference);

  // Cold start a fresh process image from the durability dir alone.
  ContextManager restarted;
  DurabilityManager durability(dir_, &restarted);
  const auto report = durability.ColdStart();
  durability.Attach();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].table, "t");
  EXPECT_FALSE(report[0].summarized);
  EXPECT_TRUE(report[0].torn_tail.empty());
  EXPECT_GT(report[0].replayed_records, 0u);

  Dispatcher dispatcher(&restarted);
  dispatcher.set_durability(&durability, true);
  // The full sweep — the base-ranking baselines B2-B4 included — must be
  // bit-identical, and the restored profile must accept REMOVE.
  EXPECT_EQ(dispatcher.Handle("RUN t all"), reference);
  EXPECT_EQ(TwinHarness::StripOplogFields(dispatcher.Handle("STATS t")),
            TwinHarness::StripOplogFields(harness.twin.Handle("STATS t")));
  EXPECT_EQ(dispatcher.Handle("REMOVE t 0"), harness.twin.Handle("REMOVE t 0"));
  EXPECT_EQ(dispatcher.Handle("FLUSH t"), harness.twin.Handle("FLUSH t"));
  EXPECT_EQ(dispatcher.Handle("RUN t all"), harness.twin.Handle("RUN t all"));
}

TEST_F(OpLogTest, CrashWindowBetweenSnapshotAndTruncationHeals) {
  TwinHarness harness(dir_);
  harness.Drive(DurabilityWorkload(6));
  const std::string reference = harness.twin.Handle("RUN t all");
  ASSERT_EQ(harness.durable->Handle("RUN t all"), reference);

  // Simulate the crash landing between the snapshot write and the log
  // truncation: take the snapshot (which truncates), then put the OLD
  // log back — its records are already inside the new floor.
  const std::string log_path = dir_ + "/t.oplog";
  const std::string old_log = ReadAllBytes(log_path);
  harness.durability->SnapshotNow("t");
  WriteAllBytes(log_path, old_log);

  ContextManager restarted;
  DurabilityManager durability(dir_, &restarted);
  const auto report = durability.ColdStart();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_GT(report[0].skipped_records, 0u);  // the healed crash window
  EXPECT_EQ(report[0].replayed_records, 0u);
  Dispatcher dispatcher(&restarted);
  EXPECT_EQ(dispatcher.Handle("RUN t all"), reference);
}

TEST_F(OpLogTest, TornLogTailRestoresTheCleanPrefix) {
  TwinHarness harness(dir_);
  harness.Drive(DurabilityWorkload(6));
  // Cut the final bytes of the log: the last fold is lost (that is the
  // crash semantics — it may not have been acknowledged), everything
  // before it must come back.
  const std::string log_path = dir_ + "/t.oplog";
  const std::string full = ReadAllBytes(log_path);
  WriteAllBytes(log_path, full.substr(0, full.size() - 3));

  ContextManager restarted;
  DurabilityManager durability(dir_, &restarted);
  const auto report = durability.ColdStart();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_FALSE(report[0].torn_tail.empty());
  Dispatcher dispatcher(&restarted);
  const std::string response = dispatcher.Handle("STATS t");
  EXPECT_EQ(response.substr(0, 2), "OK") << response;
  // The torn fold held 3 rankings; the restored profile must hold
  // exactly the prefix (1 + 2 + 1 - 1 removed = 3).
  EXPECT_NE(response.find(" rankings=3 "), std::string::npos) << response;
}

TEST_F(OpLogTest, ColdStartRemovesCrashedWriterTempFiles) {
  WriteAllBytes(Path("t.snap.tmp.123.4"), "half-written debris");
  WriteAllBytes(Path("t.oplog.tmp.123.5"), "half-written debris");
  ContextManager manager;
  DurabilityManager durability(dir_, &manager);
  std::vector<std::string> removed;
  const auto report = durability.ColdStart(&removed);
  EXPECT_TRUE(report.empty());
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_FALSE(fs::exists(Path("t.snap.tmp.123.4")));
  EXPECT_FALSE(fs::exists(Path("t.oplog.tmp.123.5")));
}

TEST_F(OpLogTest, TableDirListsSortedAndRefusesFilesWithoutATableName) {
  // Written out of order, with a file that is no table at all.
  for (const char* name : {"delta.snap", "alpha.oplog", "notes.txt",
                           "charlie.snap", "alpha.snap", "bravo.snap",
                           "x.y.snap"}) {
    WriteAllBytes(Path(name), "");
  }
  const std::vector<serve::TableDirEntry> entries =
      serve::ListTableDir(dir_, nullptr);
  std::vector<std::string> tables;
  for (const auto& entry : entries) tables.push_back(entry.table);
  EXPECT_EQ(tables, (std::vector<std::string>{"alpha", "bravo", "charlie",
                                              "delta", "x.y"}));
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_TRUE(entries[0].has_snapshot && entries[0].has_log);
  EXPECT_TRUE(entries[1].has_snapshot && !entries[1].has_log);

  // Each of these derives an empty or dot-only table name: the cold
  // start must refuse it and say which file, not skip it.
  for (const char* bad : {"..snap", ".snap", ".oplog"}) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    WriteAllBytes(Path(bad), "");
    ContextManager manager;
    DurabilityManager durability(dir_, &manager);
    try {
      durability.ColdStart();
      ADD_FAILURE() << "cold start accepted " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(Path(bad)), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(OpLogTest, OrphanedOpLogRefusesToBoot) {
  // A log with no snapshot floor cannot be a crash artifact (the floor
  // is written first, durably); silently ignoring it would serve less
  // than what was durably acknowledged.
  OpLogWriter::Create(Path("ghost.oplog"), 4, 0, 0);
  ContextManager manager;
  DurabilityManager durability(dir_, &manager);
  EXPECT_THROW(durability.ColdStart(), std::runtime_error);
}

/// Leaves `dir` holding one durable table "t" whose snapshot floor is
/// the whole DurabilityWorkload(6) and returns that floor; the log's
/// contents are the caller's to craft.
TableSnapshot FloorOfTheWholeWorkload(const std::string& dir) {
  TwinHarness harness(dir);
  harness.Drive(DurabilityWorkload(6));
  harness.durability->SnapshotNow("t");
  return ReadTableSnapshotFile(dir + "/t.snap");
}

/// Cold-starts `dir` and expects the refusal to name `log_path` and say
/// `why`.
void ExpectColdStartRefuses(const std::string& dir, const std::string& log_path,
                            const std::string& why) {
  ContextManager restarted;
  DurabilityManager durability(dir, &restarted);
  try {
    durability.ColdStart();
    ADD_FAILURE() << "cold start accepted a log that does not chain";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(log_path), std::string::npos) << what;
    EXPECT_NE(what.find(why), std::string::npos) << what;
  }
}

TEST_F(OpLogTest, ColdStartRefusesALogNewerThanItsFloor) {
  const TableSnapshot floor = FloorOfTheWholeWorkload(dir_);
  OpLogWriter::Create(Path("t.oplog"), 6, floor.summary.generation + 1,
                      static_cast<uint64_t>(floor.summary.num_rankings));
  ExpectColdStartRefuses(dir_, Path("t.oplog"), "newer than its snapshot");
}

TEST_F(OpLogTest, ColdStartRefusesALogThatDisagreesOnTheFloorSize) {
  const TableSnapshot floor = FloorOfTheWholeWorkload(dir_);
  OpLogWriter::Create(Path("t.oplog"), 6, floor.summary.generation,
                      static_cast<uint64_t>(floor.summary.num_rankings) + 1);
  ExpectColdStartRefuses(dir_, Path("t.oplog"), "profile size");
}

TEST_F(OpLogTest, ColdStartRefusesARecordStraddlingTheFloor) {
  const TableSnapshot floor = FloorOfTheWholeWorkload(dir_);
  ASSERT_GE(floor.summary.generation, 1u);
  // Base one generation below the floor, then a two-ranking record: it
  // starts inside the floor and ends past it.
  auto writer = OpLogWriter::Create(
      Path("t.oplog"), 6, floor.summary.generation - 1,
      static_cast<uint64_t>(floor.summary.num_rankings) - 1);
  writer->BufferAppend(SampleRankings(6, 2, 5));
  writer->Commit();
  writer.reset();
  ExpectColdStartRefuses(dir_, Path("t.oplog"), "straddling");
}

// ------------------------------------------------ SNAPSHOT-POLICY verb

TEST_F(OpLogTest, SnapshotPolicyVerbValidation) {
  ContextManager manager;
  Dispatcher bare(&manager);
  EXPECT_EQ(bare.Handle("SNAPSHOT-POLICY t GENERATIONS 4").substr(0, 15),
            "ERR unavailable");

  DurabilityManager durability(dir_, &manager);
  durability.Attach();
  Dispatcher dispatcher(&manager);
  dispatcher.set_durability(&durability, true);
  EXPECT_EQ(dispatcher.Handle("SNAPSHOT-POLICY t GENERATIONS 4")
                .substr(0, 17),
            "ERR no-such-table");
  ASSERT_EQ(dispatcher.Handle("CREATE t CYCLIC 4 2 2").substr(0, 2), "OK");
  EXPECT_EQ(dispatcher.Handle("SNAPSHOT-POLICY t GENERATIONS 4"),
            "OK SNAPSHOT-POLICY t GENERATIONS 4");
  EXPECT_EQ(dispatcher.Handle("SNAPSHOT-POLICY t SECONDS 1.5"),
            "OK SNAPSHOT-POLICY t SECONDS 1.5");
  EXPECT_GE(durability.NextDeadlineMs(), 0);  // a SECONDS timer is armed
  // Near the top of the int64-nanosecond range: accepted, and far off.
  EXPECT_EQ(dispatcher.Handle("SNAPSHOT-POLICY t SECONDS 9e9"),
            "OK SNAPSHOT-POLICY t SECONDS 9e9");
  EXPECT_GT(durability.NextDeadlineMs(), int64_t{8'000'000'000'000});
  EXPECT_EQ(dispatcher.Handle("SNAPSHOT-POLICY t OFF"),
            "OK SNAPSHOT-POLICY t OFF");
  EXPECT_EQ(durability.NextDeadlineMs(), -1);
  for (const char* bad :
       {"SNAPSHOT-POLICY t GENERATIONS 0", "SNAPSHOT-POLICY t GENERATIONS -1",
        "SNAPSHOT-POLICY t SECONDS 0", "SNAPSHOT-POLICY t SECONDS nan",
        "SNAPSHOT-POLICY t SECONDS inf", "SNAPSHOT-POLICY t SECONDS 1e10",
        "SNAPSHOT-POLICY t EVERY 3", "SNAPSHOT-POLICY t", "SNAPSHOT-POLICY"}) {
    EXPECT_EQ(dispatcher.Handle(bad).substr(0, 3), "ERR") << bad;
  }
}

TEST_F(OpLogTest, GenerationsPolicyTruncatesTheLogInline) {
  ContextManager manager;
  DurabilityManager durability(dir_, &manager);
  durability.Attach();
  Dispatcher dispatcher(&manager);
  dispatcher.set_durability(&durability, true);
  ASSERT_EQ(dispatcher.Handle("CREATE t CYCLIC 4 2 2").substr(0, 2), "OK");
  ASSERT_EQ(dispatcher.Handle("SNAPSHOT-POLICY t GENERATIONS 2").substr(0, 2),
            "OK");
  ASSERT_EQ(dispatcher.Handle("APPEND t 0 1 2 3 ; 1 2 3 0").substr(0, 2),
            "OK");
  ASSERT_EQ(dispatcher.Handle("FLUSH t").substr(0, 2), "OK");
  // The fold advanced the generation by 2 >= the policy threshold; the
  // inline evaluation after FLUSH must have truncated the log.
  const auto stats = durability.StatsFor("t");
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->truncations, 1u);
  EXPECT_EQ(stats->log_records, 0u);  // fresh chain after the truncation
  EXPECT_TRUE(stats->healthy);
  // The truncated chain still cold-starts to the exact same profile.
  ContextManager restarted;
  DurabilityManager durability2(dir_, &restarted);
  durability2.ColdStart();
  Dispatcher check(&restarted);
  EXPECT_EQ(check.Handle("RUN t all"), dispatcher.Handle("RUN t all"));
}

TEST_F(OpLogTest, MetricsSuffixAggregatesOplogCounters) {
  ContextManager manager;
  DurabilityManager durability(dir_, &manager);
  durability.Attach();
  Dispatcher dispatcher(&manager);
  dispatcher.set_durability(&durability, true);
  ASSERT_EQ(dispatcher.Handle("CREATE t CYCLIC 4 2 2").substr(0, 2), "OK");
  ASSERT_EQ(dispatcher.Handle("APPEND t 0 1 2 3").substr(0, 2), "OK");
  ASSERT_EQ(dispatcher.Handle("FLUSH t").substr(0, 2), "OK");
  const std::string suffix = durability.MetricsSuffix();
  EXPECT_NE(suffix.find(" oplog_tables=1"), std::string::npos) << suffix;
  EXPECT_NE(suffix.find(" oplog_records=1"), std::string::npos) << suffix;
  EXPECT_NE(suffix.find(" oplog_unhealthy=0"), std::string::npos) << suffix;
}

TEST_F(OpLogTest, DropRetiresTheDurableFiles) {
  ContextManager manager;
  DurabilityManager durability(dir_, &manager);
  durability.Attach();
  Dispatcher dispatcher(&manager);
  dispatcher.set_durability(&durability, true);
  ASSERT_EQ(dispatcher.Handle("CREATE t CYCLIC 4 2 2").substr(0, 2), "OK");
  EXPECT_TRUE(fs::exists(dir_ + "/t.snap"));
  EXPECT_TRUE(fs::exists(dir_ + "/t.oplog"));
  ASSERT_EQ(dispatcher.Handle("DROP t").substr(0, 2), "OK");
  // A restart must not resurrect the dropped table.
  EXPECT_FALSE(fs::exists(dir_ + "/t.snap"));
  EXPECT_FALSE(fs::exists(dir_ + "/t.oplog"));
  ContextManager restarted;
  DurabilityManager durability2(dir_, &restarted);
  EXPECT_TRUE(durability2.ColdStart().empty());
}

TEST_F(OpLogTest, DurableTableNamesRejectPathTricks) {
  EXPECT_TRUE(serve::IsDurableTableName("t"));
  EXPECT_TRUE(serve::IsDurableTableName("table_2.v1"));
  EXPECT_FALSE(serve::IsDurableTableName(""));
  EXPECT_FALSE(serve::IsDurableTableName("."));
  EXPECT_FALSE(serve::IsDurableTableName(".."));
  EXPECT_FALSE(serve::IsDurableTableName("a/b"));
  EXPECT_FALSE(serve::IsDurableTableName("a\\b"));
  EXPECT_FALSE(serve::IsDurableTableName(std::string("a\0b", 3)));
  // And the manager refuses to CREATE one while durability is attached.
  ContextManager manager;
  DurabilityManager durability(dir_, &manager);
  durability.Attach();
  Dispatcher dispatcher(&manager);
  dispatcher.set_durability(&durability, true);
  EXPECT_EQ(dispatcher.Handle("CREATE ../evil CYCLIC 4 2 2").substr(0, 3),
            "ERR");
  EXPECT_FALSE(manager.Has("../evil"));
}

}  // namespace
}  // namespace manirank
