// Snapshot/restore tests: the versioned binary format of data/snapshot.h
// (roundtrip fidelity, loud rejection of corrupt / truncated / version-
// mismatched files) and the serving-layer contract — a table restored from
// a snapshot must serve every summarized-context-supported method
// bit-identically to the table the snapshot was taken from, and a failed
// restore must leave the manager untouched.

#include "data/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include "core/context.h"
#include "core/method_registry.h"
#include "data/durable_file.h"
#include "mallows/mallows.h"
#include "serve/context_manager.h"
#include "serve/protocol.h"
#include "test_util.h"
#include "util/rng.h"

namespace manirank {
namespace {

using serve::ContextManager;
using serve::Dispatcher;
using serve::TableStats;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "manirank_" + name + ".snap";
}

/// A table + Mallows profile fixture shared by the roundtrip tests.
struct Fixture {
  CandidateTable table;
  std::vector<Ranking> base;
};

Fixture MakeFixture(int n, uint64_t seed, int num_rankings) {
  Rng rng(seed);
  return {testing::CyclicTable(n, 2, 2),
          MallowsModel(testing::RandomRanking(n, &rng), 0.6)
              .SampleMany(num_rankings, seed)};
}

/// Serializes `snapshot` to a string (for corruption tests).
std::string ToBytes(const TableSnapshot& snapshot) {
  return EncodeTableSnapshot(snapshot);
}

TableSnapshot FromBytes(const std::string& bytes) {
  return DecodeTableSnapshot(bytes);
}

TEST(SnapshotFormatTest, RoundTripPreservesEveryField) {
  Fixture f = MakeFixture(10, 401, 23);
  ConsensusContext ctx(f.base, f.table);
  TableSnapshot original{f.table, ctx.Snapshot(), /*applied_batches=*/7,
                         /*applied_rankings=*/23};
  const std::string bytes = ToBytes(original);
  TableSnapshot restored = FromBytes(bytes);

  // Table: attributes, value names, per-candidate values.
  ASSERT_EQ(restored.table.num_candidates(), f.table.num_candidates());
  ASSERT_EQ(restored.table.num_attributes(), f.table.num_attributes());
  for (int a = 0; a < f.table.num_attributes(); ++a) {
    EXPECT_EQ(restored.table.attribute(a).name, f.table.attribute(a).name);
    EXPECT_EQ(restored.table.attribute(a).values,
              f.table.attribute(a).values);
    for (CandidateId c = 0; c < f.table.num_candidates(); ++c) {
      EXPECT_EQ(restored.table.value(c, a), f.table.value(c, a));
    }
  }
  // Summary: counts, generation, Borda points, precedence — bit-exact.
  EXPECT_EQ(restored.summary.num_rankings,
            static_cast<int64_t>(f.base.size()));
  EXPECT_EQ(restored.summary.generation, original.summary.generation);
  EXPECT_EQ(restored.summary.borda_points, original.summary.borda_points);
  ASSERT_NE(restored.summary.precedence, nullptr);
  EXPECT_EQ(restored.summary.precedence->ToDense(),
            original.summary.precedence->ToDense());
  EXPECT_EQ(restored.applied_batches, 7u);
  EXPECT_EQ(restored.applied_rankings, 23u);
}

TEST(SnapshotFormatTest, BordaOnlySummaryRoundTripsWithoutPrecedence) {
  Fixture f = MakeFixture(9, 402, 12);
  StreamingAccumulator acc(9);  // Track::kBordaOnly
  for (const Ranking& r : f.base) acc.Fold(r, 0);
  TableSnapshot original{f.table, acc.Finish(), 0, 0};
  TableSnapshot restored = FromBytes(ToBytes(original));
  EXPECT_EQ(restored.summary.precedence, nullptr);
  EXPECT_EQ(restored.summary.borda_points, original.summary.borda_points);
}

TEST(SnapshotFormatTest, CorruptTruncatedAndForeignFilesFailLoudly) {
  Fixture f = MakeFixture(8, 403, 10);
  ConsensusContext ctx(f.base, f.table);
  const std::string bytes =
      ToBytes(TableSnapshot{f.table, ctx.Snapshot(), 0, 0});

  // Every single-byte flip anywhere in the file must be caught (the
  // trailing checksum covers header and payload; flipping checksum bytes
  // themselves also mismatches).
  for (size_t pos : {size_t{0}, size_t{9}, bytes.size() / 2,
                     bytes.size() - 1}) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    EXPECT_THROW(FromBytes(corrupt), SnapshotFormatError)
        << "flipped byte " << pos;
  }
  // Truncation at any prefix length, including mid-header.
  for (size_t keep : {size_t{0}, size_t{4}, size_t{11}, bytes.size() / 2,
                      bytes.size() - 1}) {
    EXPECT_THROW(FromBytes(bytes.substr(0, keep)), SnapshotFormatError)
        << "truncated to " << keep;
  }
  // Trailing garbage is rejected too (checksum covers it... appended
  // bytes shift the trailer, so the checksum mismatches).
  EXPECT_THROW(FromBytes(bytes + "x"), SnapshotFormatError);
  // A non-snapshot file.
  EXPECT_THROW(FromBytes("candidate,Gender\n0,M\n1,F\n"),
               SnapshotFormatError);
}

TEST(SnapshotFormatTest, FileOverTheSizeCapIsRefusedBeforeItIsRead) {
  // A sparse 1 GiB + 1 byte file uses no disk blocks. The reader must
  // refuse it from its size instead of reading a gigabyte first.
  const std::string path = TempPath("over_size_cap");
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, (off_t{1} << 30) + 1), 0);
  ::close(fd);
  rusage before{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);
  try {
    ReadTableSnapshotFile(path);
    ADD_FAILURE() << "a file over the size cap must throw";
  } catch (const SnapshotFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the 1 GiB size cap"),
              std::string::npos)
        << e.what();
  }
  rusage after{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);
  std::remove(path.c_str());
  // ru_maxrss is in KiB.
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024);
}

TEST(SnapshotFormatTest, VersionMismatchIsRejectedEvenWithValidChecksum) {
  Fixture f = MakeFixture(8, 404, 6);
  ConsensusContext ctx(f.base, f.table);
  std::string bytes = ToBytes(TableSnapshot{f.table, ctx.Snapshot(), 0, 0});
  // Bump the version field (little-endian u32 right after the magic) and
  // re-stamp the trailing FNV-1a 64 so only the version differs.
  bytes[8] = static_cast<char>(bytes[8] + 1);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i + 8 < bytes.size(); ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<char>((h >> (8 * i)) & 0xffu);
  }
  try {
    FromBytes(bytes);
    FAIL() << "version mismatch must throw";
  } catch (const SnapshotFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotContextTest, SnapshotSeedsABitIdenticalSummarizedContext) {
  Fixture f = MakeFixture(11, 405, 30);
  ConsensusContext retained(f.base, f.table);
  ConsensusContext restored(retained.Snapshot(), f.table);
  EXPECT_FALSE(restored.has_base_rankings());
  EXPECT_EQ(restored.num_rankings(), f.base.size());
  EXPECT_EQ(restored.BordaPoints(), retained.BordaPoints());
  EXPECT_EQ(restored.Precedence().ToDense(), retained.Precedence().ToDense());
  // The restored precedence matrix is adopted, never rebuilt.
  EXPECT_EQ(restored.stats().precedence_builds, 0);
  // Support flags partition the registry exactly as documented.
  for (const MethodSpec& m : AllMethods()) {
    EXPECT_TRUE(retained.SupportsMethod(m)) << m.id;
    EXPECT_EQ(restored.SupportsMethod(m), !m.requires_base) << m.id;
  }
  ConsensusOptions options;
  options.delta = 0.2;
  options.time_limit_seconds = 60.0;
  for (const MethodSpec& m : AllMethods()) {
    if (m.requires_base) continue;
    const ConsensusOutput a = retained.RunMethod(m, options);
    const ConsensusOutput b = restored.RunMethod(m, options);
    EXPECT_EQ(a.consensus.order(), b.consensus.order()) << m.id;
    EXPECT_EQ(a.satisfied, b.satisfied) << m.id;
  }
}

TEST(SnapshotContextTest, EmptyProfileCannotBeSnapshotted) {
  Fixture f = MakeFixture(8, 406, 3);
  ConsensusContext empty(std::vector<Ranking>{}, f.table);
  EXPECT_THROW(empty.Snapshot(), std::invalid_argument);
}

TEST(SnapshotContextTest, RestoredContextKeepsStreamingMutability) {
  // A restored shard is not frozen: appended rankings fold into the
  // summarized state exactly as a live streaming context would.
  Fixture f = MakeFixture(10, 407, 15);
  ConsensusContext retained(f.base, f.table);
  ConsensusContext restored(retained.Snapshot(), f.table);
  Rng rng(408);
  std::vector<Ranking> grown = f.base;
  for (int i = 0; i < 4; ++i) {
    Ranking extra = testing::RandomRanking(10, &rng);
    grown.push_back(extra);
    restored.AddRanking(std::move(extra));
  }
  ConsensusContext fresh(grown, f.table);
  EXPECT_EQ(restored.BordaPoints(), fresh.BordaPoints());
  EXPECT_EQ(restored.Precedence().ToDense(), fresh.Precedence().ToDense());
  EXPECT_EQ(restored.num_rankings(), grown.size());
}

// --- serving-layer roundtrip --------------------------------------------

TEST(SnapshotServingTest, ManagerRoundTripServesBitIdentically) {
  Fixture f = MakeFixture(10, 409, 20);
  ContextManager manager;
  manager.Create("t", f.table, f.base);
  // Leave a pending wave in the queue: SnapshotTable must drain it first
  // so the snapshot lands on a batch boundary.
  Rng rng(410);
  manager.Append("t", {testing::RandomRanking(10, &rng),
                       testing::RandomRanking(10, &rng)});
  const TableSnapshot snapshot = [&] {
    TableSnapshot snap = manager.SnapshotTable("t");
    return snap;
  }();
  const TableStats after = manager.Stats("t");
  EXPECT_EQ(after.pending_ops, 0u) << "snapshot must drain the queue";
  EXPECT_EQ(snapshot.summary.num_rankings, 22);
  EXPECT_EQ(snapshot.summary.generation, after.generation);
  EXPECT_EQ(snapshot.applied_batches, after.applied_batches);
  EXPECT_EQ(snapshot.applied_rankings, after.applied_rankings);

  // File roundtrip into a second manager (a "restarted server").
  const std::string path = TempPath("roundtrip");
  WriteTableSnapshotFile(path, snapshot);
  ContextManager restarted;
  const TableStats restored =
      restarted.RestoreTable("t", ReadTableSnapshotFile(path));
  EXPECT_EQ(restored.num_rankings, 22u);
  EXPECT_EQ(restored.generation, after.generation);
  EXPECT_EQ(restored.applied_batches, after.applied_batches);
  EXPECT_EQ(restored.applied_rankings, after.applied_rankings);
  EXPECT_TRUE(restored.summarized);

  // Every supported method serves bit-identically to the original table.
  ConsensusOptions options;
  options.delta = 0.2;
  options.time_limit_seconds = 60.0;
  const std::vector<const MethodSpec*> supported =
      restarted.SupportedMethods("t");
  std::vector<std::string> ids;
  for (const MethodSpec* m : supported) ids.push_back(m->id);
  EXPECT_EQ(ids, (std::vector<std::string>{"A1", "A2", "A3", "A4", "B1"}));
  for (const MethodSpec* m : supported) {
    const ConsensusOutput a = manager.Run("t", *m, options);
    const ConsensusOutput b = restarted.Run("t", *m, options);
    EXPECT_EQ(a.consensus.order(), b.consensus.order()) << m->id;
    EXPECT_EQ(a.satisfied, b.satisfied) << m->id;
  }
  std::remove(path.c_str());
}

TEST(SnapshotServingTest, ProtocolRoundTripRunAllMatchesPerMethod) {
  // End-to-end through the line protocol: RUN all on the restored table
  // reports, for every supported method, the exact consensus the
  // pre-snapshot table reported.
  ContextManager manager;
  Dispatcher dispatcher(&manager);
  ASSERT_EQ(dispatcher.Handle("CREATE t CYCLIC 9 3 3"),
            "OK CREATE t candidates=9 rankings=0");
  Rng rng(411);
  for (int i = 0; i < 4; ++i) {
    std::ostringstream os;
    os << "APPEND t";
    const Ranking ranking = testing::RandomRanking(9, &rng);
    for (CandidateId c : ranking.order()) os << ' ' << c;
    const std::string response = dispatcher.Handle(os.str());
    ASSERT_EQ(response.rfind("OK", 0), 0u) << os.str() << " -> " << response;
  }
  const std::string before = dispatcher.Handle("RUN t all LIMIT 60");
  ASSERT_EQ(before.rfind("OK RUN", 0), 0u) << before;
  const std::string path = TempPath("protocol");
  ASSERT_EQ(dispatcher.Handle("SNAPSHOT t " + path).rfind("OK SNAPSHOT", 0),
            0u);
  ASSERT_EQ(dispatcher.Handle("RESTORE copy " + path).rfind("OK RESTORE", 0),
            0u);
  const std::string after = dispatcher.Handle("RUN copy all LIMIT 60");
  ASSERT_EQ(after.rfind("OK RUN", 0), 0u) << after;
  // Each supported method's "<id> sat=... consensus=..." segment must
  // appear verbatim in the pre-snapshot sweep.
  for (const char* id : {"A1", "A2", "A3", "A4", "B1"}) {
    const std::string key = std::string(" ") + id + " sat=";
    const size_t at = after.find(key);
    ASSERT_NE(at, std::string::npos) << id << " missing in: " << after;
    size_t end = after.find(" A", at + 1);
    const size_t end_b = after.find(" B", at + 1);
    if (end == std::string::npos ||
        (end_b != std::string::npos && end_b < end)) {
      end = end_b;
    }
    const std::string segment = after.substr(
        at, end == std::string::npos ? std::string::npos : end - at);
    EXPECT_NE(before.find(segment), std::string::npos)
        << "restored " << segment << " not served pre-snapshot";
  }
  // The unsupported baselines are absent from the restored sweep.
  EXPECT_EQ(after.find(" B2 "), std::string::npos);
  EXPECT_EQ(after.find(" B3 "), std::string::npos);
  EXPECT_EQ(after.find(" B4 "), std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotServingTest, FailedRestoreLeavesManagerUntouched) {
  ContextManager manager;
  Dispatcher dispatcher(&manager);
  ASSERT_EQ(dispatcher.Handle("CREATE t CYCLIC 6 2 3"),
            "OK CREATE t candidates=6 rankings=0");
  ASSERT_EQ(dispatcher.Handle("APPEND t 0 1 2 3 4 5").rfind("OK", 0), 0u);
  ASSERT_EQ(dispatcher.Handle("FLUSH t").rfind("OK", 0), 0u);
  const std::string path = TempPath("corrupt");
  ASSERT_EQ(dispatcher.Handle("SNAPSHOT t " + path).rfind("OK", 0), 0u);
  // Corrupt the file on disk, then try to restore from it.
  {
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(30);
    file.put('\x7f');
  }
  const std::string stats_before = dispatcher.Handle("STATS t");
  const std::string response = dispatcher.Handle("RESTORE u " + path);
  EXPECT_EQ(response.rfind("ERR bad-snapshot", 0), 0u) << response;
  EXPECT_FALSE(manager.Has("u")) << "failed restore must register nothing";
  EXPECT_EQ(dispatcher.Handle("STATS t"), stats_before);
  // Restoring onto a live name is also rejected without touching it.
  EXPECT_EQ(dispatcher.Handle("RESTORE t " + path).rfind("ERR", 0), 0u);
  EXPECT_EQ(dispatcher.Handle("STATS t"), stats_before);
  std::remove(path.c_str());
}

TEST(SnapshotServingTest, SnapshotOfEmptyTableIsRejected) {
  ContextManager manager;
  Dispatcher dispatcher(&manager);
  ASSERT_EQ(dispatcher.Handle("CREATE t CYCLIC 6 2 3"),
            "OK CREATE t candidates=6 rankings=0");
  const std::string response =
      dispatcher.Handle("SNAPSHOT t " + TempPath("empty"));
  EXPECT_EQ(response.rfind("ERR empty-table", 0), 0u) << response;
}

TEST(SnapshotServingTest, RemoveOnRestoredTableIsRejectedAtEnqueue) {
  Fixture f = MakeFixture(8, 412, 6);
  ContextManager manager;
  manager.Create("t", f.table, f.base);
  ContextManager restarted;
  restarted.RestoreTable("t", manager.SnapshotTable("t"));
  // Rejected immediately — never enqueued, so the queue cannot wedge on
  // an op the summarized context can never apply.
  EXPECT_THROW(restarted.Remove("t", 0), std::logic_error);
  const TableStats stats = restarted.Stats("t");
  EXPECT_EQ(stats.pending_ops, 0u);
  // Appends still fold (streaming mutability survives the restore).
  Rng rng(413);
  restarted.Append("t", {testing::RandomRanking(8, &rng)});
  EXPECT_EQ(restarted.Flush("t"), 1u);
  EXPECT_EQ(restarted.Stats("t").num_rankings, 7u);
}

// --- exact (v2, retained-profile) snapshots -----------------------------

TEST(ExactSnapshotTest, RoundTripPreservesTheRetainedProfile) {
  Fixture f = MakeFixture(9, 414, 14);
  ConsensusContext ctx(f.base, f.table);
  TableSnapshot original{f.table, ctx.Snapshot(), /*applied_batches=*/2,
                         /*applied_rankings=*/14, /*retained=*/true, f.base};
  TableSnapshot restored = FromBytes(ToBytes(original));
  EXPECT_TRUE(restored.retained);
  ASSERT_EQ(restored.base_rankings.size(), f.base.size());
  for (size_t i = 0; i < f.base.size(); ++i) {
    EXPECT_EQ(restored.base_rankings[i].order(), f.base[i].order());
  }
  EXPECT_EQ(restored.summary.borda_points, original.summary.borda_points);
}

// The v2 exact snapshot bytes are pinned: these FNV-1a 64 values and
// lengths were recorded from the writer before the retained profile went
// compact, so any change to the on-disk encoding fails here.
TEST(ExactSnapshotTest, ExactSnapshotBytesArePinned) {
  struct Pin {
    int n;
    int count;
    uint64_t fnv;
    size_t bytes;
  };
  for (const Pin& pin : {Pin{7, 20, 0xb33068854ad722f9ull, 1176},
                        Pin{500, 64, 0x4b19cf0d2b8dfa85ull, 2136112}}) {
    Fixture f = MakeFixture(pin.n, 800 + pin.n, pin.count);
    ConsensusContext ctx(f.base, f.table);
    const std::string bytes = ToBytes(
        TableSnapshot{f.table, ctx.Snapshot(), /*applied_batches=*/3,
                      static_cast<uint64_t>(pin.count), /*retained=*/true,
                      f.base});
    EXPECT_EQ(bytes.size(), pin.bytes) << "n=" << pin.n;
    EXPECT_EQ(Fnv1a64(bytes.data(), bytes.size()), pin.fnv)
        << "n=" << pin.n << " fnv=0x" << std::hex
        << Fnv1a64(bytes.data(), bytes.size());
  }
}

TEST(ExactSnapshotTest, InconsistentRetainedSectionsRefuseToSerialize) {
  Fixture f = MakeFixture(8, 415, 5);
  ConsensusContext ctx(f.base, f.table);
  // retained set but the profile is short of summary.num_rankings...
  std::vector<Ranking> short_profile(f.base.begin(), f.base.end() - 1);
  TableSnapshot short_snap{f.table, ctx.Snapshot(), 0, 0, true,
                           short_profile};
  EXPECT_THROW(ToBytes(short_snap), std::invalid_argument);
  // ...and base rankings without the retained flag are a caller bug too.
  TableSnapshot unflagged{f.table, ctx.Snapshot(), 0, 0, false, f.base};
  EXPECT_THROW(ToBytes(unflagged), std::invalid_argument);
}

TEST(ExactSnapshotTest, SummarizedTablesRejectExactSnapshots) {
  Fixture f = MakeFixture(8, 416, 6);
  ContextManager manager;
  manager.Create("t", f.table, f.base);
  ContextManager restarted;
  restarted.RestoreTable("t", manager.SnapshotTable("t"));
  // The restored table's profile was folded away — there is nothing
  // exact to write.
  EXPECT_THROW(restarted.SnapshotTable("t", serve::SnapshotMode::kExact),
               std::logic_error);
  // kAuto degrades to summarized instead of throwing.
  const TableSnapshot snap =
      restarted.SnapshotTable("t", serve::SnapshotMode::kAuto);
  EXPECT_FALSE(snap.retained);
}

TEST(ExactSnapshotTest, ExactRestoreServesAllMethodsAndRemove) {
  Fixture f = MakeFixture(9, 417, 16);
  ContextManager manager;
  manager.Create("t", f.table, f.base);
  const std::string path = TempPath("exact");
  WriteTableSnapshotFile(path,
                         manager.SnapshotTable("t", serve::SnapshotMode::kExact));
  ContextManager restarted;
  const TableStats restored =
      restarted.RestoreTable("t", ReadTableSnapshotFile(path));
  EXPECT_FALSE(restored.summarized);
  EXPECT_EQ(restored.num_rankings, f.base.size());
  // The FULL registry — the base-ranking baselines included — serves
  // bit-identically to the never-snapshotted table.
  ConsensusOptions options;
  options.delta = 0.2;
  options.time_limit_seconds = 60.0;
  ASSERT_EQ(restarted.SupportedMethods("t").size(), AllMethods().size());
  for (const MethodSpec& m : AllMethods()) {
    const ConsensusOutput a = manager.Run("t", m, options);
    const ConsensusOutput b = restarted.Run("t", m, options);
    EXPECT_EQ(a.consensus.order(), b.consensus.order()) << m.id;
    EXPECT_EQ(a.satisfied, b.satisfied) << m.id;
  }
  // REMOVE works on the restored profile — and stays in lockstep with
  // the original.
  manager.Remove("t", 3);
  restarted.Remove("t", 3);
  EXPECT_EQ(manager.Flush("t"), restarted.Flush("t"));
  EXPECT_EQ(manager.Stats("t").num_rankings, restarted.Stats("t").num_rankings);
  const ConsensusOutput a = manager.Run("t", *FindMethod("B3"), options);
  const ConsensusOutput b = restarted.Run("t", *FindMethod("B3"), options);
  EXPECT_EQ(a.consensus.order(), b.consensus.order());
  std::remove(path.c_str());
}

TEST(ExactSnapshotTest, ProtocolExactTokenEndToEnd) {
  ContextManager manager;
  Dispatcher dispatcher(&manager);
  ASSERT_EQ(dispatcher.Handle("CREATE t CYCLIC 8 2 2").rfind("OK", 0), 0u);
  Rng rng(418);
  for (int i = 0; i < 5; ++i) {
    const Ranking ranking = testing::RandomRanking(8, &rng);
    std::ostringstream os;
    os << "APPEND t";
    for (CandidateId c : ranking.order()) os << ' ' << c;
    const std::string r = dispatcher.Handle(os.str());
    ASSERT_EQ(r.rfind("OK", 0), 0u) << os.str() << "\n-> " << r;
  }
  const std::string before = dispatcher.Handle("RUN t all LIMIT 60");
  const std::string path = TempPath("exact_protocol");
  const std::string response = dispatcher.Handle("SNAPSHOT t " + path +
                                                 " EXACT");
  ASSERT_EQ(response.rfind("OK SNAPSHOT", 0), 0u) << response;
  // The EXACT token is echoed, and ONLY then (the default response is
  // pinned by ProtocolRoundTripRunAllMatchesPerMethod).
  EXPECT_NE(response.find(" exact=1"), std::string::npos) << response;
  ASSERT_EQ(dispatcher.Handle("RESTORE copy " + path).rfind("OK", 0), 0u);
  // The restored copy runs the full sweep bit-identically — B2-B4 now
  // report instead of being dropped from the sweep.
  const std::string after = dispatcher.Handle("RUN copy all LIMIT 60");
  EXPECT_EQ(after.substr(after.find(' ', 7)), before.substr(before.find(' ', 7)))
      << "\nbefore: " << before << "\nafter:  " << after;
  EXPECT_NE(after.find(" B2 "), std::string::npos);
  // And REMOVE is accepted on the exact-restored table.
  EXPECT_EQ(dispatcher.Handle("REMOVE copy 0").rfind("OK", 0), 0u);
  // An exact-restored table is retained, so EXACT works on it again; a
  // summarized-restored one draws the documented conflict.
  const std::string sum_path = TempPath("exact_sum");
  ASSERT_EQ(dispatcher.Handle("SNAPSHOT t " + sum_path).rfind("OK", 0), 0u);
  ASSERT_EQ(dispatcher.Handle("RESTORE s " + sum_path).rfind("OK", 0), 0u);
  EXPECT_EQ(dispatcher
                .Handle("SNAPSHOT s " + TempPath("exact_reject") + " EXACT")
                .rfind("ERR conflict", 0),
            0u);
  std::remove(path.c_str());
  std::remove(sum_path.c_str());
}

}  // namespace
}  // namespace manirank
