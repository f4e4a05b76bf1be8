#include "data/snapshot.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/precedence.h"
#include "data/durable_file.h"

namespace manirank {
namespace {

// Caps on declared section sizes. The checksum already binds every field
// to the bytes actually present, but bounding the declarations keeps a
// crafted (checksum-consistent) file from requesting absurd allocations
// before the per-field remaining-bytes checks run.
constexpr uint32_t kMaxCandidates = 1u << 20;
constexpr uint32_t kMaxAttributes = 256;
constexpr uint32_t kMaxStringBytes = 1u << 16;
/// Hard cap on a whole snapshot (1 GiB — a CREATE-capped n=5000 table's
/// precedence matrix is ~200 MB, so this is generous). A file is checked
/// from its size before anything is read, so a stray multi-gigabyte file
/// in a --restore-dir cannot balloon server memory at cold start.
constexpr size_t kMaxSnapshotBytes = size_t{1} << 30;
constexpr char kSizeCapMessage[] = "snapshot exceeds the 1 GiB size cap";
/// Room for the fixed-size fields and attribute names when sizing the
/// write buffer up front.
constexpr size_t kSnapshotReserveSlack = 4096;

// --- little-endian encoders over a growing payload buffer ------------------

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, const std::string& s) {
  if (s.size() > kMaxStringBytes) {
    throw std::invalid_argument("snapshot string field exceeds 64 KiB: " + s);
  }
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked little-endian cursor over the verified payload. Every
/// read throws SnapshotFormatError on overrun, so a structurally
/// inconsistent (yet checksum-consistent) file fails loudly instead of
/// reading past its end.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }

  void Require(size_t bytes, const char* what) const {
    if (bytes > remaining()) {
      throw SnapshotFormatError(std::string("snapshot truncated: ") + what);
    }
  }

  uint8_t U8(const char* what) {
    Require(1, what);
    const uint8_t v = static_cast<unsigned char>(data_[pos_]);
    pos_ += 1;
    return v;
  }

  uint32_t U32(const char* what) {
    Require(4, what);
    const uint32_t v = GetU32(data_ + pos_);
    pos_ += 4;
    return v;
  }

  uint64_t U64(const char* what) {
    Require(8, what);
    const uint64_t v = GetU64(data_ + pos_);
    pos_ += 8;
    return v;
  }

  int64_t I64(const char* what) { return static_cast<int64_t>(U64(what)); }

  double Double(const char* what) {
    const uint64_t bits = U64(what);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string String(const char* what) {
    const uint32_t size = U32(what);
    if (size > kMaxStringBytes) {
      throw SnapshotFormatError(std::string("snapshot string too long: ") +
                                what);
    }
    Require(size, what);
    std::string s(data_ + pos_, size);
    pos_ += size;
    return s;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

void AppendTableSection(std::string* payload, const CandidateTable& table) {
  PutU32(payload, static_cast<uint32_t>(table.num_candidates()));
  PutU32(payload, static_cast<uint32_t>(table.num_attributes()));
  for (int a = 0; a < table.num_attributes(); ++a) {
    const Attribute& attr = table.attribute(a);
    PutString(payload, attr.name);
    PutU32(payload, static_cast<uint32_t>(attr.values.size()));
    for (const std::string& value : attr.values) PutString(payload, value);
  }
  for (CandidateId c = 0; c < table.num_candidates(); ++c) {
    for (int a = 0; a < table.num_attributes(); ++a) {
      PutU32(payload, static_cast<uint32_t>(table.value(c, a)));
    }
  }
}

CandidateTable ReadTableSection(Cursor* in) {
  const uint32_t n = in->U32("candidate count");
  const uint32_t q = in->U32("attribute count");
  if (n == 0 || n > kMaxCandidates) {
    throw SnapshotFormatError("snapshot candidate count out of range: " +
                              std::to_string(n));
  }
  if (q > kMaxAttributes) {
    throw SnapshotFormatError("snapshot attribute count out of range: " +
                              std::to_string(q));
  }
  std::vector<Attribute> attributes(q);
  for (uint32_t a = 0; a < q; ++a) {
    attributes[a].name = in->String("attribute name");
    const uint32_t domain = in->U32("attribute domain size");
    if (domain == 0 || domain > kMaxCandidates) {
      throw SnapshotFormatError("snapshot attribute domain out of range: " +
                                std::to_string(domain));
    }
    // 4 bytes of length prefix per value name bounds the loop by the
    // remaining payload before any one allocation happens.
    in->Require(static_cast<size_t>(domain) * 4, "attribute values");
    attributes[a].values.resize(domain);
    for (uint32_t v = 0; v < domain; ++v) {
      attributes[a].values[v] = in->String("attribute value");
    }
  }
  in->Require(static_cast<size_t>(n) * q * 4, "candidate values");
  std::vector<std::vector<AttributeValue>> values(
      n, std::vector<AttributeValue>(q));
  for (uint32_t c = 0; c < n; ++c) {
    for (uint32_t a = 0; a < q; ++a) {
      const uint32_t raw = in->U32("candidate value");
      if (raw >= attributes[a].values.size()) {
        throw SnapshotFormatError("snapshot candidate value out of domain");
      }
      values[c][a] = static_cast<AttributeValue>(raw);
    }
  }
  try {
    return CandidateTable(std::move(attributes), std::move(values));
  } catch (const std::exception& e) {
    // The table constructor re-validates; a rejection here still means the
    // file content is unusable.
    throw SnapshotFormatError(std::string("snapshot table rejected: ") +
                              e.what());
  }
}

}  // namespace

std::string EncodeTableSnapshot(const TableSnapshot& snapshot) {
  const int n = snapshot.table.num_candidates();
  if (snapshot.summary.num_candidates != n) {
    throw std::invalid_argument(
        "snapshot summary candidate count does not match its table");
  }
  // Reserve the whole payload once: the precedence matrix and the
  // retained profile dominate it, and growing by doubling would hold two
  // copies at the peak.
  const size_t cells = static_cast<size_t>(n) * static_cast<size_t>(n);
  const size_t profile_ids =
      snapshot.base_rankings.size() * static_cast<size_t>(n);
  std::string buffer;
  buffer.reserve(kSnapshotReserveSlack +
                 static_cast<size_t>(n) *
                     (8 + 4 * snapshot.table.num_attributes()) +
                 (snapshot.summary.precedence != nullptr ? 8 * cells : 0) +
                 4 * profile_ids);
  buffer.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU32(&buffer, kSnapshotVersion);
  AppendTableSection(&buffer, snapshot.table);
  PutI64(&buffer, snapshot.summary.num_rankings);
  PutU64(&buffer, snapshot.summary.generation);
  PutU64(&buffer, snapshot.applied_batches);
  PutU64(&buffer, snapshot.applied_rankings);
  if (snapshot.summary.borda_points.size() != static_cast<size_t>(n)) {
    throw std::invalid_argument(
        "snapshot summary Borda points do not match its table");
  }
  for (int64_t points : snapshot.summary.borda_points) {
    PutI64(&buffer, points);
  }
  const PrecedenceMatrix* precedence = snapshot.summary.precedence.get();
  buffer.push_back(precedence != nullptr ? 1 : 0);
  if (precedence != nullptr) {
    if (precedence->size() != n) {
      throw std::invalid_argument(
          "snapshot summary precedence matrix does not match its table");
    }
    for (CandidateId a = 0; a < n; ++a) {
      for (CandidateId b = 0; b < n; ++b) {
        PutDouble(&buffer, precedence->W(a, b));
      }
    }
  }
  // v2 retained section: the exact profile, when this snapshot is an
  // op-log floor rather than a summarized checkpoint.
  buffer.push_back(snapshot.retained ? 1 : 0);
  if (snapshot.retained) {
    if (snapshot.base_rankings.size() !=
        static_cast<size_t>(snapshot.summary.num_rankings)) {
      throw std::invalid_argument(
          "retained snapshot profile size does not match its summary");
    }
    const Profile& profile = snapshot.base_rankings;
    if (!profile.empty() && profile.num_candidates() != n) {
      throw std::invalid_argument(
          "retained snapshot ranking size does not match its table");
    }
    PutU64(&buffer, static_cast<uint64_t>(profile.size()));
    for (size_t i = 0; i < profile.size(); ++i) {
      profile.VisitRow(i, [&](const auto* order) {
        PutU32Ids(&buffer, order, static_cast<size_t>(n));
      });
    }
  } else if (!snapshot.base_rankings.empty()) {
    throw std::invalid_argument(
        "snapshot carries base rankings without the retained flag");
  }
  const uint64_t checksum = Fnv1a64(buffer.data(), buffer.size());
  PutU64(&buffer, checksum);
  return buffer;
}

TableSnapshot DecodeTableSnapshot(std::string_view buffer) {
  if (buffer.size() > kMaxSnapshotBytes) {
    throw SnapshotFormatError(kSizeCapMessage);
  }
  constexpr size_t kHeaderBytes = sizeof(kSnapshotMagic) + 4;
  if (buffer.size() < kHeaderBytes + 8) {
    throw SnapshotFormatError("snapshot truncated: shorter than header");
  }
  if (std::memcmp(buffer.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    throw SnapshotFormatError("snapshot has bad magic (not a MANI-Rank "
                              "snapshot file)");
  }
  // Verify the trailing checksum before trusting a single parsed field:
  // truncation and bit corruption both fail here, loudly.
  const size_t body = buffer.size() - 8;
  Cursor trailer(buffer.data() + body, 8);
  const uint64_t stored = trailer.U64("checksum");
  const uint64_t computed = Fnv1a64(buffer.data(), body);
  if (stored != computed) {
    throw SnapshotFormatError("snapshot checksum mismatch (corrupt or "
                              "truncated file)");
  }
  Cursor in(buffer.data() + sizeof(kSnapshotMagic),
            body - sizeof(kSnapshotMagic));
  const uint32_t version = in.U32("version");
  if (version < 1 || version > kSnapshotVersion) {
    throw SnapshotFormatError("snapshot version " + std::to_string(version) +
                              " is not supported (expected 1.." +
                              std::to_string(kSnapshotVersion) + ")");
  }
  CandidateTable table = ReadTableSection(&in);
  const int n = table.num_candidates();
  StreamingSummary summary;
  summary.num_candidates = n;
  summary.num_rankings = in.I64("ranking count");
  if (summary.num_rankings < 0) {
    throw SnapshotFormatError("snapshot ranking count is negative");
  }
  summary.generation = in.U64("generation");
  const uint64_t applied_batches = in.U64("applied batch counter");
  const uint64_t applied_rankings = in.U64("applied ranking counter");
  in.Require(static_cast<size_t>(n) * 8, "Borda points");
  summary.borda_points.resize(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) {
    summary.borda_points[c] = in.I64("Borda points");
  }
  const uint8_t has_precedence = in.U8("precedence flag");
  if (has_precedence > 1) {
    throw SnapshotFormatError("snapshot precedence flag is not 0/1");
  }
  if (has_precedence == 1) {
    const size_t cells = static_cast<size_t>(n) * static_cast<size_t>(n);
    in.Require(cells * 8, "precedence matrix");
    std::vector<std::vector<double>> dense(
        static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        dense[a][b] = in.Double("precedence matrix");
      }
    }
    summary.precedence =
        std::make_unique<PrecedenceMatrix>(std::move(dense));
  }
  bool retained = false;
  Profile base_rankings;
  if (version >= 2) {
    const uint8_t flag = in.U8("retained flag");
    if (flag > 1) {
      throw SnapshotFormatError("snapshot retained flag is not 0/1");
    }
    retained = flag == 1;
    if (retained) {
      const uint64_t count = in.U64("retained ranking count");
      if (count != static_cast<uint64_t>(summary.num_rankings)) {
        throw SnapshotFormatError(
            "snapshot retained profile size does not match its summary");
      }
      in.Require(static_cast<size_t>(count) * static_cast<size_t>(n) * 4,
                 "retained rankings");
      base_rankings = Profile(n);
      base_rankings.Reserve(static_cast<size_t>(count));
      // Each row is decoded and checked in one scratch order, then
      // packed; no Ranking is built.
      std::vector<CandidateId> order(static_cast<size_t>(n));
      for (uint64_t r = 0; r < count; ++r) {
        for (int p = 0; p < n; ++p) {
          const uint32_t id = in.U32("retained ranking id");
          if (id >= static_cast<uint32_t>(n)) {
            throw SnapshotFormatError(
                "snapshot retained ranking id out of range");
          }
          order[static_cast<size_t>(p)] = static_cast<CandidateId>(id);
        }
        if (!Ranking::IsValidOrder(order)) {
          throw SnapshotFormatError(
              "snapshot retained ranking is not a permutation");
        }
        base_rankings.AppendOrder(order.data());
      }
    }
  }
  if (in.remaining() != 0) {
    throw SnapshotFormatError("snapshot has " +
                              std::to_string(in.remaining()) +
                              " trailing bytes after the payload");
  }
  TableSnapshot snapshot{std::move(table),      std::move(summary),
                         applied_batches,       applied_rankings,
                         retained,              std::move(base_rankings)};
  return snapshot;
}

bool ProbeSnapshotWritable(const std::string& path) {
  // Shares the durable-write temp-path convention, so the probe can never
  // drift from what WriteTableSnapshotFile actually creates.
  const std::string tmp = NextDurableTempPath(path);
  std::FILE* probe = std::fopen(tmp.c_str(), "wb");
  if (probe == nullptr) return false;
  std::fclose(probe);
  std::remove(tmp.c_str());
  return true;
}

void WriteTableSnapshotFile(const std::string& path,
                            const TableSnapshot& snapshot) {
  // Write-then-rename with full fsync discipline (WriteFileDurably): a
  // failure mid-write (disk full, crash, power cut) must never leave a
  // truncated file at `path` — a --restore-dir cold start refuses to boot
  // over a corrupt snapshot, so a partial write would turn one failed
  // SNAPSHOT into a bricked restart. The temp is fsynced *before* the
  // rename and the parent directory after it; a bare write-then-rename
  // can be reordered by the filesystem into a complete-looking name
  // pointing at unwritten blocks. The encoded buffer is the only copy
  // of the payload the write holds.
  WriteFileDurably(path, EncodeTableSnapshot(snapshot));
}

TableSnapshot ReadTableSnapshotFile(const std::string& path) {
  std::optional<std::string> bytes;
  try {
    bytes = ReadFileBytes(path, 0, kReadToEof, kMaxSnapshotBytes);
  } catch (const std::length_error&) {
    throw SnapshotFormatError(kSizeCapMessage);
  }
  if (!bytes) throw std::runtime_error("cannot open snapshot: " + path);
  return DecodeTableSnapshot(*bytes);
}

}  // namespace manirank
