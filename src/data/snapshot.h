#ifndef MANIRANK_DATA_SNAPSHOT_H_
#define MANIRANK_DATA_SNAPSHOT_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/candidate_table.h"
#include "core/profile.h"
#include "core/ranking.h"
#include "core/streaming.h"

namespace manirank {

/// Everything a serving process needs to recover one table shard without
/// replaying its profile: the candidate table (attributes + values), the
/// profile's summarized state (Borda points, precedence matrix when
/// tracked, folded count, generation), and the shard's applied-mutation
/// counters.
///
/// Two flavors (format v2):
///  - summarized (`retained == false`, the v1 behaviour): restoring
///    yields a *summarized* context serving every precedence/Borda-based
///    method bit-identically to the original, but methods needing the
///    retained base rankings (B2-B4) and REMOVE stay unavailable.
///  - exact (`retained == true`): `base_rankings` carries the whole
///    profile, so restoring yields a full *retained* context — every
///    method and REMOVE work, bit-identically — with the summary seeding
///    its caches so the restore skips the O(|R| n^2) precedence rebuild.
///    Exact snapshots are the floor the per-table op log (data/op_log.h)
///    chains from.
struct TableSnapshot {
  CandidateTable table;
  StreamingSummary summary;
  /// Coalesced batches / rankings the serving shard had applied when the
  /// snapshot was taken (ContextManager bookkeeping, restored verbatim).
  uint64_t applied_batches = 0;
  uint64_t applied_rankings = 0;
  /// True when base_rankings carries the exact retained profile.
  bool retained = false;
  /// The profile, in order, as compact rows (core/profile.h); present
  /// (and summary.num_rankings-sized) iff `retained`. May be empty WITH
  /// retained set: an empty exact snapshot is the valid floor of a
  /// freshly created table.
  Profile base_rankings;
};

/// Thrown when snapshot bytes fail validation: bad magic, unsupported
/// version, checksum mismatch, truncation, or inconsistent section sizes.
/// Callers must treat the payload as unusable — a corrupt snapshot never
/// loads silently.
class SnapshotFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Versioned binary snapshot format (see EncodeTableSnapshot):
///
///   magic   "MRNKSNAP"                      (8 bytes)
///   version u32 little-endian               (currently 2; 1 still reads)
///   payload table / summary / counter sections
///           v2 appends: retained flag u8, and when set a u64 ranking
///           count followed by that many rankings of n u32 ids each
///   crc     FNV-1a 64 over magic+version+payload (8 bytes, trailing)
///
/// All integers are little-endian; precedence cells are raw IEEE-754
/// doubles (integral counts, so the round trip is bit-exact). The
/// trailing checksum makes truncation and corruption both detectable:
/// readers verify it before parsing a single field. Readers accept both
/// versions — a v1 file simply loads with `retained == false`. A whole
/// snapshot is capped at 1 GiB.
inline constexpr char kSnapshotMagic[8] = {'M', 'R', 'N', 'K',
                                           'S', 'N', 'A', 'P'};
inline constexpr uint32_t kSnapshotVersion = 2;

/// Encodes `snapshot` into one buffer sized up front (the bytes a file
/// or a replication handshake carries). Throws std::invalid_argument when
/// its sections disagree with its table.
std::string EncodeTableSnapshot(const TableSnapshot& snapshot);

/// Decodes bytes written by EncodeTableSnapshot, in place: a follower
/// decodes its floor straight out of its receive buffer. Throws
/// SnapshotFormatError on any validation failure (size cap, bad magic /
/// version / checksum, truncation, out-of-range section sizes).
TableSnapshot DecodeTableSnapshot(std::string_view bytes);

/// File-path wrappers over the codec. The reader goes through
/// ReadFileBytes (data/durable_file.h), which checks the size cap from
/// the file size before reading. Open failures throw std::runtime_error
/// ("cannot open snapshot: <path>"), format failures SnapshotFormatError.
/// Writes hold the encoded payload once and are atomic AND crash-durable
/// (data/durable_file.h): the payload lands in a uniquely named temporary
/// next to `path` (concurrent writers to one destination never share
/// it), is fsynced *before* the rename,
/// and the parent directory is fsynced after — so a power cut can leave
/// either the old file or the complete new one at `path`, never a
/// truncated snapshot and never a rename pointing at unsynced data. A
/// --restore-dir cold start must not find a torn snapshot.
void WriteTableSnapshotFile(const std::string& path,
                            const TableSnapshot& snapshot);
TableSnapshot ReadTableSnapshotFile(const std::string& path);

/// Probes whether WriteTableSnapshotFile could create its temporary file
/// next to `path` (creates and removes an empty probe file; serializes
/// nothing). Serving layers call this before draining state for a
/// snapshot, so an unwritable target rejects with zero side effects —
/// kept here beside the writer so the probe can never drift from the
/// writer's actual temp-path convention.
bool ProbeSnapshotWritable(const std::string& path);

}  // namespace manirank

#endif  // MANIRANK_DATA_SNAPSHOT_H_
