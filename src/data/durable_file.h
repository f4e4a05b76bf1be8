#ifndef MANIRANK_DATA_DURABLE_FILE_H_
#define MANIRANK_DATA_DURABLE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

namespace manirank {

/// FNV-1a 64 over raw bytes — the checksum every on-disk format in this
/// repo (snapshots, op logs) trails its payload with.
uint64_t Fnv1a64(const char* data, size_t size);

/// The little-endian integer codec of those formats: Put* append to a
/// growing buffer, Get* decode from bytes the caller has bounds-checked.
inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

/// Appends `count` ids as u32 little-endian, growing `out` once. The
/// byte stores compile to one 4-byte store per id on little-endian hosts.
template <class Id>
inline void PutU32Ids(std::string* out, const Id* ids, size_t count) {
  const size_t at = out->size();
  out->resize(at + 4 * count);
  char* dst = &(*out)[at];
  for (size_t i = 0; i < count; ++i, dst += 4) {
    const uint32_t v = static_cast<uint32_t>(ids[i]);
    dst[0] = static_cast<char>(v);
    dst[1] = static_cast<char>(v >> 8);
    dst[2] = static_cast<char>(v >> 16);
    dst[3] = static_cast<char>(v >> 24);
  }
}

inline uint32_t GetU32(const char* data) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data[i])) << (8 * i);
  }
  return v;
}

inline uint64_t GetU64(const char* data) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data[i])) << (8 * i);
  }
  return v;
}

/// "No limit" for ReadFileBytes' `max_bytes` and `size_cap`.
inline constexpr size_t kReadToEof = std::numeric_limits<size_t>::max();

/// The one reader every durable file goes through (snapshots, op logs,
/// and the replication handshake and poll): returns bytes [offset,
/// offset + max_bytes) of `path`, fewer when EOF comes first, or
/// std::nullopt when `path` cannot be opened (callers name the file kind
/// in their own error). Reads to EOF rather than trusting the file size,
/// so pipes and devices work; a read error ends the bytes as EOF would
/// (a directory opens and reads as empty), leaving the caller's format
/// check to report what it got. Throws std::length_error when more than
/// `size_cap` bytes follow `offset` — for a regular file, checked from
/// its size before anything is allocated.
std::optional<std::string> ReadFileBytes(const std::string& path,
                                         uint64_t offset = 0,
                                         size_t max_bytes = kReadToEof,
                                         size_t size_cap = kReadToEof);

/// Unique-per-writer temporary path next to `path`: `path + ".tmp." +
/// pid + "." + counter`, so concurrent writers to one destination never
/// truncate or unlink each other's in-progress file. Every atomic write
/// in the repo goes through this convention, which is why a crashed
/// writer's leftovers are recognizable (see LooksLikeDurableTempFile).
std::string NextDurableTempPath(const std::string& path);

/// True when `filename` (no directory part) matches the temp-file
/// convention above ("<anything>.tmp.<digits>.<digits>"). Cold-start
/// directory scans use it to skip — and unlink — the debris a crashed
/// writer left behind, instead of refusing to boot over a "corrupt"
/// snapshot that was never a snapshot at all.
bool LooksLikeDurableTempFile(const std::string& filename);

/// fsync(2) the directory containing `path`, making a just-renamed entry
/// durable against power loss (the rename itself only becomes persistent
/// once the parent directory's metadata reaches disk). Throws
/// std::runtime_error when the directory cannot be opened or synced.
void FsyncParentDir(const std::string& path);

/// Writes `data` to `path` atomically AND durably: unique temp file next
/// to `path`, full write, fsync, close, rename(2) into place, parent-dir
/// fsync. The temp file shares `path`'s directory, so the rename never
/// crosses filesystems. A crash at any point leaves either the old file
/// or the new one — never a torn mix — and a completed call survives
/// power loss. Throws std::runtime_error ("cannot rename …" when the
/// rename fails); the temp file is unlinked on failure.
void WriteFileDurably(const std::string& path, const std::string& data);

}  // namespace manirank

#endif  // MANIRANK_DATA_DURABLE_FILE_H_
