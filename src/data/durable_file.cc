#include "data/durable_file.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <system_error>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace manirank {
namespace {

[[noreturn]] void ThrowErrno(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + ": " + path + ": " + std::strerror(errno));
}

/// Parent directory of `path` under the same rules rename(2) uses: the
/// bytes before the last '/', or "." when there is none.
std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void FsyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    ThrowErrno("fsync failed", path);
  }
}

/// Writes the whole buffer, retrying short writes and EINTR.
void WriteAll(int fd, const char* data, size_t size, const std::string& path) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      ThrowErrno("write failed", path);
    }
    done += static_cast<size_t>(n);
  }
}

}  // namespace

uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::optional<std::string> ReadFileBytes(const std::string& path,
                                         uint64_t offset, size_t max_bytes,
                                         size_t size_cap) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) return std::nullopt;
  std::setvbuf(file.get(), nullptr, _IONBF, 0);  // reads land in `out`
  // A regular file's size sizes the buffer once and enforces the cap
  // before allocating; anything else (pipe, device, directory) reports
  // no size and grows chunk by chunk below.
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  const uintmax_t expected = !ec && size > offset ? size - offset : 0;
  if (expected > size_cap) {
    throw std::length_error("file exceeds its size cap: " + path);
  }
  if (offset > 0 &&
      (offset > static_cast<uint64_t>(std::numeric_limits<long>::max()) ||
       std::fseek(file.get(), static_cast<long>(offset), SEEK_SET) != 0)) {
    return std::string();  // unreachable offset: nothing to read
  }
  std::string out(static_cast<size_t>(std::min<uintmax_t>(expected, max_bytes)),
                  '\0');
  out.resize(std::fread(out.data(), 1, out.size(), file.get()));
  // Read on to EOF: the size was only a hint (and absent for pipes).
  char chunk[1 << 16];
  while (out.size() < max_bytes) {
    const size_t got = std::fread(
        chunk, 1, std::min(sizeof(chunk), max_bytes - out.size()), file.get());
    if (got == 0) break;
    if (out.size() + got > size_cap) {
      throw std::length_error("file exceeds its size cap: " + path);
    }
    out.append(chunk, got);
  }
  return out;
}

std::string NextDurableTempPath(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
  const uint64_t pid = static_cast<uint64_t>(::getpid());
  return path + ".tmp." + std::to_string(pid) + "." +
         std::to_string(counter.fetch_add(1) + 1);
}

bool LooksLikeDurableTempFile(const std::string& filename) {
  // "<anything>.tmp.<digits>.<digits>", scanned from the tail so a stem
  // containing ".tmp." cannot confuse it.
  const auto all_digits = [](const std::string& s) {
    if (s.empty()) return false;
    for (char c : s) {
      if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    }
    return true;
  };
  const size_t last_dot = filename.find_last_of('.');
  if (last_dot == std::string::npos || last_dot == 0) return false;
  const size_t prev_dot = filename.find_last_of('.', last_dot - 1);
  if (prev_dot == std::string::npos) return false;
  if (!all_digits(filename.substr(last_dot + 1))) return false;
  if (!all_digits(filename.substr(prev_dot + 1, last_dot - prev_dot - 1))) {
    return false;
  }
  // The ".tmp" marker must sit immediately before the pid segment.
  constexpr char kMarker[] = ".tmp";
  constexpr size_t kMarkerLen = sizeof(kMarker) - 1;
  if (prev_dot < kMarkerLen) return false;
  return filename.compare(prev_dot - kMarkerLen, kMarkerLen, kMarker) == 0;
}

void FsyncParentDir(const std::string& path) {
  const std::string dir = ParentDir(path);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    // Some filesystems refuse O_RDONLY on directories (and a few refuse
    // directory fsync outright with EINVAL below); neither failure mode
    // means the rename was lost, so only a genuinely missing directory
    // is worth aborting over.
    if (errno == ENOENT) ThrowErrno("cannot open directory for fsync", dir);
    return;
  }
  if (::fsync(fd) != 0 && errno != EINVAL && errno != ENOTSUP &&
      errno != EROFS) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    ThrowErrno("directory fsync failed", dir);
  }
  ::close(fd);
}

void WriteFileDurably(const std::string& path, const std::string& data) {
  const std::string tmp = NextDurableTempPath(path);
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) ThrowErrno("cannot open temp file for writing", tmp);
  try {
    WriteAll(fd, data.data(), data.size(), tmp);
    FsyncFd(fd, tmp);
    if (::close(fd) != 0) ThrowErrno("close failed", tmp);
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    ThrowErrno("cannot rename " + tmp, path);
  }
  FsyncParentDir(path);
}

}  // namespace manirank
