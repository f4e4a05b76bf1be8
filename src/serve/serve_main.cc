// manirank_serve — multi-table consensus-ranking server.
//
// Usage:
//   manirank_serve                      serve the line protocol on stdin/stdout
//   manirank_serve --script FILE        replay a request script (offline mode)
//   manirank_serve --port P             TCP server: async executor pipeline —
//                                       one edge-triggered epoll event loop
//                                       plus the executor's worker threads
//                                       (serve/executor.h; Linux only); P=0
//                                       picks an ephemeral port (the bound
//                                       port is printed as "listening on
//                                       port N")
//   manirank_serve --follow HOST:PORT   follower: replicate every table of
//                                       the leader at HOST:PORT (snapshot
//                                       floor + streamed op log, verified
//                                       with the cold-start cursor) and
//                                       serve reads from the replicated
//                                       state; mutations answer
//                                       "ERR readonly:". A follower that
//                                       loses its leader keeps serving its
//                                       last consistent fold boundary and
//                                       reconnects with backoff
//                                       (serve/replica.h)
//   manirank_serve --workers N          executor worker threads (default:
//                                       hardware concurrency, max 256)
//   manirank_serve --restore-dir DIR    cold start: restore every *.snap table
//                                       snapshot in DIR before serving
//   manirank_serve --log-dir DIR        exact-profile durability: cold-start
//                                       every DIR/<table>.snap + .oplog pair
//                                       (snapshot floor, then op-log replay —
//                                       bit-exact even after kill -9), then
//                                       log every fold to DIR and enable the
//                                       SNAPSHOT-POLICY verb
//   manirank_serve --echo               echo each request before its response
//                                       (stdin/script modes only)
//
// The request grammar is documented in serve/protocol.h (CREATE / APPEND /
// REMOVE / RUN / STATS / FLUSH / SNAPSHOT / RESTORE / DROP / TABLES). Every
// connection gets its own Dispatcher over the shared ContextManager; the
// executor overlaps requests for different tables (responses stay in
// per-connection request order) while same-table requests respect the
// per-table gates and mutation queues.
//
// --restore-dir combines with any serving mode: each DIR/<name>.snap is
// restored as table <name> (data/snapshot.h format) without replaying its
// profile, so a restarted server resumes serving where SNAPSHOT left off.
// A corrupt or unreadable snapshot aborts startup loudly (exit 2) rather
// than silently serving a partial table set.
//
// --log-dir layers exact durability on top (serve/durability.h): ops are
// appended to DIR/<table>.oplog at fold boundaries (one fsync per fold)
// and a restart replays snapshot floor + log tail into a bit-identical
// table — a torn log tail from a crash is truncated and reported, a
// corrupt or non-chaining file aborts startup (exit 2). It combines with
// --restore-dir (the snapshots restore first; durability then writes
// fresh floors for them) unless both name the same table. Leftover
// durable-write temp files from a crashed writer are removed at startup.
//
// Shutdown: SIGINT or SIGTERM stops the TCP server gracefully — the
// listener closes, no new requests are read, every in-flight request
// finishes and its response is flushed, then connections half-close.
// SIGPIPE is ignored in every mode, so a client closing its end of a pipe
// or socket surfaces as an I/O error, never as process death.
//
// Exit status: 0 when every request succeeded (TCP: clean signal
// shutdown), 1 when any request drew an ERR response (stdin/script
// modes), 2 on usage, startup or I/O errors — including a TCP server that
// cannot start (bind, or creating its epoll set, fails) and the output
// stream dying mid-response in stdin/script mode.

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "data/durable_file.h"
#include "data/snapshot.h"
#include "serve/context_manager.h"
#include "serve/durability.h"
#include "serve/executor.h"
#include "serve/protocol.h"
#include "serve/replica.h"
#include "util/threading.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace {

using manirank::serve::ContextManager;
using manirank::serve::Dispatcher;

int Usage() {
  std::cerr << "usage: manirank_serve [--script FILE | --port P]\n"
               "                      [--follow HOST:PORT]\n"
               "                      [--workers N]\n"
               "                      [--restore-dir DIR] [--log-dir DIR]\n"
               "                      [--echo]\n"
               "  (no mode flag: serve requests from stdin; --restore-dir\n"
               "   cold-starts every DIR/<table>.snap before serving;\n"
               "   --log-dir adds exact-profile durability: op-log replay\n"
               "   at cold start, fold logging and SNAPSHOT-POLICY while\n"
               "   serving; --port serves the async executor pipeline\n"
               "   (0 = ephemeral); --follow replicates every table of the\n"
               "   leader at HOST:PORT and serves them read-only)\n";
  return 2;
}

/// Cold-starts the durability layer: replays every DIR/<table>.snap (+
/// optional .oplog tail) into the manager and reports each outcome.
/// Returns false (after reporting) on unusable state — the server must
/// not come up serving less than what was durably written.
bool DurableColdStart(manirank::serve::DurabilityManager* durability) {
  std::vector<std::string> removed_temps;
  std::vector<manirank::serve::DurabilityManager::RestoredTable> restored;
  try {
    restored = durability->ColdStart(&removed_temps);
  } catch (const std::exception& e) {
    std::cerr << "--log-dir: cold start failed: " << e.what() << "\n";
    return false;
  }
  for (const std::string& temp : removed_temps) {
    std::cerr << "--log-dir: removed leftover temp file " << temp << "\n";
  }
  for (const auto& table : restored) {
    std::cerr << "restored table '" << table.table << "' ("
              << table.snapshot_rankings << " snapshot rankings, "
              << table.replayed_rankings << " replayed from "
              << table.replayed_records << " log records in "
              << table.replay_ms << " ms";
    if (table.skipped_records > 0) {
      std::cerr << ", " << table.skipped_records
                << " already-snapshotted records skipped";
    }
    if (table.summarized) std::cerr << ", summarized";
    std::cerr << ") from " << durability->dir() << "\n";
    if (!table.torn_tail.empty()) {
      std::cerr << "--log-dir: table '" << table.table
                << "': torn op-log tail truncated: " << table.torn_tail
                << "\n";
    }
  }
  return true;
}

/// Cold-start: restores every `*.snap` in `dir` as a table named after the
/// file's stem. Returns false (after reporting to stderr) on the first
/// failure — a server must not come up silently missing tables.
bool RestoreFromDir(const std::string& dir, ContextManager* manager) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    std::cerr << "--restore-dir: not a directory: " << dir << "\n";
    return false;
  }
  // Deterministic restore order (directory iteration order is not).
  // The iterator is advanced with the error_code overload AND wrapped in
  // a try block: directory_iterator::increment may still throw (e.g.
  // allocation failure, or implementations that throw from refresh), and
  // an unhandled exception here would crash the whole cold start instead
  // of reporting which directory failed.
  std::vector<fs::path> snapshots;
  try {
    fs::directory_iterator it(dir, ec);
    if (ec) {
      std::cerr << "--restore-dir: cannot list " << dir << ": "
                << ec.message() << "\n";
      return false;
    }
    for (const fs::directory_iterator end; it != end; it.increment(ec)) {
      const fs::path& path = it->path();
      // A leftover durable-write temp file (`*.tmp.<pid>.<seq>`) means a
      // writer crashed between the temp write and the rename: it is
      // never a table, and the rename never happened, so deleting it is
      // always safe. Skipping without deleting would leak one file per
      // crash forever.
      if (manirank::LooksLikeDurableTempFile(path.filename().string())) {
        std::error_code remove_ec;
        fs::remove(path, remove_ec);
        std::cerr << "--restore-dir: removed leftover temp file "
                  << path.string()
                  << (remove_ec ? " (remove failed: " + remove_ec.message() +
                                      ")"
                                : "")
                  << "\n";
        continue;
      }
      // A file named exactly ".snap" is a dotfile to the filesystem
      // library (no extension, or an empty stem, depending on the
      // implementation): there is no table name to restore it as. Fail
      // loudly instead of either skipping the snapshot or passing an
      // empty name to RestoreTable.
      if (path.filename() == ".snap") {
        std::cerr << "--restore-dir: cannot derive a table name from "
                  << path.string() << " (empty stem)\n";
        return false;
      }
      if (path.extension() == ".snap") snapshots.push_back(path);
    }
    // A failed increment(ec) lands the iterator ON the end iterator, so
    // the loop above simply stops — the error is only visible here.
    // Without this check a readdir-level failure mid-listing would skip
    // the unlisted snapshots and silently serve a partial table set.
    if (ec) {
      std::cerr << "--restore-dir: error while listing " << dir << ": "
                << ec.message() << "\n";
      return false;
    }
  } catch (const std::exception& e) {
    std::cerr << "--restore-dir: error while listing " << dir << ": "
              << e.what() << "\n";
    return false;
  }
  std::sort(snapshots.begin(), snapshots.end());
  // Validate the derived table names up front: a file whose stem is
  // empty (or all dots — "..snap" stems to ".") cannot name a table, and
  // two files mapping to one stem would silently shadow each other. Both
  // must fail the cold start with a message naming the offending file,
  // not a late RestoreTable error naming only the table. (With today's
  // exact-case ".snap" filter one directory cannot actually produce two
  // equal stems; the duplicate check is cheap insurance for the day the
  // collection rule widens — case-insensitive match, multiple dirs.)
  std::set<std::string> stems;
  for (const fs::path& path : snapshots) {
    const std::string table = path.stem().string();
    if (table.empty() ||
        table.find_first_not_of('.') == std::string::npos) {
      std::cerr << "--restore-dir: cannot derive a table name from "
                << path.string() << " (empty stem)\n";
      return false;
    }
    if (!stems.insert(table).second) {
      std::cerr << "--restore-dir: duplicate table name '" << table
                << "' from " << path.string() << "\n";
      return false;
    }
  }
  for (const fs::path& path : snapshots) {
    const std::string table = path.stem().string();
    try {
      const manirank::serve::TableStats stats = manager->RestoreTable(
          table, manirank::ReadTableSnapshotFile(path.string()));
      std::cerr << "restored table '" << table << "' (" << stats.num_rankings
                << " rankings, generation " << stats.generation << ") from "
                << path.string() << "\n";
    } catch (const std::exception& e) {
      std::cerr << "--restore-dir: failed to restore '" << table
                << "' from " << path.string() << ": " << e.what() << "\n";
      return false;
    }
  }
  return true;
}

#ifdef MANIRANK_SERVE_HAVE_SOCKETS

/// Self-pipe for the signal handlers: async-signal-safe write on one
/// end, the main thread blocks reading the other until shutdown time.
int g_signal_pipe[2] = {-1, -1};

extern "C" void OnTerminationSignal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t w = ::write(g_signal_pipe[1], &byte, 1);
}

/// Runs `server` until SIGINT/SIGTERM, then shuts it down gracefully.
/// Returns the process exit status.
int ServeUntilSignal(manirank::serve::ServeExecutor& server) {
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << error << "\n";
    return 2;
  }
  // The one machine-parseable line: with --port 0 this is where scripts
  // (CI, the replication bench) learn which port the kernel picked.
  std::cerr << "listening on port " << server.port() << "\n";
  if (::pipe(g_signal_pipe) != 0) {
    std::cerr << "signal pipe: " << std::strerror(errno) << "\n";
    server.Shutdown();
    return 2;
  }
  std::signal(SIGINT, OnTerminationSignal);
  std::signal(SIGTERM, OnTerminationSignal);
  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::cerr << "manirank_serve: shutting down (draining in-flight "
               "requests)\n";
  // A second signal during the drain falls back to default disposition
  // (immediate termination) — an operator can always ^C twice.
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  server.Shutdown();
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);
  return 0;
}

#endif  // MANIRANK_SERVE_HAVE_SOCKETS

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::string> script;
  std::optional<std::string> restore_dir;
  std::optional<std::string> log_dir;
  std::optional<std::string> follow;
  std::optional<int> port;
  size_t workers = 0;
  bool echo = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--echo") {
      echo = true;
    } else if (flag == "--script" && i + 1 < argc) {
      script = argv[++i];
    } else if (flag == "--restore-dir" && i + 1 < argc) {
      restore_dir = argv[++i];
    } else if (flag == "--log-dir" && i + 1 < argc) {
      log_dir = argv[++i];
    } else if (flag == "--workers" && i + 1 < argc) {
      char* end = nullptr;
      const long w = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || w < 1 ||
          w > static_cast<long>(manirank::kMaxThreads)) {
        std::cerr << "--workers needs a value in [1, "
                  << manirank::kMaxThreads << "]\n";
        return 2;
      }
      workers = static_cast<size_t>(w);
    } else if (flag == "--port" && i + 1 < argc) {
      char* end = nullptr;
      const long p = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || p < 0 || p > 65535) {
        std::cerr << "--port needs a value in [0, 65535] (0 picks an "
                     "ephemeral port)\n";
        return 2;
      }
      port = static_cast<int>(p);
    } else if (flag == "--follow" && i + 1 < argc) {
      follow = argv[++i];
    } else {
      return Usage();
    }
  }
  if (script.has_value() && port.has_value()) return Usage();
  std::string follow_host;
  int follow_port = 0;
  if (follow.has_value()) {
    const size_t colon = follow->rfind(':');
    if (colon == std::string::npos || colon == 0) {
      std::cerr << "--follow needs HOST:PORT\n";
      return 2;
    }
    char* end = nullptr;
    const long p = std::strtol(follow->c_str() + colon + 1, &end, 10);
    if (end == follow->c_str() + colon + 1 || *end != '\0' || p < 1 ||
        p > 65535) {
      std::cerr << "--follow needs HOST:PORT with a port in [1, 65535]\n";
      return 2;
    }
    follow_host = follow->substr(0, colon);
    follow_port = static_cast<int>(p);
    if (script.has_value()) {
      std::cerr << "--follow and --script are mutually exclusive (a "
                   "script replay has no leader to track)\n";
      return 2;
    }
    if (log_dir.has_value()) {
      // A follower's state is OWNED by the leader's durability: every
      // re-handshake replaces the local tables wholesale, so a local op
      // log would record state it cannot be the authority for.
      std::cerr << "--follow and --log-dir are mutually exclusive: "
                   "followers replicate the leader's durability\n";
      return 2;
    }
  }
  if (workers != 0 && !port.has_value()) {
    std::cerr << "--workers only applies to --port mode\n";
    return 2;
  }
  if (echo && port.has_value()) {
    std::cerr << "--echo only applies to stdin/--script mode\n";
    return 2;
  }

#if defined(__unix__) || defined(__APPLE__)
  // In EVERY mode, not just TCP: a client closing the output pipe
  // mid-response must surface as a stream/write failure (exit 2 below),
  // not kill the process with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
#endif

  ContextManager manager;
  if (restore_dir.has_value() && !RestoreFromDir(*restore_dir, &manager)) {
    return 2;
  }
  std::optional<manirank::serve::DurabilityManager> durability;
  if (log_dir.has_value()) {
    std::error_code ec;
    if (!std::filesystem::is_directory(*log_dir, ec)) {
      std::cerr << "--log-dir: not a directory: " << *log_dir << "\n";
      return 2;
    }
    durability.emplace(*log_dir, &manager);
    // Cold start BEFORE Attach: the hook must not observe its own
    // replay. Attach then floors any --restore-dir tables that have no
    // durability state yet and starts logging every fold.
    if (!DurableColdStart(&*durability)) return 2;
    try {
      durability->Attach();
    } catch (const std::exception& e) {
      std::cerr << "--log-dir: cannot attach durability (writing initial "
                   "snapshot floors): " << e.what() << "\n";
      return 2;
    }
  }
  manirank::serve::DurabilityManager* durability_ptr =
      durability.has_value() ? &*durability : nullptr;
#ifdef MANIRANK_SERVE_HAVE_SOCKETS
  // The follower client starts BEFORE serving begins (any mode): tables
  // appear as their replication streams land, and its destructor (after
  // the server's, whose scope is inner) closes the streams on exit.
  std::optional<manirank::serve::FollowerClient> follower;
  if (follow.has_value()) {
    manirank::serve::FollowerClient::Options follower_options;
    follower_options.host = follow_host;
    follower_options.port = follow_port;
    follower_options.log = &std::cerr;
    follower.emplace(&manager, follower_options);
    std::string error;
    if (!follower->Start(&error)) {
      std::cerr << "--follow: " << error << "\n";
      return 2;
    }
    std::cerr << "following leader at " << follow_host << ":" << follow_port
              << "\n";
  }
#else
  if (follow.has_value()) {
    std::cerr << "--follow is not supported on this platform\n";
    return 2;
  }
#endif
  if (port.has_value()) {
#ifdef MANIRANK_SERVE_HAVE_SOCKETS
    manirank::serve::ServerOptions options;
    options.port = *port;
    options.workers = workers;
    options.log = &std::cerr;
    options.durability = durability_ptr;
    manirank::serve::ServeExecutor server(&manager, options);
    return ServeUntilSignal(server);
#else
    std::cerr << "--port is not supported on this platform\n";
    return 2;
#endif
  }
  Dispatcher dispatcher(&manager);
  // Stream modes have no event loop for the policy timer — tick inline.
  dispatcher.set_durability(durability_ptr, /*inline_policy_eval=*/true);
  int errors = 0;
  if (script.has_value()) {
    std::ifstream in(*script);
    if (!in) {
      std::cerr << "cannot open script: " << *script << "\n";
      return 2;
    }
    errors = dispatcher.ServeStream(in, std::cout, echo);
  } else {
    errors = dispatcher.ServeStream(std::cin, std::cout, echo);
  }
  if (!std::cout) {
    // The response sink died mid-stream (e.g. the reader closed the
    // pipe; with SIGPIPE ignored the write fails instead). ServeStream
    // stopped serving at that point — report it as an I/O error.
    std::cerr << "manirank_serve: output stream failed mid-response\n";
    return 2;
  }
  return errors == 0 ? 0 : 1;
}
