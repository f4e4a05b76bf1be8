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
//   manirank_serve --restore-dir DIR    cold start: restore every
//                                       DIR/<table>.snap (SNAPSHOT file)
//                                       before serving; a DIR holding an op
//                                       log is refused (use --log-dir)
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
// than silently serving a partial table set. So does any DIR/<name>.oplog:
// a directory written by --log-dir holds folds that only its op logs
// carry, and restoring the snapshots alone would drop them.
//
// --log-dir layers exact durability on top (serve/durability.h): ops are
// appended to DIR/<table>.oplog at fold boundaries (one fsync per fold)
// and a restart replays snapshot floor + log tail into a bit-identical
// table — a torn log tail from a crash is truncated and reported, a
// corrupt or non-chaining file aborts startup (exit 2). It combines with
// --restore-dir (the snapshots restore first; durability then writes
// fresh floors for them) unless both name the same table.
//
// Both flags read their directory through one rule (ListTableDir in
// serve/durability.h): leftover durable-write temp files from a crashed
// writer are removed and reported, and a .snap or .oplog file whose name
// yields no table name (".snap", "..snap") aborts startup (exit 2).
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

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

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
               "   cold-starts every DIR/<table>.snap before serving and\n"
               "   refuses a DIR holding op logs, which --log-dir owns;\n"
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

/// Cold-start: restores every DIR/<table>.snap as table <table>. Refuses
/// a directory holding any op log: those folds live only in the log, and
/// only --log-dir replays them. Returns false (after reporting to stderr)
/// on the first failure — a server must not come up silently missing
/// tables or acknowledged folds.
bool RestoreFromDir(const std::string& dir, ContextManager* manager) {
  std::vector<std::string> removed_temps;
  std::vector<manirank::serve::TableDirEntry> tables;
  try {
    tables = manirank::serve::ListTableDir(dir, &removed_temps);
  } catch (const std::exception& e) {
    std::cerr << "--restore-dir: " << e.what() << "\n";
    return false;
  }
  for (const std::string& temp : removed_temps) {
    std::cerr << "--restore-dir: removed leftover temp file " << temp << "\n";
  }
  for (const auto& entry : tables) {
    if (entry.has_log) {
      std::cerr << "--restore-dir: " << dir << "/" << entry.table
                << ".oplog holds op-logged folds a snapshot restore would "
                   "drop; cold-start this directory with --log-dir\n";
      return false;
    }
  }
  for (const auto& entry : tables) {
    const std::string path = dir + "/" + entry.table + ".snap";
    try {
      const manirank::serve::TableStats stats = manager->RestoreTable(
          entry.table, manirank::ReadTableSnapshotFile(path));
      std::cerr << "restored table '" << entry.table << "' ("
                << stats.num_rankings << " rankings, generation "
                << stats.generation << ") from " << path << "\n";
    } catch (const std::exception& e) {
      std::cerr << "--restore-dir: failed to restore '" << entry.table
                << "' from " << path << ": " << e.what() << "\n";
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
