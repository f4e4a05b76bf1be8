#include "load.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "proc.h"

namespace perfbench {

const char* VerbName(int verb) {
  static const char* const names[] = {"run",   "append", "eval", "select",
                                      "flush", "stats",  "other"};
  return names[verb];
}

Verb VerbOf(const std::string& line) {
  const std::string verb = line.substr(0, line.find(' '));
  if (verb == "RUN") return kRun;
  if (verb == "APPEND") return kAppend;
  if (verb == "EVAL") return kEval;
  if (verb == "SELECT") return kSelect;
  if (verb == "FLUSH") return kFlush;
  if (verb == "STATS") return kStats;
  return kOther;
}

uint64_t FieldU64(const std::string& line, const std::string& key) {
  const size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size() + 2, nullptr, 10);
}

void LoadResult::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 5) failures.push_back(why.substr(0, 300));
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

bool PercentileValid(size_t count, double p) {
  return static_cast<double>(count) * (1.0 - p) >= 10.0;
}

namespace {

void Enqueue(LiveConn* conn, int64_t due, int64_t now, bool open_phase,
             LoadResult* result) {
  const std::vector<std::string>& lines = conn->stream->lines;
  const std::string& line = lines[conn->sent % lines.size()];
  conn->out += line;
  conn->out += '\n';
  conn->inflight.push_back({conn->sent, due, VerbOf(line)});
  ++conn->sent;
  ++conn->phase_sent;
  ++result->attempted;
  if (open_phase && conn->open_mode) {
    result->late_ms.push_back(static_cast<double>(now - due) / 1e6);
  }
}

void Check(LiveConn* conn, const Inflight& req, const std::string& response,
           int64_t now, LoadResult* result) {
  const ConnStream& stream = *conn->stream;
  const size_t index = req.seq % stream.lines.size();
  if (response.rfind("OK", 0) != 0) {
    result->Fail("error response to '" + stream.lines[index].substr(0, 80) +
                 "': " + response);
  }
  if (req.verb == kSelect) {
    ++result->selects;
    if (response.find(" algo=ilp ") != std::string::npos) {
      ++result->ilp_selects;
      // A budget-limited slate depends on timing; the oracle could not
      // reproduce it, so it counts as a failure here already.
      if (response.find(" optimal=1 ") == std::string::npos) {
        result->Fail("ILP SELECT not solved to optimality: " + response);
      }
    }
  }
  if (req.verb == kFlush && stream.server == 0) result->flush_acks.push_back(now);
  switch (stream.check) {
    case CheckMode::kSequential:
      conn->responses.push_back(response);
      return;
    case CheckMode::kFollower:
      if (req.verb == kStats) {
        result->follower_generations.emplace_back(
            now, FieldU64(response, "generation"));
        result->lag_generations_max =
            std::max(result->lag_generations_max,
                     FieldU64(response, "replica_lag_generations"));
        return;
      }
      [[fallthrough]];
    case CheckMode::kStateless: {
      const uint64_t generation = stream.check == CheckMode::kFollower
                                      ? FieldU64(response, "gen")
                                      : 0;
      const auto [it, inserted] =
          conn->first.emplace(ReadKey(generation, index), response);
      if (!inserted && it->second != response) {
        result->Fail("response differs from an earlier response to '" +
                     stream.lines[index].substr(0, 80) + "'");
      }
      return;
    }
  }
}

/// Sends what the socket takes. Returns false when the peer is gone.
bool FlushOut(LiveConn* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n <= 0) return false;
    conn->out_off += static_cast<size_t>(n);
  }
  conn->out.clear();
  conn->out_off = 0;
  return true;
}

/// Reads what the socket has and handles every complete response line.
/// Returns false when the peer closed.
bool ReadIn(LiveConn* conn, bool open_phase, int64_t window_end,
            LoadResult* result) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) return false;
    conn->in.append(chunk, static_cast<size_t>(n));
  }
  const int64_t now = NowNs();
  size_t start = 0;
  for (size_t nl = conn->in.find('\n'); nl != std::string::npos;
       nl = conn->in.find('\n', start)) {
    const std::string response = conn->in.substr(start, nl - start);
    start = nl + 1;
    if (conn->inflight.empty()) {
      result->Fail("unsolicited response: " + response);
      continue;
    }
    const Inflight req = conn->inflight.front();
    conn->inflight.pop_front();
    if (open_phase && conn->open_mode) {
      const double ms = static_cast<double>(now - req.due_ns) / 1e6;
      result->open_ms.push_back(ms);
      result->open_due_ns.push_back(req.due_ns);
      result->open_ms_by_verb[req.verb].push_back(ms);
    }
    if (!open_phase && now <= window_end) result->closed_done_ns.push_back(now);
    Check(conn, req, response, now, result);
  }
  conn->in.erase(0, start);
  return true;
}

}  // namespace

void RunPhase(std::vector<LiveConn>* conns, bool open, double seconds,
              LoadResult* result) {
  const int64_t t0 = NowNs() + 2'000'000;
  const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
  (open ? result->open_start_ns : result->closed_start_ns) = t0;
  const size_t count = conns->size();
  for (size_t c = 0; c < count; ++c) {
    LiveConn& conn = (*conns)[c];
    conn.open_mode = open || !conn.stream->closed_loop;
    conn.phase_sent = 0;
    if (conn.open_mode) {
      const double rate = conn.stream->open_rate_rps;
      conn.interval_ns = 1e9 / rate;
      // Stagger the connections' schedules across one interval.
      conn.offset_ns = conn.interval_ns * static_cast<double>(c) /
                       static_cast<double>(count);
      conn.phase_target =
          open ? conn.stream->open_count
               : static_cast<size_t>(std::llround(rate * seconds));
    }
  }
  // Responses outstanding this long after the phase ends are failures.
  const int64_t give_up = end + 60'000'000'000LL;
  std::vector<pollfd> pfds(count);
  for (;;) {
    const int64_t now = NowNs();
    bool done = true;
    // With nothing left to send, wake at least every 10 ms while the last
    // responses drain instead of spinning.
    int64_t next_due = now < end ? end : now + 10'000'000;
    for (LiveConn& conn : *conns) {
      if (conn.open_mode) {
        for (;;) {
          if (conn.phase_sent >= conn.phase_target) break;
          const int64_t due =
              t0 + static_cast<int64_t>(conn.offset_ns +
                                        conn.interval_ns *
                                            static_cast<double>(conn.phase_sent));
          if (due > now) {
            next_due = std::min(next_due, due);
            break;
          }
          Enqueue(&conn, due, now, open, result);
        }
        done = done && conn.phase_sent >= conn.phase_target;
      } else {
        if (now < t0) next_due = std::min(next_due, t0);
        if (now >= t0 && now < end && conn.inflight.empty()) {
          Enqueue(&conn, now, now, open, result);
        }
        done = done && now >= end;
      }
      if (!FlushOut(&conn)) {
        result->Fail("connection lost while sending");
        return;
      }
      done = done && conn.inflight.empty();
    }
    if (done) break;
    if (now > give_up) {
      for (LiveConn& conn : *conns) {
        for (size_t i = 0; i < conn.inflight.size(); ++i) {
          result->Fail("no response within 60 s after the phase ended");
        }
        conn.inflight.clear();
      }
      return;
    }
    for (size_t c = 0; c < count; ++c) {
      const LiveConn& conn = (*conns)[c];
      pfds[c] = {conn.fd,
                 static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT)),
                 0};
    }
    // Sleep until the next due time or a socket event (nanosecond timeout;
    // Run sets a 1 us timer slack). The generator never spins, so its CPU
    // is idle whenever no request is due.
    const int64_t wait_ns = std::max<int64_t>(0, next_due - NowNs());
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(pfds.data(), pfds.size(), &timeout, nullptr) < 0 &&
        errno != EINTR) {
      result->Fail("poll failed");
      return;
    }
    for (size_t c = 0; c < count; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          !ReadIn(&(*conns)[c], open, end, result)) {
        result->Fail("connection closed by server");
        return;
      }
    }
  }
  if (!open) result->closed_seconds = seconds;
}

std::vector<std::vector<double>> ByWindow(const std::vector<double>& values,
                                          const std::vector<int64_t>& times_ns,
                                          int64_t start_ns, double seconds) {
  const size_t windows = std::max<size_t>(1, static_cast<size_t>(seconds));
  const double width_ns = seconds * 1e9 / static_cast<double>(windows);
  std::vector<std::vector<double>> out(windows);
  for (size_t i = 0; i < times_ns.size(); ++i) {
    const double offset = static_cast<double>(times_ns[i] - start_ns) / width_ns;
    const size_t w = std::min(windows - 1, static_cast<size_t>(std::max(0.0, offset)));
    out[w].push_back(values.empty() ? 0.0 : values[i]);
  }
  return out;
}

}  // namespace perfbench
