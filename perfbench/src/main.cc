// manirank_load — out-of-process load benchmark for manirank_serve.
//
//   manirank_load --workload W --seed N --seconds S --trace 0|1
//                 --serve-bin PATH --work-dir DIR [--commit ID]
//       Spawns the servers on their own CPUs, sets them up three times
//       (setup_s is the median), drives an open-loop phase (latency) and
//       a closed-loop phase (capacity) from one pinned thread, checks every
//       response against an in-process replay, and prints the end-to-end
//       metrics (--trace 0) or the per-layer metrics (--trace 1, which
//       adds the layer ladder and the layer probes). The last stdout line
//       is the JSON result; a fuller record goes to DIR/results/.
//   manirank_load --probe-fold N
//       Prints the per-ranking cost of one 64-ranking precedence fold at
//       N candidates under this process's MANIRANK_KERNEL (used by the
//       traced run to time each kernel in its own process).

#include <sys/prctl.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/precedence.h"
#include "ladder.h"
#include "load.h"
#include "oracle.h"
#include "proc.h"
#include "streams.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;
  std::string work_dir;
  std::string commit = "unknown";
};

/// The servers of one set-up: the leader, and the follower when the
/// workload has one.
struct Servers {
  ServerProcess leader;
  ServerProcess follower;
  bool has_follower = false;

  std::vector<ServerProcess*> All() {
    std::vector<ServerProcess*> all = {&leader};
    if (has_follower) all.push_back(&follower);
    return all;
  }
  void Stop() {
    for (ServerProcess* p : All()) StopServer(p);
  }
};

std::string Expect(LineClient* client, const std::string& line,
                   const char* what) {
  const std::string response = client->Call(line);
  if (response.rfind("OK", 0) != 0) {
    throw std::runtime_error(std::string(what) + " '" + line.substr(0, 60) +
                             "' failed: " + response);
  }
  return response;
}

std::vector<std::string> LeaderArgs(const WorkloadPlan& plan,
                                    const std::string& log_dir) {
  std::vector<std::string> args = {"--port", "0"};
  if (plan.durable) {
    args.push_back("--log-dir");
    args.push_back(log_dir);
  }
  return args;
}

/// Spawn, load, wait for the follower, warm. Returns the servers; the
/// elapsed seconds go to *seconds.
Servers SetUp(const WorkloadPlan& plan, const Args& args, const CpuLayout& cpus,
              const std::string& dir, double* seconds) {
  fs::remove_all(dir);
  fs::create_directories(dir + "/log");
  const int64_t t0 = NowNs();
  Servers servers;
  servers.leader = SpawnServer(args.serve_bin, LeaderArgs(plan, dir + "/log"),
                               cpus.servers, dir + "/leader.log");
  try {
    LineClient leader(servers.leader.port);
    // One line at a time: pipelining megabytes of APPEND lets the server
    // buffer a timing-dependent amount of them, which shows in peak RSS.
    for (const std::string& line : plan.load) Expect(&leader, line, "load");
    std::unique_ptr<LineClient> follower;
    if (plan.follower) {
      servers.follower = SpawnServer(
          args.serve_bin,
          {"--port", "0", "--follow",
           "127.0.0.1:" + std::to_string(servers.leader.port)},
          cpus.servers, dir + "/follower.log");
      servers.has_follower = true;
      const uint64_t target =
          FieldU64(Expect(&leader, "STATS " + plan.table, "leader"), "generation");
      follower = std::make_unique<LineClient>(servers.follower.port);
      const int64_t deadline = NowNs() + 60'000'000'000LL;
      for (;;) {
        const std::string stats = follower->Call("STATS " + plan.table);
        if (stats.rfind("OK", 0) == 0 && FieldU64(stats, "generation") >= target) break;
        if (NowNs() > deadline) throw std::runtime_error("follower did not catch up");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    for (size_t i = 0; i < plan.warm.size(); ++i) {
      Expect(plan.warm_server[i] == 0 ? &leader : follower.get(), plan.warm[i],
             "warm-up");
    }
  } catch (...) {
    servers.Stop();
    throw;
  }
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return servers;
}

/// Sum of every numeric key=value token of METRICS across the servers.
std::map<std::string, double> ReadMetrics(Servers* servers, std::string* poller) {
  std::map<std::string, double> sum;
  for (ServerProcess* p : servers->All()) {
    LineClient client(p->port);
    std::istringstream in(Expect(&client, "METRICS", "METRICS"));
    std::string token;
    while (in >> token) {
      const size_t eq = token.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "poller") {
        *poller = value;
      } else if (!value.empty() && value.find_first_not_of("0123456789.") ==
                                       std::string::npos) {
        sum[key] += std::atof(value.c_str());
      }
    }
  }
  return sum;
}

std::string Json(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

struct Metric {
  double value;
  const char* unit;
};

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += Quote(name) + ": {\"value\": " + Json(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  return out + "}";
}

const char* UnitOf(const std::string& name) {
  if (name.find("_ratio") != std::string::npos || name.find("share") != std::string::npos ||
      name.find("per_request") != std::string::npos) {
    return "ratio";
  }
  const auto ends_with = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_s")) return "s";
  if (ends_with("_rps")) return "1/s";
  if (ends_with("_pct")) return "%";
  if (ends_with("_mb")) return "MB";
  if (name.find("_us") != std::string::npos) return "us";
  if (name.find("_ms") != std::string::npos) return "ms";
  if (name.find("bytes") != std::string::npos) return "B";
  return "count";
}

/// Jiffies the hypervisor took from this machine's CPUs (steal column of
/// /proc/stat), and all jiffies, so far.
std::pair<double, double> StealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0;
  double steal = 0.0;
  for (int i = 0; i < 8; ++i) {
    double v = 0.0;
    in >> v;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

int Run(const Args& args) {
  const CpuLayout cpus = PlanCpus();
  PinSelf(cpus.generator);
  // Timer slack bounds how late the open-loop schedule wakes up.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const WorkloadPlan plan = MakePlan(args.workload, args.seed, args.seconds);
  const uint64_t stream_hash = PlanHash(plan);
  const std::string work = args.work_dir + "/" + plan.name;
  fs::create_directories(work);

  // Set up at least three times and for at least 1.5 s, so a cheap
  // set-up's median rests on as much time as a heavy one's; the last set
  // of servers carries the load.
  std::vector<double> setup_s;
  Servers servers;
  double setup_total_s = 0.0;
  for (;;) {
    double seconds = 0.0;
    Servers s = SetUp(plan, args, cpus, work + "/setup", &seconds);
    setup_s.push_back(seconds);
    setup_total_s += seconds;
    if (setup_s.size() >= 15 || (setup_s.size() >= 3 && setup_total_s >= 1.5)) {
      servers = s;
      break;
    }
    s.Stop();
  }

  LoadResult result;
  std::vector<LiveConn> conns(plan.conns.size());
  std::string poller;
  std::map<std::string, double> before;
  std::map<std::string, double> after;
  double open_cpu_ms = 0.0;
  double open_requests = 0.0;
  double peak_rss_mb = 0.0;
  double rankings_per_fold = 0.0;
  double recovery_s = 0.0;
  double steal_pct = 0.0;
  std::string recovery_response;
  std::string recovery_probe;
  try {
    before = ReadMetrics(&servers, &poller);
    const auto server_cpu_ms = [&] {
      double ms = 0.0;
      for (ServerProcess* p : servers.All()) ms += CpuMs(p->pid);
      return ms;
    };
    const double cpu_before = server_cpu_ms();
    for (size_t c = 0; c < conns.size(); ++c) {
      conns[c].stream = &plan.conns[c];
      conns[c].fd = ConnectNonBlocking(plan.conns[c].server == 0
                                           ? servers.leader.port
                                           : servers.follower.port);
    }
    const auto steal0 = StealJiffies();
    RunPhase(&conns, /*open=*/true, plan.open_seconds, &result);
    // The open-loop phase is a fixed set of requests, so its CPU cost per
    // request does not depend on how fast the host let the servers run.
    open_requests = static_cast<double>(result.attempted);
    open_cpu_ms = server_cpu_ms() - cpu_before;
    // Peak memory after the same fixed request set: the closed loop's
    // request count (and so how much a write workload grows its tables)
    // depends on the host's speed.
    for (ServerProcess* p : servers.All()) peak_rss_mb += PeakRssMb(p->pid);
    RunPhase(&conns, /*open=*/false, plan.closed_seconds, &result);
    const auto steal1 = StealJiffies();
    steal_pct = 100.0 * (steal1.first - steal0.first) /
                std::max(1.0, steal1.second - steal0.second);
    for (LiveConn& conn : conns) ::close(conn.fd);
    after = ReadMetrics(&servers, &poller);
    {
      LineClient leader(servers.leader.port);
      double rankings = 0.0;
      double batches = 0.0;
      std::istringstream names(Expect(&leader, "TABLES", "TABLES"));
      std::string token;
      names >> token >> token >> token;  // "OK TABLES <count>"
      while (names >> token) {
        const std::string stats = Expect(&leader, "STATS " + token, "STATS");
        rankings += static_cast<double>(FieldU64(stats, "applied_rankings"));
        batches += static_cast<double>(FieldU64(stats, "applied_batches"));
      }
      rankings_per_fold = batches > 0 ? rankings / batches : 0.0;
      if (plan.durable && !plan.follower) {
        // Recovery: a RUN that commits every queued APPEND, SIGTERM, a
        // restart on the same log directory, and the same RUN again.
        recovery_probe = "RUN " + plan.table + " A4";
        recovery_response = Expect(&leader, recovery_probe, "pre-restart RUN");
      }
    }
    if (!recovery_probe.empty()) {
      StopServer(&servers.leader);
      const int64_t t0 = NowNs();
      servers.leader = SpawnServer(args.serve_bin, servers.leader.args,
                                   cpus.servers, work + "/restart.log");
      LineClient client(servers.leader.port);
      const std::string again = client.Call(recovery_probe);
      recovery_s = static_cast<double>(NowNs() - t0) / 1e9;
      if (again != recovery_response) {
        result.Fail("restarted server answered '" + again.substr(0, 80) +
                    "' instead of '" + recovery_response.substr(0, 80) + "'");
      }
    }
  } catch (...) {
    servers.Stop();
    throw;
  }
  servers.Stop();

  // The oracle runs after the servers are gone, on every CPU.
  PinSelf(cpus.all);
  const OracleOutcome oracle = RunOracle(plan, conns, recovery_probe, 4, &result);
  if (!recovery_probe.empty() && oracle.final_probe_response != recovery_response) {
    result.Fail("pre-restart RUN differs from the replay: " +
                recovery_response.substr(0, 80));
  }

  // Follower lag: leader FLUSH ack at generation g until a follower STATS
  // shows generation >= g.
  std::vector<double> lag_ms;
  {
    auto observations = result.follower_generations;
    std::sort(observations.begin(), observations.end());
    size_t from = 0;
    for (size_t i = 0; i < result.flush_acks.size() &&
                       i < oracle.generation_after_flush.size();
         ++i) {
      const int64_t ack = result.flush_acks[i];
      while (from < observations.size() && observations[from].first < ack) ++from;
      for (size_t j = from; j < observations.size(); ++j) {
        if (observations[j].second >= oracle.generation_after_flush[i]) {
          lag_ms.push_back(static_cast<double>(observations[j].first - ack) / 1e6);
          break;
        }
      }
    }
  }

  const double served = after["served"] - before["served"];
  const auto delta = [&](const std::string& key) { return after[key] - before[key]; };
  // Reported alongside the contract metrics (not every workload issues
  // every verb, and latency does not hold a bound on a shared host).
  std::vector<std::string> report;
  std::map<std::string, double> extra;
  // Latency and throughput are medians over one-second windows, so a
  // short stall of the host moves one window, not the run's figure.
  std::vector<double> window_p50;
  std::vector<double> window_p99;
  for (const std::vector<double>& w :
       ByWindow(result.open_ms, result.open_due_ns, result.open_start_ns,
                plan.open_seconds)) {
    if (w.empty()) continue;
    window_p50.push_back(Percentile(w, 0.5));
    window_p99.push_back(Percentile(w, 0.99));
  }
  std::vector<double> window_rps;
  for (const std::vector<double>& w :
       ByWindow({}, result.closed_done_ns, result.closed_start_ns,
                plan.closed_seconds)) {
    window_rps.push_back(static_cast<double>(w.size()) *
                         std::max(1.0, std::floor(plan.closed_seconds)) /
                         plan.closed_seconds);
  }
  // The bounded end-to-end set holds what stays steady on a shared host:
  // hypervisor steal (10-25% during load on the 4-vCPU reference host)
  // moves latency and throughput by 30-200% between identical runs, so
  // those are reported with the traced run's client metrics instead.
  std::map<std::string, Metric> e2e = {
      {"setup_s", {Percentile(setup_s, 0.5), "s"}},
      {"cpu_ms_per_req", {open_cpu_ms / open_requests, "ms"}},
      {"peak_rss_mb", {peak_rss_mb, "MB"}},
  };
  const double latency_p50_ms = Percentile(window_p50, 0.5);
  const double latency_p99_ms = Percentile(window_p99, 0.5);
  const double throughput_rps = Percentile(window_rps, 0.5);
  extra["latency_p50_ms"] = latency_p50_ms;
  extra["latency_p99_ms"] = latency_p99_ms;
  extra["throughput_rps"] = throughput_rps;
  extra["steal_pct"] = steal_pct;

  for (int v = 0; v < kNumVerbs; ++v) {
    const std::vector<double>& samples = result.open_ms_by_verb[v];
    if (samples.empty()) continue;
    std::ostringstream line;
    line << "verb " << VerbName(v) << " n=" << samples.size();
    for (const auto& [p, tag] : {std::pair<double, const char*>{0.5, "p50"},
                                 std::pair<double, const char*>{0.99, "p99"}}) {
      if (!PercentileValid(samples.size(), p)) continue;
      const double ms = Percentile(samples, p);
      extra[std::string(VerbName(v)) + "_" + tag + "_ms"] = ms;
      line << " " << tag << "_ms=" << ms;
    }
    report.push_back(line.str());
  }
  if (!recovery_probe.empty()) extra["recovery_s"] = recovery_s;
  if (plan.follower) {
    if (PercentileValid(lag_ms.size(), 0.5)) extra["follower_lag_p50_ms"] = Percentile(lag_ms, 0.5);
    if (PercentileValid(lag_ms.size(), 0.99)) extra["follower_lag_p99_ms"] = Percentile(lag_ms, 0.99);
    extra["replica.lag_generations_max"] = static_cast<double>(result.lag_generations_max);
  }
  extra["error_ratio"] =
      static_cast<double>(result.failed) / static_cast<double>(result.attempted);

  std::map<std::string, double> layer;
  if (args.trace) {
    layer["loadgen.late_p99_ms"] = Percentile(result.late_ms, 0.99);
    layer["executor.inline_ratio"] = delta("inline") / served;
    layer["executor.parked_drains"] = delta("parked_drains");
    layer["executor.backpressure_stalls"] = delta("backpressure_stalls");
    layer["protocol.bytes_in_per_req"] = delta("bytes_in") / served;
    layer["protocol.bytes_out_per_req"] = delta("bytes_out") / served;
    const double hits = delta("result_cache_hits");
    const double misses = delta("result_cache_misses");
    layer["result_cache.hits"] = hits;
    layer["result_cache.misses"] = misses;
    layer["result_cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    layer["result_cache.misses_per_request"] = misses / served;
    layer["loadgen.latency_p50_ms"] = latency_p50_ms;
    layer["loadgen.latency_p99_ms"] = latency_p99_ms;
    layer["loadgen.throughput_rps"] = throughput_rps;
    layer["loadgen.steal_pct"] = steal_pct;
    layer["manager.rankings_per_fold"] = rankings_per_fold;
    layer["lp.ilp_share"] =
        result.selects > 0 ? static_cast<double>(result.ilp_selects) /
                                 static_cast<double>(result.selects)
                           : 0.0;
    TraceSetup trace;
    trace.plan = &plan;
    trace.serve_bin = args.serve_bin;
    trace.self_exe = fs::read_symlink("/proc/self/exe").string();
    trace.server_cpus = cpus.servers;
    trace.work_dir = work + "/trace";
    fs::create_directories(trace.work_dir);
    PinSelf(cpus.generator);
    const std::string span_path = args.work_dir + "/spans/" + plan.name + "-s" +
                                  std::to_string(args.seed) + ".jsonl";
    RunLadder(trace, span_path, &layer, &report);
    RunProbes(trace, &layer);
    report.push_back("spans " + span_path);
  }

  utsname host{};
  ::uname(&host);
  std::ostringstream meta;
  meta << "{\"workload\": " << Quote(plan.name) << ", \"seed\": " << args.seed
       << ", \"seconds\": " << Json(args.seconds)
       << ", \"stream_hash\": \"" << std::hex << stream_hash << std::dec << "\""
       << ", \"commit\": " << Quote(args.commit)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"kernel\": " << Quote(std::string(host.sysname) + " " + host.release)
       << ", \"poller\": " << Quote(poller)
       << ", \"precedence_kernel\": "
       << Quote(manirank::PrecedenceMatrix::ActiveKernelName())
       << ", \"generator_cpus\": " << Quote(CpuList(cpus.generator))
       << ", \"server_cpus\": " << Quote(CpuList(cpus.servers))
       << ", \"log_dir_fs\": " << Quote(plan.durable ? FsType(work) : "none")
       << ", \"server_flags\": "
       << Quote(std::string("--port 0") + (plan.durable ? " --log-dir DIR" : "") +
                (plan.follower ? "; follower: --port 0 --follow HOST:PORT" : ""))
       << ", \"open_rate_rps\": " << Json([&] {
            double r = 0;
            for (const ConnStream& c : plan.conns) r += c.open_rate_rps;
            return r;
          }())
       << ", \"steal_pct\": " << Json(steal_pct)
       << ", \"open_samples\": " << result.open_ms.size()
       << ", \"compared\": " << oracle.compared << "}";

  std::cout << "workload " << plan.name << " seed " << args.seed
            << " stream_hash " << std::hex << stream_hash << std::dec << "\n";
  std::cout << "meta " << meta.str() << "\n";
  for (const auto& [name, m] : e2e) {
    std::cout << "metric " << name << " " << Json(m.value) << " " << m.unit << "\n";
  }
  for (const auto& [name, v] : extra) {
    std::cout << "metric " << name << " " << Json(v) << " " << UnitOf(name) << "\n";
  }
  for (const std::string& line : report) std::cout << line << "\n";
  for (const std::string& why : result.failures) std::cout << "failure " << why << "\n";

  std::map<std::string, Metric> layer_metrics;
  for (const auto& [name, v] : layer) layer_metrics[name] = {v, UnitOf(name)};
  std::map<std::string, Metric> all = e2e;
  for (const auto& [name, v] : extra) all[name] = {v, UnitOf(name)};
  for (const auto& [name, m] : layer_metrics) all[name] = m;
  fs::create_directories(args.work_dir + "/results");
  std::ofstream(args.work_dir + "/results/" + plan.name + "-s" +
                std::to_string(args.seed) + "-t" + (args.trace ? "1" : "0") +
                ".json")
      << "{\"meta\": " << meta.str() << ", \"correct\": "
      << (result.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
      << ", \"metrics\": " << MetricsJson(all) << "}\n";

  std::cout << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": "
            << MetricsJson(args.trace ? layer_metrics : e2e) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // The generator's own library calls (oracle, ladder, probes) run one
  // thread each; servers get a clean environment (see SpawnServer).
  ::setenv("MANIRANK_THREADS", "1", 1);
  std::vector<std::string> a(argv + 1, argv + argc);
  try {
    if (a.size() == 2 && a[0] == "--probe-fold") {
      std::cout << perfbench::ProbeFoldUsPerRanking(std::stoi(a[1])) << "\n";
      return 0;
    }
    ::unsetenv("MANIRANK_KERNEL");
    ::unsetenv("MANIRANK_POLLER");
    perfbench::Args args;
    for (size_t i = 0; i + 1 < a.size(); i += 2) {
      const std::string& flag = a[i];
      const std::string& value = a[i + 1];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--serve-bin") {
        args.serve_bin = value;
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (a.size() % 2 != 0 || args.workload.empty() || args.serve_bin.empty() ||
        args.work_dir.empty() || !(args.seconds > 0)) {
      throw std::invalid_argument(
          "usage: manirank_load --workload W --seed N --seconds S --trace 0|1 "
          "--serve-bin PATH --work-dir DIR [--commit ID]");
    }
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::cerr << "manirank_load: " << e.what() << "\n";
    return 1;
  }
}
