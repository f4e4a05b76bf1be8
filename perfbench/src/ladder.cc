#include "ladder.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/aggregators.h"
#include "core/candidate_table.h"
#include "core/distance.h"
#include "core/fair_select.h"
#include "core/fairness_metrics.h"
#include "core/make_mr_fair.h"
#include "core/precedence.h"
#include "core/selection_metrics.h"
#include "data/op_log.h"
#include "data/synthetic.h"
#include "load.h"
#include "proc.h"
#include "serve/context_manager.h"
#include "serve/durability.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using manirank::CandidateTable;
using manirank::PrecedenceMatrix;
using manirank::Ranking;
using manirank::serve::ContextManager;
using manirank::serve::Dispatcher;
using manirank::serve::SelectConstraintSpec;
using manirank::serve::SelectQuery;

/// Requests per connection the ladder replays.
constexpr size_t kLadderPerConn = 80;

enum Rung { kCore, kManager, kDispatcher, kTcp, kNumRungs };
const char* const kRungNames[] = {"core", "manager", "protocol", "executor"};

struct Span {
  size_t request = 0;
  int rung = 0;
  const char* name = "";
  int64_t start = 0;
  int64_t end = 0;
};

/// One ladder request, parsed up front so no rung pays for it twice.
struct Request {
  std::string line;
  Verb verb = kOther;
  std::string table;
  std::string method;
  std::vector<Ranking> rankings;
  std::optional<Ranking> ranking;
  SelectQuery query;
};

std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == ' ' || c == ';') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
      if (c == ';') tokens.emplace_back(";");
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

Request Parse(const std::string& line) {
  Request req;
  req.line = line;
  req.verb = VerbOf(line);
  const std::vector<std::string> t = Tokens(line);
  req.table = t.size() > 1 ? t[1] : "";
  auto ids = [&](size_t begin, size_t end) {
    std::vector<manirank::CandidateId> order;
    for (size_t i = begin; i < end; ++i) order.push_back(std::atoi(t[i].c_str()));
    return Ranking(std::move(order));
  };
  switch (req.verb) {
    case kRun:
      req.method = t[2];
      break;
    case kAppend: {
      size_t begin = 2;
      for (size_t i = 2; i <= t.size(); ++i) {
        if (i == t.size() || t[i] == ";") {
          req.rankings.push_back(ids(begin, i));
          begin = i + 1;
        }
      }
      break;
    }
    case kEval:
      req.ranking = ids(2, t.size());
      break;
    case kSelect: {
      req.query.k = std::atoi(t[2].c_str());
      for (size_t i = 3; i < t.size();) {
        SelectConstraintSpec spec;
        if (t[i] == "ATTR") {
          spec.attribute = std::atoi(t[i + 1].c_str());
          ++i;
        } else {
          spec.attribute = SelectConstraintSpec::kIntersection;
        }
        spec.group = std::atoi(t[i + 1].c_str());
        spec.min_count = std::atoi(t[i + 2].c_str());
        spec.max_count = std::atoi(t[i + 3].c_str());
        req.query.constraints.push_back(spec);
        i += 4;
      }
      break;
    }
    default:
      break;
  }
  return req;
}

/// Rung 1: the core functions a request needs, against a per-table
/// emulation of the context's state (Borda points, precedence matrix,
/// pending batch) and of a result cache that never evicts. Work the real
/// manager does beyond this (evictions, recomputes) shows up as manager
/// self time.
class CoreRung {
 public:
  explicit CoreRung(std::vector<Span>* spans) : spans_(spans) {}

  void Handle(const Request& req, size_t id) {
    id_ = id;
    if (req.verb == kOther && req.line.rfind("CREATE", 0) == 0) {
      const std::vector<std::string> t = Tokens(req.line);
      auto table = std::make_unique<Table>();
      table->table = std::make_unique<CandidateTable>(manirank::MakeCyclicTable(
          std::atoi(t[3].c_str()), std::atoi(t[4].c_str()),
          std::atoi(t[5].c_str())));
      table->points.assign(static_cast<size_t>(table->table->num_candidates()), 0);
      tables_[t[1]] = std::move(table);
      return;
    }
    const auto it = tables_.find(req.table);
    if (it == tables_.end()) return;
    Table& t = *it->second;
    switch (req.verb) {
      case kAppend:
        t.pending.insert(t.pending.end(), req.rankings.begin(), req.rankings.end());
        break;
      case kFlush:
        Fold(&t);
        break;
      case kRun:
        Fold(&t);
        if (req.method == "A3") {
          A3(&t, "run:A3");
        } else {
          A4(&t);
        }
        break;
      case kEval: {
        const Ranking& consensus = A3(&t, "A3");
        Timed("KendallTau", [&] {
          manirank::KendallTau(*req.ranking, consensus);
          manirank::NormalizedKendallTau(*req.ranking, consensus);
        });
        Timed("EvaluateFairness",
              [&] { manirank::EvaluateFairness(*req.ranking, *t.table); });
        break;
      }
      case kSelect: {
        const Ranking& consensus = A3(&t, "A3");
        if (t.memo.count(req.line) != 0) break;
        std::vector<manirank::SelectConstraint> constraints;
        for (const SelectConstraintSpec& s : req.query.constraints) {
          const manirank::Grouping* g =
              s.attribute == SelectConstraintSpec::kIntersection
                  ? &t.table->intersection_grouping()
                  : &t.table->attribute_grouping(s.attribute);
          constraints.push_back({g, s.group, s.min_count, s.max_count});
        }
        manirank::FairSelectResult result;
        Timed("FairTopKSelect", [&] {
          manirank::FairSelectOptions options;
          options.time_limit_seconds = 2.0;
          result = manirank::FairTopKSelect(consensus, req.query.k,
                                            constraints, options);
        });
        Timed("AdverseImpactRatio", [&] {
          std::vector<manirank::CandidateId> order = result.selected;
          std::vector<char> in(static_cast<size_t>(t.table->num_candidates()), 0);
          for (auto c : order) in[static_cast<size_t>(c)] = 1;
          for (int c = 0; c < t.table->num_candidates(); ++c) {
            if (!in[static_cast<size_t>(c)]) order.push_back(c);
          }
          const Ranking slate(std::move(order));
          for (const manirank::Grouping* g : t.table->constrained_groupings()) {
            manirank::AdverseImpactRatio(slate, *g, req.query.k);
          }
        });
        t.memo.emplace(req.line, consensus);
        break;
      }
      default:
        break;
    }
  }

 private:
  struct Table {
    std::unique_ptr<CandidateTable> table;
    std::vector<Ranking> profile;
    std::vector<Ranking> pending;
    std::vector<int64_t> points;
    std::optional<PrecedenceMatrix> w;
    std::map<std::string, Ranking> memo;
  };

  void Timed(const char* name, const std::function<void()>& fn) {
    const int64_t start = NowNs();
    fn();
    spans_->push_back({id_, kCore, name, start, NowNs()});
  }

  void Fold(Table* t) {
    if (t->pending.empty()) return;
    if (t->w.has_value()) {
      Timed("AddRankingsBatch", [&] { t->w->AddRankingsBatch(t->pending); });
    }
    Timed("BordaPoints", [&] {
      const int n = t->table->num_candidates();
      for (const Ranking& r : t->pending) {
        for (int p = 0; p < n; ++p) {
          t->points[static_cast<size_t>(r.At(p))] += n - 1 - p;
        }
      }
    });
    t->profile.insert(t->profile.end(), t->pending.begin(), t->pending.end());
    t->pending.clear();
    t->memo.clear();
  }

  const Ranking& A3(Table* t, const std::string& key) {
    auto it = t->memo.find(key);
    if (it != t->memo.end()) return it->second;
    Ranking consensus;
    Timed("BordaFromPoints", [&] { consensus = manirank::BordaFromPoints(t->points); });
    Timed("MakeMrFair", [&] {
      consensus = manirank::MakeMrFair(consensus, *t->table).ranking;
    });
    return t->memo.emplace(key, std::move(consensus)).first->second;
  }

  void A4(Table* t) {
    if (t->memo.count("run:A4") != 0) return;
    if (!t->w.has_value()) {
      Timed("PrecedenceBuild",
            [&] { t->w.emplace(PrecedenceMatrix::Build(t->profile)); });
    }
    Ranking consensus;
    Timed("CopelandAggregate",
          [&] { consensus = manirank::CopelandAggregate(*t->w); });
    Timed("MakeMrFair", [&] {
      consensus = manirank::MakeMrFair(consensus, *t->table).ranking;
    });
    t->memo.emplace("run:A4", std::move(consensus));
  }

  std::vector<Span>* spans_;
  size_t id_ = 0;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

void ManagerCall(ContextManager* m, const Request& req) {
  switch (req.verb) {
    case kAppend:
      m->Append(req.table, req.rankings);
      break;
    case kFlush:
      m->Flush(req.table);
      break;
    case kRun: {
      manirank::ConsensusOptions options;
      options.time_limit_seconds = 30.0;  // what the protocol's RUN passes
      m->Run(req.table, req.method, options);
      break;
    }
    case kEval:
      m->Eval(req.table, *req.ranking);
      break;
    case kSelect:
      m->Select(req.table, req.query);
      break;
    case kStats:
      m->Stats(req.table);
      break;
    default:
      break;
  }
}

std::vector<std::string> ServerArgs(const WorkloadPlan& plan,
                                    const std::string& log_dir) {
  std::vector<std::string> args = {"--port", "0"};
  if (plan.durable) {
    fs::remove_all(log_dir);
    fs::create_directories(log_dir);
    args.push_back("--log-dir");
    args.push_back(log_dir);
  }
  return args;
}

/// Rung 4: the sample over loopback to a fresh server, one request at a
/// time, one span per request.
void TcpPass(const TraceSetup& setup, const std::vector<Request>& sample,
             std::vector<Span>* spans) {
  const WorkloadPlan& plan = *setup.plan;
  ServerProcess server =
      SpawnServer(setup.serve_bin, ServerArgs(plan, setup.work_dir + "/ladder"),
                  setup.server_cpus, setup.work_dir + "/ladder.log");
  try {
    LineClient client(server.port);
    for (const std::string& line : plan.load) client.Call(line);
    for (const std::string& line : plan.warm) client.Call(line);
    for (size_t i = 0; i < sample.size(); ++i) {
      const int64_t t0 = NowNs();
      client.Call(sample[i].line);
      spans->push_back({i, kTcp, "request", t0, NowNs()});
    }
  } catch (...) {
    StopServer(&server);
    throw;
  }
  StopServer(&server);
}

/// Cost of recording one span (two clock reads and an append), measured
/// over a large batch so the clock's own resolution does not matter.
double SpanCostNs() {
  std::vector<Span> spans;
  spans.reserve(100000);
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < 100000; ++i) {
    const int64_t start = NowNs();
    spans.push_back({i, kTcp, "request", start, NowNs()});
  }
  return static_cast<double>(NowNs() - t0) / 100000.0;
}

/// Median microseconds of `fn` over at least 3 calls and ~0.2 s.
double MedianUs(const std::function<void()>& fn) {
  std::vector<double> us;
  const int64_t budget_end = NowNs() + 200'000'000;
  while (us.size() < 3 || (NowNs() < budget_end && us.size() < 200)) {
    const int64_t t0 = NowNs();
    fn();
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Percentile(us, 0.5);
}

}  // namespace

void RunLadder(const TraceSetup& setup, const std::string& span_path,
               std::map<std::string, double>* metrics,
               std::vector<std::string>* report) {
  const WorkloadPlan& plan = *setup.plan;
  std::vector<Request> prologue;
  for (const std::string& line : plan.load) prologue.push_back(Parse(line));
  for (const std::string& line : plan.warm) prologue.push_back(Parse(line));
  // One connection at a time: each connection's first requests in order.
  std::vector<Request> sample;
  for (const ConnStream& conn : plan.conns) {
    for (size_t i = 0; i < std::min(kLadderPerConn, conn.lines.size()); ++i) {
      sample.push_back(Parse(conn.lines[i]));
    }
  }
  std::vector<Span> spans;
  spans.reserve(sample.size() * 8);

  {
    CoreRung core(&spans);
    // The prologue only brings each rung to the state the servers start
    // the sample from; its spans are dropped.
    for (const Request& req : prologue) core.Handle(req, 0);
    spans.clear();
    for (size_t i = 0; i < sample.size(); ++i) core.Handle(sample[i], i);
  }
  {
    ContextManager manager;
    Dispatcher prologue_dispatcher(&manager);
    for (const Request& req : prologue) prologue_dispatcher.Handle(req.line);
    for (size_t i = 0; i < sample.size(); ++i) {
      const int64_t t0 = NowNs();
      ManagerCall(&manager, sample[i]);
      spans.push_back({i, kManager, "request", t0, NowNs()});
    }
  }
  {
    ContextManager manager;
    Dispatcher dispatcher(&manager);
    for (const Request& req : prologue) dispatcher.Handle(req.line);
    for (size_t i = 0; i < sample.size(); ++i) {
      const int64_t t0 = NowNs();
      dispatcher.Handle(sample[i].line);
      spans.push_back({i, kDispatcher, "request", t0, NowNs()});
    }
  }
  TcpPass(setup, sample, &spans);

  // Per-request rung times (core: the sum of its function spans).
  std::vector<std::array<double, kNumRungs>> rung_us(sample.size());
  for (auto& r : rung_us) r.fill(0.0);
  for (const Span& s : spans) {
    rung_us[s.request][s.rung] += static_cast<double>(s.end - s.start) / 1e3;
  }
  // Self time of a layer = its rung minus the rung below, per verb;
  // negative differences are clamped and reported as residue.
  std::array<std::array<double, kNumRungs>, kNumVerbs> sum{};
  std::array<size_t, kNumVerbs> count{};
  for (size_t i = 0; i < sample.size(); ++i) {
    ++count[sample[i].verb];
    for (int r = 0; r < kNumRungs; ++r) sum[sample[i].verb][r] += rung_us[i][r];
  }
  std::array<double, kNumRungs> self_total{};
  double e2e_total = 0.0;
  double residue_total = 0.0;
  for (int v = 0; v < kNumVerbs; ++v) {
    if (count[v] == 0) continue;
    std::ostringstream line;
    line << "ladder " << VerbName(v) << " n=" << count[v];
    double below = 0.0;
    double self_sum = 0.0;
    for (int r = 0; r < kNumRungs; ++r) {
      const double mean = sum[v][r] / static_cast<double>(count[v]);
      const double self = std::max(0.0, mean - below);
      below = mean;
      self_sum += self;
      self_total[r] += self * static_cast<double>(count[v]);
      line << " " << kRungNames[r] << ".self_us=" << self;
    }
    const double e2e = sum[v][kTcp] / static_cast<double>(count[v]);
    e2e_total += e2e * static_cast<double>(count[v]);
    residue_total += (self_sum - e2e) * static_cast<double>(count[v]);
    line << " e2e_us=" << e2e;
    report->push_back(line.str());
  }
  const double n = static_cast<double>(sample.size());
  for (int r = 0; r < kNumRungs; ++r) {
    (*metrics)[std::string(kRungNames[r]) + ".self_us"] = self_total[r] / n;
  }
  (*metrics)["ladder.residue_ratio"] = residue_total / e2e_total;
  // The instrumentation is the benchmark's own span recording around each
  // call; its cost per request (spans recorded x cost per span) over the
  // traced end-to-end time. A differential measurement (traced pass vs an
  // untraced pass on a second fresh server) drowns this in run-to-run
  // noise for the stateful workloads, whose passes cannot share a server.
  (*metrics)["trace.overhead_ratio"] =
      SpanCostNs() * static_cast<double>(spans.size()) / 1e3 / e2e_total;

  fs::create_directories(fs::path(span_path).parent_path());
  std::ofstream out(span_path);
  for (const Span& s : spans) {
    out << "{\"request\":" << s.request << ",\"verb\":\""
        << VerbName(sample[s.request].verb) << "\",\"layer\":\""
        << kRungNames[s.rung] << "\",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end << "}\n";
  }
}

double ProbeFoldUsPerRanking(int n) {
  const std::vector<std::vector<int>> ids = BaseProfile(n, 64 * 4, 7);
  std::vector<Ranking> rankings;
  for (const std::vector<int>& r : ids) {
    rankings.emplace_back(std::vector<manirank::CandidateId>(r.begin(), r.end()));
  }
  PrecedenceMatrix w = PrecedenceMatrix::Zero(n);
  size_t batch = 0;
  const double us = MedianUs([&] {
    w.AddRankingsBatch(rankings.data() + 64 * (batch++ % 4), 64);
  });
  return us / 64.0;
}

void RunProbes(const TraceSetup& setup, std::map<std::string, double>* metrics) {
  const WorkloadPlan& plan = *setup.plan;
  const int n = plan.n;
  const CandidateTable table = manirank::MakeCyclicTable(n, 2, 3);
  const std::vector<std::vector<int>> ids =
      BaseProfile(n, plan.base_rankings, plan.profile_seed);
  std::vector<Ranking> profile;
  for (const std::vector<int>& r : ids) {
    profile.emplace_back(std::vector<manirank::CandidateId>(r.begin(), r.end()));
  }
  auto& m = *metrics;

  // Precedence folds: the kernel this process resolves to, then each
  // kernel in its own process (MANIRANK_KERNEL is read once per process).
  m["core.precedence_fold_us_per_ranking"] = ProbeFoldUsPerRanking(n);
  for (const char* kernel : {"scalar", "portable", "avx2"}) {
    const std::string out_path = setup.work_dir + "/fold-" + kernel + ".txt";
    const std::string cmd = "MANIRANK_KERNEL=" + std::string(kernel) + " '" +
                            setup.self_exe + "' --probe-fold " +
                            std::to_string(n) + " > '" + out_path + "' 2>&1";
    if (std::system(cmd.c_str()) != 0) {
      throw std::runtime_error("fold probe failed for kernel " +
                               std::string(kernel));
    }
    std::ifstream in(out_path);
    double us = 0.0;
    in >> us;
    m[std::string("core.precedence_fold_us_per_ranking.") + kernel] = us;
  }

  PrecedenceMatrix w;
  m["core.precedence_build_ms"] =
      MedianUs([&] { w = PrecedenceMatrix::Build(profile); }) / 1e3;
  m["core.copeland_us"] = MedianUs([&] { manirank::CopelandAggregate(w); });
  std::vector<int64_t> points(static_cast<size_t>(n), 0);
  for (const Ranking& r : profile) {
    for (int p = 0; p < n; ++p) points[static_cast<size_t>(r.At(p))] += n - 1 - p;
  }
  Ranking borda;
  m["core.borda_us"] = MedianUs([&] { borda = manirank::BordaFromPoints(points); });
  Ranking fair;
  m["core.mmf_repair_us"] =
      MedianUs([&] { fair = manirank::MakeMrFair(borda, table).ranking; });
  const Ranking& submitted = profile.back();
  m["core.kendall_tau_us"] = MedianUs([&] {
    manirank::KendallTau(submitted, fair);
    manirank::NormalizedKendallTau(submitted, fair);
  });
  m["core.eval_fairness_us"] =
      MedianUs([&] { manirank::EvaluateFairness(submitted, table); });
  const manirank::Grouping& a0 = table.attribute_grouping(0);
  const manirank::Grouping& a1 = table.attribute_grouping(1);
  const manirank::Grouping& inter = table.intersection_grouping();
  const int k = std::min(20, n / 2);
  m["core.select_greedy_us"] = MedianUs([&] {
    manirank::FairTopKSelect(fair, k, {{&a0, 1, k / 2, k / 2}});
  });
  // The select_flood trap shape (attribute-0 group X capped at b, an
  // intersection group inside X needing b, an attribute-1 group Y needing
  // c): whether greedy walks into it depends on the consensus order, so
  // search the shapes in a fixed order for the first that reaches an
  // optimal branch and bound.
  manirank::FairSelectOptions options;
  options.time_limit_seconds = 2.0;
  std::vector<manirank::SelectConstraint> trap;
  int trap_k = 0;
  for (size_t i = 0; i < std::min<size_t>(50, a0.members[0].size()) && trap_k == 0; ++i) {
    const manirank::CandidateId in_x = a0.members[0][i];
    const int h = inter.group_of[static_cast<size_t>(in_x)];
    for (int dy = 1; dy <= 2 && trap_k == 0; ++dy) {
      const int y = (a1.group_of[static_cast<size_t>(in_x)] + dy) % 3;
      for (int b = 3; b <= 8 && trap_k == 0; ++b) {
        for (const int c : {b, 2 * b, 20, 40}) {
          const int k = b + c + 10;
          const std::vector<manirank::SelectConstraint> shape = {
              {&a0, 0, 0, b}, {&inter, h, b, b}, {&a1, y, c, k}};
          const manirank::FairSelectResult r =
              manirank::FairTopKSelect(fair, k, shape, options);
          if (r.used_ilp && r.optimal) {
            trap = shape;
            trap_k = k;
            break;
          }
        }
      }
    }
  }
  if (trap_k == 0) {
    throw std::runtime_error("no SELECT shape reached branch and bound");
  }
  m["lp.select_ilp_us"] =
      MedianUs([&] { manirank::FairTopKSelect(fair, trap_k, trap, options); });

  // Durability: the same 64-ranking backlog flushed with and without the
  // op-log hook; the difference is the commit (record write + fdatasync).
  const std::string dir = setup.work_dir + "/durability-probe";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::vector<std::vector<int>> fresh_ids = BaseProfile(n, 64 * 8, 11);
  std::vector<Ranking> fresh;
  for (const std::vector<int>& r : fresh_ids) {
    fresh.emplace_back(std::vector<manirank::CandidateId>(r.begin(), r.end()));
  }
  const std::vector<Ranking> base(profile.begin(),
                                  profile.begin() + std::min<size_t>(256, profile.size()));
  auto flush_ms = [&](ContextManager* manager, uint64_t* log_bytes,
                      manirank::serve::DurabilityManager* durability) {
    manager->Create("p", manirank::MakeCyclicTable(n, 2, 3), base);
    // A4 builds the precedence matrix, so each fold also pays the
    // bit-sliced precedence delta, as on ingest_fold.
    manager->Run("p", "A4");
    std::vector<double> ms;
    const uint64_t bytes0 =
        durability != nullptr ? durability->StatsFor("p")->log_bytes : 0;
    for (size_t i = 0; i < 8; ++i) {
      manager->Append("p", std::vector<Ranking>(fresh.begin() + 64 * i,
                                                fresh.begin() + 64 * (i + 1)));
      const int64_t t0 = NowNs();
      manager->Flush("p");
      ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }
    if (durability != nullptr) {
      *log_bytes = durability->StatsFor("p")->log_bytes - bytes0;
    }
    return Percentile(ms, 0.5);
  };
  uint64_t log_bytes = 0;
  double without = 0.0;
  double with = 0.0;
  {
    ContextManager manager;
    without = flush_ms(&manager, nullptr, nullptr);
  }
  {
    ContextManager manager;
    manirank::serve::DurabilityManager durability(dir, &manager);
    durability.ColdStart();
    durability.Attach();
    with = flush_ms(&manager, &log_bytes, &durability);
    manager.SetDurabilityHook(nullptr);
  }
  m["manager.drain_ms"] = without;
  m["durability.commit_ms"] = with - without;
  m["durability.log_bytes_per_ranking"] =
      static_cast<double>(log_bytes) / static_cast<double>(fresh.size());
  {
    ContextManager manager;
    manirank::serve::DurabilityManager durability(dir, &manager);
    const auto restored = durability.ColdStart();
    m["durability.replay_ms"] = restored.empty() ? 0.0 : restored[0].replay_ms;
  }

  // Replication apply: one 16-ranking record per fold on a follower
  // table, the way a FollowerClient session applies the leader's log.
  {
    ContextManager manager;
    manager.Create("f", manirank::MakeCyclicTable(n, 2, 3), base);
    manager.SetTableRole("f", manirank::serve::TableRole::kFollower);
    std::vector<double> us;
    for (size_t i = 0; i + 16 <= fresh.size(); i += 16) {
      manirank::OpRecord record;
      record.rankings.assign(fresh.begin() + i, fresh.begin() + i + 16);
      const int64_t t0 = NowNs();
      manager.ApplyReplicated("f", std::move(record));
      us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    m["replica.apply_us_per_record"] = Percentile(us, 0.5);
  }
}

}  // namespace perfbench
