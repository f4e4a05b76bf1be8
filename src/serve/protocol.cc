#include "serve/protocol.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "data/csv.h"
#include "data/snapshot.h"
#include "data/synthetic.h"
#include "serve/durability.h"

namespace manirank::serve {
namespace {

/// Whitespace tokenizer that also splits ';' into its own token, so an
/// APPEND payload may write "0 1 2; 2 1 0" or "0 1 2 ; 2 1 0".
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else if (c == ';') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
      tokens.emplace_back(";");
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

std::optional<long> ParseLong(const std::string& token) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::optional<double> ParseDouble(const std::string& token) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::string Err(const char* code, const std::string& detail) {
  return std::string("ERR ") + code + ": " + detail;
}

/// Formats one method result as "<id> sat=<0|1> consensus=<c0,c1,...>".
void AppendMethodResult(std::ostringstream* os, const std::string& id,
                        const ConsensusOutput& out) {
  *os << ' ' << id << " sat=" << (out.satisfied ? 1 : 0) << " consensus=";
  const std::vector<CandidateId>& order = out.consensus.order();
  for (size_t i = 0; i < order.size(); ++i) {
    if (i != 0) *os << ',';
    *os << order[i];
  }
}

std::string HandleCreate(ContextManager* manager,
                         const std::vector<std::string>& tokens) {
  if (tokens.size() < 3) {
    return Err("bad-request", "CREATE <table> FILE <csv> | CYCLIC <n> <d0> <d1>");
  }
  const std::string& table_name = tokens[1];
  const std::string& kind = tokens[2];
  std::optional<CandidateTable> table;
  std::vector<Ranking> initial;
  if (kind == "CYCLIC") {
    if (tokens.size() != 6) {
      return Err("bad-request", "CREATE <table> CYCLIC <n> <d0> <d1>");
    }
    const auto n = ParseLong(tokens[3]);
    const auto d0 = ParseLong(tokens[4]);
    const auto d1 = ParseLong(tokens[5]);
    if (!n || !d0 || !d1 || *n < 1 || *d0 < 1 || *d1 < 1) {
      return Err("bad-request", "CYCLIC arguments must be positive integers");
    }
    // Bound before the int casts: a table a client can create in one
    // request must neither truncate nor exhaust server memory — the first
    // RUN densifies an n^2 precedence matrix (8 bytes per cell, ~200 MB
    // at the cap), so n must stay far below what the int cast admits.
    if (*n > 5000 || *d0 > 64 || *d1 > 64) {
      return Err("bad-request",
                 "CYCLIC size out of range (n <= 5000, domains <= 64)");
    }
    table = MakeCyclicTable(static_cast<int>(*n), static_cast<int>(*d0),
                            static_cast<int>(*d1));
  } else if (kind == "FILE") {
    if (tokens.size() != 4 &&
        !(tokens.size() == 6 && tokens[4] == "RANKINGS")) {
      return Err("bad-request",
                 "CREATE <table> FILE <csv> [RANKINGS <csv>]");
    }
    std::ifstream table_file(tokens[3]);
    if (!table_file) return Err("io", "cannot open table file: " + tokens[3]);
    try {
      table = ReadCandidateTableCsv(table_file);
    } catch (const std::exception& e) {
      return Err("io", "table csv: " + std::string(e.what()));
    }
    if (tokens.size() == 6) {
      std::ifstream rankings_file(tokens[5]);
      if (!rankings_file) {
        return Err("io", "cannot open rankings file: " + tokens[5]);
      }
      try {
        initial = ReadRankingsCsv(rankings_file);
      } catch (const std::exception& e) {
        return Err("io", "rankings csv: " + std::string(e.what()));
      }
    }
  } else {
    return Err("bad-request", "CREATE source must be FILE or CYCLIC, got '" +
                                  kind + "'");
  }
  const int n = table->num_candidates();
  const size_t m = initial.size();
  manager->Create(table_name, std::move(*table), std::move(initial));
  std::ostringstream os;
  os << "OK CREATE " << table_name << " candidates=" << n
     << " rankings=" << m;
  return os.str();
}

std::string HandleAppend(ContextManager* manager,
                         const std::vector<std::string>& tokens) {
  if (tokens.size() < 3) {
    return Err("bad-request", "APPEND <table> <c0> <c1> ... [; ...]");
  }
  std::vector<Ranking> batch;
  std::vector<CandidateId> order;
  for (size_t i = 2; i <= tokens.size(); ++i) {
    if (i == tokens.size() || tokens[i] == ";") {
      if (order.empty()) {
        return Err("bad-ranking", "empty ranking in APPEND payload");
      }
      if (!Ranking::IsValidOrder(order)) {
        return Err("bad-ranking",
                   "APPEND payload is not a permutation of 0..n-1");
      }
      batch.emplace_back(std::move(order));
      order.clear();
      continue;
    }
    const auto c = ParseLong(tokens[i]);
    // Bound-check before the int32 cast: ids beyond CandidateId would
    // otherwise truncate and alias a valid candidate.
    if (!c || *c < 0 || *c > std::numeric_limits<CandidateId>::max()) {
      return Err("bad-ranking",
                 "candidate id must be a non-negative integer, got '" +
                     tokens[i] + "'");
    }
    order.push_back(static_cast<CandidateId>(*c));
  }
  const size_t queued = batch.size();
  const TableStats stats = manager->Append(tokens[1], std::move(batch));
  std::ostringstream os;
  os << "OK APPEND " << tokens[1] << " queued=" << queued
     << " pending_ops=" << stats.pending_ops
     << " pending_rankings=" << stats.pending_rankings;
  return os.str();
}

std::string HandleEval(ContextManager* manager,
                       const std::vector<std::string>& tokens) {
  if (tokens.size() < 3) {
    return Err("bad-request", "EVAL <table> <c0> <c1> ...");
  }
  std::vector<CandidateId> order;
  order.reserve(tokens.size() - 2);
  for (size_t i = 2; i < tokens.size(); ++i) {
    const auto c = ParseLong(tokens[i]);
    // Same bound-check-before-cast discipline as APPEND.
    if (!c || *c < 0 || *c > std::numeric_limits<CandidateId>::max()) {
      return Err("bad-ranking",
                 "candidate id must be a non-negative integer, got '" +
                     tokens[i] + "'");
    }
    order.push_back(static_cast<CandidateId>(*c));
  }
  if (!Ranking::IsValidOrder(order)) {
    return Err("bad-ranking", "EVAL payload is not a permutation of 0..n-1");
  }
  const EvalResult result =
      manager->Eval(tokens[1], Ranking(std::move(order)));
  std::ostringstream os;
  os << "OK EVAL " << tokens[1] << " gen=" << result.generation
     << " method=" << result.method << " tau=" << result.tau
     << " ntau=" << result.normalized_tau << " parity=";
  for (size_t i = 0; i < result.fairness.parity.size(); ++i) {
    if (i != 0) os << ',';
    os << result.fairness.parity[i];
  }
  os << " max_parity=" << result.fairness.MaxParity();
  // Per-group FPR for every constrained grouping, grouping-major (','
  // within a grouping, ';' between) — the order matches parity=: one
  // attribute per entry, intersection last when q > 1.
  os << " fpr=";
  for (size_t g = 0; g < result.fairness.fpr.size(); ++g) {
    if (g != 0) os << ';';
    const std::vector<double>& rates = result.fairness.fpr[g];
    for (size_t i = 0; i < rates.size(); ++i) {
      if (i != 0) os << ',';
      os << rates[i];
    }
  }
  // Intersectional extremes: most and least favored group of the LAST
  // constrained grouping (the intersection when the table has several
  // attributes, the sole attribute otherwise), as <group-index>:<fpr>.
  if (!result.fairness.fpr.empty() && !result.fairness.fpr.back().empty()) {
    const std::vector<double>& inter = result.fairness.fpr.back();
    size_t max_g = 0;
    size_t min_g = 0;
    for (size_t i = 1; i < inter.size(); ++i) {
      if (inter[i] > inter[max_g]) max_g = i;
      if (inter[i] < inter[min_g]) min_g = i;
    }
    os << " ifpr_max=" << max_g << ':' << inter[max_g]
       << " ifpr_min=" << min_g << ':' << inter[min_g];
  }
  return os.str();
}

std::string HandleSelect(ContextManager* manager,
                         const std::vector<std::string>& tokens) {
  static constexpr char kUsage[] =
      "SELECT <table> <k> [ATTR <a> <g> <min> <max>]* [INTER <g> <min> "
      "<max>]* [LIMIT <s>]";
  if (tokens.size() < 3) return Err("bad-request", kUsage);
  // Every numeric field is bound-checked before its int cast, like
  // APPEND's candidate ids: an id beyond int would otherwise truncate.
  const auto parse_int = [](const std::string& token) -> std::optional<int> {
    const auto v = ParseLong(token);
    if (!v || *v < 0 || *v > std::numeric_limits<int>::max()) {
      return std::nullopt;
    }
    return static_cast<int>(*v);
  };
  const auto k = parse_int(tokens[2]);
  if (!k || *k < 1) {
    return Err("bad-request",
               "SELECT k must be a positive integer, got '" + tokens[2] + "'");
  }
  SelectQuery query;
  query.k = *k;
  size_t i = 3;
  while (i < tokens.size()) {
    const std::string& clause = tokens[i];
    if (clause == "ATTR" || clause == "INTER") {
      const size_t arity = clause == "ATTR" ? 4 : 3;
      if (i + arity + 1 > tokens.size()) {
        return Err("bad-request",
                   clause == "ATTR" ? "ATTR needs <a> <g> <min> <max>"
                                    : "INTER needs <g> <min> <max>");
      }
      SelectConstraintSpec spec;
      size_t j = i + 1;
      if (clause == "ATTR") {
        const auto a = parse_int(tokens[j++]);
        if (!a) {
          return Err("bad-request",
                     "ATTR attribute index must be a non-negative integer, "
                     "got '" +
                         tokens[j - 1] + "'");
        }
        spec.attribute = *a;
      } else {
        spec.attribute = SelectConstraintSpec::kIntersection;
      }
      const auto group = parse_int(tokens[j++]);
      const auto min_count = parse_int(tokens[j++]);
      const auto max_count = parse_int(tokens[j++]);
      if (!group || !min_count || !max_count) {
        return Err("bad-request",
                   clause + " group/min/max must be non-negative integers");
      }
      spec.group = *group;
      spec.min_count = *min_count;
      spec.max_count = *max_count;
      query.constraints.push_back(spec);
      i = j;
    } else if (clause == "LIMIT") {
      if (i + 1 >= tokens.size()) {
        return Err("bad-request", "LIMIT needs a value in seconds");
      }
      const auto seconds = ParseDouble(tokens[i + 1]);
      // `> 0` also rejects NaN.
      if (!seconds || !(*seconds > 0)) {
        return Err("bad-request", "LIMIT needs a positive number, got '" +
                                      tokens[i + 1] + "'");
      }
      query.time_limit_seconds = *seconds;
      i += 2;
    } else {
      return Err("bad-request", "bad SELECT clause '" + clause + "'; " +
                                    kUsage);
    }
  }
  const SelectOutcome outcome = manager->Select(tokens[1], query);
  if (!outcome.feasible) {
    // A well-formed query whose constraints admit no size-k slate: a
    // distinct code (the computation succeeded — only the answer is
    // "no such slate"). Deterministic detail so cached and cold
    // infeasible responses stay byte-identical.
    return Err("infeasible", "no feasible slate of size " +
                                 std::to_string(query.k) +
                                 " under the given constraints");
  }
  std::ostringstream os;
  os << "OK SELECT " << tokens[1] << " gen=" << outcome.generation
     << " k=" << query.k << " method=" << outcome.method
     << " algo=" << (outcome.used_ilp ? "ilp" : "greedy")
     << " optimal=" << (outcome.optimal ? 1 : 0) << " cost=" << outcome.cost
     << " air=";
  for (size_t g = 0; g < outcome.air.size(); ++g) {
    if (g != 0) os << ';';
    os << outcome.air[g];
  }
  os << " four_fifths=" << (outcome.four_fifths ? 1 : 0) << " selected=";
  for (size_t c = 0; c < outcome.selected.size(); ++c) {
    if (c != 0) os << ',';
    os << outcome.selected[c];
  }
  return os.str();
}

std::string HandleRun(ContextManager* manager,
                      const std::vector<std::string>& tokens) {
  if (tokens.size() < 3) {
    return Err("bad-request", "RUN <table> <method|all> [DELTA <d>] [LIMIT <s>]");
  }
  ConsensusOptions options;
  options.time_limit_seconds = 30.0;
  for (size_t i = 3; i < tokens.size(); i += 2) {
    if (i + 1 >= tokens.size()) {
      return Err("bad-request", "RUN option " + tokens[i] + " needs a value");
    }
    const auto value = ParseDouble(tokens[i + 1]);
    // `>= 0` also rejects NaN for both options.
    if (tokens[i] == "DELTA" && value && *value >= 0) {
      options.delta = *value;
    } else if (tokens[i] == "LIMIT" && value && *value >= 0) {
      options.time_limit_seconds = *value;
    } else {
      return Err("bad-request",
                 "bad RUN option: " + tokens[i] + " " + tokens[i + 1]);
    }
  }
  const std::string& table = tokens[1];
  const std::string& method = tokens[2];
  std::ostringstream os;
  uint64_t generation = 0;
  if (method == "all") {
    // One shared-gate hold for the whole sweep (retained tables serve all
    // eight methods, restored ones the precedence/Borda subset), so the
    // reported gen= holds for every result on the line — a concurrent
    // mutation wave cannot land between two methods of one response.
    std::vector<std::pair<const MethodSpec*, ConsensusOutput>> results =
        manager->RunSupported(table, options, &generation);
    os << "OK RUN " << table << " gen=" << generation;
    for (const auto& [spec, output] : results) {
      AppendMethodResult(&os, spec->id, output);
    }
  } else {
    ConsensusOutput output = manager->Run(table, method, options, &generation);
    os << "OK RUN " << table << " gen=" << generation;
    AppendMethodResult(&os, FindMethod(method)->id, output);
  }
  return os.str();
}

std::string HandleSnapshot(ContextManager* manager,
                           const std::vector<std::string>& tokens) {
  if (tokens.size() != 3 && !(tokens.size() == 4 && tokens[3] == "EXACT")) {
    return Err("bad-request", "SNAPSHOT <table> <path> [EXACT]");
  }
  const bool exact = tokens.size() == 4;
  // Probe the write target BEFORE draining: the common failure — an
  // unwritable path — must reject with zero state change, keeping the
  // ERR-implies-untouched contract. Only a failure of the stream itself
  // (e.g. disk full mid-write) can still follow the drain; the completed
  // drain then stands, exactly as a FLUSH would.
  if (!ProbeSnapshotWritable(tokens[2])) {
    return Err("io", "cannot open snapshot for writing: " + tokens[2]);
  }
  const TableSnapshot snapshot = manager->SnapshotTable(
      tokens[1],
      exact ? SnapshotMode::kExact : SnapshotMode::kSummarized);
  try {
    WriteTableSnapshotFile(tokens[2], snapshot);
  } catch (const std::runtime_error& e) {
    return Err("io", e.what());
  }
  std::ostringstream os;
  os << "OK SNAPSHOT " << tokens[1]
     << " rankings=" << snapshot.summary.num_rankings
     << " generation=" << snapshot.summary.generation
     << " precedence=" << (snapshot.summary.precedence != nullptr ? 1 : 0);
  if (exact) os << " exact=1";
  os << " path=" << tokens[2];
  return os.str();
}

std::string HandleSnapshotPolicy(ContextManager* manager,
                                 DurabilityManager* durability,
                                 const std::vector<std::string>& tokens) {
  static constexpr char kUsage[] =
      "SNAPSHOT-POLICY <table> GENERATIONS <n> | SECONDS <s> | OFF";
  if (tokens.size() < 3) return Err("bad-request", kUsage);
  if (durability == nullptr) {
    return Err("unavailable",
               "SNAPSHOT-POLICY requires the --log-dir durability layer");
  }
  const std::string& table = tokens[1];
  const std::string& mode = tokens[2];
  DurabilityManager::Policy policy;
  if (mode == "OFF") {
    if (tokens.size() != 3) {
      return Err("bad-request", "SNAPSHOT-POLICY <table> OFF");
    }
  } else if (mode == "GENERATIONS") {
    if (tokens.size() != 4) {
      return Err("bad-request", "SNAPSHOT-POLICY <table> GENERATIONS <n>");
    }
    const auto n = ParseLong(tokens[3]);
    if (!n || *n < 1) {
      return Err("bad-request",
                 "GENERATIONS needs a positive integer, got '" + tokens[3] +
                     "'");
    }
    policy.kind = DurabilityManager::Policy::Kind::kGenerations;
    policy.every_generations = static_cast<uint64_t>(*n);
  } else if (mode == "SECONDS") {
    if (tokens.size() != 4) {
      return Err("bad-request", "SNAPSHOT-POLICY <table> SECONDS <s>");
    }
    const auto s = ParseDouble(tokens[3]);
    // `> 0` also rejects NaN.
    if (!s || !(*s > 0)) {
      return Err("bad-request",
                 "SECONDS needs a positive number, got '" + tokens[3] + "'");
    }
    policy.kind = DurabilityManager::Policy::Kind::kSeconds;
    policy.every_seconds = *s;
  } else {
    return Err("bad-request", kUsage);
  }
  if (!manager->Has(table)) {
    return Err("no-such-table", "no such table: " + table);
  }
  durability->SetPolicy(table, policy);
  std::ostringstream os;
  os << "OK SNAPSHOT-POLICY " << table << ' ' << mode;
  if (tokens.size() == 4) os << ' ' << tokens[3];
  return os.str();
}

std::string HandleRestore(ContextManager* manager,
                          const std::vector<std::string>& tokens) {
  if (tokens.size() != 3) {
    return Err("bad-request", "RESTORE <table> <path>");
  }
  std::optional<TableSnapshot> snapshot;
  try {
    snapshot.emplace(ReadTableSnapshotFile(tokens[2]));
  } catch (const SnapshotFormatError& e) {
    // Corrupt / truncated / version-mismatched file: distinct code, and
    // nothing was registered — the manager state is untouched.
    return Err("bad-snapshot", e.what());
  } catch (const std::runtime_error& e) {
    return Err("io", e.what());
  }
  const TableStats stats =
      manager->RestoreTable(tokens[1], std::move(*snapshot));
  std::ostringstream os;
  os << "OK RESTORE " << tokens[1] << " candidates=" << stats.num_candidates
     << " rankings=" << stats.num_rankings
     << " generation=" << stats.generation;
  return os.str();
}

}  // namespace

std::string Dispatcher::Handle(const std::string& line) {
  std::string response = HandleRequest(line);
  // Single-threaded front ends (stdin, script replay) have no event loop
  // to run the snapshot-policy timer, so they piggyback it on request
  // handling: any due policy fires between requests — which is also the
  // only instant the response stream is quiet. The executor front end passes inline_policy_eval=false and
  // drives RunDuePolicies from its loops instead.
  if (durability_ != nullptr && inline_policy_eval_ && !response.empty()) {
    durability_->RunDuePolicies();
  }
  return response;
}

std::string Dispatcher::HandleRequest(const std::string& line) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty() || tokens[0][0] == '#') return "";
  const std::string& verb = tokens[0];
  try {
    if (verb == "CREATE") return HandleCreate(manager_, tokens);
    if (verb == "APPEND") return HandleAppend(manager_, tokens);
    if (verb == "RUN") return HandleRun(manager_, tokens);
    if (verb == "EVAL") return HandleEval(manager_, tokens);
    if (verb == "SELECT") return HandleSelect(manager_, tokens);
    if (verb == "REPLICATE") {
      // The executor intercepts REPLICATE before dispatch; reaching this
      // handler means the front end cannot switch the connection into a
      // binary stream (stdin, script replay). Validate anyway so every
      // front end agrees on the failure modes.
      if (tokens.size() != 2) return Err("bad-request", "REPLICATE <table>");
      if (!manager_->Has(tokens[1])) {
        return Err("no-such-table", "no such table: " + tokens[1]);
      }
      if (durability_ == nullptr) {
        return Err("unavailable",
                   "REPLICATE requires the --log-dir durability layer");
      }
      return Err("unavailable",
                 "REPLICATE requires a streaming socket front end");
    }
    if (verb == "SNAPSHOT") return HandleSnapshot(manager_, tokens);
    if (verb == "SNAPSHOT-POLICY") {
      return HandleSnapshotPolicy(manager_, durability_, tokens);
    }
    if (verb == "RESTORE") return HandleRestore(manager_, tokens);
    if (verb == "REMOVE") {
      if (tokens.size() != 3) {
        return Err("bad-request", "REMOVE <table> <index>");
      }
      const auto index = ParseLong(tokens[2]);
      if (!index || *index < 0) {
        return Err("bad-index",
                   "REMOVE index must be a non-negative integer, got '" +
                       tokens[2] + "'");
      }
      const TableStats stats =
          manager_->Remove(tokens[1], static_cast<size_t>(*index));
      std::ostringstream os;
      os << "OK REMOVE " << tokens[1] << " index=" << *index
         << " pending_ops=" << stats.pending_ops;
      return os.str();
    }
    if (verb == "STATS") {
      if (tokens.size() != 2) return Err("bad-request", "STATS <table>");
      const TableStats stats = manager_->Stats(tokens[1]);
      std::ostringstream os;
      os << "OK STATS " << tokens[1] << " candidates=" << stats.num_candidates
         << " rankings=" << stats.num_rankings
         << " generation=" << stats.generation
         << " pending_ops=" << stats.pending_ops
         << " pending_rankings=" << stats.pending_rankings
         << " applied_batches=" << stats.applied_batches
         << " applied_rankings=" << stats.applied_rankings
         << " runs=" << stats.runs
         << " dropped_removes=" << stats.dropped_removes
         << " summarized=" << (stats.summarized ? 1 : 0)
         << " cache_hits=" << stats.cache_hits
         << " cache_misses=" << stats.cache_misses
         << " cache_entries=" << stats.cache_entries;
      if (stats.role == TableRole::kFollower) {
        // Trailing and follower-only: leader STATS output is unchanged
        // byte-for-byte, which the replication equivalence checks (and
        // older clients) rely on.
        os << " role=follower"
           << " replica_lag_generations=" << stats.replica_lag_generations
           << " replica_bytes_streamed=" << stats.replica_bytes_streamed
           << " replica_connected=" << (stats.replica_connected ? 1 : 0);
      }
      if (durability_ != nullptr) {
        const auto d = durability_->StatsFor(tokens[1]);
        if (d.has_value()) {
          os << " oplog_records=" << d->log_records
             << " oplog_bytes=" << d->log_bytes
             << " oplog_truncations=" << d->truncations
             << " oplog_replayed=" << d->replayed_records
             << " oplog_replay_ms=" << d->replay_ms
             << " oplog_healthy=" << (d->healthy ? 1 : 0);
        }
      }
      return os.str();
    }
    if (verb == "FLUSH") {
      if (tokens.size() != 2) return Err("bad-request", "FLUSH <table>");
      const size_t applied = manager_->Flush(tokens[1]);
      std::ostringstream os;
      os << "OK FLUSH " << tokens[1] << " applied=" << applied;
      return os.str();
    }
    if (verb == "DROP") {
      if (tokens.size() != 2) return Err("bad-request", "DROP <table>");
      manager_->Drop(tokens[1]);
      return "OK DROP " + tokens[1];
    }
    if (verb == "TABLES") {
      if (tokens.size() != 1) return Err("bad-request", "TABLES");
      std::ostringstream os;
      const std::vector<std::string> names = manager_->TableNames();
      os << "OK TABLES " << names.size();
      for (const std::string& name : names) os << ' ' << name;
      return os.str();
    }
    if (verb == "METRICS") {
      if (tokens.size() != 1) return Err("bad-request", "METRICS");
      if (!metrics_provider_) {
        return Err("unavailable",
                   "METRICS requires the async executor front end");
      }
      return metrics_provider_();
    }
    return Err("unknown-verb", verb);
  } catch (const std::out_of_range& e) {
    return Err("bad-index", e.what());
  } catch (const ReadOnlyTableError& e) {
    // Before the logic_error catch (its base): a mutation on a follower
    // table is its own protocol condition, not a generic conflict — the
    // client should redirect the write to the leader.
    return Err("readonly", e.what());
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    if (what.rfind("no such table", 0) == 0) {
      return Err("no-such-table", what);
    }
    if (what.rfind("table already exists", 0) == 0) {
      // Distinct from bad-request so clients can treat a duplicate
      // CREATE/RESTORE as an idempotent-retry success.
      return Err("table-exists", what);
    }
    if (what.rfind("unknown consensus method", 0) == 0) {
      return Err("unknown-method", what);
    }
    if (what.find("empty profile") != std::string::npos) {
      return Err("empty-table", what);
    }
    if (what.find("ranking") != std::string::npos) {
      return Err("bad-ranking", what);
    }
    return Err("bad-request", what);
  } catch (const std::logic_error& e) {
    return Err("conflict", e.what());
  } catch (const std::runtime_error& e) {
    // File-system and durability failures surfacing through a serving
    // verb (snapshot write, op-log truncation, replay) are I/O trouble,
    // not a malformed request — a client retrying verbatim may well
    // succeed once the disk recovers. Before this branch existed they
    // fell through to bad-request and misdirected the retry logic.
    return Err("io", e.what());
  } catch (const std::exception& e) {
    return Err("bad-request", e.what());
  }
}

int Dispatcher::ServeStream(std::istream& in, std::ostream& out, bool echo) {
  int errors = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (echo) out << "> " << line << '\n';
    const std::string response = Handle(line);
    if (response.empty()) continue;
    out << response << '\n';
    out.flush();
    // The sink died (reader closed the pipe; the write surfaced as a
    // stream failure rather than SIGPIPE death). Every further response
    // would be dropped on the floor — stop executing requests instead of
    // mutating tables on behalf of a client that can no longer see the
    // results. The caller reports the I/O failure from the stream state.
    if (!out) break;
    if (response.rfind("ERR", 0) == 0) ++errors;
  }
  return errors;
}

RequestClass ClassifyRequest(const std::string& line) {
  // Only the first two tokens matter, and an APPEND payload can be
  // megabytes — scan just the prefix instead of tokenizing the line
  // (Handle re-tokenizes anyway). The scan mirrors Tokenize exactly:
  // space/tab/CR separate, ';' is always its own token.
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r';
  };
  const auto next_token = [&](size_t* pos) {
    while (*pos < line.size() && is_space(line[*pos])) ++*pos;
    const size_t begin = *pos;
    if (begin == line.size()) return std::string();
    if (line[begin] == ';') {
      ++*pos;
      return std::string(";");
    }
    while (*pos < line.size() && !is_space(line[*pos]) && line[*pos] != ';') {
      ++*pos;
    }
    return line.substr(begin, *pos - begin);
  };
  size_t pos = 0;
  const std::string verb = next_token(&pos);
  RequestClass cls;
  if (verb.empty() || verb[0] == '#') {
    cls.no_response = true;
    return cls;
  }
  cls.replicate = verb == "REPLICATE";
  const bool per_table = verb == "APPEND" || verb == "REMOVE" ||
                         verb == "RUN" || verb == "STATS" ||
                         verb == "FLUSH" || verb == "EVAL" ||
                         verb == "SELECT";
  std::string table;
  if (per_table) table = next_token(&pos);
  if (per_table && !table.empty()) {
    cls.table = std::move(table);
    cls.draining = verb == "RUN" || verb == "FLUSH";
    cls.compute = verb == "EVAL" || verb == "SELECT";
  } else {
    // Namespace verbs (CREATE / RESTORE / DROP / TABLES), unknown verbs,
    // and malformed per-table requests (no table token) all serialize
    // against the whole connection — correctness beats overlap for the
    // rare requests that touch the table namespace or will only ERR.
    // SNAPSHOT is a barrier too: its destination PATH is a second
    // shared resource the table key cannot order (two snapshots of
    // different tables to one path must not interleave their writes).
    cls.barrier = true;
  }
  return cls;
}

}  // namespace manirank::serve
