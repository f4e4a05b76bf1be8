#include "serve/protocol.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "data/csv.h"
#include "data/snapshot.h"
#include "data/synthetic.h"
#include "serve/durability.h"

namespace manirank::serve {
namespace {

/// A request's fields as views into its line (see RequestTokenizer).
using Tokens = std::vector<std::string_view>;

/// Parses a whole token as a base-10 long, accepting exactly the tokens
/// strtol(token, 10) consumes to their end: leading isspace bytes, one
/// optional sign, digits (leading zeros allowed), nothing out of range. A
/// NUL byte ends the token as it would end strtol's C string.
std::optional<long> ParseLong(std::string_view token) {
  const char* p = token.data();
  const char* const end = p + token.size();
  while (p != end && (*p == ' ' || (*p >= '\t' && *p <= '\r'))) ++p;
  // from_chars takes '-' but not '+'. A digit must follow the '+', or
  // "+-3" would parse.
  if (p != end && *p == '+') {
    ++p;
    if (p == end || *p < '0' || *p > '9') return std::nullopt;
  }
  long value = 0;
  const auto [last, ec] = std::from_chars(p, end, value);
  if (ec != std::errc() || (last != end && *last != '\0')) {
    return std::nullopt;
  }
  return value;
}

/// ParseLong bound-checked before the int32 cast: ids beyond CandidateId
/// would otherwise truncate and alias a valid candidate.
std::optional<CandidateId> ParseCandidateId(std::string_view token) {
  const auto c = ParseLong(token);
  if (!c || *c < 0 || *c > std::numeric_limits<CandidateId>::max()) {
    return std::nullopt;
  }
  return static_cast<CandidateId>(*c);
}

std::optional<double> ParseDouble(std::string_view token) {
  // Cold path (RUN / SELECT / SNAPSHOT-POLICY options): strtod wants a
  // NUL-terminated string.
  const std::string copy(token);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() || *end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

/// `verb` followed by every token the tokenizer has left.
Tokens SplitTokens(std::string_view verb, RequestTokenizer* tokenizer) {
  Tokens tokens = {verb};
  for (std::string_view t = tokenizer->Next(); !t.empty();
       t = tokenizer->Next()) {
    tokens.push_back(t);
  }
  return tokens;
}

std::string Err(const char* code, const std::string& detail) {
  return std::string("ERR ") + code + ": " + detail;
}

std::string BadCandidateId(std::string_view token) {
  return Err("bad-ranking",
             "candidate id must be a non-negative integer, got '" +
                 std::string(token) + "'");
}

/// One response line, built in a single string with the bytes an
/// std::ostringstream would write: integers through std::to_chars,
/// doubles as "%g" (to_chars general, precision 6 — the ostream
/// default), text verbatim.
class ResponseLine {
 public:
  ResponseLine& operator<<(std::string_view text) {
    text_.append(text);
    return *this;
  }
  ResponseLine& operator<<(char c) {
    text_.push_back(c);
    return *this;
  }
  ResponseLine& operator<<(double v) {
    char buf[32];
    const auto result = std::to_chars(buf, buf + sizeof(buf), v,
                                      std::chars_format::general, 6);
    text_.append(buf, result.ptr);
    return *this;
  }
  template <typename Int,
            typename = std::enable_if_t<std::is_integral_v<Int> &&
                                        !std::is_same_v<Int, bool> &&
                                        !std::is_same_v<Int, char>>>
  ResponseLine& operator<<(Int v) {
    char buf[24];
    const auto result = std::to_chars(buf, buf + sizeof(buf), v);
    text_.append(buf, result.ptr);
    return *this;
  }

  /// Appends "c0,c1,..." formatted in place: one resize to the widest
  /// possible rendering, then one shrink to what was written.
  ResponseLine& AppendIds(const std::vector<CandidateId>& ids) {
    // Digits, sign, and the ',' separator.
    constexpr size_t kMaxWidth =
        std::numeric_limits<CandidateId>::digits10 + 3;
    const size_t at = text_.size();
    text_.resize(at + ids.size() * kMaxWidth);
    char* p = text_.data() + at;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i != 0) *p++ = ',';
      p = std::to_chars(p, p + kMaxWidth, ids[i]).ptr;
    }
    text_.resize(static_cast<size_t>(p - text_.data()));
    return *this;
  }

  std::string str() && { return std::move(text_); }

 private:
  std::string text_;
};

/// Formats one method result as "<id> sat=<0|1> consensus=<c0,c1,...>".
void AppendMethodResult(ResponseLine* os, const std::string& id,
                        const ConsensusOutput& out) {
  *os << ' ' << id << " sat=" << (out.satisfied ? 1 : 0) << " consensus=";
  os->AppendIds(out.consensus.order());
}

std::string HandleCreate(ContextManager* manager, const Tokens& tokens) {
  if (tokens.size() < 3) {
    return Err("bad-request", "CREATE <table> FILE <csv> | CYCLIC <n> <d0> <d1>");
  }
  const std::string table_name(tokens[1]);
  const std::string_view kind = tokens[2];
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
    const std::string table_path(tokens[3]);
    std::ifstream table_file(table_path);
    if (!table_file) return Err("io", "cannot open table file: " + table_path);
    try {
      table = ReadCandidateTableCsv(table_file);
    } catch (const std::exception& e) {
      return Err("io", "table csv: " + std::string(e.what()));
    }
    if (tokens.size() == 6) {
      const std::string rankings_path(tokens[5]);
      std::ifstream rankings_file(rankings_path);
      if (!rankings_file) {
        return Err("io", "cannot open rankings file: " + rankings_path);
      }
      try {
        initial = ReadRankingsCsv(rankings_file);
      } catch (const std::exception& e) {
        return Err("io", "rankings csv: " + std::string(e.what()));
      }
    }
  } else {
    return Err("bad-request", "CREATE source must be FILE or CYCLIC, got '" +
                                  std::string(kind) + "'");
  }
  const int n = table->num_candidates();
  const size_t m = initial.size();
  manager->Create(table_name, std::move(*table), std::move(initial));
  ResponseLine os;
  os << "OK CREATE " << table_name << " candidates=" << n
     << " rankings=" << m;
  return std::move(os).str();
}

/// APPEND parses its payload straight off the tokenizer — no token
/// vector, no per-id string.
std::string HandleAppend(ContextManager* manager, RequestTokenizer* tokens) {
  const std::string_view table = tokens->Next();
  std::string_view token = tokens->Next();
  if (token.empty()) {
    return Err("bad-request", "APPEND <table> <c0> <c1> ... [; ...]");
  }
  std::vector<Ranking> batch;
  std::vector<CandidateId> order;
  for (;; token = tokens->Next()) {
    if (token.empty() || token == ";") {
      if (order.empty()) {
        return Err("bad-ranking", "empty ranking in APPEND payload");
      }
      if (!Ranking::IsValidOrder(order)) {
        return Err("bad-ranking",
                   "APPEND payload is not a permutation of 0..n-1");
      }
      batch.emplace_back(std::move(order));
      if (token.empty()) break;
      // Rankings of one table share a length: size the next one exactly.
      order = std::vector<CandidateId>();
      order.reserve(batch.back().size());
      continue;
    }
    const auto c = ParseCandidateId(token);
    if (!c) return BadCandidateId(token);
    order.push_back(*c);
  }
  const size_t queued = batch.size();
  const std::string name(table);
  const TableStats stats = manager->Append(name, std::move(batch));
  ResponseLine os;
  os << "OK APPEND " << name << " queued=" << queued
     << " pending_ops=" << stats.pending_ops
     << " pending_rankings=" << stats.pending_rankings;
  return std::move(os).str();
}

/// EVAL <table> <c0> <c1> ... as parsed.
struct EvalRequest {
  std::string table;
  std::vector<CandidateId> order;
};

/// Parses an EVAL request straight off the tokenizer, like APPEND: every
/// id is decoded before the permutation check, so a bad token wins over
/// an earlier duplicate. Returns the ERR response for a malformed
/// request, or an empty string.
std::string ParseEval(RequestTokenizer* tokens, EvalRequest* request) {
  const std::string_view table = tokens->Next();
  std::string_view token = tokens->Next();
  if (token.empty()) {
    return Err("bad-request", "EVAL <table> <c0> <c1> ...");
  }
  std::vector<CandidateId>& order = request->order;
  // Every id takes at least one byte plus a separator.
  order.reserve(tokens->remaining() / 2 + 1);
  for (; !token.empty(); token = tokens->Next()) {
    const auto c = ParseCandidateId(token);
    if (!c) return BadCandidateId(token);
    order.push_back(*c);
  }
  if (!Ranking::IsValidOrder(order)) {
    return Err("bad-ranking", "EVAL payload is not a permutation of 0..n-1");
  }
  request->table = std::string(table);
  return {};
}

std::string FormatEval(const std::string& table, const EvalResult& result) {
  ResponseLine os;
  os << "OK EVAL " << table << " gen=" << result.generation
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
  return std::move(os).str();
}

std::string HandleEval(ContextManager* manager, RequestTokenizer* tokens) {
  EvalRequest request;
  const std::string error = ParseEval(tokens, &request);
  if (!error.empty()) return error;
  return FormatEval(request.table,
                    manager->Eval(request.table,
                                  Ranking(std::move(request.order))));
}

/// EVAL answered from the result cache alone (ContextManager::
/// TryEvalCached): false when the request is malformed or not a hit.
bool EvalFromCache(ContextManager* manager, RequestTokenizer* tokens,
                   std::string* response) {
  EvalRequest request;
  if (!ParseEval(tokens, &request).empty()) return false;
  EvalResult result;
  if (!manager->TryEvalCached(request.table,
                              Ranking(std::move(request.order)), &result)) {
    return false;
  }
  *response = FormatEval(request.table, result);
  return true;
}

/// Parses a SELECT request into `table` and `query`. Returns the ERR
/// response for a malformed request, or an empty string.
std::string ParseSelect(const Tokens& tokens, std::string* table,
                        SelectQuery* query) {
  static constexpr char kUsage[] =
      "SELECT <table> <k> [ATTR <a> <g> <min> <max>]* [INTER <g> <min> "
      "<max>]* [LIMIT <s>]";
  if (tokens.size() < 3) return Err("bad-request", kUsage);
  // Every numeric field is bound-checked before its int cast, like
  // APPEND's candidate ids: an id beyond int would otherwise truncate.
  const auto parse_int = [](std::string_view token) -> std::optional<int> {
    const auto v = ParseLong(token);
    if (!v || *v < 0 || *v > std::numeric_limits<int>::max()) {
      return std::nullopt;
    }
    return static_cast<int>(*v);
  };
  const auto k = parse_int(tokens[2]);
  if (!k || *k < 1) {
    return Err("bad-request", "SELECT k must be a positive integer, got '" +
                                  std::string(tokens[2]) + "'");
  }
  query->k = *k;
  size_t i = 3;
  while (i < tokens.size()) {
    const std::string clause(tokens[i]);
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
                         std::string(tokens[j - 1]) + "'");
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
      query->constraints.push_back(spec);
      i = j;
    } else if (clause == "LIMIT") {
      if (i + 1 >= tokens.size()) {
        return Err("bad-request", "LIMIT needs a value in seconds");
      }
      const auto seconds = ParseDouble(tokens[i + 1]);
      // `> 0` also rejects NaN.
      if (!seconds || !(*seconds > 0)) {
        return Err("bad-request", "LIMIT needs a positive number, got '" +
                                      std::string(tokens[i + 1]) + "'");
      }
      query->time_limit_seconds = *seconds;
      i += 2;
    } else {
      return Err("bad-request", "bad SELECT clause '" + clause + "'; " +
                                    kUsage);
    }
  }
  *table = std::string(tokens[1]);
  return {};
}

std::string FormatSelect(const std::string& table, const SelectQuery& query,
                         const SelectOutcome& outcome) {
  if (!outcome.feasible) {
    // A well-formed query whose constraints admit no size-k slate: a
    // distinct code (the computation succeeded — only the answer is
    // "no such slate"). Deterministic detail so cached and cold
    // infeasible responses stay byte-identical.
    return Err("infeasible", "no feasible slate of size " +
                                 std::to_string(query.k) +
                                 " under the given constraints");
  }
  ResponseLine os;
  os << "OK SELECT " << table << " gen=" << outcome.generation
     << " k=" << query.k << " method=" << outcome.method
     << " algo=" << (outcome.used_ilp ? "ilp" : "greedy")
     << " optimal=" << (outcome.optimal ? 1 : 0) << " cost=" << outcome.cost
     << " air=";
  for (size_t g = 0; g < outcome.air.size(); ++g) {
    if (g != 0) os << ';';
    os << outcome.air[g];
  }
  os << " four_fifths=" << (outcome.four_fifths ? 1 : 0) << " selected=";
  os.AppendIds(outcome.selected);
  return std::move(os).str();
}

std::string HandleSelect(ContextManager* manager, const Tokens& tokens) {
  std::string table;
  SelectQuery query;
  const std::string error = ParseSelect(tokens, &table, &query);
  if (!error.empty()) return error;
  return FormatSelect(table, query, manager->Select(table, query));
}

/// RUN <table> <method|all> with its options, as parsed.
struct RunRequest {
  std::string table;
  /// A registry id or "all"; resolved at execution, so an unknown id
  /// answers ERR unknown-method exactly where the manager throws it.
  std::string_view method;
  ConsensusOptions options;
};

/// Parses a RUN request. Returns the ERR response for a malformed
/// request, or an empty string.
std::string ParseRun(const Tokens& tokens, RunRequest* request) {
  if (tokens.size() < 3) {
    return Err("bad-request", "RUN <table> <method|all> [DELTA <d>] [LIMIT <s>]");
  }
  ConsensusOptions& options = request->options;
  options.time_limit_seconds = 30.0;
  for (size_t i = 3; i < tokens.size(); i += 2) {
    if (i + 1 >= tokens.size()) {
      return Err("bad-request",
                 "RUN option " + std::string(tokens[i]) + " needs a value");
    }
    const auto value = ParseDouble(tokens[i + 1]);
    // `>= 0` also rejects NaN for both options.
    if (tokens[i] == "DELTA" && value && *value >= 0) {
      options.delta = *value;
    } else if (tokens[i] == "LIMIT" && value && *value >= 0) {
      options.time_limit_seconds = *value;
    } else {
      return Err("bad-request", "bad RUN option: " + std::string(tokens[i]) +
                                    " " + std::string(tokens[i + 1]));
    }
  }
  request->table = std::string(tokens[1]);
  request->method = tokens[2];
  return {};
}

std::string FormatRun(const std::string& table, uint64_t generation,
                      const ContextManager::MethodResults& results) {
  ResponseLine os;
  os << "OK RUN " << table << " gen=" << generation;
  for (const auto& [spec, output] : results) {
    AppendMethodResult(&os, spec->id, output);
  }
  return std::move(os).str();
}

std::string HandleRun(ContextManager* manager, const Tokens& tokens) {
  RunRequest request;
  const std::string error = ParseRun(tokens, &request);
  if (!error.empty()) return error;
  uint64_t generation = 0;
  ContextManager::MethodResults results;
  if (request.method == "all") {
    // One shared-gate hold for the whole sweep (retained tables serve all
    // eight methods, restored ones the precedence/Borda subset), so the
    // reported gen= holds for every result on the line — a concurrent
    // mutation wave cannot land between two methods of one response.
    results = manager->RunSupported(request.table, request.options,
                                    &generation);
  } else {
    ConsensusOutput output = manager->Run(request.table, request.method,
                                          request.options, &generation);
    results.emplace_back(FindMethod(request.method), std::move(output));
  }
  return FormatRun(request.table, generation, results);
}

/// RUN answered from the result cache alone (ContextManager::
/// TryRunCached): false when the request is malformed or not a hit.
bool RunFromCache(ContextManager* manager, const Tokens& tokens,
                  std::string* response) {
  RunRequest request;
  if (!ParseRun(tokens, &request).empty()) return false;
  const MethodSpec* method = nullptr;
  if (request.method != "all") {
    method = FindMethod(request.method);
    if (method == nullptr) return false;
  }
  uint64_t generation = 0;
  ContextManager::MethodResults results;
  if (!manager->TryRunCached(request.table, method, request.options, &results,
                             &generation)) {
    return false;
  }
  *response = FormatRun(request.table, generation, results);
  return true;
}

/// SELECT answered from the result cache alone (ContextManager::
/// TrySelectCached): false when the request is malformed or not a hit.
bool SelectFromCache(ContextManager* manager, const Tokens& tokens,
                     std::string* response) {
  std::string table;
  SelectQuery query;
  if (!ParseSelect(tokens, &table, &query).empty()) return false;
  SelectOutcome outcome;
  if (!manager->TrySelectCached(table, query, &outcome)) return false;
  *response = FormatSelect(table, query, outcome);
  return true;
}

std::string HandleSnapshot(ContextManager* manager, const Tokens& tokens) {
  if (tokens.size() != 3 && !(tokens.size() == 4 && tokens[3] == "EXACT")) {
    return Err("bad-request", "SNAPSHOT <table> <path> [EXACT]");
  }
  const bool exact = tokens.size() == 4;
  const std::string table(tokens[1]);
  const std::string path(tokens[2]);
  // Probe the write target BEFORE draining: the common failure — an
  // unwritable path — must reject with zero state change, keeping the
  // ERR-implies-untouched contract. Only a failure of the stream itself
  // (e.g. disk full mid-write) can still follow the drain; the completed
  // drain then stands, exactly as a FLUSH would.
  if (!ProbeSnapshotWritable(path)) {
    return Err("io", "cannot open snapshot for writing: " + path);
  }
  const TableSnapshot snapshot = manager->SnapshotTable(
      table, exact ? SnapshotMode::kExact : SnapshotMode::kSummarized);
  try {
    WriteTableSnapshotFile(path, snapshot);
  } catch (const std::runtime_error& e) {
    return Err("io", e.what());
  }
  ResponseLine os;
  os << "OK SNAPSHOT " << table
     << " rankings=" << snapshot.summary.num_rankings
     << " generation=" << snapshot.summary.generation
     << " precedence=" << (snapshot.summary.precedence != nullptr ? 1 : 0);
  if (exact) os << " exact=1";
  os << " path=" << path;
  return std::move(os).str();
}

std::string HandleSnapshotPolicy(ContextManager* manager,
                                 DurabilityManager* durability,
                                 const Tokens& tokens) {
  static constexpr char kUsage[] =
      "SNAPSHOT-POLICY <table> GENERATIONS <n> | SECONDS <s> | OFF";
  if (tokens.size() < 3) return Err("bad-request", kUsage);
  if (durability == nullptr) {
    return Err("unavailable",
               "SNAPSHOT-POLICY requires the --log-dir durability layer");
  }
  const std::string table(tokens[1]);
  const std::string_view mode = tokens[2];
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
      return Err("bad-request", "GENERATIONS needs a positive integer, got '" +
                                    std::string(tokens[3]) + "'");
    }
    policy.kind = DurabilityManager::Policy::Kind::kGenerations;
    policy.every_generations = static_cast<uint64_t>(*n);
  } else if (mode == "SECONDS") {
    if (tokens.size() != 4) {
      return Err("bad-request", "SNAPSHOT-POLICY <table> SECONDS <s>");
    }
    const auto s = ParseDouble(tokens[3]);
    // The policy timer converts the period to steady_clock's int64
    // nanoseconds, so the count must fit there (2^63 ns is ~9.2e9 s);
    // the comparisons also reject NaN and inf.
    if (!s || !(*s > 0) || !(*s * 1e9 < 0x1p63)) {
      return Err("bad-request",
                 "SECONDS needs a positive number of seconds whose "
                 "nanosecond count fits in int64, got '" +
                     std::string(tokens[3]) + "'");
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
  ResponseLine os;
  os << "OK SNAPSHOT-POLICY " << table << ' ' << mode;
  if (tokens.size() == 4) os << ' ' << tokens[3];
  return std::move(os).str();
}

std::string HandleRestore(ContextManager* manager, const Tokens& tokens) {
  if (tokens.size() != 3) {
    return Err("bad-request", "RESTORE <table> <path>");
  }
  std::optional<TableSnapshot> snapshot;
  try {
    snapshot.emplace(ReadTableSnapshotFile(std::string(tokens[2])));
  } catch (const SnapshotFormatError& e) {
    // Corrupt / truncated / version-mismatched file: distinct code, and
    // nothing was registered — the manager state is untouched.
    return Err("bad-snapshot", e.what());
  } catch (const std::runtime_error& e) {
    return Err("io", e.what());
  }
  const std::string table(tokens[1]);
  const TableStats stats = manager->RestoreTable(table, std::move(*snapshot));
  ResponseLine os;
  os << "OK RESTORE " << table << " candidates=" << stats.num_candidates
     << " rankings=" << stats.num_rankings
     << " generation=" << stats.generation;
  return std::move(os).str();
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

bool Dispatcher::TryHandleCached(const std::string& line,
                                 std::string* response) {
  RequestTokenizer tokenizer(line);
  const std::string_view verb = tokenizer.Next();
  if (verb == "EVAL") return EvalFromCache(manager_, &tokenizer, response);
  if (verb != "RUN" && verb != "SELECT") return false;
  const Tokens tokens = SplitTokens(verb, &tokenizer);
  return verb == "RUN" ? RunFromCache(manager_, tokens, response)
                       : SelectFromCache(manager_, tokens, response);
}

std::string Dispatcher::HandleRequest(const std::string& line) {
  RequestTokenizer tokenizer(line);
  const std::string_view verb = tokenizer.Next();
  if (verb.empty() || verb[0] == '#') return "";
  try {
    // The payload verbs read their ids straight off the tokenizer.
    if (verb == "APPEND") return HandleAppend(manager_, &tokenizer);
    if (verb == "EVAL") return HandleEval(manager_, &tokenizer);
    const Tokens tokens = SplitTokens(verb, &tokenizer);
    if (verb == "CREATE") return HandleCreate(manager_, tokens);
    if (verb == "RUN") return HandleRun(manager_, tokens);
    if (verb == "SELECT") return HandleSelect(manager_, tokens);
    if (verb == "SNAPSHOT") return HandleSnapshot(manager_, tokens);
    if (verb == "SNAPSHOT-POLICY") {
      return HandleSnapshotPolicy(manager_, durability_, tokens);
    }
    if (verb == "RESTORE") return HandleRestore(manager_, tokens);
    const std::string table =
        tokens.size() > 1 ? std::string(tokens[1]) : std::string();
    if (verb == "REPLICATE") {
      // The executor intercepts REPLICATE before dispatch; reaching this
      // handler means the front end cannot switch the connection into a
      // binary stream (stdin, script replay). Validate anyway so every
      // front end agrees on the failure modes.
      if (tokens.size() != 2) return Err("bad-request", "REPLICATE <table>");
      if (!manager_->Has(table)) {
        return Err("no-such-table", "no such table: " + table);
      }
      if (durability_ == nullptr) {
        return Err("unavailable",
                   "REPLICATE requires the --log-dir durability layer");
      }
      return Err("unavailable",
                 "REPLICATE requires a streaming socket front end");
    }
    if (verb == "REMOVE") {
      if (tokens.size() != 3) {
        return Err("bad-request", "REMOVE <table> <index>");
      }
      const auto index = ParseLong(tokens[2]);
      if (!index || *index < 0) {
        return Err("bad-index",
                   "REMOVE index must be a non-negative integer, got '" +
                       std::string(tokens[2]) + "'");
      }
      const TableStats stats =
          manager_->Remove(table, static_cast<size_t>(*index));
      ResponseLine os;
      os << "OK REMOVE " << table << " index=" << *index
         << " pending_ops=" << stats.pending_ops;
      return std::move(os).str();
    }
    if (verb == "STATS") {
      if (tokens.size() != 2) return Err("bad-request", "STATS <table>");
      const TableStats stats = manager_->Stats(table);
      ResponseLine os;
      os << "OK STATS " << table << " candidates=" << stats.num_candidates
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
        const auto d = durability_->StatsFor(table);
        if (d.has_value()) {
          os << " oplog_records=" << d->log_records
             << " oplog_bytes=" << d->log_bytes
             << " oplog_truncations=" << d->truncations
             << " oplog_replayed=" << d->replayed_records
             << " oplog_replay_ms=" << d->replay_ms
             << " oplog_healthy=" << (d->healthy ? 1 : 0);
        }
      }
      return std::move(os).str();
    }
    if (verb == "FLUSH") {
      if (tokens.size() != 2) return Err("bad-request", "FLUSH <table>");
      const size_t applied = manager_->Flush(table);
      ResponseLine os;
      os << "OK FLUSH " << table << " applied=" << applied;
      return std::move(os).str();
    }
    if (verb == "DROP") {
      if (tokens.size() != 2) return Err("bad-request", "DROP <table>");
      manager_->Drop(table);
      return "OK DROP " + table;
    }
    if (verb == "TABLES") {
      if (tokens.size() != 1) return Err("bad-request", "TABLES");
      ResponseLine os;
      const std::vector<std::string> names = manager_->TableNames();
      os << "OK TABLES " << names.size();
      for (const std::string& name : names) os << ' ' << name;
      return std::move(os).str();
    }
    if (verb == "METRICS") {
      if (tokens.size() != 1) return Err("bad-request", "METRICS");
      if (!metrics_provider_) {
        return Err("unavailable",
                   "METRICS requires the async executor front end");
      }
      return metrics_provider_();
    }
    return Err("unknown-verb", std::string(verb));
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
  // megabytes — read just the prefix (Handle tokenizes the rest).
  RequestTokenizer tokenizer(line);
  const std::string_view verb = tokenizer.Next();
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
  const std::string_view table = per_table ? tokenizer.Next() : std::string_view();
  if (!table.empty()) {
    cls.table = std::string(table);
    cls.draining = verb == "RUN" || verb == "FLUSH";
    cls.compute = verb == "EVAL" || verb == "SELECT";
    cls.cacheable = verb == "RUN" || verb == "SELECT" || verb == "EVAL";
    cls.hit_computes = verb == "EVAL";
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
