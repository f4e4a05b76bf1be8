// Protocol robustness tests: every malformed request must draw an
// "ERR <code>:" response and leave the addressed table's applied state
// unchanged — verified through the STATS generation counter, which only
// moves when mutations are actually folded into a context. Includes a
// deterministic fuzz-ish sweep of mutated request lines.

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/ranking.h"
#include "data/op_log.h"
#include "serve/context_manager.h"
#include "util/rng.h"

namespace manirank {
namespace {

using serve::ContextManager;
using serve::Dispatcher;


/// Fixture with one live table and helpers to assert state invariance.
class ProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dispatcher_ = std::make_unique<Dispatcher>(&manager_);
    ASSERT_EQ(Handle("CREATE t CYCLIC 6 2 3"), "OK CREATE t candidates=6 rankings=0");
    ASSERT_TRUE(IsOk(Handle("APPEND t 0 1 2 3 4 5 ; 5 4 3 2 1 0")));
    ASSERT_TRUE(IsOk(Handle("FLUSH t")));
  }

  std::string Handle(const std::string& line) {
    return dispatcher_->Handle(line);
  }
  static bool IsOk(const std::string& r) { return r.rfind("OK", 0) == 0; }
  static bool IsErr(const std::string& r) { return r.rfind("ERR ", 0) == 0; }

  /// "generation=<g> ... pending_ops=<o>" snapshot of table t. If the
  /// table has been dropped (fuzzing can legitimately issue DROP t), the
  /// stable "ERR no-such-table" response doubles as the snapshot.
  std::string StateSnapshot() { return Handle("STATS t"); }

  ContextManager manager_;
  std::unique_ptr<Dispatcher> dispatcher_;
};

TEST_F(ProtocolTest, BlankAndCommentLinesDrawNoResponse) {
  EXPECT_EQ(Handle(""), "");
  EXPECT_EQ(Handle("   \t  "), "");
  EXPECT_EQ(Handle("# a comment"), "");
  EXPECT_EQ(Handle("#APPEND t 0 1 2 3 4 5"), "");
}

TEST_F(ProtocolTest, MalformedRequestsErrAndLeaveStateUnchanged) {
  const std::string before = StateSnapshot();
  const std::vector<std::pair<std::string, std::string>> cases = {
      // unknown verb
      {"FROB t", "ERR unknown-verb"},
      {"append t 0 1 2 3 4 5", "ERR unknown-verb"},  // verbs are upper-case
      {"OK", "ERR unknown-verb"},
      // missing / unknown table
      {"RUN ghost A4", "ERR no-such-table"},
      {"STATS ghost", "ERR no-such-table"},
      {"APPEND ghost 0 1 2 3 4 5", "ERR no-such-table"},
      {"REMOVE ghost 0", "ERR no-such-table"},
      {"FLUSH ghost", "ERR no-such-table"},
      {"DROP ghost", "ERR no-such-table"},
      // arity errors
      {"RUN", "ERR bad-request"},
      {"RUN t", "ERR bad-request"},
      {"APPEND t", "ERR bad-request"},
      {"REMOVE t", "ERR bad-request"},
      {"REMOVE t 0 0", "ERR bad-request"},
      {"STATS", "ERR bad-request"},
      {"TABLES t", "ERR bad-request"},
      {"CREATE t2", "ERR bad-request"},
      {"CREATE t2 SYNTH 6", "ERR bad-request"},
      {"CREATE t2 CYCLIC 6 2", "ERR bad-request"},
      {"CREATE t2 CYCLIC x 2 2", "ERR bad-request"},
      {"CREATE t2 CYCLIC -6 2 2", "ERR bad-request"},
      // duplicate table: a distinct code, so clients can retry CREATE
      // idempotently without parsing the detail text
      {"CREATE t CYCLIC 6 2 2", "ERR table-exists"},
      // bad ranking payloads
      {"APPEND t 0 1 2", "ERR bad-ranking"},               // wrong size
      {"APPEND t 0 1 2 3 4 9", "ERR bad-ranking"},         // out of domain
      {"APPEND t 0 1 2 3 4 4", "ERR bad-ranking"},         // duplicate
      {"APPEND t 0 1 2 3 4 x", "ERR bad-ranking"},         // non-numeric
      {"APPEND t 0 1 2 3 4 -5", "ERR bad-ranking"},        // negative
      // beyond int32: must NOT truncate into a valid candidate id
      {"APPEND t 4294967296 1 2 3 4 5", "ERR bad-ranking"},
      // would truncate n through the int cast (and OOM if honoured)
      {"CREATE big CYCLIC 4294967297 2 2", "ERR bad-request"},
      {"APPEND t 0 1 2 3 4 5 ;", "ERR bad-ranking"},       // empty 2nd ranking
      {"APPEND t ; 0 1 2 3 4 5", "ERR bad-ranking"},       // empty 1st ranking
      {"APPEND t 0 1 2 3 4 5 ; 0 1 2", "ERR bad-ranking"},  // ragged batch
      // bad indices
      {"REMOVE t 2", "ERR bad-index"},    // profile holds 2 → valid: 0, 1
      {"REMOVE t 99", "ERR bad-index"},
      {"REMOVE t -1", "ERR bad-index"},
      {"REMOVE t 1.5", "ERR bad-index"},
      // bad RUN arguments
      {"RUN t Z9", "ERR unknown-method"},
      {"RUN t A4 DELTA", "ERR bad-request"},
      {"RUN t A4 DELTA x", "ERR bad-request"},
      {"RUN t A4 LIMIT -3", "ERR bad-request"},
      {"RUN t A4 WIBBLE 3", "ERR bad-request"},
      // I/O errors
      {"CREATE t3 FILE /no/such/file.csv", "ERR io"},
      // snapshot verbs: arity, unknown tables, unreadable files
      {"SNAPSHOT t", "ERR bad-request"},
      {"SNAPSHOT t a b", "ERR bad-request"},
      {"SNAPSHOT ghost /tmp/x.snap", "ERR no-such-table"},
      {"RESTORE t4", "ERR bad-request"},
      {"RESTORE t4 /no/such/file.snap", "ERR io"},
  };
  for (const auto& [request, expected_prefix] : cases) {
    const std::string response = Handle(request);
    EXPECT_EQ(response.rfind(expected_prefix, 0), 0u)
        << "request '" << request << "' drew '" << response << "'";
    EXPECT_EQ(StateSnapshot(), before)
        << "request '" << request << "' changed table state";
  }
  // And the table still serves correctly after the abuse.
  EXPECT_TRUE(IsOk(Handle("RUN t A4")));
}

TEST_F(ProtocolTest, DuplicateCreateDrawsTableExistsCode) {
  // The idempotent-retry contract: a client that lost a CREATE response
  // can re-send it and treat ERR table-exists as success — distinct from
  // bad-request, and guaranteed not to disturb the live table.
  const std::string before = StateSnapshot();
  const std::string response = Handle("CREATE t CYCLIC 6 2 3");
  EXPECT_EQ(response.rfind("ERR table-exists", 0), 0u) << response;
  EXPECT_EQ(StateSnapshot(), before);
  // Same code regardless of the CREATE source (shape differences must not
  // leak a different error class for the same condition).
  EXPECT_EQ(Handle("CREATE t CYCLIC 9 3 3").rfind("ERR table-exists", 0), 0u);
  // And the table still serves.
  EXPECT_TRUE(IsOk(Handle("RUN t A4")));
}

TEST_F(ProtocolTest, SnapshotToUnwritablePathRejectsBeforeDraining) {
  // The write target is probed before the queue drains: an unwritable
  // path must draw ERR io with the queued mutation still pending and the
  // generation counter unmoved.
  ASSERT_TRUE(IsOk(Handle("APPEND t 2 1 0 5 4 3")));
  const std::string before = StateSnapshot();
  ASSERT_NE(before.find("pending_ops=1"), std::string::npos) << before;
  const std::string response =
      Handle("SNAPSHOT t /no/such/dir/t.snap");
  EXPECT_EQ(response.rfind("ERR io", 0), 0u) << response;
  EXPECT_EQ(StateSnapshot(), before)
      << "a rejected SNAPSHOT must not have drained the queue";
}

TEST_F(ProtocolTest, RestoreErrorResponsesArePinned) {
  // The full response bytes for every way a snapshot file can be
  // unusable. A directory opens but reads as empty, so it draws the same
  // bad-snapshot line as an empty file.
  const std::string dir = ::testing::TempDir() + "manirank_restore_errors";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/a_directory");
  const std::string good = dir + "/good.snap";
  ASSERT_EQ(Handle("SNAPSHOT t " + good),
            "OK SNAPSHOT t rankings=2 generation=2 precedence=1 path=" + good);
  std::string bytes;
  {
    std::ifstream in(good, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 20u);
  const auto write_file = [&](const std::string& name,
                              const std::string& content) {
    std::ofstream(dir + "/" + name, std::ios::binary) << content;
    return dir + "/" + name;
  };
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  std::string corrupt = bytes;
  corrupt[bytes.size() / 2] ^= 0x5a;
  const std::string missing = dir + "/missing.snap";
  const std::string directory = dir + "/a_directory";
  const std::string empty = write_file("empty.snap", "");
  const std::string truncated =
      write_file("truncated.snap", bytes.substr(0, 10));
  const std::string magic = write_file("magic.snap", bad_magic);
  const std::string checksum = write_file("checksum.snap", corrupt);

  const std::string before = StateSnapshot();
  const std::vector<std::pair<std::string, std::string>> cases = {
      {missing, "ERR io: cannot open snapshot: " + missing},
      {directory, "ERR bad-snapshot: snapshot truncated: shorter than header"},
      {empty, "ERR bad-snapshot: snapshot truncated: shorter than header"},
      {truncated, "ERR bad-snapshot: snapshot truncated: shorter than header"},
      {magic,
       "ERR bad-snapshot: snapshot has bad magic (not a MANI-Rank snapshot "
       "file)"},
      {checksum,
       "ERR bad-snapshot: snapshot checksum mismatch (corrupt or truncated "
       "file)"},
  };
  for (const auto& [path, expected] : cases) {
    EXPECT_EQ(Handle("RESTORE r " + path), expected) << path;
  }
  EXPECT_EQ(StateSnapshot(), before);
  EXPECT_EQ(Handle("STATS r"), "ERR no-such-table: no such table: r");
  std::filesystem::remove_all(dir);
}

TEST_F(ProtocolTest, RunOnEmptyTableDrawsEmptyTableError) {
  ASSERT_TRUE(IsOk(Handle("CREATE empty CYCLIC 6 2 2")));
  EXPECT_EQ(Handle("RUN empty A4").rfind("ERR empty-table", 0), 0u);
  EXPECT_EQ(Handle("RUN empty all").rfind("ERR empty-table", 0), 0u);
  // Still servable once a profile arrives.
  ASSERT_TRUE(IsOk(Handle("APPEND empty 0 1 2 3 4 5")));
  EXPECT_TRUE(IsOk(Handle("RUN empty A4")));
}

TEST_F(ProtocolTest, ErrorsNeverEnqueueHalfABatch) {
  // A batch whose SECOND ranking is bad must not enqueue its first.
  const std::string before = StateSnapshot();
  EXPECT_TRUE(IsErr(Handle("APPEND t 0 1 2 3 4 5 ; 0 0 0 0 0 0")));
  EXPECT_EQ(StateSnapshot(), before);
  // The generation counter proves nothing was applied on a later wave.
  EXPECT_TRUE(IsOk(Handle("RUN t A3")));
  const std::string stats = Handle("STATS t");
  EXPECT_NE(stats.find("rankings=2 generation=2"), std::string::npos)
      << stats;
}

/// Masks the runs= counter and the result-cache counters: EVAL bumps
/// them (it IS a consensus run, and its consensus leg goes through the
/// result cache), but everything else in STATS must hold still.
std::string MaskRuns(std::string stats) {
  for (const std::string field :
       {" runs=", " cache_hits=", " cache_misses=", " cache_entries="}) {
    const size_t at = stats.find(field);
    if (at == std::string::npos) continue;
    size_t end = at + field.size();
    while (end < stats.size() && stats[end] != ' ') ++end;
    stats.replace(at, end - at, field + "_");
  }
  return stats;
}

TEST_F(ProtocolTest, EvalScoresARankingWithoutMutating) {
  const std::string before = StateSnapshot();
  const std::string response = Handle("EVAL t 0 1 2 3 4 5");
  EXPECT_EQ(response.rfind("OK EVAL t gen=2 method=A3", 0), 0u) << response;
  EXPECT_NE(response.find(" tau="), std::string::npos) << response;
  EXPECT_NE(response.find(" ntau="), std::string::npos) << response;
  EXPECT_NE(response.find(" parity="), std::string::npos) << response;
  EXPECT_NE(response.find(" max_parity="), std::string::npos) << response;
  // Read-only up to the runs counter: the generation must not have
  // moved, and EVAL must not drain queued mutations (it observes the
  // applied profile).
  EXPECT_EQ(MaskRuns(StateSnapshot()), MaskRuns(before));
  ASSERT_TRUE(IsOk(Handle("APPEND t 2 1 0 5 4 3")));
  EXPECT_EQ(Handle("EVAL t 0 1 2 3 4 5").rfind("OK EVAL t gen=2", 0), 0u);
  EXPECT_NE(StateSnapshot().find("pending_ops=1"), std::string::npos);
  // Deterministic: same table state, same ranking, same bytes.
  EXPECT_EQ(Handle("EVAL t 5 4 3 2 1 0"), Handle("EVAL t 5 4 3 2 1 0"));
}

TEST_F(ProtocolTest, EvalRejectsBadInputsAndLeavesStateUnchanged) {
  const std::string before = StateSnapshot();
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"EVAL", "ERR bad-request"},
      {"EVAL t", "ERR bad-request"},
      {"EVAL ghost 0 1 2 3 4 5", "ERR no-such-table"},
      {"EVAL t 0 1 2", "ERR bad-ranking"},            // wrong size
      {"EVAL t 0 1 2 3 4 9", "ERR bad-ranking"},      // out of domain
      {"EVAL t 0 1 2 3 4 4", "ERR bad-ranking"},      // duplicate
      {"EVAL t 0 1 2 3 4 x", "ERR bad-ranking"},      // non-numeric
      {"EVAL t 0 1 2 3 4 -5", "ERR bad-ranking"},     // negative
  };
  for (const auto& [request, expected_prefix] : cases) {
    const std::string response = Handle(request);
    EXPECT_EQ(response.rfind(expected_prefix, 0), 0u)
        << "request '" << request << "' drew '" << response << "'";
    EXPECT_EQ(StateSnapshot(), before)
        << "request '" << request << "' changed table state";
  }
  // An empty table has no consensus to score against.
  ASSERT_TRUE(IsOk(Handle("CREATE hollow CYCLIC 6 2 2")));
  EXPECT_EQ(Handle("EVAL hollow 0 1 2 3 4 5").rfind("ERR empty-table", 0),
            0u);
}

TEST_F(ProtocolTest, IntegerTokenGrammarIsPinnedInEveryPlace) {
  // One integer grammar for every numeric field: what strtol(..., 10)
  // accepts — a leading \v or \f, an optional sign, leading zeros — and
  // nothing else (no hex, no exponent, no trailing junk, nothing out of
  // range). Each token goes into every place an integer is read, and the
  // exact response bytes are pinned, ERR details included.
  const std::string append_ok =
      "OK APPEND t queued=1 pending_ops=1 pending_rankings=1";
  const std::string append_not_perm =
      "ERR bad-ranking: APPEND payload is not a permutation of 0..n-1";
  const std::string eval_ok =
      "OK EVAL t gen=2 method=A3 tau=7 ntau=0.466667 parity=0.333333,1,1 "
      "max_parity=1 fpr=0.666667,0.333333;1,0.5,0;1,0.8,0.6,0.4,0.2,0 "
      "ifpr_max=0:1 ifpr_min=5:0";
  const std::string eval_not_perm =
      "ERR bad-ranking: EVAL payload is not a permutation of 0..n-1";
  const std::string select_k2 =
      "OK SELECT t gen=2 k=2 method=A3 algo=greedy optimal=1 cost=1 "
      "air=0;0;0 four_fifths=0 selected=4,0";
  const std::string select_k3 =
      "OK SELECT t gen=2 k=3 method=A3 algo=greedy optimal=1 cost=3 "
      "air=0.5;1;0 four_fifths=0 selected=4,0,3";
  const std::string attr3_out_of_range =
      "ERR bad-request: SELECT attribute index 3 out of range for table "
      "with 2 attributes";
  const std::string cyclic_not_positive =
      "ERR bad-request: CYCLIC arguments must be positive integers";
  const std::string cyclic_too_big =
      "ERR bad-request: CYCLIC size out of range (n <= 5000, domains <= 64)";
  const std::string remove0 = "OK REMOVE t index=0 pending_ops=1";
  const std::string remove3 =
      "ERR bad-index: REMOVE index 3 out of range for profile of 3";
  const auto bad_id = [](const std::string& token) {
    return "ERR bad-ranking: candidate id must be a non-negative integer, "
           "got '" + token + "'";
  };
  const auto bad_k = [](const std::string& token) {
    return "ERR bad-request: SELECT k must be a positive integer, got '" +
           token + "'";
  };
  const auto bad_attr = [](const std::string& token) {
    return "ERR bad-request: ATTR attribute index must be a non-negative "
           "integer, got '" + token + "'";
  };
  const auto bad_index = [](const std::string& token) {
    return "ERR bad-index: REMOVE index must be a non-negative integer, "
           "got '" + token + "'";
  };
  const auto rejected = [&](const std::string& token) {
    return std::vector<std::string>{bad_id(token),   bad_id(token),
                                    bad_k(token),    bad_attr(token),
                                    cyclic_not_positive, bad_index(token)};
  };
  const std::string max_int = "2147483647";
  const std::string max_int_plus_1 = "2147483648";
  const std::string huge = "99999999999999999999";
  // token -> responses to: APPEND id, EVAL id, SELECT k, SELECT ATTR's
  // attribute index, CREATE CYCLIC's n, REMOVE's index.
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {
          {"0",
           {append_not_perm, eval_not_perm, bad_k("0"), select_k2,
            cyclic_not_positive, remove0}},
          {"007",
           {append_not_perm, eval_not_perm,
            "ERR bad-request: SELECT k must be in [1, 6], got 7",
            "ERR bad-request: SELECT attribute index 7 out of range for "
            "table with 2 attributes",
            "OK CREATE c candidates=7 rankings=0",
            "ERR bad-index: REMOVE index 7 out of range for profile of 2"}},
          {"+3",
           {append_ok, eval_ok, select_k3, attr3_out_of_range,
            "OK CREATE c candidates=3 rankings=0", remove3}},
          {"-0",
           {append_not_perm, eval_not_perm, bad_k("-0"), select_k2,
            cyclic_not_positive, remove0}},
          {"\v3",
           {append_ok, eval_ok, select_k3, attr3_out_of_range,
            "OK CREATE c candidates=3 rankings=0", remove3}},
          {"\f3",
           {append_ok, eval_ok, select_k3, attr3_out_of_range,
            "OK CREATE c candidates=3 rankings=0", remove3}},
          {"-1", rejected("-1")},
          {"3x", rejected("3x")},
          {"0x3", rejected("0x3")},
          {"1e3", rejected("1e3")},
          {max_int,
           {append_not_perm, eval_not_perm,
            "ERR bad-request: SELECT k must be in [1, 6], got " + max_int,
            "ERR bad-request: SELECT attribute index " + max_int +
                " out of range for table with 2 attributes",
            cyclic_too_big,
            "ERR bad-index: REMOVE index " + max_int +
                " out of range for profile of 2"}},
          {max_int_plus_1,
           {bad_id(max_int_plus_1), bad_id(max_int_plus_1),
            bad_k(max_int_plus_1), bad_attr(max_int_plus_1), cyclic_too_big,
            "ERR bad-index: REMOVE index " + max_int_plus_1 +
                " out of range for profile of 2"}},
          {huge, rejected(huge)},
          // ';' is its own token wherever it appears; in APPEND it splits
          // the payload into "0 1 2" (a valid 3-permutation) and "4 5".
          {";",
           {append_not_perm, bad_id(";"), bad_k(";"), bad_attr(";"),
            cyclic_not_positive, bad_index(";")}},
      };
  for (const auto& [token, expected] : cases) {
    // Every token starts from the fixture's table state.
    Handle("DROP t");
    ASSERT_TRUE(IsOk(Handle("CREATE t CYCLIC 6 2 3")));
    ASSERT_TRUE(IsOk(Handle("APPEND t 0 1 2 3 4 5 ; 5 4 3 2 1 0")));
    ASSERT_TRUE(IsOk(Handle("FLUSH t")));
    const std::vector<std::string> requests = {
        "APPEND t 0 1 2 " + token + " 4 5",
        "EVAL t 0 1 2 " + token + " 4 5",
        "SELECT t " + token,
        "SELECT t 2 ATTR " + token + " 0 0 2",
        "CREATE c CYCLIC " + token + " 2 2",
        "REMOVE t " + token,
    };
    ASSERT_EQ(requests.size(), expected.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(Handle(requests[i]), expected[i])
          << "request '" << requests[i] << "'";
      if (i == 4) Handle("DROP c");
    }
  }
}

/// The EVAL grammar and its error precedence on both paths. For every
/// hostile line the event loop's cache-only probe (Dispatcher::
/// TryHandleCached) must either decline with no counter moved or answer
/// exactly Handle's bytes, and STATS must then agree with a twin that
/// only ever calls Handle. The twin's answers to the precedence lines are
/// pinned too.
TEST(EvalBothPathsTest, HostileLinesAnswerHandlesBytesOrAreDeclined) {
  ContextManager probed_manager;
  ContextManager reference_manager;
  Dispatcher probed(&probed_manager);
  Dispatcher reference(&reference_manager);
  const auto both = [&](const std::string& line) {
    const std::string answer = reference.Handle(line);
    EXPECT_EQ(probed.Handle(line), answer) << line;
    return answer;
  };
  const auto stats = [](Dispatcher* d) {
    return d->Handle("STATS t") + " | " + d->Handle("STATS hollow");
  };
  for (const std::string line :
       {"CREATE t CYCLIC 6 2 3", "APPEND t 0 1 2 3 4 5 ; 5 4 3 2 1 0",
        "FLUSH t", "CREATE hollow CYCLIC 6 2 2"}) {
    both(line);
  }
  // The first EVAL misses and fills the A3 entry the rest hit.
  std::string response;
  EXPECT_FALSE(probed.TryHandleCached("EVAL t 0 1 2 3 4 5", &response));
  both("EVAL t 0 1 2 3 4 5");

  const std::string bad_x =
      "ERR bad-ranking: candidate id must be a non-negative integer, got "
      "'x'";
  const std::string bad_semicolon =
      "ERR bad-ranking: candidate id must be a non-negative integer, got "
      "';'";
  const std::string not_perm =
      "ERR bad-ranking: EVAL payload is not a permutation of 0..n-1";
  const std::string wrong_size =
      "ERR bad-ranking: evaluated ranking size does not match table";
  const std::string usage = "ERR bad-request: EVAL <table> <c0> <c1> ...";
  const std::string ok = "OK EVAL t gen=2 method=A3 tau=8 ";
  // {line, Handle's answer or, when it ends in ':' or ' ', its first
  // bytes; empty when pinned elsewhere}
  std::vector<std::pair<std::string, std::string>> lines;
  // Every integer token of CI's golden replay, in an id position
  // (IntegerTokenGrammarIsPinnedInEveryPlace pins Handle's bytes).
  for (const std::string token :
       {"0", "007", "+3", "-0", "\v3", "\f3", "-1", "3x", "0x3", "1e3",
        "2147483647", "2147483648", "99999999999999999999", ";"}) {
    lines.push_back({"EVAL t 0 1 2 " + token + " 4 5", ""});
  }
  const std::vector<std::pair<std::string, std::string>> precedence = {
      {"EVAL t 0 0 2 3 4 x", bad_x},  // a duplicate, then a bad token
      {"EVAL nosuch 0 x", bad_x},     // a bad token before the lookup
      {"EVAL nosuch 0 1 2 3 4 5", "ERR no-such-table:"},
      {"EVAL t 0 1 2 3 4 6", not_perm},  // an id >= count
      {"EVAL t 0 1 2", wrong_size},
      {"EVAL t 0 1 2 3 4 5 6", wrong_size},
      {"EVAL t ;", bad_semicolon},
      {"EVAL t 0 1 2 ; 3 4 5", bad_semicolon},
      {"EVAL t", usage},
      {"EVAL", usage},
      {"EVAL hollow 0 1 2 3 4 5", "ERR empty-table:"},  // nothing cached
      {"EVAL\tt 5 4 3\t2 1 0\r", ok},
      {"EVAL t 5 4 3 2 1 0", ok},
  };
  lines.insert(lines.end(), precedence.begin(), precedence.end());
  size_t served = 0;
  for (const auto& [line, expected] : lines) {
    const std::string before = stats(&probed);
    response.clear();
    std::string answer;
    if (probed.TryHandleCached(line, &response)) {
      ++served;
      answer = reference.Handle(line);
      EXPECT_EQ(response, answer) << "request '" << line << "'";
    } else {
      EXPECT_TRUE(response.empty()) << line;
      EXPECT_EQ(stats(&probed), before)
          << "declined probe '" << line << "' moved a counter";
      answer = both(line);
    }
    if (!expected.empty() &&
        (expected.back() == ':' || expected.back() == ' ')) {
      EXPECT_EQ(answer.rfind(expected, 0), 0u) << line << " -> " << answer;
    } else if (!expected.empty()) {
      EXPECT_EQ(answer, expected) << line;
    }
    EXPECT_EQ(stats(&probed), stats(&reference)) << "after '" << line << "'";
  }
  // The five permutations: "+3", "\v3", "\f3", the tab/CR line and the
  // reversal.
  EXPECT_EQ(served, 5u);
}

TEST_F(ProtocolTest, ReplicateIsUnavailableWithoutAStreamingFrontEnd) {
  // The plain dispatcher (stdin / --script replay) has no
  // durability layer and no binary stream to switch into: every arity
  // draws a single ERR line and no state moves.
  const std::string before = StateSnapshot();
  EXPECT_EQ(Handle("REPLICATE t").rfind("ERR unavailable", 0), 0u);
  EXPECT_EQ(Handle("REPLICATE ghost").rfind("ERR no-such-table", 0), 0u);
  EXPECT_EQ(Handle("REPLICATE").rfind("ERR bad-request", 0), 0u);
  EXPECT_EQ(Handle("REPLICATE t extra").rfind("ERR bad-request", 0), 0u);
  EXPECT_EQ(StateSnapshot(), before);
  // Classified for the schedulers: a barrier AND flagged for streaming
  // interception; malformed variants lose the stream flag's table.
  const serve::RequestClass cls = serve::ClassifyRequest("REPLICATE t");
  EXPECT_TRUE(cls.replicate);
  EXPECT_TRUE(cls.barrier);
}

TEST_F(ProtocolTest, FollowerTablesRejectMutationsWithReadonly) {
  manager_.SetTableRole("t", serve::TableRole::kFollower);
  const std::string before = StateSnapshot();
  ASSERT_NE(before.find("role=follower"), std::string::npos) << before;
  for (const char* request :
       {"APPEND t 0 1 2 3 4 5", "REMOVE t 0",
        "SNAPSHOT-POLICY t GENERATIONS 4"}) {
    const std::string response = Handle(request);
    EXPECT_TRUE(IsErr(response)) << request << " drew " << response;
    EXPECT_EQ(StateSnapshot(), before)
        << "request '" << request << "' changed follower state";
  }
  EXPECT_EQ(Handle("APPEND t 0 1 2 3 4 5").rfind("ERR readonly", 0), 0u);
  // With APPEND/REMOVE rejected the follower's queue is always empty, so
  // FLUSH degenerates to a harmless no-op drain.
  EXPECT_EQ(Handle("FLUSH t"), "OK FLUSH t applied=0");
  // Reads keep serving: RUN (draining is a no-op on an empty queue),
  // STATS, EVAL.
  EXPECT_TRUE(IsOk(Handle("RUN t A4")));
  EXPECT_TRUE(IsOk(Handle("EVAL t 0 1 2 3 4 5")));
  // The replication path itself may still apply records.
  OpRecord record;
  record.kind = OpRecord::Kind::kAppend;
  record.rankings.push_back(Ranking({2, 0, 4, 1, 5, 3}));
  EXPECT_EQ(manager_.ApplyReplicated("t", std::move(record)), 1u);
  EXPECT_NE(Handle("STATS t").find("rankings=3 generation=3"),
            std::string::npos);
  // Back to leader: mutations flow again.
  manager_.SetTableRole("t", serve::TableRole::kLeader);
  EXPECT_TRUE(IsOk(Handle("APPEND t 0 1 2 3 4 5")));
  EXPECT_TRUE(IsOk(Handle("FLUSH t")));
}

TEST_F(ProtocolTest, FuzzedRequestLinesNeverCrashOrCorrupt) {
  // Deterministic fuzz-ish sweep: random token soup plus mutations of
  // valid requests. Every line must draw exactly one OK/ERR response (or
  // none for comments), never throw, and ERR responses must leave the
  // applied state untouched.
  Rng rng(20260730);
  const std::vector<std::string> vocabulary = {
      "CREATE", "APPEND",  "REMOVE", "RUN",   "STATS", "FLUSH",
      "DROP",   "TABLES",  "t",      "ghost", "A4",    "all",
      "0",      "1",       "5",      "-1",    ";",     "DELTA",
      "LIMIT",  "CYCLIC",  "FILE",   "0.2",   "x",     "99999999999999999999",
      "#",      "\t",      "",       "🙂",    "NaN",   "1e9",
      "EVAL",   "REPLICATE"};
  int errs = 0;
  int oks = 0;
  for (int round = 0; round < 400; ++round) {
    std::ostringstream line;
    const int tokens = 1 + static_cast<int>(rng.NextUint64(8));
    for (int i = 0; i < tokens; ++i) {
      if (i > 0) line << ' ';
      line << vocabulary[rng.NextUint64(vocabulary.size())];
    }
    const std::string before = StateSnapshot();
    std::string response;
    ASSERT_NO_THROW(response = Handle(line.str())) << line.str();
    if (response.empty()) continue;  // comment/blank
    ASSERT_TRUE(IsOk(response) || IsErr(response))
        << "request '" << line.str() << "' drew '" << response << "'";
    if (IsErr(response)) {
      ++errs;
      EXPECT_EQ(StateSnapshot(), before)
          << "request '" << line.str() << "' errored but changed state";
    } else {
      ++oks;
    }
  }
  // The vocabulary is rigged so both outcomes occur.
  EXPECT_GT(errs, 50);
  EXPECT_GT(oks, 0);
  // The dispatcher is still fully servable after the storm: a fresh
  // table created post-fuzz serves a clean wave.
  EXPECT_TRUE(IsOk(Handle("CREATE postfuzz CYCLIC 6 2 2")));
  EXPECT_TRUE(IsOk(Handle("APPEND postfuzz 0 1 2 3 4 5")));
  EXPECT_TRUE(IsOk(Handle("RUN postfuzz A4")));
}

}  // namespace
}  // namespace manirank
