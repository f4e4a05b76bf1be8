// manirank — command-line front end for fair consensus ranking.
//
// Usage:
//   manirank audit     --table T.csv --rankings R.csv
//   manirank consensus --table T.csv --rankings R.csv --method A4
//                      [--delta 0.1] [--time-limit 30] [--output out.csv]
//                      [--append R2.csv ...]
//   manirank consensus --restore S.snap --method A3 [...]
//   manirank snapshot  --table T.csv --rankings R.csv --output S.snap
//   manirank methods
//
// `snapshot` folds a profile into the versioned binary snapshot format of
// data/snapshot.h (Borda points + precedence matrix, checksummed);
// `consensus --restore` serves consensus methods straight from such a file
// without the profile — the CLI twin of the serving layer's SNAPSHOT /
// RESTORE verbs. A restored profile is summarized: precedence/Borda-based
// methods only (B2-B4 need the retained rankings), and `--method all`
// sweeps the supported subset.
//
// CSV formats are the library's (data/csv.h): the table file starts with
// "candidate,<attr>,..." and rankings are one permutation per row,
// candidates best-first.
//
// --append (repeatable, consensus only) is the batch-serving mode: one
// ConsensusContext is built over the initial rankings and then mutated in
// place for every append file — each batch folds into the cached
// precedence/parity/Borda state in O(n^2) per ranking instead of
// rebuilding, and the chosen method re-runs against the updated profile.

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "manirank.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace {

using namespace manirank;

struct Args {
  std::string command;
  std::string table_path;
  std::string rankings_path;
  std::string method = "A4";  // Fair-Copeland: fast and exact-polynomial
  std::string output_path;
  std::string restore_path;
  std::vector<std::string> append_paths;
  double delta = 0.1;
  double time_limit = 30.0;
  /// snapshot command: also carry the retained profile (format v2), so a
  /// restore serves every method — including the base-ranking baselines.
  bool exact_snapshot = false;
};

int Usage() {
  std::cerr <<
      "usage:\n"
      "  manirank audit     --table T.csv --rankings R.csv\n"
      "  manirank consensus --table T.csv --rankings R.csv [--method ID|all]\n"
      "                     [--delta D] [--time-limit S] [--output out.csv]\n"
      "                     [--append R2.csv ...]\n"
      "  manirank consensus --restore S.snap [--method ID|all] [...]\n"
      "                     (serve from a snapshot, no profile replay;\n"
      "                      precedence/Borda methods only)\n"
      "  manirank snapshot  --table T.csv --rankings R.csv --output S.snap\n"
      "                     [--exact]     (exact: keep the full profile, so\n"
      "                      a restore serves all methods, B2-B4 included)\n"
      "  manirank methods\n";
  return 2;
}

bool ParseDouble(const std::string& flag, const std::string& value,
                 double* out) {
  try {
    size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    *out = parsed;
    return true;
  } catch (const std::exception&) {
    std::cerr << "flag " << flag << " needs a number, got '" << value
              << "'\n";
    return false;
  }
}

std::optional<Args> Parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--exact") {  // the one value-less flag
      args.exact_snapshot = true;
      continue;
    }
    const bool known = flag == "--table" || flag == "--rankings" ||
                       flag == "--method" || flag == "--delta" ||
                       flag == "--time-limit" || flag == "--output" ||
                       flag == "--append" || flag == "--restore";
    if (!known) {
      std::cerr << "unknown flag: " << flag << "\n";
      return std::nullopt;
    }
    if (i + 1 >= argc) {
      std::cerr << "flag " << flag << " requires a value\n";
      return std::nullopt;
    }
    const std::string value = argv[++i];
    if (flag == "--table") {
      args.table_path = value;
    } else if (flag == "--rankings") {
      args.rankings_path = value;
    } else if (flag == "--method") {
      args.method = value;
    } else if (flag == "--delta") {
      if (!ParseDouble(flag, value, &args.delta)) return std::nullopt;
    } else if (flag == "--time-limit") {
      if (!ParseDouble(flag, value, &args.time_limit)) return std::nullopt;
    } else if (flag == "--output") {
      args.output_path = value;
    } else if (flag == "--append") {
      args.append_paths.push_back(value);
    } else if (flag == "--restore") {
      args.restore_path = value;
    } else {
      // Unreachable while the chain covers the `known` list; errors
      // loudly if the two ever drift apart.
      std::cerr << "unhandled flag: " << flag << "\n";
      return std::nullopt;
    }
  }
  if (!args.append_paths.empty() && args.command != "consensus") {
    std::cerr << "--append is only valid with the consensus command\n";
    return std::nullopt;
  }
  if (args.exact_snapshot && args.command != "snapshot") {
    std::cerr << "--exact is only valid with the snapshot command\n";
    return std::nullopt;
  }
  if (!args.restore_path.empty() && args.command != "consensus") {
    std::cerr << "--restore is only valid with the consensus command\n";
    return std::nullopt;
  }
  if (!args.restore_path.empty() &&
      (!args.table_path.empty() || !args.rankings_path.empty())) {
    std::cerr << "--restore replaces --table/--rankings (the snapshot "
                 "carries both)\n";
    return std::nullopt;
  }
  return args;
}

struct Study {
  CandidateTable table;
  std::vector<Ranking> rankings;
};

std::optional<Study> Load(const Args& args) {
  std::ifstream table_file(args.table_path);
  if (!table_file) {
    std::cerr << "cannot open table file: " << args.table_path << "\n";
    return std::nullopt;
  }
  std::ifstream rankings_file(args.rankings_path);
  if (!rankings_file) {
    std::cerr << "cannot open rankings file: " << args.rankings_path << "\n";
    return std::nullopt;
  }
  try {
    Study study{ReadCandidateTableCsv(table_file),
                ReadRankingsCsv(rankings_file)};
    if (study.rankings.empty()) {
      std::cerr << "rankings file is empty\n";
      return std::nullopt;
    }
    for (const Ranking& r : study.rankings) {
      if (r.size() != study.table.num_candidates()) {
        std::cerr << "ranking size " << r.size() << " != table size "
                  << study.table.num_candidates() << "\n";
        return std::nullopt;
      }
    }
    return study;
  } catch (const std::exception& e) {
    std::cerr << "parse error: " << e.what() << "\n";
    return std::nullopt;
  }
}

void PrintFairness(const std::string& label, const Ranking& r,
                   const CandidateTable& table, TablePrinter* out) {
  FairnessReport report = EvaluateFairness(r, table);
  std::vector<std::string> row = {label};
  for (double parity : report.parity) {
    row.push_back(TablePrinter::Fmt(parity, 3));
  }
  out->AddRow(std::move(row));
}

std::vector<std::string> FairnessHeader(const CandidateTable& table) {
  std::vector<std::string> header = {"ranking"};
  for (int a = 0; a < table.num_attributes(); ++a) {
    header.push_back("ARP " + table.attribute(a).name);
  }
  if (table.num_attributes() > 1) header.push_back("IRP");
  return header;
}

int RunAudit(const Args& args) {
  std::optional<Study> study = Load(args);
  if (!study) return 1;
  TablePrinter out(FairnessHeader(study->table));
  for (size_t i = 0; i < study->rankings.size(); ++i) {
    PrintFairness("r" + std::to_string(i), study->rankings[i], study->table,
                  &out);
  }
  out.Print(std::cout);
  return 0;
}

/// An ILP method that proved its constraints infeasible (A1 at a delta
/// no ranking of these groups can meet) returns an empty consensus; the
/// report cells below say so instead of scoring the empty ranking.
bool Infeasible(const Ranking& consensus) { return consensus.size() == 0; }

/// PD loss column: undefined on a summarized (snapshot-restored) context,
/// whose base rankings were folded away.
std::string PdLossCell(const ConsensusContext& ctx, const Ranking& consensus) {
  if (Infeasible(consensus)) return "infeasible";
  if (!ctx.has_base_rankings()) return "n/a";
  return TablePrinter::Fmt(PdLoss(ctx.base_rankings(), consensus), 4);
}

std::string MaxParityCell(const ConsensusContext& ctx,
                          const Ranking& consensus) {
  if (Infeasible(consensus)) return "infeasible";
  return TablePrinter::Fmt(ctx.EvaluateFairness(consensus).MaxParity(), 3);
}

/// Runs the chosen method (or the registry sweep — every method the
/// context supports — for "all") and prints the report. Returns the
/// consensus rankings for --output (paper order for "all").
std::vector<Ranking> RunBatch(const ConsensusContext& ctx,
                              const MethodSpec* method, bool run_all,
                              const ConsensusOptions& options) {
  if (run_all) {
    // Batch sweep: every servable registry method against one shared
    // context (the precedence matrix is built exactly once for the whole
    // profile). Warm the shared caches first so the per-method secs
    // column reports marginal costs instead of charging the build to the
    // first method.
    Stopwatch warm_timer;
    if (ctx.has_base_rankings()) {
      ctx.Precedence();
      ctx.BaseParityScores();
      std::cout << "shared precedence+parity build: "
                << TablePrinter::Fmt(warm_timer.Seconds(), 3) << "s\n";
    }
    TablePrinter out({"method", "PD loss", "max ARP/IRP", "fair", "secs"});
    std::vector<Ranking> consensuses;
    size_t skipped = 0;
    for (const MethodSpec& m : AllMethods()) {
      if (!ctx.SupportsMethod(m)) {
        ++skipped;
        continue;
      }
      ConsensusOutput output = ctx.RunMethod(m, options);
      out.AddRow({"(" + m.id + ") " + m.name,
                  PdLossCell(ctx, output.consensus),
                  MaxParityCell(ctx, output.consensus),
                  output.satisfied ? "yes" : "NO",
                  TablePrinter::Fmt(output.seconds, 2)});
      consensuses.push_back(std::move(output.consensus));
    }
    out.Print(std::cout);
    if (skipped != 0) {
      std::cout << skipped
                << " method(s) skipped: they need the retained base "
                   "rankings, which a restored snapshot does not carry\n";
    }
    return consensuses;
  }

  ConsensusOutput result = ctx.RunMethod(*method, options);
  const bool infeasible = Infeasible(result.consensus);
  if (!infeasible) {
    TablePrinter out(FairnessHeader(ctx.table()));
    PrintFairness("consensus (" + method->name + ")", result.consensus,
                  ctx.table(), &out);
    out.Print(std::cout);
  }
  std::cout << "PD loss: " << PdLossCell(ctx, result.consensus)
            << "  time: " << TablePrinter::Fmt(result.seconds, 2) << "s"
            << "  delta " << options.delta << " satisfied: "
            << (result.satisfied ? "yes" : "no")
            << (infeasible ? "  (infeasible)"
                : method->uses_ilp && !result.exact ? "  (time-capped)"
                                                    : "")
            << "\n";
  return {std::move(result.consensus)};
}

/// The consensus serving loop shared by the CSV and --restore paths: run,
/// fold each --append batch into the live context, re-run, write --output.
int ServeConsensus(const Args& args, ConsensusContext& ctx,
                   const MethodSpec* method, bool run_all) {
  ConsensusOptions options;
  options.delta = args.delta;
  options.time_limit_seconds = args.time_limit;

  std::vector<Ranking> consensuses =
      RunBatch(ctx, method, run_all, options);

  for (const std::string& path : args.append_paths) {
    std::ifstream append_file(path);
    if (!append_file) {
      std::cerr << "cannot open append file: " << path << "\n";
      return 1;
    }
    std::vector<Ranking> batch;
    try {
      batch = ReadRankingsCsv(append_file);
    } catch (const std::exception& e) {
      std::cerr << "parse error in " << path << ": " << e.what() << "\n";
      return 1;
    }
    if (batch.empty()) {
      std::cerr << "append file is empty: " << path << "\n";
      return 1;
    }
    for (const Ranking& r : batch) {
      if (r.size() != ctx.num_candidates()) {
        std::cerr << "ranking size " << r.size() << " != table size "
                  << ctx.num_candidates() << " in " << path << "\n";
        return 1;
      }
    }
    const size_t batch_size = batch.size();
    Stopwatch append_timer;
    ctx.AddRankings(std::move(batch));
    std::cout << "\n--- appended " << batch_size << " rankings from " << path
              << " (profile now " << ctx.num_rankings() << ", fold "
              << TablePrinter::Fmt(append_timer.Seconds(), 3)
              << "s, generation " << ctx.generation() << ") ---\n";
    consensuses = RunBatch(ctx, method, run_all, options);
  }

  if (!args.output_path.empty()) {
    std::ofstream out_file(args.output_path);
    if (!out_file) {
      std::cerr << "cannot open output file: " << args.output_path << "\n";
      return 1;
    }
    WriteRankingsCsv(out_file, consensuses);
    std::cout << (run_all ? "all " + std::to_string(consensuses.size()) +
                                " consensus rankings written to "
                          : std::string("consensus written to "))
              << args.output_path
              << (run_all ? " (rows in paper method order)" : "") << "\n";
  }
  return 0;
}

int RunConsensus(const Args& args) {
  const bool run_all = args.method == "all";
  const MethodSpec* method = run_all ? nullptr : FindMethod(args.method);
  if (!run_all && method == nullptr) {
    std::cerr << "unknown method '" << args.method
              << "' (see `manirank methods`)\n";
    return 2;
  }
  if (!args.restore_path.empty()) {
    // Cold start from a snapshot: the summarized state replaces the
    // profile replay — the CLI twin of the serving layer's RESTORE verb.
    std::optional<TableSnapshot> snapshot;
    try {
      snapshot.emplace(ReadTableSnapshotFile(args.restore_path));
    } catch (const std::exception& e) {
      std::cerr << "cannot restore snapshot: " << e.what() << "\n";
      return 1;
    }
    // An exact (v2, --exact) snapshot restores the full retained context;
    // a summarized one restores the folded state only.
    std::optional<ConsensusContext> ctx;
    if (snapshot->retained) {
      ctx.emplace(std::move(snapshot->base_rankings),
                  std::move(snapshot->summary), snapshot->table);
    } else {
      ctx.emplace(std::move(snapshot->summary), snapshot->table);
    }
    std::cout << "restored " << ctx->num_rankings() << " "
              << (snapshot->retained ? "retained" : "folded")
              << " rankings (generation " << ctx->generation() << ") from "
              << args.restore_path << "\n";
    if (!run_all && !ctx->SupportsMethod(*method)) {
      std::cerr << "method " << method->id << " (" << method->name
                << ") needs the retained base rankings, which this "
                   "snapshot does not carry — pick a precedence/Borda "
                   "method, or write the snapshot with --exact\n";
      return 2;
    }
    return ServeConsensus(args, *ctx, method, run_all);
  }
  std::optional<Study> study = Load(args);
  if (!study) return 1;
  // One context owns the whole serving session: it is built over the
  // initial rankings and then mutated in place for every --append batch,
  // so the cached precedence/parity/Borda state absorbs each batch as
  // O(n^2)-per-ranking deltas instead of being rebuilt.
  ConsensusContext ctx(std::move(study->rankings), study->table);
  return ServeConsensus(args, ctx, method, run_all);
}

/// Folds a CSV profile into the versioned binary snapshot format of
/// data/snapshot.h — the artifact `consensus --restore` and the serving
/// layer's RESTORE verb recover from without replaying the profile.
int RunSnapshot(const Args& args) {
  if (args.output_path.empty()) {
    std::cerr << "snapshot needs --output S.snap\n";
    return 2;
  }
  std::optional<Study> study = Load(args);
  if (!study) return 1;
  const size_t num_rankings = study->rankings.size();
  ConsensusContext ctx(std::move(study->rankings), study->table);
  Stopwatch timer;
  TableSnapshot snapshot{study->table, ctx.Snapshot(), /*applied_batches=*/0,
                         /*applied_rankings=*/0, args.exact_snapshot,
                         args.exact_snapshot ? ctx.base_rankings()
                                             : Profile()};
  try {
    WriteTableSnapshotFile(args.output_path, snapshot);
  } catch (const std::exception& e) {
    std::cerr << "cannot write snapshot: " << e.what() << "\n";
    return 1;
  }
  std::cout << "snapshot of " << num_rankings << " rankings ("
            << ctx.num_candidates() << " candidates, precedence matrix "
            << (args.exact_snapshot ? "and retained profile included"
                                    : "included")
            << ") written to " << args.output_path << " in "
            << TablePrinter::Fmt(timer.Seconds(), 3) << "s\n";
  return 0;
}

int RunMethods() {
  TablePrinter out({"id", "name", "fairness-aware", "solver"});
  for (const MethodSpec& m : AllMethods()) {
    out.AddRow({m.id, m.name, m.fairness_aware ? "yes" : "no",
                m.uses_ilp ? "ILP (time-capped on large inputs)" : "polynomial"});
  }
  out.Print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args = Parse(argc, argv);
  if (!args) return Usage();
  if (args->command == "audit") return RunAudit(*args);
  if (args->command == "consensus") return RunConsensus(*args);
  if (args->command == "snapshot") return RunSnapshot(*args);
  if (args->command == "methods") return RunMethods();
  return Usage();
}
