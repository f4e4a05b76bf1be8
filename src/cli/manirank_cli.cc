// manirank — command-line front end for fair consensus ranking.
//
// Usage:
//   manirank audit     --table T.csv --rankings R.csv
//   manirank consensus --table T.csv --rankings R.csv --method A4
//                      [--delta 0.1] [--time-limit 30] [--output out.csv]
//   manirank methods
//
// CSV formats are the library's (data/csv.h): the table file starts with
// "candidate,<attr>,..." and rankings are one permutation per row,
// candidates best-first.
//
// The CLI is one pass over one profile. Stateful work (appending batches,
// snapshots, restores) is manirank_serve's: its CREATE / APPEND / RUN /
// SNAPSHOT / RESTORE verbs, over stdin, --script or TCP.

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
  double delta = 0.1;
  double time_limit = 30.0;
};

int Usage() {
  std::cerr <<
      "usage:\n"
      "  manirank audit     --table T.csv --rankings R.csv\n"
      "  manirank consensus --table T.csv --rankings R.csv [--method ID|all]\n"
      "                     [--delta D] [--time-limit S] [--output out.csv]\n"
      "  manirank methods\n";
  return 2;
}

/// Parses a --delta / --time-limit value. `>= 0` is the RUN verb's rule
/// for DELTA and LIMIT; it also rejects NaN, which every parity test
/// would otherwise pass.
bool ParseNonNegative(const std::string& flag, const std::string& value,
                      double* out) {
  try {
    size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != value.size() || !(parsed >= 0)) {
      throw std::invalid_argument(value);
    }
    *out = parsed;
    return true;
  } catch (const std::exception&) {
    std::cerr << "flag " << flag << " needs a non-negative number, got '"
              << value << "'\n";
    return false;
  }
}

std::optional<Args> Parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool known = flag == "--table" || flag == "--rankings" ||
                       flag == "--method" || flag == "--delta" ||
                       flag == "--time-limit" || flag == "--output";
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
      if (!ParseNonNegative(flag, value, &args.delta)) return std::nullopt;
    } else if (flag == "--time-limit") {
      if (!ParseNonNegative(flag, value, &args.time_limit)) {
        return std::nullopt;
      }
    } else {
      args.output_path = value;
    }
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

std::string PdLossCell(const ConsensusContext& ctx, const Ranking& consensus) {
  if (Infeasible(consensus)) return "infeasible";
  return TablePrinter::Fmt(PdLoss(ctx.base_rankings(), consensus), 4);
}

std::string MaxParityCell(const ConsensusContext& ctx,
                          const Ranking& consensus) {
  if (Infeasible(consensus)) return "infeasible";
  return TablePrinter::Fmt(ctx.EvaluateFairness(consensus).MaxParity(), 3);
}

/// Runs the chosen method (or every registry method for "all") and prints
/// the report. Returns the consensus rankings for --output (paper order
/// for "all").
std::vector<Ranking> RunBatch(const ConsensusContext& ctx,
                              const MethodSpec* method, bool run_all,
                              const ConsensusOptions& options) {
  if (run_all) {
    // Batch sweep: every registry method against one shared context (the
    // precedence matrix is built exactly once for the whole profile).
    // Warm the shared caches first so the per-method secs column reports
    // marginal costs instead of charging the build to the first method.
    Stopwatch warm_timer;
    ctx.Precedence();
    ctx.BaseParityScores();
    std::cout << "shared precedence+parity build: "
              << TablePrinter::Fmt(warm_timer.Seconds(), 3) << "s\n";
    TablePrinter out({"method", "PD loss", "max ARP/IRP", "fair", "secs"});
    std::vector<Ranking> consensuses;
    for (const MethodSpec& m : AllMethods()) {
      ConsensusOutput output = ctx.RunMethod(m, options);
      out.AddRow({"(" + m.id + ") " + m.name,
                  PdLossCell(ctx, output.consensus),
                  MaxParityCell(ctx, output.consensus),
                  output.satisfied ? "yes" : "NO",
                  TablePrinter::Fmt(output.seconds, 2)});
      consensuses.push_back(std::move(output.consensus));
    }
    out.Print(std::cout);
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

int RunConsensus(const Args& args) {
  const bool run_all = args.method == "all";
  const MethodSpec* method = run_all ? nullptr : FindMethod(args.method);
  if (!run_all && method == nullptr) {
    std::cerr << "unknown method '" << args.method
              << "' (see `manirank methods`)\n";
    return 2;
  }
  std::optional<Study> study = Load(args);
  if (!study) return 1;
  ConsensusContext ctx(std::move(study->rankings), study->table);
  ConsensusOptions options;
  options.delta = args.delta;
  options.time_limit_seconds = args.time_limit;
  const std::vector<Ranking> consensuses =
      RunBatch(ctx, method, run_all, options);

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
  if (args->command == "methods") return RunMethods();
  return Usage();
}
