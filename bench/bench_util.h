#ifndef MANIRANK_BENCH_BENCH_UTIL_H_
#define MANIRANK_BENCH_BENCH_UTIL_H_

// Shared plumbing for the experiment harnesses in bench/. Each binary
// regenerates one table or figure of the paper. By default every harness
// runs a reduced-but-shape-preserving sweep so that the full suite
// finishes in minutes; set MANIRANK_BENCH_FULL=1 for the paper-scale
// parameters (documented per binary in EXPERIMENTS.md).

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "manirank.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace manirank::bench {

/// True when the paper-scale sweep was requested.
inline bool FullScale() {
  const char* env = std::getenv("MANIRANK_BENCH_FULL");
  return env != nullptr && std::string(env) != "0";
}

/// True for the CI smoke configuration (MANIRANK_BENCH_QUICK=1): each
/// harness that honours it drops its slowest rows or repetitions.
inline bool QuickMode() {
  const char* env = std::getenv("MANIRANK_BENCH_QUICK");
  return env != nullptr && std::string(env) != "0";
}

/// Standard banner so the tee'd bench log is self-describing.
inline void Banner(const std::string& experiment, const std::string& what) {
  std::cout << "\n=== " << experiment << " — " << what << " ===\n";
  std::cout << (FullScale() ? "[scale: FULL (paper parameters)]"
                            : "[scale: default; MANIRANK_BENCH_FULL=1 for "
                              "paper parameters]")
            << "\n\n";
}

/// Builds the three Table I datasets at a given per-cell size (the paper
/// uses 6 candidates in each of the 15 Race x Gender cells -> n = 90).
inline ModalDesignResult TableIDatasetScaled(TableIDataset kind,
                                             int per_cell) {
  ModalDesignSpec spec;
  spec.attributes = {
      {"Race", {"AlaskaNat", "Asian", "Black", "NatHawaii", "White"}},
      {"Gender", {"Man", "Non-Binary", "Woman"}},
  };
  spec.cell_counts.assign(15, per_cell);
  switch (kind) {
    case TableIDataset::kLowFair:
      spec.attribute_arp_target = {0.70, 0.70};
      spec.irp_target = 1.00;
      break;
    case TableIDataset::kMediumFair:
      spec.attribute_arp_target = {0.50, 0.50};
      spec.irp_target = 0.75;
      break;
    case TableIDataset::kHighFair:
      spec.attribute_arp_target = {0.30, 0.30};
      spec.irp_target = 0.54;
      break;
  }
  // The 15 intersection cells cannot all reach FPR extremes at tiny n;
  // loosen tolerance slightly below the paper's 90-candidate setting.
  spec.tolerance = per_cell >= 6 ? 0.02 : 0.04;
  spec.seed = 11;
  return DesignModalRanking(spec);
}

/// Runs one registry method and reports fairness + preference metrics.
struct MethodRun {
  std::string id;
  std::string name;
  double seconds = 0.0;
  double pd_loss = 0.0;
  std::vector<double> parity;  // per constrained grouping
  bool satisfied = false;
  bool exact = true;
};

/// Forces the context's shared caches (precedence matrix + parity scores)
/// and returns the seconds spent. Scaling harnesses call this before
/// timing methods so the shared build is reported once, explicitly —
/// otherwise the first method to run would silently absorb it and later
/// methods would report cache-warm marginal costs that depend on sweep
/// order.
inline double WarmContext(const ConsensusContext& ctx) {
  Stopwatch timer;
  ctx.Precedence();
  ctx.BaseParityScores();
  return timer.Seconds();
}

inline MethodRun RunMethod(const MethodSpec& method,
                           const ConsensusContext& ctx,
                           const ConsensusOptions& options) {
  MethodRun run;
  run.id = method.id;
  run.name = method.name;
  // Through the context entry point (not method.run directly) so the
  // mutation-exclusion debug check registers the run.
  ConsensusOutput out = ctx.RunMethod(method, options);
  run.seconds = out.seconds;
  run.pd_loss = PdLoss(ctx.base_rankings(), out.consensus);
  run.parity = ctx.EvaluateFairness(out.consensus).parity;
  run.satisfied = out.satisfied;
  run.exact = out.exact;
  return run;
}

inline std::string Fmt(double v, int precision = 3) {
  return TablePrinter::Fmt(v, precision);
}

}  // namespace manirank::bench

#endif  // MANIRANK_BENCH_BENCH_UTIL_H_
