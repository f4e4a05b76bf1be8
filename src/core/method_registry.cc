#include "core/method_registry.h"

#include "core/aggregators.h"
#include "core/baselines.h"
#include "core/fair_aggregators.h"
#include "core/fair_kemeny.h"
#include "core/fairness_metrics.h"
#include "core/kemeny.h"
#include "core/make_mr_fair.h"
#include "core/precedence.h"
#include "util/stopwatch.h"

namespace manirank {
namespace {

MakeMrFairOptions MmfOptions(const ConsensusOptions& opts) {
  MakeMrFairOptions options;
  options.delta = opts.delta;
  return options;
}

KemenyOptions IlpOptions(const ConsensusOptions& opts) {
  KemenyOptions options;
  options.time_limit_seconds = opts.time_limit_seconds;
  return options;
}

ConsensusOutput RunFairKemeny(const ConsensusContext& ctx,
                              const ConsensusOptions& opts) {
  Stopwatch timer;
  FairKemenyOptions options;
  options.delta = opts.delta;
  options.time_limit_seconds = opts.time_limit_seconds;
  FairKemenyResult r =
      FairKemenyAggregate(ctx.Precedence(), ctx.table(), options);
  ConsensusOutput out;
  out.consensus = std::move(r.ranking);
  out.exact = r.optimal;
  out.satisfied = r.feasible && ctx.Satisfies(out.consensus, opts.delta);
  out.seconds = timer.Seconds();
  return out;
}

ConsensusOutput RunFairSchulze(const ConsensusContext& ctx,
                               const ConsensusOptions& opts) {
  Stopwatch timer;
  FairAggregateResult r =
      FairSchulze(ctx.Precedence(), ctx.table(), MmfOptions(opts));
  ConsensusOutput out;
  out.consensus = std::move(r.fair_consensus);
  out.satisfied = r.satisfied;
  out.seconds = timer.Seconds();
  return out;
}

ConsensusOutput RunFairBorda(const ConsensusContext& ctx,
                             const ConsensusOptions& opts) {
  Stopwatch timer;
  // Borda from the context's cached point totals (identical to
  // BordaAggregate over the base rankings, but also available on
  // summarized streaming contexts and maintained incrementally).
  FairAggregateResult r = CorrectConsensus(BordaFromPoints(ctx.BordaPoints()),
                                           ctx.table(), MmfOptions(opts));
  ConsensusOutput out;
  out.consensus = std::move(r.fair_consensus);
  out.satisfied = r.satisfied;
  out.seconds = timer.Seconds();
  return out;
}

ConsensusOutput RunFairCopeland(const ConsensusContext& ctx,
                                const ConsensusOptions& opts) {
  Stopwatch timer;
  FairAggregateResult r =
      FairCopeland(ctx.Precedence(), ctx.table(), MmfOptions(opts));
  ConsensusOutput out;
  out.consensus = std::move(r.fair_consensus);
  out.satisfied = r.satisfied;
  out.seconds = timer.Seconds();
  return out;
}

ConsensusOutput RunKemeny(const ConsensusContext& ctx,
                          const ConsensusOptions& opts) {
  Stopwatch timer;
  KemenyResult r = KemenyAggregate(ctx.Precedence(), IlpOptions(opts));
  ConsensusOutput out;
  out.consensus = std::move(r.ranking);
  out.exact = r.optimal;
  out.satisfied = ctx.Satisfies(out.consensus, opts.delta);
  out.seconds = timer.Seconds();
  return out;
}

ConsensusOutput RunKemenyWeighted(const ConsensusContext& ctx,
                                  const ConsensusOptions& opts) {
  Stopwatch timer;
  const PrecedenceMatrix& w =
      ctx.WeightedPrecedence(ctx.KemenyFairnessWeights());
  KemenyResult r = KemenyAggregate(w, IlpOptions(opts));
  ConsensusOutput out;
  out.consensus = std::move(r.ranking);
  out.exact = r.optimal;
  out.satisfied = ctx.Satisfies(out.consensus, opts.delta);
  out.seconds = timer.Seconds();
  return out;
}

ConsensusOutput RunPickFairestPerm(const ConsensusContext& ctx,
                                   const ConsensusOptions& opts) {
  Stopwatch timer;
  ConsensusOutput out;
  out.consensus = ctx.base_rankings()[ctx.FairestBaseIndex()];
  out.satisfied = ctx.Satisfies(out.consensus, opts.delta);
  out.seconds = timer.Seconds();
  return out;
}

ConsensusOutput RunCorrectFairestPerm(const ConsensusContext& ctx,
                                      const ConsensusOptions& opts) {
  Stopwatch timer;
  MakeMrFairResult r =
      MakeMrFair(ctx.base_rankings()[ctx.FairestBaseIndex()], ctx.table(),
                 MmfOptions(opts));
  ConsensusOutput out;
  out.consensus = std::move(r.ranking);
  out.satisfied = r.satisfied;
  out.seconds = timer.Seconds();
  return out;
}

}  // namespace

const std::vector<MethodSpec>& AllMethods() {
  // Fields: id, name, uses_ilp, fairness_aware, requires_base,
  // requires_precedence, run. B2-B4 need the retained profile (fairness
  // weights / fairest-perm scans); A3 is the one method servable from
  // Borda points alone.
  static const std::vector<MethodSpec>* methods = new std::vector<MethodSpec>{
      {"A1", "Fair-Kemeny", true, true, false, true, RunFairKemeny},
      {"A2", "Fair-Schulze", false, true, false, true, RunFairSchulze},
      {"A3", "Fair-Borda", false, true, false, false, RunFairBorda},
      {"A4", "Fair-Copeland", false, true, false, true, RunFairCopeland},
      {"B1", "Kemeny", true, false, false, true, RunKemeny},
      {"B2", "Kemeny-Weighted", true, false, true, false, RunKemenyWeighted},
      {"B3", "Pick-Fairest-Perm", false, false, true, false,
       RunPickFairestPerm},
      {"B4", "Correct-Fairest-Perm", false, true, true, false,
       RunCorrectFairestPerm},
  };
  return *methods;
}

const MethodSpec* FindMethod(std::string_view id_or_name) {
  for (const MethodSpec& m : AllMethods()) {
    if (m.id == id_or_name || m.name == id_or_name) return &m;
  }
  return nullptr;
}

}  // namespace manirank
