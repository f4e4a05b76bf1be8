#include "core/kemeny.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/aggregators.h"
#include "lp/linear_ordering.h"

namespace manirank {

bool TryTransitiveKemeny(const PrecedenceMatrix& w, Ranking* result) {
  const int n = w.size();
  // Kahn's algorithm on the strict-majority digraph (edge a -> b when more
  // rankings prefer a over b). If it is acyclic, every topological order
  // respects all strict majorities and attains the Kemeny lower bound.
  // W[b][a] counts the rankings preferring a over b.
  std::vector<int> indegree(n, 0);
  w.ForEachPairTiled(
      [&indegree](CandidateId a, CandidateId b, double w_ab, double w_ba) {
        indegree[a] += w_ab > w_ba;
        indegree[b] += w_ba > w_ab;
      });
  // Deterministic Kahn: repeatedly take the smallest-id zero-indegree node.
  std::vector<CandidateId> order;
  order.reserve(n);
  std::vector<bool> placed(n, false);
  for (int step = 0; step < n; ++step) {
    CandidateId next = -1;
    for (CandidateId c = 0; c < n; ++c) {
      if (!placed[c] && indegree[c] == 0) {
        next = c;
        break;
      }
    }
    if (next < 0) return false;  // cycle
    placed[next] = true;
    order.push_back(next);
    for (CandidateId b = 0; b < n; ++b) {
      if (!placed[b] && w.PrefersCount(next, b) > w.PrefersCount(b, next)) {
        --indegree[b];
      }
    }
  }
  *result = Ranking(std::move(order));
  return true;
}

KemenyResult KemenyAggregate(const PrecedenceMatrix& w,
                             const KemenyOptions& options) {
  KemenyResult result;
  if (w.size() <= 1) {
    result.ranking = Ranking::Identity(w.size());
    result.optimal = true;
    result.used_fast_path = true;
    return result;
  }
  if (TryTransitiveKemeny(w, &result.ranking)) {
    result.optimal = true;
    result.used_fast_path = true;
    result.cost = w.KemenyCost(result.ranking);
    assert(std::abs(result.cost - w.LowerBound()) < 1e-6);
    return result;
  }
  lp::LinearOrderingProblem problem(w.ToDense());
  lp::LinearOrderingProblem::SolveOptions solve;
  solve.max_nodes = options.max_nodes;
  solve.time_limit_seconds = options.time_limit_seconds;
  lp::LinearOrderingProblem::Result ilp = problem.Solve(solve);
  result.ilp_nodes = ilp.nodes_explored;
  result.ilp_cuts = ilp.cuts_added;
  if (ilp.has_solution) {
    result.ranking = Ranking(ilp.order);
    result.optimal = ilp.status == lp::SolveStatus::kOptimal;
    result.cost = w.KemenyCost(result.ranking);
    return result;
  }
  // No solution within budget: fall back to locally optimised Copeland.
  result.ranking = CopelandAggregate(w);
  LocalKemenyImprove(w, &result.ranking);
  result.optimal = false;
  result.cost = w.KemenyCost(result.ranking);
  return result;
}

int64_t LocalKemenyImprove(const PrecedenceMatrix& w, Ranking* ranking,
                           int max_passes) {
  const int n = ranking->size();
  int64_t swaps = 0;
  for (int pass = 0; pass < max_passes; ++pass) {
    bool improved = false;
    for (int p = 0; p + 1 < n; ++p) {
      const CandidateId above = ranking->At(p);
      const CandidateId below = ranking->At(p + 1);
      // Swapping the adjacent pair changes the cost by
      // W[below][above] - W[above][below].
      if (w.W(below, above) < w.W(above, below)) {
        ranking->SwapPositions(p, p + 1);
        improved = true;
        ++swaps;
      }
    }
    if (!improved) break;
  }
  return swaps;
}

KemenyResult BruteForceKemeny(const PrecedenceMatrix& w) {
  const int n = w.size();
  assert(n <= 10 && "factorial search is only for test-sized instances");
  std::vector<CandidateId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  KemenyResult best;
  best.cost = std::numeric_limits<double>::infinity();
  do {
    Ranking r{std::vector<CandidateId>(perm)};
    const double cost = w.KemenyCost(r);
    if (cost < best.cost - 1e-12) {
      best.cost = cost;
      best.ranking = std::move(r);
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  best.optimal = true;
  return best;
}

}  // namespace manirank
