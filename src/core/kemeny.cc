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
  const size_t words = (static_cast<size_t>(n) + 63) / 64;
  // Kahn's algorithm on the strict-majority digraph (edge a -> b when more
  // rankings prefer a over b). If it is acyclic, every topological order
  // respects all strict majorities and attains the Kemeny lower bound.
  // W[b][a] counts the rankings preferring a over b. One tiled pass over
  // W records each edge as bit b of row a in `out` and counts indegrees.
  std::vector<uint64_t> out(static_cast<size_t>(n) * words, 0);
  std::vector<int> indegree(n, 0);
  w.ForEachPairTiled([&](CandidateId a, CandidateId b, double w_ab,
                         double w_ba) {
    const bool a_to_b = w_ba > w_ab;
    const bool b_to_a = w_ab > w_ba;
    out[a * words + b / 64] |= static_cast<uint64_t>(a_to_b) << (b % 64);
    out[b * words + a / 64] |= static_cast<uint64_t>(b_to_a) << (a % 64);
    indegree[a] += b_to_a;
    indegree[b] += a_to_b;
  });
  // Deterministic Kahn: repeatedly take the smallest-id zero-indegree
  // node, the lowest set bit of `ready`.
  std::vector<uint64_t> ready(words, 0);
  for (CandidateId c = 0; c < n; ++c) {
    if (indegree[c] == 0) ready[c / 64] |= uint64_t{1} << (c % 64);
  }
  std::vector<CandidateId> order;
  order.reserve(n);
  for (int step = 0; step < n; ++step) {
    size_t word = 0;
    while (word < words && ready[word] == 0) ++word;
    if (word == words) return false;  // cycle
    const CandidateId next =
        static_cast<CandidateId>(word * 64 + __builtin_ctzll(ready[word]));
    ready[word] &= ready[word] - 1;
    order.push_back(next);
    // Every out-neighbour of `next` is still unplaced: it had an unplaced
    // predecessor (next) until now.
    const uint64_t* row = out.data() + static_cast<size_t>(next) * words;
    for (size_t k = 0; k < words; ++k) {
      for (uint64_t bits = row[k]; bits != 0; bits &= bits - 1) {
        const CandidateId b =
            static_cast<CandidateId>(k * 64 + __builtin_ctzll(bits));
        if (--indegree[b] == 0) ready[k] |= uint64_t{1} << (b % 64);
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
