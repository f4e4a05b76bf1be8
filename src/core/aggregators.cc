#include "core/aggregators.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

namespace manirank {
namespace {

/// Sorts candidate ids by descending score, candidate id ascending on ties.
template <typename Score>
Ranking RankByScoreDesc(const std::vector<Score>& score) {
  std::vector<CandidateId> order(score.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](CandidateId a, CandidateId b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return a < b;
  });
  return Ranking(std::move(order));
}

/// Strongest-path strengths as one flat row-major n x n array: p[a*n + b]
/// is the widest beat-path from a to b (Floyd-Warshall widest-path).
std::vector<double> StrongestPathsFlat(const PrecedenceMatrix& w) {
  const size_t n = static_cast<size_t>(w.size());
  std::vector<double> p(n * n, 0.0);
  // Only majority edges carry strength: a -> b carries W[b][a] (the
  // rankings preferring a) when it exceeds W[a][b].
  w.ForEachPairTiled(
      [&p, n](CandidateId a, CandidateId b, double w_ab, double w_ba) {
        p[a * n + b] = w_ba > w_ab ? w_ba : 0.0;
        p[b * n + a] = w_ab > w_ba ? w_ab : 0.0;
      });
  for (size_t c = 0; c < n; ++c) {
    const double* row_c = p.data() + c * n;
    for (size_t a = 0; a < n; ++a) {
      if (a == c) continue;
      double* row_a = p.data() + a * n;
      const double pac = row_a[c];
      if (pac == 0.0) continue;
      // b == c leaves row_a[c] as it is (min(pac, x) <= pac); b == a only
      // touches the diagonal, which is reset to 0 right after.
      for (size_t b = 0; b < n; ++b) {
        row_a[b] = std::max(row_a[b], std::min(pac, row_c[b]));
      }
      row_a[a] = 0.0;
    }
  }
  return p;
}

}  // namespace

Ranking BordaAggregate(const std::vector<Ranking>& base_rankings) {
  assert(!base_rankings.empty());
  const int n = base_rankings[0].size();
  std::vector<int64_t> points(n, 0);
  for (const Ranking& r : base_rankings) {
    assert(r.size() == n);
    for (int p = 0; p < n; ++p) {
      points[r.At(p)] += n - 1 - p;  // candidates ranked below
    }
  }
  return BordaFromPoints(points);
}

Ranking BordaFromPoints(const std::vector<int64_t>& points) {
  return RankByScoreDesc(points);
}

Ranking CopelandAggregate(const PrecedenceMatrix& w) {
  // W[b][a] counts the rankings preferring a over b, so a wins its contest
  // against b iff W[b][a] >= W[a][b]; a tie is a win for both. The smaller
  // id's wins go to a second array: with no store to the same array in
  // between, the compiler keeps wins[a] in a register along its row.
  const int n = w.size();
  std::vector<int> wins(n, 0);
  std::vector<int> wins_as_a(n, 0);
  w.ForEachPairTiled([&wins, &wins_as_a](CandidateId a, CandidateId b,
                                         double w_ab, double w_ba) {
    wins_as_a[a] += w_ba >= w_ab;
    wins[b] += w_ab >= w_ba;
  });
  for (int c = 0; c < n; ++c) wins[c] += wins_as_a[c];
  return RankByScoreDesc(wins);
}

std::vector<std::vector<double>> SchulzeStrongestPaths(
    const PrecedenceMatrix& w) {
  const size_t n = static_cast<size_t>(w.size());
  const std::vector<double> flat = StrongestPathsFlat(w);
  std::vector<std::vector<double>> p(n);
  for (size_t a = 0; a < n; ++a) {
    p[a].assign(flat.begin() + a * n, flat.begin() + (a + 1) * n);
  }
  return p;
}

Ranking SchulzeAggregate(const PrecedenceMatrix& w) {
  const size_t n = static_cast<size_t>(w.size());
  const std::vector<double> p = StrongestPathsFlat(w);
  const auto beats = [&p, n](size_t a, size_t b) {
    return p[a * n + b] > p[b * n + a];
  };
  // The relation "p[a][b] > p[b][a]" is a strict partial order (Schulze
  // 2018); counting wins yields a linear extension of it.
  std::vector<int> wins(n, 0);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      if (a != b && beats(a, b)) ++wins[a];
    }
  }
  std::vector<CandidateId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](CandidateId a, CandidateId b) {
    if (wins[a] != wins[b]) return wins[a] > wins[b];
    // Within a wins tie, fall back to the direct beat-path comparison,
    // then candidate id, to keep the order deterministic.
    if (p[a * n + b] != p[b * n + a]) return beats(a, b);
    return a < b;
  });
  return Ranking(std::move(order));
}

size_t PickAPermIndex(const std::vector<Ranking>& base_rankings,
                      const PrecedenceMatrix& w) {
  assert(!base_rankings.empty());
  size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < base_rankings.size(); ++i) {
    const double cost = w.KemenyCost(base_rankings[i]);
    if (cost < best_cost) {
      best_cost = cost;
      best = i;
    }
  }
  return best;
}

}  // namespace manirank
