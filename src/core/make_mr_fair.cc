#include "core/make_mr_fair.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace manirank {
namespace {

/// Index of the highest set bit of a nonzero word.
int TopBit(uint64_t w) { return 63 - __builtin_clzll(w); }
/// Bits 0..bit set (bit in [0, 63]; 2 << 63 wraps to 0 for unsigned).
uint64_t UpToMask(int bit) { return (2ULL << bit) - 1; }

/// Position set as n-bit occupancy words: bit p of word p / 64.
struct PositionBits {
  const uint64_t* words;
  int num_words;

  /// Lowest set position, -1 when empty.
  int First() const {
    for (int w = 0; w < num_words; ++w) {
      if (words[w] != 0) return w * 64 + __builtin_ctzll(words[w]);
    }
    return -1;
  }
  /// Highest set position, -1 when empty.
  int Last() const {
    for (int w = num_words - 1; w >= 0; --w) {
      if (words[w] != 0) return w * 64 + TopBit(words[w]);
    }
    return -1;
  }
  /// Number of set positions <= pos.
  int RankUpTo(int pos) const {
    const int w = pos >> 6;
    int rank = 0;
    for (int i = 0; i < w; ++i) rank += __builtin_popcountll(words[i]);
    return rank + __builtin_popcountll(words[w] & UpToMask(pos & 63));
  }
  /// Position of the k-th (0-based) set bit; k must be < the bit count.
  int Select(uint64_t k) const {
    for (int w = 0;; ++w) {
      uint64_t word = words[w];
      const uint64_t c = static_cast<uint64_t>(__builtin_popcountll(word));
      if (k >= c) {
        k -= c;
        continue;
      }
      for (; k > 0; --k) word &= word - 1;
      return w * 64 + __builtin_ctzll(word);
    }
  }
};

struct GroupingState {
  const Grouping* grouping;
  double threshold;
  std::vector<int64_t> favored;  // FPR numerators
  std::vector<int64_t> denom;    // mixed-pair counts
  int num_words = 0;             // ceil(n / 64)
  /// Occupied positions per group: group g's words start at g * num_words.
  std::vector<uint64_t> occupied;

  PositionBits Positions(int g) const {
    return {occupied.data() + static_cast<size_t>(g) * num_words, num_words};
  }
  /// Moves group g's member from position `from` to position `to`.
  void Move(int g, int from, int to) {
    uint64_t* words = occupied.data() + static_cast<size_t>(g) * num_words;
    words[from >> 6] ^= 1ULL << (from & 63);
    words[to >> 6] ^= 1ULL << (to & 63);
  }

  double Fpr(int g) const {
    if (denom[g] == 0) return 0.5;
    return static_cast<double>(favored[g]) / static_cast<double>(denom[g]);
  }

  /// (parity, argmax group, argmin group).
  void Parity(double* parity, int* highest, int* lowest) const {
    double max_fpr = -std::numeric_limits<double>::infinity();
    double min_fpr = std::numeric_limits<double>::infinity();
    *highest = *lowest = 0;
    for (int g = 0; g < grouping->num_groups(); ++g) {
      const double f = Fpr(g);
      if (f > max_fpr) {
        max_fpr = f;
        *highest = g;
      }
      if (f < min_fpr) {
        min_fpr = f;
        *lowest = g;
      }
    }
    *parity = grouping->num_groups() < 2 ? 0.0 : max_fpr - min_fpr;
  }
};

/// Anti-cycling tabu list over the last kTenure swapped candidate pairs,
/// with std::set semantics over a FIFO: a pair is tabu from its push until
/// the *oldest* queued copy of it expires, even if a newer copy is still
/// queued (expiry erases the pair outright). Lookups are filtered by a
/// per-candidate count of live pairs, so most cost one array read.
class TabuList {
 public:
  explicit TabuList(int n) : marks_(static_cast<size_t>(n), 0) {}

  bool Contains(CandidateId a, CandidateId b) const {
    if (marks_[a] == 0 || marks_[b] == 0) return false;
    const Pair key = Key(a, b);
    for (int i = 0; i < num_live_; ++i) {
      if (live_[i] == key) return true;
    }
    return false;
  }

  void Push(CandidateId a, CandidateId b) {
    const Pair key = Key(a, b);
    Insert(key);
    if (queued_ < kTenure) {
      fifo_[(head_ + queued_++) % kTenure] = key;
    } else {
      // After the insert: re-pushing the expiring pair leaves it not tabu.
      Erase(fifo_[head_]);
      fifo_[head_] = key;
      head_ = (head_ + 1) % kTenure;
    }
  }

  void Clear() {
    for (int i = 0; i < num_live_; ++i) Unmark(live_[i]);
    num_live_ = queued_ = head_ = 0;
  }

 private:
  static constexpr int kTenure = 16;
  using Pair = std::pair<CandidateId, CandidateId>;

  static Pair Key(CandidateId a, CandidateId b) {
    return a < b ? Pair(a, b) : Pair(b, a);
  }
  void Unmark(const Pair& key) {
    --marks_[key.first];
    --marks_[key.second];
  }
  void Insert(const Pair& key) {
    if (Contains(key.first, key.second)) return;
    live_[num_live_++] = key;
    ++marks_[key.first];
    ++marks_[key.second];
  }
  void Erase(const Pair& key) {
    for (int i = 0; i < num_live_; ++i) {
      if (live_[i] == key) {
        Unmark(key);
        live_[i] = live_[--num_live_];
        return;
      }
    }
  }

  std::vector<uint8_t> marks_;  // live pairs containing each candidate
  Pair fifo_[kTenure];          // ring of the last kTenure pushes
  int head_ = 0, queued_ = 0;
  Pair live_[kTenure + 1];  // the set; one over tenure between insert/erase
  int num_live_ = 0;
};

/// The paper's swap-pair selection: q is the position of the highest
/// member of G_lowest that has at least one G_highest member above it;
/// p is the position of the lowest such G_highest member above q.
/// Returns false if no (G_highest above G_lowest) pair exists.
///
/// Convergence safeguards (deviations from the paper noted in the header):
///  1. A swap across distance d moves the two groups' FPR gap by
///     d * (1/denom_h + 1/denom_l). Whenever the paper's pair would
///     overshoot past -threshold — which makes the repair loop oscillate
///     around small thresholds — we pick the smallest in-band distance
///     (lands just inside +threshold, minimal collateral on the other
///     groupings), else the largest undershooting distance, else the
///     overall minimum.
///  2. Pairs on the caller's tabu list (recent swaps) are skipped unless
///     nothing else is available, which breaks deterministic two-cycles
///     between coupled groupings.
///
/// Cost: O(n / 64) to find G_highest's top-ranked member plus one merge
/// pass over both groups' words that visits at most kScanCap G_lowest
/// members.
bool FindPaperSwap(const GroupingState& state, int gh, int gl,
                   double threshold, const Ranking& r, const TabuList& tabu,
                   int* p, int* q) {
  const PositionBits high = state.Positions(gh);
  const PositionBits low = state.Positions(gl);
  const int hmin = high.First();
  if (hmin < 0) return false;
  const int first_word = hmin >> 6;
  // Keeps the first word's G_lowest members strictly below hmin.
  const uint64_t first_mask = ~UpToMask(hmin & 63);
  const double gap = state.Fpr(gh) - state.Fpr(gl);
  const double alpha = 1.0 / static_cast<double>(state.denom[gh]) +
                       1.0 / static_cast<double>(state.denom[gl]);
  const double d_max = (gap + threshold) / alpha;  // stay above -threshold
  const double d_min = (gap - threshold) / alpha;  // land below +threshold

  auto scan = [&](bool respect_tabu) -> bool {
    int paper_p = -1, paper_q = -1;      // first (topmost-G_lowest) pair
    int in_band_p = -1, in_band_q = -1;  // smallest d in [d_min, d_max]
    int under_p = -1, under_q = -1;      // largest d < d_min
    int min_p = -1, min_q = -1;          // smallest d overall
    // Cap the alternatives examined per swap so huge groups (10^5-candidate
    // inputs) keep O(1)-ish swap selection; the nearest crossings carry the
    // most useful distances anyway. Tabu-skipped members count too.
    constexpr int kScanCap = 512;
    int scanned = 0;
    int last_high = -1;  // highest G_highest position in earlier words
    for (int w = first_word; w < low.num_words && scanned < kScanCap; ++w) {
      const uint64_t hi = high.words[w];
      uint64_t lo = low.words[w] & (w == first_word ? first_mask : ~0ULL);
      for (; lo != 0 && scanned < kScanCap; lo &= lo - 1, ++scanned) {
        const int bit = __builtin_ctzll(lo);
        const uint64_t above = hi & ((1ULL << bit) - 1);
        const int qq = w * 64 + bit;
        const int pp = above != 0 ? w * 64 + TopBit(above) : last_high;
        assert(pp >= 0);
        if (respect_tabu && tabu.Contains(r.At(pp), r.At(qq))) continue;
        const int d = qq - pp;
        if (paper_p < 0) {
          paper_p = pp;
          paper_q = qq;
        }
        if (min_p < 0 || d < min_q - min_p) {
          min_p = pp;
          min_q = qq;
        }
        if (static_cast<double>(d) <= d_max) {
          if (static_cast<double>(d) >= d_min) {
            if (in_band_p < 0 || d < in_band_q - in_band_p) {
              in_band_p = pp;
              in_band_q = qq;
            }
          } else if (under_p < 0 || d > under_q - under_p) {
            under_p = pp;
            under_q = qq;
          }
        }
      }
      if (hi != 0) last_high = w * 64 + TopBit(hi);
    }
    if (paper_p < 0) return false;  // everything tabu (or unreachable)
    if (static_cast<double>(paper_q - paper_p) <= d_max) {
      *p = paper_p;
      *q = paper_q;  // the paper's own pair does not overshoot
    } else if (in_band_p >= 0) {
      *p = in_band_p;
      *q = in_band_q;
    } else if (under_p >= 0) {
      *p = under_p;
      *q = under_q;
    } else {
      *p = min_p;
      *q = min_q;
    }
    return true;
  };
  // Aspiration: if the tabu list blocks every pair, ignore it.
  return scan(/*respect_tabu=*/true) || scan(/*respect_tabu=*/false);
}

/// Ablation policy: a uniformly random (G_highest above G_lowest) pair.
bool FindRandomSwap(const GroupingState& state, int gh, int gl,
                    const Ranking& r, const TabuList& tabu, Rng* rng, int* p,
                    int* q) {
  const PositionBits high = state.Positions(gh);
  const PositionBits low = state.Positions(gl);
  const int hmin = high.First();
  const int lmax = low.Last();
  if (hmin < 0 || lmax < 0 || hmin >= lmax) return false;  // no crossing
  const uint64_t high_count =
      static_cast<uint64_t>(state.grouping->group_size(gh));
  const int low_count = state.grouping->group_size(gl);
  for (int attempt = 0; attempt < 64; ++attempt) {
    // Random G_highest member, then a random lower G_lowest member.
    const int h = high.Select(rng->NextUint64(high_count));
    const int above = low.RankUpTo(h);
    if (above == low_count) continue;
    const uint64_t below = static_cast<uint64_t>(low_count - above);
    *p = h;
    *q = low.Select(static_cast<uint64_t>(above) + rng->NextUint64(below));
    return true;
  }
  return FindPaperSwap(state, gh, gl, state.threshold, r, tabu, p, q);
}

}  // namespace

MakeMrFairResult MakeMrFair(const Ranking& consensus,
                            const CandidateTable& table,
                            const MakeMrFairOptions& options) {
  const int n = consensus.size();
  MakeMrFairResult result;
  result.ranking = consensus;
  Ranking& r = result.ranking;

  const ManiRankThresholds thresholds =
      options.thresholds.value_or(
          ManiRankThresholds::Uniform(table.num_attributes(), options.delta));
  const int64_t max_swaps =
      options.max_swaps >= 0 ? options.max_swaps : TotalPairs(n);
  const bool indexed = options.engine == MakeMrFairOptions::Engine::kIndexed;
  Rng rng(options.seed);

  // --- build per-criterion state -------------------------------------------
  std::vector<FairnessCriterion> criteria;
  if (options.use_standard_criteria) {
    criteria = ManiRankCriteria(table, thresholds);
  }
  criteria.insert(criteria.end(), options.extra_criteria.begin(),
                  options.extra_criteria.end());
  std::vector<GroupingState> states;
  states.reserve(criteria.size());
  for (const FairnessCriterion& criterion : criteria) {
    GroupingState s;
    s.grouping = criterion.grouping;
    s.threshold = criterion.threshold;
    s.favored = GroupFavoredPairs(r, *s.grouping);
    s.denom.resize(s.grouping->num_groups());
    for (int g = 0; g < s.grouping->num_groups(); ++g) {
      s.denom[g] = MixedPairs(s.grouping->group_size(g), n);
    }
    s.num_words = (n + 63) / 64;
    s.occupied.assign(
        static_cast<size_t>(s.grouping->num_groups()) * s.num_words, 0);
    for (int pos = 0; pos < n; ++pos) {
      const size_t g = static_cast<size_t>(s.grouping->group_of[r.At(pos)]);
      s.occupied[g * s.num_words + (pos >> 6)] |= 1ULL << (pos & 63);
    }
    states.push_back(std::move(s));
  }

  // Stall guard: the greedy loop can cycle between configurations when a
  // threshold is unreachable (e.g. parity 0 with an odd number of mixed
  // pairs). Track the best max-violation seen and bail out when no strict
  // improvement happens for a full window; the best state is restored by
  // undoing the swap history (swaps are involutions), which avoids
  // snapshotting the ranking on every improvement.
  const int64_t stall_window = std::max<int64_t>(256, 4LL * n);
  double best_violation = std::numeric_limits<double>::infinity();
  std::vector<std::pair<int, int>> swap_history;
  size_t best_history_size = 0;
  int64_t swaps_since_best = 0;
  // On a stall the search is kicked from the best state with a few random
  // crossing swaps (simulated-annealing style) before giving up for good.
  int restarts_left = 6;

  // Applies a position swap to the ranking AND every grouping's
  // incremental state (favored counts + position bits). Also used to
  // *undo* history entries — a swap is its own inverse.
  auto apply_swap = [&](int p, int q) {
    const CandidateId u = r.At(p);
    const CandidateId v = r.At(q);
    const int64_t dist = q - p;
    for (GroupingState& s : states) {
      const int a = s.grouping->group_of[u];
      const int b = s.grouping->group_of[v];
      if (a != b) {
        // A swap across distance d transfers exactly d favored mixed
        // pairs from the upper candidate's group to the lower one's (all
        // other groups' gains against u cancel their losses against v).
        s.favored[a] -= dist;
        s.favored[b] += dist;
        s.Move(a, p, q);
        s.Move(b, q, p);
      }
    }
    r.SwapPositions(p, q);
  };
  auto rewind_to_best = [&]() {
    while (swap_history.size() > best_history_size) {
      const auto [hp, hq] = swap_history.back();
      swap_history.pop_back();
      apply_swap(hp, hq);
    }
  };

  // Anti-cycling tabu list over recently swapped candidate pairs.
  TabuList tabu(n);

  constexpr double kTol = 1e-12;
  while (result.swaps < max_swaps) {
    // The reference engine recomputes every score from the ranking before
    // each decision, exactly as Algorithm 2 is written.
    if (!indexed) {
      for (GroupingState& s : states) {
        s.favored = GroupFavoredPairs(r, *s.grouping);
      }
    }
    // Order violating groupings by parity, descending (paper: correct the
    // attribute with the maximum ARP/IRP first).
    struct Candidate {
      double parity;
      size_t state_index;
      int gh, gl;
    };
    std::vector<Candidate> violating;
    double max_violation = 0.0;
    for (size_t i = 0; i < states.size(); ++i) {
      double parity;
      int gh, gl;
      states[i].Parity(&parity, &gh, &gl);
      max_violation =
          std::max(max_violation, parity - states[i].threshold);
      if (parity > states[i].threshold + kTol) {
        violating.push_back({parity, i, gh, gl});
      }
    }
    if (violating.empty()) {
      result.satisfied = true;
      return result;
    }
    if (max_violation < best_violation - kTol) {
      best_violation = max_violation;
      best_history_size = swap_history.size();
      swaps_since_best = 0;
    } else if (++swaps_since_best > stall_window) {
      rewind_to_best();
      if (restarts_left-- <= 0) {
        result.satisfied = false;
        return result;
      }
      // Kick: a handful of random crossing swaps on the worst grouping to
      // escape the plateau, then resume the greedy from there.
      tabu.Clear();
      for (int kick = 0; kick < 8; ++kick) {
        double parity;
        int worst = -1, gh = 0, gl = 0;
        double worst_violation = kTol;
        for (size_t i = 0; i < states.size(); ++i) {
          int hi, lo;
          states[i].Parity(&parity, &hi, &lo);
          if (parity - states[i].threshold > worst_violation) {
            worst_violation = parity - states[i].threshold;
            worst = static_cast<int>(i);
            gh = hi;
            gl = lo;
          }
        }
        if (worst < 0) break;
        int kp, kq;
        if (!FindRandomSwap(states[worst], gh, gl, r, tabu, &rng, &kp,
                            &kq)) {
          break;
        }
        apply_swap(kp, kq);
        swap_history.emplace_back(kp, kq);
        ++result.swaps;
      }
      swaps_since_best = 0;
      continue;
    }
    std::stable_sort(violating.begin(), violating.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.parity > b.parity;
                     });
    // Take the worst grouping that still admits a corrective swap. The
    // paper's pair is (argmax FPR, argmin FPR); when it is blocked or
    // keeps cycling (tabu), the neighbourhood extends to lowering the max
    // group past any other group, or raising the min group past any other
    // — both strictly shrink the violating gap.
    int p = -1, q = -1;
    bool found = false;
    for (const Candidate& c : violating) {
      const GroupingState& s = states[c.state_index];
      if (options.swap_policy != MakeMrFairOptions::SwapPolicy::kPaper) {
        found = FindRandomSwap(s, c.gh, c.gl, r, tabu, &rng, &p, &q);
        if (found) break;
        continue;
      }
      // Group indices ordered by FPR (ascending).
      std::vector<int> by_fpr(s.grouping->num_groups());
      std::iota(by_fpr.begin(), by_fpr.end(), 0);
      std::stable_sort(by_fpr.begin(), by_fpr.end(), [&](int a, int b) {
        return s.Fpr(a) < s.Fpr(b);
      });
      // Pair priority: (max,min) first — the paper's choice — then
      // (max, next-lowest...) and (next-highest..., min).
      std::vector<std::pair<int, int>> pairs = {{c.gh, c.gl}};
      for (size_t i = 1; i + 1 < by_fpr.size(); ++i) {
        pairs.push_back({c.gh, by_fpr[i]});
        pairs.push_back({by_fpr[by_fpr.size() - 1 - i], c.gl});
      }
      constexpr size_t kMaxPairsTried = 9;
      for (size_t i = 0; i < pairs.size() && i < kMaxPairsTried && !found;
           ++i) {
        const auto [hi, lo] = pairs[i];
        if (hi == lo || s.Fpr(hi) <= s.Fpr(lo)) continue;
        found = FindPaperSwap(s, hi, lo, s.threshold, r, tabu, &p, &q);
      }
      if (found) break;
    }
    if (!found) {
      // No violating grouping can be improved by a swap.
      result.satisfied = false;
      return result;
    }
    // --- apply the swap to every grouping's incremental state -------------
    const CandidateId u = r.At(p);  // moves down to q
    const CandidateId v = r.At(q);  // moves up to p
    apply_swap(p, q);
    swap_history.emplace_back(p, q);
    ++result.swaps;
    tabu.Push(u, v);
  }
  // Swap budget exhausted; keep whichever configuration (current vs best
  // seen) has the smaller maximum violation, then report honestly.
  double current_violation = -std::numeric_limits<double>::infinity();
  for (const GroupingState& s : states) {
    current_violation = std::max(
        current_violation, RankParity(r, *s.grouping) - s.threshold);
  }
  if (current_violation > best_violation + kTol) rewind_to_best();
  result.satisfied = SatisfiesCriteria(r, criteria);
  return result;
}

}  // namespace manirank
