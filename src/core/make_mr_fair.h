#ifndef MANIRANK_CORE_MAKE_MR_FAIR_H_
#define MANIRANK_CORE_MAKE_MR_FAIR_H_

#include <cstdint>
#include <optional>

#include "core/candidate_table.h"
#include "core/fairness_metrics.h"
#include "core/ranking.h"

namespace manirank {

struct MakeMrFairOptions {
  /// The paper's single proximity-to-parity parameter Delta.
  double delta = 0.1;
  /// Per-attribute / intersection thresholds override `delta` when set
  /// (§II-B "Customizing Group Fairness").
  std::optional<ManiRankThresholds> thresholds;

  /// Additional fairness criteria beyond the standard attribute +
  /// intersection set — e.g. subset-of-attribute intersections built with
  /// CandidateTable::BuildSubsetIntersection (§II-B: "IRP_subsetsofP(pi)
  /// <= Delta"). The referenced groupings must outlive the call.
  std::vector<FairnessCriterion> extra_criteria;

  /// When false, the standard attribute/intersection criteria are skipped
  /// and only `extra_criteria` are enforced — used by constraint-family
  /// ablations (Fig. 3) and fully custom criteria sets.
  bool use_standard_criteria = true;

  enum class Engine {
    /// Paper-faithful: recompute all FPR/ARP/IRP scores from scratch
    /// before every swap — O(n * #groupings) per swap.
    kReference,
    /// Incremental: an O(#groupings) score update per swap, using the
    /// identity that a swap across distance d changes only the two
    /// touched groups' favored-pair counts, by exactly -d and +d.
    kIndexed,
  };
  /// Both engines share the swap search: O(n / 64) words of per-group
  /// position bitsets plus at most min(|G_lowest|, 512) scanned members per
  /// swap. Per-swap cost is therefore not flat: it grows with group size
  /// up to 512 members, and by n / 64 after that.
  Engine engine = Engine::kIndexed;

  enum class SwapPolicy {
    /// Paper's rule: swap the lowest member of the highest-FPR group that
    /// sits above the highest reachable member of the lowest-FPR group.
    kPaper,
    /// Ablation: swap a uniformly random (G_highest above G_lowest) pair.
    kRandomPair,
  };
  SwapPolicy swap_policy = SwapPolicy::kPaper;
  /// Seed for kRandomPair.
  uint64_t seed = 42;

  /// Swap budget; < 0 means the paper's worst case omega(X) = n(n-1)/2.
  int64_t max_swaps = -1;
};

struct MakeMrFairResult {
  Ranking ranking;
  /// True when the returned ranking satisfies MANI-Rank at the thresholds.
  bool satisfied = false;
  /// Pairwise swaps performed.
  int64_t swaps = 0;
};

/// Make-MR-Fair (Algorithm 2): repairs a consensus ranking until every
/// protected attribute's ARP and the intersection's IRP are at or below
/// their thresholds, using targeted pair swaps that move members of the
/// currently least-fair attribute's lowest-FPR group up past members of
/// its highest-FPR group.
///
/// Each swap provably shrinks the corrected attribute's FPR gap; the
/// overall loop is capped at `max_swaps` (paper worst case omega(X)).
/// If no corrective swap exists for any violating grouping (possible in
/// degenerate multi-group configurations) the algorithm stops with
/// `satisfied == false`.
///
/// Two safeguards extend the paper's description so the loop always
/// terminates: (1) when the paper's swap pair would overshoot the FPR gap
/// past -Delta, a crossing pair with an in-band distance is chosen
/// instead; (2) a stall guard returns the best-seen ranking when the
/// maximum violation stops improving (e.g. thresholds that are
/// combinatorially unreachable, like parity 0 with an odd mixed-pair
/// count).
MakeMrFairResult MakeMrFair(const Ranking& consensus,
                            const CandidateTable& table,
                            const MakeMrFairOptions& options = {});

}  // namespace manirank

#endif  // MANIRANK_CORE_MAKE_MR_FAIR_H_
