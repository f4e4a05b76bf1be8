// Ablation study for the design choices called out in DESIGN.md §5:
//   1. Make-MR-Fair engines — paper-faithful reference (rescores every
//      grouping, O(n * #groupings) per swap) vs indexed (O(#groupings)
//      score update per swap). Both share the swap search, which costs
//      O(n / 64 + min(|G_lowest|, 512)) per swap, so the indexed engine's
//      per-swap cost still grows until groups reach 512 members. The two
//      must produce identical output: the binary exits 1 if they do not.
//   2. Swap policy — the paper's "lowest-of-highest-group" rule vs a
//      random crossing pair: the paper rule needs fewer swaps and loses
//      less preference information (PD loss), which is its stated goal.

#include "bench_util.h"

int main() {
  using namespace manirank;
  using namespace manirank::bench;
  Banner("Ablation", "Make-MR-Fair engines and swap policies");
  bool engines_agree = true;

  // --- engine scaling ------------------------------------------------------
  {
    std::vector<int> sizes = {200, 1000};
    if (!QuickMode()) sizes.push_back(4000);
    if (FullScale()) sizes.push_back(16000);
    TablePrinter table(
        {"n", "engine", "runtime (s)", "swaps", "us/swap", "identical"});
    for (int n : sizes) {
      ModalDesignResult design = MakeCandidateScaleDataset(n);
      MakeMrFairOptions reference;
      reference.delta = 0.1;
      reference.engine = MakeMrFairOptions::Engine::kReference;
      Stopwatch t1;
      MakeMrFairResult a = MakeMrFair(design.modal, design.table, reference);
      const double ref_secs = t1.Seconds();
      MakeMrFairOptions indexed = reference;
      indexed.engine = MakeMrFairOptions::Engine::kIndexed;
      Stopwatch t2;
      MakeMrFairResult b = MakeMrFair(design.modal, design.table, indexed);
      const double idx_secs = t2.Seconds();
      const bool same = a.ranking == b.ranking && a.swaps == b.swaps &&
                        a.satisfied == b.satisfied;
      engines_agree = engines_agree && same;
      auto us_per_swap = [](double secs, int64_t swaps) {
        return swaps > 0 ? Fmt(1e6 * secs / static_cast<double>(swaps), 2)
                         : std::string("-");
      };
      table.AddRow({std::to_string(n), "reference", Fmt(ref_secs, 3),
                    std::to_string(a.swaps), us_per_swap(ref_secs, a.swaps),
                    same ? "yes" : "NO"});
      table.AddRow({std::to_string(n), "indexed", Fmt(idx_secs, 3),
                    std::to_string(b.swaps), us_per_swap(idx_secs, b.swaps),
                    same ? "yes" : "NO"});
    }
    std::cout << "--- engine ablation (Delta = 0.1) ---\n";
    table.Print(std::cout);
    std::cout << "expected: identical rankings; indexed engine's advantage "
                 "grows with n.\n\n";
  }

  // --- swap-policy ablation -------------------------------------------------
  {
    TablePrinter table(
        {"dataset", "policy", "swaps", "PD loss", "fair@0.1"});
    for (TableIDataset kind :
         {TableIDataset::kLowFair, TableIDataset::kMediumFair}) {
      ModalDesignResult design = TableIDatasetScaled(kind, 6);
      MallowsModel model(design.modal, 0.6);
      std::vector<Ranking> base = model.SampleMany(150, 101);
      PrecedenceMatrix w = PrecedenceMatrix::Build(base);
      Ranking copeland = CopelandAggregate(w);
      for (auto policy : {MakeMrFairOptions::SwapPolicy::kPaper,
                          MakeMrFairOptions::SwapPolicy::kRandomPair}) {
        MakeMrFairOptions options;
        options.delta = 0.1;
        options.swap_policy = policy;
        MakeMrFairResult r = MakeMrFair(copeland, design.table, options);
        table.AddRow(
            {ToString(kind),
             policy == MakeMrFairOptions::SwapPolicy::kPaper ? "paper"
                                                             : "random-pair",
             std::to_string(r.swaps), Fmt(PdLoss(base, r.ranking)),
             r.satisfied ? "yes" : "NO"});
      }
    }
    std::cout << "--- swap-policy ablation (Copeland start, Delta = 0.1) ---\n";
    table.Print(std::cout);
    std::cout << "expected: the paper policy loses clearly less preference "
                 "information (lower PD loss).\nRandom crossing pairs "
                 "converge in fewer swaps because each long-distance swap\n"
                 "moves FPR a lot — exactly the indiscriminate damage the "
                 "paper's rule avoids.\n";
  }
  if (!engines_agree) {
    std::cerr << "FAIL: the reference and indexed engines diverged\n";
    return 1;
  }
  return 0;
}
