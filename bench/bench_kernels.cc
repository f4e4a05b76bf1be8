// Kernel benchmarks. Two modes:
//
//   ./bench_kernels            writes BENCH_kernels.json: a machine-readable
//                              comparison of running a 5-method registry
//                              sweep against one shared ConsensusContext vs
//                              rebuilding every cached structure per method
//                              (the pre-context behaviour), an
//                              incremental-append vs full-rebuild section
//                              (streaming profile mutations), plus raw
//                              kernel timings seeding the perf trajectory.
//   ./bench_kernels --micro    additionally runs the google-benchmark micro
//                              suite (Kendall tau, FPR, precedence build,
//                              Mallows sampling, Make-MR-Fair engines,
//                              Copeland/Schulze/Kemeny aggregators, LP).
//
// MANIRANK_BENCH_QUICK=1 shrinks the profile and repetition counts so the
// JSON mode finishes in seconds (the CI smoke job).
//
// Any further arguments after --micro are forwarded to google-benchmark.
// The JSON mode has no dependency on google-benchmark; when the library is
// absent the binary still builds (MANIRANK_HAVE_BENCHMARK unset) and
// --micro reports that the suite was compiled out.

#ifdef MANIRANK_HAVE_BENCHMARK
#include <benchmark/benchmark.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "manirank.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace manirank;
using bench::QuickMode;

// --- shared-context vs per-method-rebuild comparison ------------------------

/// The polynomial/fast 5-method sweep of the comparison: three methods
/// need the precedence matrix (A2, A4, B1 — at theta 0.6 the majority
/// digraph is transitive, so B1 takes the O(n^2) fast path) and two need
/// the per-base-ranking parity scores (B3, B4).
constexpr const char* kSweepMethods[] = {"A2", "A4", "B1", "B3", "B4"};

struct SweepResult {
  double seconds = 0.0;
  int precedence_builds = 0;
  int parity_score_builds = 0;
};

SweepResult RunShared(const std::vector<Ranking>& base,
                      const CandidateTable& table,
                      const ConsensusOptions& options) {
  Stopwatch timer;
  ConsensusContext ctx(base, table);
  for (const char* id : kSweepMethods) ctx.RunMethod(id, options);
  SweepResult r;
  r.seconds = timer.Seconds();
  r.precedence_builds = ctx.stats().precedence_builds;
  r.parity_score_builds = ctx.stats().parity_score_builds;
  return r;
}

SweepResult RunRebuilding(const std::vector<Ranking>& base,
                          const CandidateTable& table,
                          const ConsensusOptions& options) {
  Stopwatch timer;
  SweepResult r;
  for (const char* id : kSweepMethods) {
    // A fresh context per method: every cached structure is rebuilt, which
    // is exactly what each registry method did before the context layer.
    ConsensusContext ctx(base, table);
    ctx.RunMethod(id, options);
    r.precedence_builds += ctx.stats().precedence_builds;
    r.parity_score_builds += ctx.stats().parity_score_builds;
  }
  r.seconds = timer.Seconds();
  return r;
}

// --- incremental append vs full rebuild -------------------------------------

struct IncrementalResult {
  double incremental_seconds = 0.0;
  double rebuild_seconds = 0.0;
};

/// Appends `extra` to a warm context one ranking at a time (the streaming
/// serving path: O(n^2) precedence fold + one parity score + O(n) Borda
/// delta per ranking) vs reconstructing and re-warming a context over the
/// grown profile from scratch (the pre-mutation behaviour).
IncrementalResult RunIncrementalAppend(const std::vector<Ranking>& base,
                                       const std::vector<Ranking>& extra,
                                       const CandidateTable& table) {
  IncrementalResult result;
  {
    ConsensusContext ctx(base, table);
    ctx.Precedence();
    ctx.BaseParityScores();
    ctx.BordaPoints();
    Stopwatch timer;
    for (const Ranking& r : extra) ctx.AddRanking(r);
    result.incremental_seconds = timer.Seconds();
  }
  {
    std::vector<Ranking> full = base;
    full.insert(full.end(), extra.begin(), extra.end());
    Stopwatch timer;
    ConsensusContext ctx(std::move(full), table);
    ctx.Precedence();
    ctx.BaseParityScores();
    ctx.BordaPoints();
    result.rebuild_seconds = timer.Seconds();
  }
  return result;
}

// --- scalar vs batch-kernel precedence build and fold ----------------------

struct KernelCase {
  int n = 0;
  int m = 0;  // rankings built (build rows) or folded in one batch (folds)
  double scalar_seconds = 0.0;
  double kernel_seconds = 0.0;
  double speedup = 0.0;
  const char* kernel = "";  // flavor the batch-kernel timing ran on
};

/// Times `run(&w)` (returns its own timed seconds and leaves its result in
/// `w`) under MANIRANK_KERNEL=scalar vs the auto-dispatched batch kernel,
/// best of `reps` after one untimed warm-up each, and checks the two
/// matrices are bit-identical — a mismatch is a kernel bug and aborts the
/// benchmark rather than reporting a bogus speedup.
template <typename Run>
KernelCase CompareKernels(const char* what, int n, int m, int reps, Run run) {
  KernelCase result;
  result.n = n;
  result.m = m;
  auto best_of = [&](PrecedenceMatrix* w) {
    run(w);
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const double seconds = run(w);
      if (rep == 0 || seconds < best) best = seconds;
    }
    return best;
  };
  PrecedenceMatrix scalar, fast;
  setenv("MANIRANK_KERNEL", "scalar", /*overwrite=*/1);
  result.scalar_seconds = best_of(&scalar);
  unsetenv("MANIRANK_KERNEL");
  result.kernel = PrecedenceMatrix::ActiveKernelName();
  result.kernel_seconds = best_of(&fast);
  if (scalar.ToDense() != fast.ToDense()) {
    std::fprintf(stderr,
                 "FATAL: batch-kernel %s (n=%d, m=%d, kernel=%s) does not "
                 "match the scalar %s bit-for-bit\n",
                 what, n, m, result.kernel, what);
    std::abort();
  }
  result.speedup = result.kernel_seconds > 0.0
                       ? result.scalar_seconds / result.kernel_seconds
                       : 0.0;
  return result;
}

/// PrecedenceMatrix::Build over an m-ranking Mallows profile.
KernelCase RunBuildCase(int n, int m, int reps) {
  MallowsModel model(Ranking::Identity(n), 0.6);
  const std::vector<Ranking> base = model.SampleMany(m, /*seed=*/23);
  return CompareKernels("build", n, m, reps, [&](PrecedenceMatrix* w) {
    Stopwatch timer;
    *w = PrecedenceMatrix::Build(base);
    return timer.Seconds();
  });
}

/// One 64-ranking AddRankingsBatch onto a warm 256-ranking matrix: the
/// fold a serving table pays for each appended batch.
KernelCase RunFoldBatchCase(int n, int reps) {
  constexpr int kBatch = 64;
  MallowsModel model(Ranking::Identity(n), 0.6);
  const PrecedenceMatrix warm =
      PrecedenceMatrix::Build(model.SampleMany(256, /*seed=*/29));
  const std::vector<Ranking> batch = model.SampleMany(kBatch, /*seed=*/31);
  return CompareKernels("fold", n, kBatch, reps, [&](PrecedenceMatrix* w) {
    *w = warm;
    Stopwatch timer;
    w->AddRankingsBatch(batch);
    return timer.Seconds();
  });
}

int WriteKernelJson(const char* path) {
  const bool quick = QuickMode();
  const int n = 100;
  const int num_rankings = quick ? 300 : 2000;
  const int num_appended = quick ? 50 : 200;
  const int reps = quick ? 1 : 3;
  const double theta = 0.6;
  ModalDesignResult design = MakeRankerScaleDataset(n);
  MallowsModel model(design.modal, theta);
  std::vector<Ranking> base = model.SampleMany(num_rankings, /*seed=*/17);
  std::vector<Ranking> extra = model.SampleMany(num_appended, /*seed=*/18);
  ConsensusOptions options;
  options.delta = 0.1;
  options.time_limit_seconds = 10.0;

  // Raw kernel timings for the perf trajectory.
  Stopwatch build_timer;
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  const double precedence_build_seconds = build_timer.Seconds();
  Stopwatch parity_timer;
  const std::vector<double> weights = FairnessWeights(base, design.table);
  const double parity_scores_seconds = parity_timer.Seconds();
  (void)w;
  (void)weights;

  // Scalar vs batch-kernel precedence build across the candidate-count
  // sweep. Profile sizes shrink with n so even the quick (CI) run covers
  // the n >= 512 regime the kernel targets.
  const KernelCase build_cases[] = {
      RunBuildCase(128, quick ? 256 : 1024, reps),
      RunBuildCase(512, quick ? 128 : 512, reps),
      RunBuildCase(2048, quick ? 64 : 128, reps),
  };
  // The serving fold: one 64-ranking batch onto a warm matrix. A single
  // fold is short, so it takes more reps than the builds.
  std::vector<KernelCase> fold_cases = {RunFoldBatchCase(512, 5 * reps)};
  if (!quick) fold_cases.push_back(RunFoldBatchCase(1024, 5 * reps));

  // Best-of-N for each scenario to damp scheduler noise.
  SweepResult shared, rebuild;
  IncrementalResult incremental;
  for (int rep = 0; rep < reps; ++rep) {
    SweepResult s = RunShared(base, design.table, options);
    SweepResult r = RunRebuilding(base, design.table, options);
    IncrementalResult inc = RunIncrementalAppend(base, extra, design.table);
    if (rep == 0 || s.seconds < shared.seconds) shared = s;
    if (rep == 0 || r.seconds < rebuild.seconds) rebuild = r;
    if (rep == 0 ||
        inc.incremental_seconds < incremental.incremental_seconds) {
      incremental.incremental_seconds = inc.incremental_seconds;
    }
    if (rep == 0 || inc.rebuild_seconds < incremental.rebuild_seconds) {
      incremental.rebuild_seconds = inc.rebuild_seconds;
    }
  }
  const double speedup = shared.seconds > 0.0
                             ? rebuild.seconds / shared.seconds
                             : 0.0;
  const double incremental_speedup =
      incremental.incremental_seconds > 0.0
          ? incremental.rebuild_seconds / incremental.incremental_seconds
          : 0.0;

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"kernels\",\n");
  std::fprintf(f,
               "  \"sweep\": {\"n\": %d, \"num_rankings\": %d, \"theta\": "
               "%.2f, \"delta\": %.2f, \"methods\": [",
               n, num_rankings, theta, options.delta);
  for (size_t i = 0; i < std::size(kSweepMethods); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", kSweepMethods[i]);
  }
  std::fprintf(f, "]},\n");
  std::fprintf(f, "  \"shared_context\": {\"seconds\": %.6f, "
               "\"precedence_builds\": %d, \"parity_score_builds\": %d},\n",
               shared.seconds, shared.precedence_builds,
               shared.parity_score_builds);
  std::fprintf(f, "  \"per_method_rebuild\": {\"seconds\": %.6f, "
               "\"precedence_builds\": %d, \"parity_score_builds\": %d},\n",
               rebuild.seconds, rebuild.precedence_builds,
               rebuild.parity_score_builds);
  std::fprintf(f, "  \"speedup\": %.3f,\n", speedup);
  std::fprintf(f, "  \"incremental_append\": {\"base_rankings\": %d, "
               "\"appended\": %d, \"incremental_seconds\": %.6f, "
               "\"full_rebuild_seconds\": %.6f, \"speedup\": %.3f},\n",
               num_rankings, num_appended, incremental.incremental_seconds,
               incremental.rebuild_seconds, incremental_speedup);
  // The build rows keep their original "bitset_seconds" key.
  std::fprintf(f, "  \"precedence_build_bitset\": [\n");
  for (size_t i = 0; i < std::size(build_cases); ++i) {
    const KernelCase& c = build_cases[i];
    std::fprintf(f,
                 "    {\"n\": %d, \"m\": %d, \"scalar_seconds\": %.6f, "
                 "\"bitset_seconds\": %.6f, \"speedup\": %.3f, "
                 "\"kernel\": \"%s\"}%s\n",
                 c.n, c.m, c.scalar_seconds, c.kernel_seconds, c.speedup,
                 c.kernel, i + 1 < std::size(build_cases) ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"precedence_fold_batch\": [\n");
  for (size_t i = 0; i < fold_cases.size(); ++i) {
    const KernelCase& c = fold_cases[i];
    std::fprintf(f,
                 "    {\"n\": %d, \"batch\": %d, \"scalar_seconds\": %.6f, "
                 "\"kernel_seconds\": %.6f, \"speedup\": %.3f, "
                 "\"kernel\": \"%s\"}%s\n",
                 c.n, c.m, c.scalar_seconds, c.kernel_seconds, c.speedup,
                 c.kernel, i + 1 < fold_cases.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"kernels\": {\"precedence_build_seconds\": %.6f, "
               "\"parity_scores_seconds\": %.6f}\n",
               precedence_build_seconds, parity_scores_seconds);
  std::fprintf(f, "}\n");
  std::fclose(f);

  for (const KernelCase& c : build_cases) {
    std::printf(
        "precedence build n=%-5d m=%-5d scalar %.4fs vs %s %.4fs (%.1fx)\n",
        c.n, c.m, c.scalar_seconds, c.kernel, c.kernel_seconds, c.speedup);
  }
  for (const KernelCase& c : fold_cases) {
    std::printf(
        "precedence fold  n=%-5d batch=%-3d scalar %.5fs vs %s %.5fs (%.1fx)\n",
        c.n, c.m, c.scalar_seconds, c.kernel, c.kernel_seconds, c.speedup);
  }

  std::printf("shared context:     %.4fs (%d precedence builds)\n",
              shared.seconds, shared.precedence_builds);
  std::printf("per-method rebuild: %.4fs (%d precedence builds)\n",
              rebuild.seconds, rebuild.precedence_builds);
  std::printf("speedup: %.2fx\n", speedup);
  std::printf("incremental append (+%d onto %d): %.4fs vs rebuild %.4fs "
              "(%.2fx)  ->  %s\n",
              num_appended, num_rankings, incremental.incremental_seconds,
              incremental.rebuild_seconds, incremental_speedup, path);
  return 0;
}

// --- google-benchmark micro suite -------------------------------------------

#ifdef MANIRANK_HAVE_BENCHMARK

Ranking RandomRanking(int n, Rng* rng) {
  std::vector<CandidateId> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  rng->Shuffle(&order);
  return Ranking(std::move(order));
}

void BM_KendallTau(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Ranking a = RandomRanking(n, &rng);
  Ranking b = RandomRanking(n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KendallTau(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_KendallTau)->Range(64, 1 << 16)->Complexity(benchmark::oNLogN);

void BM_KendallTauBruteForce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Ranking a = RandomRanking(n, &rng);
  Ranking b = RandomRanking(n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KendallTauBruteForce(a, b));
  }
}
BENCHMARK(BM_KendallTauBruteForce)->Range(64, 1 << 10);

void BM_GroupFpr(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ModalDesignResult design = MakeCandidateScaleDataset(n);
  Rng rng(2);
  Ranking r = RandomRanking(n, &rng);
  const Grouping& inter = design.table.intersection_grouping();
  for (auto _ : state) {
    benchmark::DoNotOptimize(GroupFpr(r, inter));
  }
}
BENCHMARK(BM_GroupFpr)->Arg(100)->Arg(1000)->Arg(10000);

void BM_PrecedenceBuild(benchmark::State& state) {
  const int n = 100;
  const int m = static_cast<int>(state.range(0));
  MallowsModel model(Ranking::Identity(n), 0.6);
  std::vector<Ranking> base = model.SampleMany(m, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrecedenceMatrix::Build(base));
  }
}
BENCHMARK(BM_PrecedenceBuild)->Arg(100)->Arg(1000)->Arg(10000);

void BM_MallowsSample(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  MallowsModel model(Ranking::Identity(n), 0.6);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Sample(&rng));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MallowsSample)->Range(64, 1 << 15)->Complexity(benchmark::oNLogN);

void BM_MakeMrFairEngine(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool indexed = state.range(1) != 0;
  ModalDesignResult design = MakeCandidateScaleDataset(n);
  for (auto _ : state) {
    MakeMrFairOptions options;
    options.delta = 0.1;
    options.engine = indexed ? MakeMrFairOptions::Engine::kIndexed
                             : MakeMrFairOptions::Engine::kReference;
    benchmark::DoNotOptimize(MakeMrFair(design.modal, design.table, options));
  }
}
BENCHMARK(BM_MakeMrFairEngine)
    ->ArgsProduct({{100, 400, 1000}, {0, 1}})
    ->ArgNames({"n", "indexed"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_BordaAggregate(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  MallowsModel model(Ranking::Identity(100), 0.6);
  std::vector<Ranking> base = model.SampleMany(m, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BordaAggregate(base));
  }
}
BENCHMARK(BM_BordaAggregate)->Arg(100)->Arg(1000)->Arg(10000);

void BM_CopelandAggregate(benchmark::State& state) {
  // A shuffled modal ranking, so contest outcomes do not follow id order.
  const int n = static_cast<int>(state.range(0));
  Rng rng(10);
  MallowsModel model(RandomRanking(n, &rng), 0.6);
  PrecedenceMatrix w = PrecedenceMatrix::Build(model.SampleMany(100, 10));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CopelandAggregate(w));
  }
}
BENCHMARK(BM_CopelandAggregate)->Arg(300)->Arg(500)->Arg(1000);

void BM_SchulzeAggregate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  MallowsModel model(Ranking::Identity(n), 0.6);
  std::vector<Ranking> base = model.SampleMany(50, 6);
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchulzeAggregate(w));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SchulzeAggregate)->Range(32, 512)->Complexity(benchmark::oNCubed);

void BM_KemenyTransitiveFastPath(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  MallowsModel model(Ranking::Identity(n), 1.0);
  std::vector<Ranking> base = model.SampleMany(101, 7);
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  for (auto _ : state) {
    Ranking out;
    benchmark::DoNotOptimize(TryTransitiveKemeny(w, &out));
  }
}
BENCHMARK(BM_KemenyTransitiveFastPath)->Arg(50)->Arg(100)->Arg(200);

/// The lazy Precedence() build of a retained context: m = 2000 base
/// rankings read from the context's own profile. Construction is untimed.
void BM_RetainedPrecedenceBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  const CandidateTable table = MakeCyclicTable(n, 2, 3);
  MallowsModel model(RandomRanking(n, &rng), 0.6);
  const std::vector<Ranking> base = model.SampleMany(2000, 11);
  std::optional<ConsensusContext> ctx;
  for (auto _ : state) {
    state.PauseTiming();
    ctx.reset();
    ctx.emplace(base, table);
    state.ResumeTiming();
    benchmark::DoNotOptimize(&ctx->Precedence());
  }
}
BENCHMARK(BM_RetainedPrecedenceBuild)
    ->Arg(300)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

/// RUN all on a cold retained context: every cache (precedence, parity
/// scores, B2's weighted matrix) is built from the profile, then all
/// eight methods run. Construction is untimed.
void BM_RunAllRetained(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(12);
  const CandidateTable table = MakeCyclicTable(n, 2, 3);
  MallowsModel model(RandomRanking(n, &rng), 0.6);
  const std::vector<Ranking> base = model.SampleMany(4000, 12);
  ConsensusOptions options;
  options.time_limit_seconds = 10.0;
  std::optional<ConsensusContext> ctx;
  for (auto _ : state) {
    state.PauseTiming();
    ctx.reset();
    ctx.emplace(base, table);
    state.ResumeTiming();
    benchmark::DoNotOptimize(ctx->RunAll(options));
  }
}
BENCHMARK(BM_RunAllRetained)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_KemenyIlpCondorcetCycles(benchmark::State& state) {
  // Profiles with weak consensus force the ILP path.
  const int n = static_cast<int>(state.range(0));
  MallowsModel model(Ranking::Identity(n), 0.05);
  std::vector<Ranking> base = model.SampleMany(7, 8);
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  KemenyOptions options;
  options.time_limit_seconds = 5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KemenyAggregate(w, options));
  }
}
BENCHMARK(BM_KemenyIlpCondorcetCycles)->Arg(8)->Arg(12)->Arg(16)
    ->Unit(benchmark::kMillisecond)->Iterations(2);

void BM_SimplexLp(benchmark::State& state) {
  // Root relaxation of a Fair-Kemeny instance.
  const int per_cell = static_cast<int>(state.range(0));
  ModalDesignSpec spec;
  spec.attributes = {{"A", {"a0", "a1"}}, {"B", {"b0", "b1"}}};
  spec.cell_counts.assign(4, per_cell);
  spec.attribute_arp_target = {0.6, 0.6};
  spec.irp_target = 0.8;
  spec.tolerance = 0.05;
  ModalDesignResult design = DesignModalRanking(spec);
  MallowsModel model(design.modal, 0.6);
  std::vector<Ranking> base = model.SampleMany(30, 9);
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  FairKemenyOptions options;
  options.delta = 0.1;
  lp::LinearOrderingProblem problem =
      BuildFairKemenyProblem(w, design.table, options);
  lp::Model m = problem.model();
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::SolveLp(m));
  }
  state.counters["vars"] = m.num_variables();
  state.counters["rows"] = m.num_constraints();
}
BENCHMARK(BM_SimplexLp)
    ->Arg(3)
    ->Arg(5)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

#endif  // MANIRANK_HAVE_BENCHMARK

}  // namespace

int main(int argc, char** argv) {
  const int json_status = WriteKernelJson("BENCH_kernels.json");
  bool micro = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--micro") == 0) {
      micro = true;
      // Strip --micro so google-benchmark sees only its own flags.
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  if (!micro) return json_status;
#ifdef MANIRANK_HAVE_BENCHMARK
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return json_status;
#else
  std::fprintf(stderr,
               "--micro requested but this binary was built without "
               "google-benchmark\n");
  return 1;
#endif
}
