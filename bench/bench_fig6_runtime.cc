// Reproduces paper Figure 6: online exploration runtime w.r.t. budget B at
// 4D and 8D (SDSS), plus an offline-training scaling study over the shared
// thread pool (the paper reports offline cost in Figure 8(b); here the axis
// is the thread count).
//
// Expected shape (paper): DSM's online cost grows roughly linearly with the
// budget (every labelled batch retrains the SVM inside the active-learning
// loop) and with dimension, while Meta*'s online cost — a fixed number of
// fast-adaptation gradient steps — is orders of magnitude lower and almost
// flat in both budget and dimension. The offline section should show
// near-linear wall-clock speedup up to the machine's core count (subspaces
// and per-batch tasks are independent), with bit-identical trained models
// at every thread count.

#include <cstdio>
#include <memory>
#include <numeric>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "bench_common.h"
#include "eval/report.h"

namespace lte::bench {
namespace {

/// One row of the online sweep, kept for the JSON artifact.
struct OnlineSweepRow {
  int64_t threads = 0;
  double start_exploration_s = 0.0;
  double predict_rows_s = 0.0;
  double retrieve_matches_s = 0.0;
};

/// Measures the online serving path at several thread counts and verifies
/// the determinism contract as it goes: StartExploration (per-subspace
/// adaptation lanes), PredictRows (batch scoring), and RetrieveMatches
/// (order-preserving early-exit scan) must be bit-identical at every thread
/// count. Pretrains once, saves, and loads the model once for serving; each
/// thread count attaches a fresh session with that `num_threads` override,
/// so only the fan-out differs.
void RunOnlineThreads() {
  PrintHeader("Online serving wall clock w.r.t. threads");
  std::printf("hardware threads available: %lld\n",
              static_cast<long long>(DefaultThreadCount()));

  const int64_t rows =
      SmokeMode() ? 20000 : (FullScale() ? 100000 : 40000);
  const int64_t reps = SmokeMode() ? 3 : 10;
  Rng data_rng(11);
  const data::Table sdss = data::MakeSdssLike(rows, &data_rng);

  const core::ExplorerOptions opt =
      BaseRunnerOptions(1, ConvexPsi()).explorer;
  core::ExplorationModel pretrained(opt);
  Rng pretrain_rng(42);
  // Basic-variant serving: contexts + initial tuples only, no meta-training.
  if (!pretrained
           .Pretrain(sdss, SdssSubspaces(), /*train_meta=*/false,
                     &pretrain_rng)
           .ok()) {
    std::printf("pretrain failed\n");
    return;
  }
  const std::string model_path = "bench_fig6_online.ltemodel";
  if (!pretrained.Save(model_path).ok()) {
    std::printf("model save failed\n");
    return;
  }
  auto model = std::make_shared<core::ExplorationModel>(opt);
  if (!model->Load(model_path).ok()) {
    std::printf("model load failed\n");
    return;
  }

  // Scripted labels: the same few-shot session replayed at every thread
  // count. Splitting each subspace at the mean of its initial tuples' first
  // coordinate guarantees mixed labels, so the adapted region is non-trivial
  // and RetrieveMatches has real matches to return.
  std::vector<std::vector<double>> labels(
      static_cast<size_t>(model->num_subspaces()));
  for (int64_t s = 0; s < model->num_subspaces(); ++s) {
    const auto& tuples = *model->InitialTuples(s);
    double mean = 0.0;
    for (const auto& t : tuples) mean += t[0];
    mean /= static_cast<double>(tuples.size());
    for (const auto& t : tuples) {
      labels[static_cast<size_t>(s)].push_back(t[0] < mean ? 1.0 : 0.0);
    }
  }
  std::vector<int64_t> all_rows(static_cast<size_t>(sdss.num_rows()));
  std::iota(all_rows.begin(), all_rows.end(), 0);

  const std::vector<int64_t> sweep = SmokeMode()
                                         ? std::vector<int64_t>{1, 4}
                                         : std::vector<int64_t>{1, 2, 4, 8};
  std::vector<OnlineSweepRow> results;
  std::vector<double> baseline_preds;
  std::vector<int64_t> baseline_matches;
  bool bit_identical = true;
  eval::TextTable table({"threads", "adapt (s)", "predict rows (s)",
                         "retrieve (s)", "retrieve speedup"});
  for (int64_t threads : sweep) {
    core::ExplorationSession session(model, threads);

    OnlineSweepRow row;
    row.threads = threads;
    Rng online_rng(99);
    Stopwatch sw;
    if (!session.StartExploration(labels, core::Variant::kBasic, &online_rng)
             .ok()) {
      std::printf("adaptation failed at threads=%lld\n",
                  static_cast<long long>(threads));
      return;
    }
    row.start_exploration_s = sw.ElapsedSeconds();

    std::vector<double> preds;
    sw.Restart();
    for (int64_t r = 0; r < reps; ++r) {
      if (!session.PredictRows(sdss, all_rows, &preds).ok()) {
        std::printf("PredictRows failed at threads=%lld\n",
                    static_cast<long long>(threads));
        return;
      }
    }
    row.predict_rows_s = sw.ElapsedSeconds() / static_cast<double>(reps);

    std::vector<int64_t> matches;
    sw.Restart();
    for (int64_t r = 0; r < reps; ++r) {
      if (!session.RetrieveMatches(sdss, /*limit=*/-1, &matches).ok()) {
        std::printf("RetrieveMatches failed at threads=%lld\n",
                    static_cast<long long>(threads));
        return;
      }
    }
    row.retrieve_matches_s = sw.ElapsedSeconds() / static_cast<double>(reps);

    if (results.empty()) {
      baseline_preds = preds;
      baseline_matches = matches;
    } else if (preds != baseline_preds || matches != baseline_matches) {
      bit_identical = false;
    }
    const double speedup =
        results.empty() || row.retrieve_matches_s <= 0.0
            ? 1.0
            : results.front().retrieve_matches_s / row.retrieve_matches_s;
    table.AddRow(std::to_string(threads),
                 {row.start_exploration_s, row.predict_rows_s,
                  row.retrieve_matches_s, speedup},
                 4);
    results.push_back(row);
  }
  table.Print();
  std::printf("matches retrieved: %zu of %lld rows\n",
              baseline_matches.size(), static_cast<long long>(rows));
  std::printf("bit-identical across thread counts: %s\n",
              bit_identical ? "yes" : "NO — determinism contract violated");
  std::remove(model_path.c_str());

  const std::string json_path = JsonOutputPath();
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::printf("could not open %s for writing\n", json_path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"fig6_runtime_online\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n",
                 SmokeMode() ? "smoke" : (FullScale() ? "full" : "scaled"));
    std::fprintf(f, "  \"rows\": %lld,\n", static_cast<long long>(rows));
    std::fprintf(f, "  \"hardware_threads\": %lld,\n",
                 static_cast<long long>(DefaultThreadCount()));
    std::fprintf(f, "  \"bit_identical\": %s,\n",
                 bit_identical ? "true" : "false");
    std::fprintf(f, "  \"sweep\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const OnlineSweepRow& r = results[i];
      std::fprintf(f,
                   "    {\"threads\": %lld, \"start_exploration_s\": %.6f, "
                   "\"predict_rows_s\": %.6f, \"retrieve_matches_s\": %.6f}%s\n",
                   static_cast<long long>(r.threads), r.start_exploration_s,
                   r.predict_rows_s, r.retrieve_matches_s,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote JSON results to %s\n", json_path.c_str());
  }
}

void RunOfflineThreads() {
  const Scale scale = GetScale();
  PrintHeader(
      "Figure 6 addendum: offline meta-training wall clock w.r.t. threads");
  std::printf("hardware threads available: %lld\n",
              static_cast<long long>(DefaultThreadCount()));

  Rng data_rng(11);
  const data::Table sdss = data::MakeSdssLike(scale.sdss_rows, &data_rng);

  eval::TextTable table({"threads", "offline wall (s)", "speedup vs 1"});
  double baseline = 0.0;
  for (int64_t threads : {int64_t{1}, int64_t{2}, int64_t{4}, int64_t{8}}) {
    core::ExplorerOptions opt = BaseRunnerOptions(1, ConvexPsi()).explorer;
    opt.num_threads = threads;          // Subspace-level lanes.
    opt.trainer.num_threads = threads;  // Per-batch task lanes.
    core::ExplorationModel model(opt);
    Rng rng(42);  // Same seed per row: identical work, identical model.
    Stopwatch sw;
    if (!model
             .Pretrain(sdss, SdssSubspaces(), /*train_meta=*/true, &rng)
             .ok()) {
      std::printf("pretrain failed at threads=%lld\n",
                  static_cast<long long>(threads));
      return;
    }
    const double wall = sw.ElapsedSeconds();
    if (threads == 1) baseline = wall;
    table.AddRow(std::to_string(threads),
                 {wall, baseline > 0.0 ? baseline / wall : 0.0}, 4);
  }
  table.Print();
}

void Run() {
  const Scale scale = GetScale();
  PrintHeader("Figure 6: online exploration time (seconds) w.r.t. budget");

  Rng rng(3);
  data::Table sdss = data::MakeSdssLike(scale.sdss_rows, &rng);
  // The runtime comparison needs a realistic pool: DSM/AL-SVM pay a full
  // pool scan (SVM decision + polytope three-set) every labelling batch, so
  // a trivially small pool would hide the cost the paper measures.
  eval::RunnerOptions options = BaseRunnerOptions(1, ConvexPsi());
  options.pool_rows = FullScale() ? 20000 : 4000;
  eval::ExperimentRunner runner(std::move(sdss), SdssSubspaces(), options);
  if (!runner.Init().ok()) {
    std::printf("runner init failed\n");
    return;
  }

  for (int64_t num_subspaces : {2, 4}) {  // 4D and 8D.
    std::vector<eval::GroundTruthUir> uirs;
    for (int64_t i = 0; i < scale.uirs_per_config; ++i) {
      uirs.push_back(
          runner.GenerateUir({"convex", 1, ConvexPsi()}, num_subspaces));
    }
    std::vector<std::string> header = {"method"};
    for (int64_t b : scale.budgets) header.push_back("B=" + std::to_string(b));
    eval::TextTable table(header);
    for (eval::Method m : {eval::Method::kDsm, eval::Method::kAlSvm,
                           eval::Method::kMetaStar}) {
      std::vector<double> row;
      for (int64_t b : scale.budgets) {
        double total = 0.0;
        bool ok = true;
        for (const auto& uir : uirs) {
          eval::ExperimentResult res;
          if (!runner.Run(m, uir, b, &res).ok()) {
            ok = false;
            break;
          }
          total += res.online_seconds;
        }
        row.push_back(ok ? total / static_cast<double>(uirs.size()) : -1.0);
      }
      table.AddRow(eval::MethodName(m), row, 4);
    }
    std::printf("\nFigure 6: %lldD online exploration time (s)\n",
                static_cast<long long>(2 * num_subspaces));
    table.Print();
  }
}

}  // namespace
}  // namespace lte::bench

int main() {
  // Smoke mode (CI) runs only the online sweep: it exercises the whole
  // serving path, checks the determinism contract, and finishes in seconds.
  if (!lte::bench::SmokeMode()) {
    lte::bench::Run();
    lte::bench::RunOfflineThreads();
  }
  lte::bench::RunOnlineThreads();
  return 0;
}
