#include "fixture.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/binary_io.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "preprocess/normalizer.h"
#include "stats.h"

namespace lte::perfbench {

namespace {

constexpr uint64_t kDatasetSeed = 2023;
// Ground-truth regions: one convex region per subspace over 25 of the 50
// clusters.
constexpr int64_t kUirAlpha = 1;
constexpr int64_t kUirPsi = 25;
// A labelling round as in the repository's label-budget bench
// (bench/bench_fig5_budget.cc): the policy picks 5 tuples from a pool of 200.
constexpr int64_t kPoolRows = 200;
constexpr int64_t kSuggestBatch = 5;
constexpr int64_t kPretrainRuns = 3;

/// The model the fixture pretrains: the scaled-down configuration of the
/// repository's paper benches (bench/bench_common.h), with every thread knob
/// set to `threads` (never 0, the library's "auto").
core::ExplorerOptions ModelOptions(int64_t threads) {
  core::ExplorerOptions opt;
  opt.task_gen.k_u = 50;
  opt.task_gen.k_q = 60;
  opt.task_gen.delta = 5;
  opt.task_gen.alpha = 1;
  opt.task_gen.psi = 25;
  opt.task_gen.kmeans.num_threads = threads;
  opt.learner.embedding_size = 24;
  opt.learner.clf_hidden = {24};
  opt.learner.num_memory_modes = 6;
  opt.num_meta_tasks = 150;
  opt.trainer.epochs = 20;
  opt.trainer.task_batch_size = 15;
  opt.trainer.local_steps = 5;
  opt.trainer.local_batch_size = 10;
  opt.trainer.local_lr = 0.2;
  opt.trainer.global_lr = 0.3;
  opt.trainer.num_threads = threads;
  opt.num_threads = threads;
  opt.online_steps = 40;
  opt.online_batch_size = 10;
  opt.online_lr = 0.2;
  return opt;
}

}  // namespace

Status BuildFixture(uint64_t seed, const FixtureOptions& options,
                    Fixture* fixture) {
  fixture->seed = seed;
  fixture->subspaces = {data::Subspace{{0, 1}}, data::Subspace{{2, 3}},
                        data::Subspace{{4, 5}}, data::Subspace{{6, 7}}};

  Rng table_rng = Stream(kDatasetSeed, kTableStream, 0);
  const data::Table raw = data::MakeSdssLike(options.table_rows, &table_rng);
  preprocess::MinMaxNormalizer normalizer;
  LTE_RETURN_IF_ERROR(normalizer.Fit(raw));
  std::vector<std::vector<double>> rows;
  rows.reserve(static_cast<size_t>(raw.num_rows()));
  for (int64_t r = 0; r < raw.num_rows(); ++r) {
    rows.push_back(normalizer.TransformRow(raw.Row(r)));
  }
  fixture->table = data::Table(raw.AttributeNames());
  for (const auto& row : rows) {
    LTE_RETURN_IF_ERROR(fixture->table.AppendRow(row));
  }
  Rng eval_rng = Stream(kDatasetSeed, kTableStream, 1);
  fixture->eval_rows =
      data::SampleRowIndices(fixture->table, options.eval_rows, &eval_rng);

  const core::ExplorerOptions model_options = ModelOptions(options.threads);
  fixture->uir_generator = eval::UirGenerator(model_options.task_gen);
  Rng uir_rng = Stream(kDatasetSeed, kUirStream, 0);
  LTE_RETURN_IF_ERROR(fixture->uir_generator.Init(
      fixture->table, fixture->subspaces, &uir_rng));

  // Set-up is timed as the median of kPretrainRuns identical Pretrains: one
  // Pretrain swings by a third with the host's load from second to second.
  // Every run must produce the same model, byte for byte.
  std::vector<std::pair<double, std::shared_ptr<core::ExplorationModel>>> runs;
  for (int64_t i = 0; i < kPretrainRuns; ++i) {
    auto model = std::make_shared<core::ExplorationModel>(model_options);
    Rng model_rng = Stream(kDatasetSeed, kModelStream, 0);
    const int64_t start = NowNs();
    LTE_RETURN_IF_ERROR(model->Pretrain(fixture->table, fixture->subspaces,
                                        /*train_meta=*/true, &model_rng));
    runs.emplace_back(static_cast<double>(NowNs() - start) * 1e-9,
                      std::move(model));
    if (runs.back().second->fingerprint() != runs[0].second->fingerprint()) {
      return Status::Internal("Pretrain is not deterministic: run " +
                              std::to_string(i) + " differs from run 0");
    }
  }
  std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  auto& [median_s, model] = runs[runs.size() / 2];
  fixture->pretrain_s = median_s;
  fixture->taskgen_s = model->task_generation_seconds();
  fixture->metatrain_s = model->meta_training_seconds();
  fixture->model = std::move(model);
  return Status::OK();
}

User MakeUser(const Fixture& fixture, int64_t id) {
  static constexpr core::Variant kVariants[] = {
      core::Variant::kBasic, core::Variant::kMeta, core::Variant::kMetaStar};
  User user;
  user.id = id;
  user.variant = kVariants[id % 3];
  user.path = (id / 3) % 2 == 0 ? core::ScanPath::kColumnar
                                : core::ScanPath::kColumnarSimd;
  Rng uir_rng = Stream(fixture.seed, kUirStream, 1 + static_cast<uint64_t>(id));
  user.uir = fixture.uir_generator.Generate(
      eval::UisMode{"perfbench", kUirAlpha, kUirPsi}, &uir_rng);
  const core::ExplorationModel& model = *fixture.model;
  user.start_labels.resize(static_cast<size_t>(model.num_subspaces()));
  for (int64_t s = 0; s < model.num_subspaces(); ++s) {
    for (const auto& tuple : *model.InitialTuples(s)) {
      user.start_labels[static_cast<size_t>(s)].push_back(
          user.uir.ContainsSubspacePoint(s, tuple) ? 1.0 : 0.0);
    }
  }
  user.eval_truth.reserve(fixture.eval_rows.size());
  for (const int64_t r : fixture.eval_rows) {
    user.eval_truth.push_back(user.uir.Contains(fixture.table.Row(r)) ? 1.0
                                                                      : 0.0);
  }
  user.session_seed =
      Stream(fixture.seed, kSessionStream, static_cast<uint64_t>(id)).seed();
  return user;
}

std::unique_ptr<core::ExplorationSession> NewSession(const Fixture& fixture,
                                                     const User& user,
                                                     int64_t num_threads) {
  auto session =
      std::make_unique<core::ExplorationSession>(fixture.model, num_threads);
  session->set_scan_path(user.path);
  session->SeedRng(user.session_seed);
  return session;
}

uint64_t MixDigest(uint64_t digest, const void* data, size_t size) {
  const uint64_t h = Fnv1a64(data, size);
  return digest ^ (h + 0x9E3779B97F4A7C15ULL + (digest << 6) + (digest >> 2));
}

Status LabellingRound(const Fixture& fixture, const User& user, int64_t round,
                      Rng* stream, core::ExplorationSession* session,
                      TraceBuffer* trace, int64_t request, uint64_t* digest) {
  const int64_t s = round % fixture.model->num_subspaces();
  const std::vector<int64_t>& attrs =
      fixture.subspaces[static_cast<size_t>(s)].attribute_indices;
  std::vector<int64_t> rows;
  std::vector<std::vector<double>> candidates;
  {
    SpanScope span(trace, SpanKind::kPool, request);
    rows = data::SampleRowIndices(fixture.table, kPoolRows, stream);
    candidates.reserve(rows.size());
    for (const int64_t r : rows) {
      candidates.push_back(fixture.table.RowProjected(r, attrs));
    }
  }
  std::vector<int64_t> picked;
  {
    SpanScope span(trace, SpanKind::kSuggest, request);
    LTE_RETURN_IF_ERROR(
        session->SuggestTuples(s, candidates, kSuggestBatch, &picked));
  }
  std::vector<std::vector<double>> points;
  std::vector<double> labels;
  {
    SpanScope span(trace, SpanKind::kOracle, request);
    for (const int64_t i : picked) {
      points.push_back(candidates[static_cast<size_t>(i)]);
      labels.push_back(user.uir.ContainsSubspacePoint(s, points.back()) ? 1.0
                                                                        : 0.0);
      *digest = MixDigest(*digest, &rows[static_cast<size_t>(i)],
                          sizeof(int64_t));
    }
    *digest = MixDigest(*digest, labels.data(), labels.size() * sizeof(double));
  }
  if (points.empty()) return Status::OK();
  SpanScope span(trace, SpanKind::kContinue, request);
  return session->ContinueExploration(s, points, labels,
                                      session->session_rng());
}

Status ScoreEval(const Fixture& fixture, const User& user,
                 const core::ExplorationSession& session,
                 eval::ConfusionCounts* counts, uint64_t* digest) {
  std::vector<double> predictions;
  LTE_RETURN_IF_ERROR(
      session.PredictRows(fixture.table, fixture.eval_rows, &predictions));
  for (size_t i = 0; i < predictions.size(); ++i) {
    counts->Add(user.eval_truth[i], predictions[i]);
  }
  *digest = MixDigest(0, predictions.data(),
                      predictions.size() * sizeof(double));
  return Status::OK();
}

}  // namespace lte::perfbench
