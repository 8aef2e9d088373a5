// The single-user exploration surface: one ExplorationModel pretrained
// offline plus one ExplorationSession exploring it online.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <set>
#include <string>

#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/synthetic.h"

namespace lte::core {
namespace {

ExplorerOptions SmallExplorerOptions() {
  ExplorerOptions opt;
  opt.task_gen.k_u = 30;
  opt.task_gen.k_s = 10;
  opt.task_gen.k_q = 30;
  opt.task_gen.delta = 5;
  opt.task_gen.alpha = 2;
  opt.task_gen.psi = 8;
  opt.learner.embedding_size = 12;
  opt.learner.clf_hidden = {12};
  opt.learner.num_memory_modes = 3;
  opt.num_meta_tasks = 25;
  opt.trainer.epochs = 3;
  opt.trainer.task_batch_size = 10;
  opt.trainer.local_steps = 6;
  opt.trainer.local_lr = 0.2;
  opt.trainer.global_lr = 0.1;
  opt.online_steps = 25;
  opt.online_lr = 0.2;
  opt.encoder.num_gmm_components = 3;
  opt.encoder.num_jenks_intervals = 3;
  return opt;
}

class ExplorerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(23);
    table_ = data::MakeBlobs(4000, 4, 5, rng_.get());
    subspaces_ = {data::Subspace{{0, 1}}, data::Subspace{{2, 3}}};
  }

  /// A model over the fixture table, pretrained from the fixture rng.
  std::shared_ptr<ExplorationModel> Pretrained(
      bool train_meta, const ExplorerOptions& opt = SmallExplorerOptions()) {
    auto model = std::make_shared<ExplorationModel>(opt);
    EXPECT_TRUE(
        model->Pretrain(table_, subspaces_, train_meta, rng_.get()).ok());
    return model;
  }

  std::unique_ptr<Rng> rng_;
  data::Table table_;
  std::vector<data::Subspace> subspaces_;
};

TEST_F(ExplorerTest, PretrainWithoutMetaPreparesContexts) {
  const auto model = Pretrained(/*train_meta=*/false);
  ASSERT_TRUE(model->pretrained());
  EXPECT_EQ(model->num_subspaces(), 2);
  EXPECT_FALSE(model->meta_trained());
  ASSERT_NE(model->InitialTuples(0), nullptr);
  EXPECT_EQ(model->InitialTuples(0)->size(), 15u);  // k_s + delta.
  EXPECT_DOUBLE_EQ(model->meta_training_seconds(), 0.0);
}

TEST_F(ExplorerTest, OfflineTrainingIsThreadCountInvariant) {
  // The per-subspace fan-out must not change the trained model: every
  // subspace trains on its own Rng::Fork(s) stream, so one lane and four
  // lanes serialize to the very same bytes. (Trainer options are not part
  // of the serialized state, so a byte comparison is exact.)
  auto pretrain_bytes = [&](int64_t threads) {
    ExplorerOptions opt = SmallExplorerOptions();
    opt.num_threads = threads;
    opt.trainer.num_threads = threads;
    ExplorationModel model(opt);
    Rng rng(23);
    EXPECT_TRUE(
        model.Pretrain(table_, subspaces_, /*train_meta=*/true, &rng).ok());
    const std::string path =
        testing::TempDir() + "lte_threads_" + std::to_string(threads) +
        ".ltemodel";
    EXPECT_TRUE(model.Save(path).ok());
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string sequential = pretrain_bytes(1);
  const std::string parallel4 = pretrain_bytes(4);
  ASSERT_FALSE(sequential.empty());
  EXPECT_EQ(sequential, parallel4);
}

TEST_F(ExplorerTest, MetaVariantRequiresMetaTraining) {
  const auto model = Pretrained(/*train_meta=*/false);
  ASSERT_TRUE(model->pretrained());
  ExplorationSession session(model);
  std::vector<std::vector<double>> labels(2);
  for (int s = 0; s < 2; ++s) {
    labels[static_cast<size_t>(s)].assign(model->InitialTuples(s)->size(),
                                          0.0);
    labels[static_cast<size_t>(s)][0] = 1.0;
  }
  const Status status =
      session.StartExploration(labels, Variant::kMeta, rng_.get());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  // Basic works without meta-training.
  EXPECT_TRUE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());
}

TEST_F(ExplorerTest, EndToEndBasicExploration) {
  const auto model = Pretrained(/*train_meta=*/false);
  ASSERT_TRUE(model->pretrained());
  ExplorationSession session(model);

  // Ground truth: interesting iff attr0 below its median (per subspace 0)
  // — a simple axis-aligned region.
  const double median0 = 0.5 * (table_.column(0).min() + table_.column(0).max());
  std::vector<std::vector<double>> labels(2);
  for (int s = 0; s < 2; ++s) {
    for (const auto& tuple : *model->InitialTuples(s)) {
      const bool interesting = s == 0 ? tuple[0] < median0 : true;
      labels[static_cast<size_t>(s)].push_back(interesting ? 1.0 : 0.0);
    }
  }
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());
  EXPECT_EQ(session.active_subspaces(), 2);

  // Prediction shape checks on arbitrary rows.
  for (int64_t r = 0; r < 10; ++r) {
    const double p = session.PredictRow(table_.Row(r)).value_or(-1.0);
    EXPECT_TRUE(p == 0.0 || p == 1.0);
  }
}

TEST_F(ExplorerTest, MetaAndMetaStarExploration) {
  const auto model = Pretrained(/*train_meta=*/true);
  ASSERT_TRUE(model->pretrained());
  EXPECT_TRUE(model->meta_trained());
  EXPECT_GT(model->meta_training_seconds(), 0.0);
  EXPECT_GT(model->task_generation_seconds(), 0.0);
  ExplorationSession session(model);

  std::vector<std::vector<double>> labels(2);
  for (int s = 0; s < 2; ++s) {
    for (const auto& tuple : *model->InitialTuples(s)) {
      labels[static_cast<size_t>(s)].push_back(tuple[0] < 5.0 ? 1.0 : 0.0);
    }
  }
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kMeta, rng_.get()).ok());
  const double meta_pred = session.PredictRow(table_.Row(0)).value_or(-1.0);
  EXPECT_TRUE(meta_pred == 0.0 || meta_pred == 1.0);

  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kMetaStar, rng_.get()).ok());
  // Meta*'s FP repair: a far-away point must be negative.
  std::vector<double> far_row = {1e6, 1e6, 1e6, 1e6};
  EXPECT_DOUBLE_EQ(session.PredictRow(far_row).value_or(-1.0), 0.0);
}

TEST_F(ExplorerTest, PrefixExploration) {
  const auto model = Pretrained(/*train_meta=*/false);
  ASSERT_TRUE(model->pretrained());
  ExplorationSession session(model);
  std::vector<std::vector<double>> labels(1);
  labels[0].assign(model->InitialTuples(0)->size(), 1.0);
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());
  EXPECT_EQ(session.active_subspaces(), 1);
  // PredictRow conjoins only the first subspace.
  const double p = session.PredictRow(table_.Row(0)).value_or(-1.0);
  EXPECT_TRUE(p == 0.0 || p == 1.0);
}

TEST_F(ExplorerTest, LabelShapeMismatchRejected) {
  const auto model = Pretrained(/*train_meta=*/false);
  ASSERT_TRUE(model->pretrained());
  ExplorationSession session(model);
  std::vector<std::vector<double>> labels(2);
  labels[0].assign(3, 1.0);  // Wrong size.
  labels[1].assign(model->InitialTuples(1)->size(), 1.0);
  EXPECT_FALSE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());
  // Too many label sets.
  std::vector<std::vector<double>> too_many(3);
  EXPECT_FALSE(
      session.StartExploration(too_many, Variant::kBasic, rng_.get()).ok());
}

TEST_F(ExplorerTest, EncoderOptionsPropagate) {
  ExplorerOptions opt = SmallExplorerOptions();
  opt.encoder.mode = preprocess::EncodingMode::kMinMaxOnly;
  const auto minmax = Pretrained(/*train_meta=*/false, opt);
  ASSERT_TRUE(minmax->pretrained());
  // Min-max encoding is one value per attribute.
  EXPECT_EQ(minmax->encoder().ProjectedWidth({0, 1}), 2);

  opt.encoder.mode = preprocess::EncodingMode::kCombined;
  const auto combined = Pretrained(/*train_meta=*/false, opt);
  ASSERT_TRUE(combined->pretrained());
  EXPECT_GT(combined->encoder().ProjectedWidth({0, 1}), 2);
}

TEST_F(ExplorerTest, SuggestTuplesRanksByUncertainty) {
  const auto model = Pretrained(/*train_meta=*/false);
  ASSERT_TRUE(model->pretrained());
  ExplorationSession session(model);
  std::vector<std::vector<double>> labels(1);
  for (const auto& t : *model->InitialTuples(0)) {
    labels[0].push_back(t[0] < 5.0 ? 1.0 : 0.0);
  }
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());

  std::vector<std::vector<double>> candidates;
  for (int64_t r = 0; r < 200; ++r) {
    const std::vector<double> row = table_.Row(r);
    candidates.push_back({row[0], row[1]});
  }
  std::vector<int64_t> picked;
  ASSERT_TRUE(session.SuggestTuples(0, candidates, 5, &picked).ok());
  ASSERT_EQ(picked.size(), 5u);
  // Every index valid and distinct.
  std::set<int64_t> uniq(picked.begin(), picked.end());
  EXPECT_EQ(uniq.size(), 5u);
  for (int64_t i : picked) {
    EXPECT_GE(i, 0);
    EXPECT_LT(i, 200);
  }
  // k larger than the candidate set clamps.
  ASSERT_TRUE(session.SuggestTuples(0, candidates, 1000, &picked).ok());
  EXPECT_EQ(picked.size(), 200u);
}

TEST_F(ExplorerTest, ContinueExplorationRefinesModel) {
  const auto model = Pretrained(/*train_meta=*/false);
  ASSERT_TRUE(model->pretrained());
  ExplorationSession session(model);
  const double threshold = 5.0;
  std::vector<std::vector<double>> labels(1);
  for (const auto& t : *model->InitialTuples(0)) {
    labels[0].push_back(t[0] < threshold ? 1.0 : 0.0);
  }
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());

  // Accuracy over a probe set before and after extra labelled rounds.
  auto accuracy = [&]() {
    int correct = 0;
    for (int64_t r = 0; r < 600; ++r) {
      const std::vector<double> row = table_.Row(r);
      const std::vector<double> p = {row[0], row[1]};
      const double truth = p[0] < threshold ? 1.0 : 0.0;
      if (session.PredictSubspace(0, p).value_or(-1.0) == truth) ++correct;
    }
    return static_cast<double>(correct) / 600.0;
  };
  const double before = accuracy();
  // Feed 100 extra labelled tuples (cumulative with the initial ones).
  std::vector<std::vector<double>> points;
  std::vector<double> extra_labels;
  for (int64_t r = 0; r < 100; ++r) {
    const std::vector<double> row = table_.Row(r);
    points.push_back({row[0], row[1]});
    extra_labels.push_back(row[0] < threshold ? 1.0 : 0.0);
  }
  ASSERT_TRUE(
      session.ContinueExploration(0, points, extra_labels, rng_.get()).ok());
  EXPECT_GE(accuracy(), before - 0.05);  // Must not collapse...
  EXPECT_GT(accuracy(), 0.7);            // ...and should be decent.

  // Invalid uses.
  EXPECT_FALSE(session.ContinueExploration(5, points, extra_labels, rng_.get())
                   .ok());  // Inactive subspace.
  EXPECT_FALSE(
      session.ContinueExploration(0, points, {1.0}, rng_.get()).ok());
  EXPECT_FALSE(session.ContinueExploration(0, {}, {}, rng_.get()).ok());
  // Null rng is a misuse error, not a crash (regression).
  EXPECT_FALSE(
      session.ContinueExploration(0, points, extra_labels, nullptr).ok());
  // The session still serves queries after the rejected call.
  EXPECT_TRUE(session.PredictSubspace(0, {1.0, 1.0}).has_value());
}

TEST_F(ExplorerTest, RetrieveMatchesReturnsPredictedRows) {
  const auto model = Pretrained(/*train_meta=*/false);
  ASSERT_TRUE(model->pretrained());
  ExplorationSession session(model);
  std::vector<std::vector<double>> labels(2);
  for (int s = 0; s < 2; ++s) {
    for (const auto& t : *model->InitialTuples(s)) {
      labels[static_cast<size_t>(s)].push_back(t[0] < 5.0 ? 1.0 : 0.0);
    }
  }
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());
  std::vector<int64_t> matches;
  ASSERT_TRUE(session.RetrieveMatches(table_, /*limit=*/-1, &matches).ok());
  for (int64_t r : matches) {
    EXPECT_DOUBLE_EQ(session.PredictRow(table_.Row(r)).value_or(-1.0), 1.0);
  }
  // A limit caps and preserves the prefix.
  if (matches.size() > 3) {
    std::vector<int64_t> limited;
    ASSERT_TRUE(session.RetrieveMatches(table_, 3, &limited).ok());
    ASSERT_EQ(limited.size(), 3u);
    EXPECT_EQ(limited[0], matches[0]);
    EXPECT_EQ(limited[2], matches[2]);
  }
  // limit == 0 is an empty result, not "scan everything".
  std::vector<int64_t> none = {123};
  ASSERT_TRUE(session.RetrieveMatches(table_, 0, &none).ok());
  EXPECT_TRUE(none.empty());
}

TEST_F(ExplorerTest, OneDimensionalSubspaceEndToEnd) {
  // A 5-attribute table split as 2D + 2D + 1D (the CAR layout).
  data::Table table = data::MakeBlobs(4000, 5, 4, rng_.get());
  std::vector<data::Subspace> subspaces = {
      data::Subspace{{0, 1}}, data::Subspace{{2, 3}}, data::Subspace{{4}}};
  auto model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ASSERT_TRUE(
      model->Pretrain(table, subspaces, /*train_meta=*/true, rng_.get()).ok());
  ExplorationSession session(model);
  std::vector<std::vector<double>> labels(3);
  for (int s = 0; s < 3; ++s) {
    for (const auto& t : *model->InitialTuples(s)) {
      labels[static_cast<size_t>(s)].push_back(t[0] < 5.0 ? 1.0 : 0.0);
    }
  }
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kMetaStar, rng_.get()).ok());
  for (int64_t r = 0; r < 20; ++r) {
    const double p = session.PredictRow(table.Row(r)).value_or(-1.0);
    EXPECT_TRUE(p == 0.0 || p == 1.0);
  }
}

TEST_F(ExplorerTest, StartBeforePretrainFails) {
  ExplorationSession session(
      std::make_shared<ExplorationModel>(SmallExplorerOptions()));
  EXPECT_EQ(
      session.StartExploration({{1.0}}, Variant::kBasic, rng_.get()).code(),
      StatusCode::kFailedPrecondition);
}

class ExplorerOnlineParallelTest : public ExplorerTest {
 protected:
  // A pretrained + adapted session at the given online thread count. Every
  // call pretrains from the same seed, so two sessions differ only in the
  // number of pool lanes their online path may use.
  std::unique_ptr<ExplorationSession> AdaptedSession(int64_t threads) {
    ExplorerOptions opt = SmallExplorerOptions();
    opt.num_threads = threads;
    auto model = std::make_shared<ExplorationModel>(opt);
    Rng rng(23);
    EXPECT_TRUE(
        model->Pretrain(table_, subspaces_, /*train_meta=*/false, &rng).ok());
    auto session = std::make_unique<ExplorationSession>(model);
    std::vector<std::vector<double>> labels(2);
    for (int s = 0; s < 2; ++s) {
      for (const auto& t : *model->InitialTuples(s)) {
        labels[static_cast<size_t>(s)].push_back(t[0] < 5.0 ? 1.0 : 0.0);
      }
    }
    Rng online_rng(99);
    EXPECT_TRUE(
        session->StartExploration(labels, Variant::kBasic, &online_rng).ok());
    return session;
  }

  std::vector<int64_t> AllRows() const {
    std::vector<int64_t> rows(static_cast<size_t>(table_.num_rows()));
    std::iota(rows.begin(), rows.end(), 0);
    return rows;
  }
};

TEST_F(ExplorerOnlineParallelTest, StartExplorationThreadCountInvariant) {
  // The per-subspace adaptation lanes read key-split RNG streams, so the
  // adapted models — observed through their predictions over the whole
  // table — must be bit-identical at 1, 2, and 4 threads.
  const std::unique_ptr<ExplorationSession> e1 = AdaptedSession(1);
  const std::vector<int64_t> rows = AllRows();
  std::vector<double> p1;
  ASSERT_TRUE(e1->PredictRows(table_, rows, &p1).ok());
  ASSERT_EQ(p1.size(), rows.size());
  for (int64_t threads : {int64_t{2}, int64_t{4}}) {
    const std::unique_ptr<ExplorationSession> ex = AdaptedSession(threads);
    std::vector<double> p;
    ASSERT_TRUE(ex->PredictRows(table_, rows, &p).ok());
    EXPECT_EQ(p, p1) << "threads=" << threads;
  }
}

TEST_F(ExplorerOnlineParallelTest, RetrieveMatchesThreadCountInvariant) {
  const std::unique_ptr<ExplorationSession> e1 = AdaptedSession(1);
  std::vector<int64_t> sequential;
  ASSERT_TRUE(e1->RetrieveMatches(table_, -1, &sequential).ok());
  ASSERT_GT(sequential.size(), 3u);  // The labelling rule matches many rows.
  EXPECT_TRUE(std::is_sorted(sequential.begin(), sequential.end()));
  const int64_t limit = static_cast<int64_t>(sequential.size()) / 2;
  for (int64_t threads : {int64_t{2}, int64_t{4}}) {
    const std::unique_ptr<ExplorationSession> ex = AdaptedSession(threads);
    std::vector<int64_t> parallel;
    ASSERT_TRUE(ex->RetrieveMatches(table_, -1, &parallel).ok());
    EXPECT_EQ(parallel, sequential) << "threads=" << threads;
    // Exact-limit truncation: byte-identical prefix of the full scan.
    std::vector<int64_t> limited;
    ASSERT_TRUE(ex->RetrieveMatches(table_, limit, &limited).ok());
    const std::vector<int64_t> prefix(
        sequential.begin(), sequential.begin() + limit);
    EXPECT_EQ(limited, prefix) << "threads=" << threads;
  }
}

TEST_F(ExplorerOnlineParallelTest, PredictRowsMatchesRowWisePredictRow) {
  const std::unique_ptr<ExplorationSession> ex = AdaptedSession(4);
  // Unordered, repeating row list: output must follow the input order.
  const std::vector<int64_t> rows = {17, 3, 3999, 0, 17, 1024, 512};
  std::vector<double> preds;
  ASSERT_TRUE(ex->PredictRows(table_, rows, &preds).ok());
  ASSERT_EQ(preds.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(preds[i],
              ex->PredictRow(table_.Row(rows[i])).value_or(-1.0))
        << "row " << rows[i];
  }
}

TEST_F(ExplorerTest, QueryAccessorsReturnNullOnMisuse) {
  auto model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  // Before Pretrain every accessor reports "nothing there" instead of
  // aborting.
  EXPECT_EQ(model->subspace(0), nullptr);
  EXPECT_EQ(model->InitialTuples(0), nullptr);
  EXPECT_EQ(model->generator(0), nullptr);
  {
    // Scoped: a model must not be pretrained while a session is attached.
    const ExplorationSession session(model);
    EXPECT_FALSE(session.PredictRow(table_.Row(0)).has_value());
    EXPECT_FALSE(session.PredictSubspace(0, {0.0, 0.0}).has_value());
  }

  ASSERT_TRUE(
      model->Pretrain(table_, subspaces_, /*train_meta=*/false, rng_.get())
          .ok());
  EXPECT_NE(model->subspace(0), nullptr);
  EXPECT_NE(model->InitialTuples(1), nullptr);
  EXPECT_NE(model->generator(1), nullptr);
  EXPECT_EQ(model->subspace(-1), nullptr);
  EXPECT_EQ(model->subspace(2), nullptr);
  EXPECT_EQ(model->InitialTuples(7), nullptr);
  EXPECT_EQ(model->generator(-3), nullptr);
}

TEST_F(ExplorerTest, PredictionMisuseYieldsNullopt) {
  const auto model = Pretrained(/*train_meta=*/false);
  ASSERT_TRUE(model->pretrained());
  ExplorationSession session(model);
  // Adapt only subspace 0.
  std::vector<std::vector<double>> labels(1);
  labels[0].assign(model->InitialTuples(0)->size(), 1.0);
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());

  EXPECT_TRUE(session.PredictSubspace(0, {0.5, 0.5}).has_value());
  // Un-adapted.
  EXPECT_FALSE(session.PredictSubspace(1, {0.5, 0.5}).has_value());
  EXPECT_FALSE(session.PredictSubspace(-1, {0.5, 0.5}).has_value());
  EXPECT_FALSE(session.PredictSubspace(9, {0.5, 0.5}).has_value());
  // Width mismatch.
  EXPECT_FALSE(session.PredictSubspace(0, {0.5}).has_value());
  EXPECT_TRUE(session.PredictRow(table_.Row(0)).has_value());
  EXPECT_FALSE(session.PredictRow({0.5}).has_value());  // Row too narrow.
}

TEST_F(ExplorerTest, BatchQueryMisuseYieldsStatus) {
  auto model = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  std::vector<int64_t> matches;
  std::vector<double> preds;
  const std::vector<int64_t> rows = {0, 1, 2};
  {
    // Before StartExploration both batch entry points fail cleanly. Scoped:
    // a model must not be pretrained while a session is attached.
    const ExplorationSession unstarted(model);
    EXPECT_EQ(unstarted.RetrieveMatches(table_, -1, &matches).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(unstarted.PredictRows(table_, rows, &preds).code(),
              StatusCode::kFailedPrecondition);
  }

  ASSERT_TRUE(
      model->Pretrain(table_, subspaces_, /*train_meta=*/false, rng_.get())
          .ok());
  ExplorationSession session(model);
  std::vector<std::vector<double>> labels(2);
  for (int s = 0; s < 2; ++s) {
    labels[static_cast<size_t>(s)].assign(model->InitialTuples(s)->size(),
                                          1.0);
  }
  ASSERT_TRUE(
      session.StartExploration(labels, Variant::kBasic, rng_.get()).ok());

  // Out-of-range row indices.
  const std::vector<int64_t> negative = {-1};
  const std::vector<int64_t> past_end = {table_.num_rows()};
  EXPECT_EQ(session.PredictRows(table_, negative, &preds).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(session.PredictRows(table_, past_end, &preds).code(),
            StatusCode::kOutOfRange);
  // A table narrower than the active subspaces' attributes.
  const data::Table narrow = table_.Project({0, 1});
  EXPECT_EQ(session.RetrieveMatches(narrow, -1, &matches).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.PredictRows(narrow, rows, &preds).code(),
            StatusCode::kInvalidArgument);

  // SuggestTuples misuse: un-adapted subspace, bad k, bad candidate width.
  std::vector<int64_t> picked;
  EXPECT_EQ(session.SuggestTuples(5, {{0.5, 0.5}}, 1, &picked).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.SuggestTuples(0, {{0.5, 0.5}}, -1, &picked).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.SuggestTuples(0, {{0.5, 0.5, 0.5}}, 1, &picked).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace lte::core
