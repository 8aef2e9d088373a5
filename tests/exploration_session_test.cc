#include "core/exploration_session.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "core/exploration_model.h"
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

class ExplorationSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(23);
    table_ = data::MakeBlobs(4000, 4, 5, &rng);
    subspaces_ = {data::Subspace{{0, 1}}, data::Subspace{{2, 3}}};
    model_ = std::make_shared<ExplorationModel>(SmallExplorerOptions());
    Rng pretrain_rng(23);
    ASSERT_TRUE(
        model_->Pretrain(table_, subspaces_, /*train_meta=*/true,
                         &pretrain_rng)
            .ok());
  }

  // Simulated user `u`: interesting iff the subspace point's first
  // coordinate is below a per-user fraction of that attribute's range.
  // Distinct users get distinct thresholds (and therefore distinct adapted
  // models).
  std::vector<std::vector<double>> UserLabels(int64_t u) const {
    const double fraction = 0.35 + 0.12 * static_cast<double>(u);
    std::vector<std::vector<double>> labels(subspaces_.size());
    for (size_t s = 0; s < subspaces_.size(); ++s) {
      const data::Column& col =
          table_.column(subspaces_[s].attribute_indices[0]);
      const double threshold = col.min() + fraction * (col.max() - col.min());
      for (const auto& tuple :
           *model_->InitialTuples(static_cast<int64_t>(s))) {
        labels[s].push_back(tuple[0] < threshold ? 1.0 : 0.0);
      }
    }
    return labels;
  }

  static Variant UserVariant(int64_t u) {
    switch (u % 3) {
      case 0:
        return Variant::kMetaStar;
      case 1:
        return Variant::kMeta;
      default:
        return Variant::kBasic;
    }
  }

  // One user's complete exploration outcome, for exact comparison.
  struct Outcome {
    std::vector<double> predictions;
    std::vector<int64_t> matches;

    bool operator==(const Outcome& other) const {
      return predictions == other.predictions && matches == other.matches;
    }
  };

  // Runs user `u` start to finish on `session`: adapt, batch-predict a row
  // sample, and retrieve all matches.
  Outcome RunUser(ExplorationSession* session, int64_t u) const {
    Outcome out;
    Rng rng(100 + static_cast<uint64_t>(u));
    EXPECT_TRUE(
        session->StartExploration(UserLabels(u), UserVariant(u), &rng).ok());
    std::vector<int64_t> rows(500);
    std::iota(rows.begin(), rows.end(), 0);
    EXPECT_TRUE(session->PredictRows(table_, rows, &out.predictions).ok());
    EXPECT_TRUE(session->RetrieveMatches(table_, -1, &out.matches).ok());
    return out;
  }

  data::Table table_;
  std::vector<data::Subspace> subspaces_;
  std::shared_ptr<ExplorationModel> model_;
};

TEST_F(ExplorationSessionTest, SessionServesModelQueries) {
  ExplorationSession session(model_);
  Rng rng(99);
  ASSERT_TRUE(
      session.StartExploration(UserLabels(0), Variant::kMetaStar, &rng).ok());
  EXPECT_EQ(session.active_subspaces(), 2);
  const std::optional<double> pred = session.PredictRow(table_.Row(0));
  ASSERT_TRUE(pred.has_value());
  EXPECT_TRUE(*pred == 0.0 || *pred == 1.0);
}

// The tentpole contract: N sessions exploring concurrently against one
// shared model produce byte-identical results to N sequential standalone
// runs. Each user runs a different variant and distinct labels, every
// session fans its own scans out on the shared pool, and all adaptation
// happens concurrently too — the strongest interleaving the serving
// architecture promises to survive.
TEST_F(ExplorationSessionTest, ConcurrentSessionsMatchSequentialRuns) {
  constexpr int64_t kUsers = 4;

  std::vector<Outcome> sequential(kUsers);
  for (int64_t u = 0; u < kUsers; ++u) {
    ExplorationSession session(model_, /*num_threads=*/2);
    sequential[static_cast<size_t>(u)] = RunUser(&session, u);
  }

  std::vector<Outcome> concurrent(kUsers);
  {
    std::vector<std::thread> users;
    users.reserve(kUsers);
    for (int64_t u = 0; u < kUsers; ++u) {
      users.emplace_back([&, u] {
        ExplorationSession session(model_, /*num_threads=*/2);
        concurrent[static_cast<size_t>(u)] = RunUser(&session, u);
      });
    }
    for (std::thread& t : users) t.join();
  }

  for (int64_t u = 0; u < kUsers; ++u) {
    EXPECT_EQ(concurrent[static_cast<size_t>(u)],
              sequential[static_cast<size_t>(u)])
        << "user " << u << " diverged under concurrency";
  }
  // Distinct users genuinely explored distinct regions (the test would be
  // vacuous if every outcome were identical).
  EXPECT_NE(sequential[0], sequential[2]);
}

TEST_F(ExplorationSessionTest, SessionThreadOverrideIsResultInvariant) {
  // A session's private thread knob changes scheduling, never results.
  ExplorationSession seq(model_, /*num_threads=*/1);
  ExplorationSession par(model_, /*num_threads=*/4);
  EXPECT_EQ(seq.num_threads(), 1);
  EXPECT_EQ(par.num_threads(), 4);
  const Outcome a = RunUser(&seq, 1);
  const Outcome b = RunUser(&par, 1);
  EXPECT_EQ(a, b);
}

TEST_F(ExplorationSessionTest, InheritsModelThreadKnobByDefault) {
  ExplorationSession session(model_);
  EXPECT_EQ(session.num_threads(), model_->options().num_threads);
}

TEST_F(ExplorationSessionTest, MisuseReturnsStatusNotAbort) {
  ExplorationSession session(model_);
  // Query surface before StartExploration.
  EXPECT_FALSE(session.PredictRow(table_.Row(0)).has_value());
  EXPECT_FALSE(session.PredictSubspace(0, {0.5, 0.5}).has_value());
  std::vector<double> preds;
  std::vector<int64_t> rows = {0, 1};
  EXPECT_EQ(session.PredictRows(table_, rows, &preds).code(),
            StatusCode::kFailedPrecondition);
  std::vector<int64_t> matches;
  EXPECT_EQ(session.RetrieveMatches(table_, -1, &matches).code(),
            StatusCode::kFailedPrecondition);
  std::vector<int64_t> suggested;
  EXPECT_EQ(session.SuggestTuples(0, {{0.1, 0.2}}, 1, &suggested).code(),
            StatusCode::kFailedPrecondition);
  Rng rng(1);
  EXPECT_EQ(session.ContinueExploration(0, {{0.1, 0.2}}, {1.0}, &rng).code(),
            StatusCode::kInvalidArgument);

  // Untrained model.
  auto cold = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ExplorationSession cold_session(cold);
  EXPECT_EQ(
      cold_session.StartExploration({{1.0}}, Variant::kBasic, &rng).code(),
      StatusCode::kFailedPrecondition);
}

TEST_F(ExplorationSessionTest, ContinueExplorationNullRngIsError) {
  // Regression: a null rng used to reach the local-update path and
  // dereference, aborting the process; it must come back as a misuse error
  // like every other bad argument.
  ExplorationSession session(model_);
  Rng rng(7);
  ASSERT_TRUE(
      session.StartExploration(UserLabels(0), Variant::kMeta, &rng).ok());
  const Status s =
      session.ContinueExploration(0, {{0.1, 0.2}}, {1.0}, nullptr);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The session is untouched and still serves queries.
  EXPECT_TRUE(session.PredictRow(table_.Row(0)).has_value());
}

TEST_F(ExplorationSessionTest, ResetDropsAdaptedState) {
  ExplorationSession session(model_);
  Rng rng(5);
  ASSERT_TRUE(
      session.StartExploration(UserLabels(0), Variant::kMeta, &rng).ok());
  ASSERT_EQ(session.active_subspaces(), 2);
  session.Reset();
  EXPECT_EQ(session.active_subspaces(), 0);
  EXPECT_FALSE(session.PredictRow(table_.Row(0)).has_value());
  // The model is untouched: a fresh exploration still works.
  ASSERT_TRUE(
      session.StartExploration(UserLabels(1), Variant::kMeta, &rng).ok());
  EXPECT_TRUE(session.PredictRow(table_.Row(0)).has_value());
}

TEST_F(ExplorationSessionTest, ModelAccessorsRejectOutOfRange) {
  EXPECT_EQ(model_->subspace(-1), nullptr);
  EXPECT_EQ(model_->subspace(2), nullptr);
  EXPECT_EQ(model_->InitialTuples(99), nullptr);
  EXPECT_EQ(model_->generator(-3), nullptr);
  EXPECT_EQ(model_->meta_learner(2), nullptr);
  EXPECT_NE(model_->meta_learner(0), nullptr);
}

}  // namespace
}  // namespace lte::core
