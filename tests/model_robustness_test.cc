// Robustness of model loading against damaged files: every truncation of a
// valid model must produce a clean Status error, never a crash or a
// half-initialized model.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>

#include "core/lte.h"
#include "data/synthetic.h"

namespace lte {
namespace {

class ModelRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(5);
    data::Table table = data::MakeBlobs(2500, 2, 3, &rng);
    core::ExplorerOptions opt;
    opt.task_gen.k_u = 20;
    opt.task_gen.k_s = 8;
    opt.task_gen.k_q = 20;
    opt.learner.embedding_size = 8;
    opt.learner.clf_hidden = {8};
    opt.learner.num_memory_modes = 2;
    opt.num_meta_tasks = 10;
    opt.trainer.epochs = 1;
    opt.trainer.local_steps = 1;
    core::ExplorationModel model(opt);
    ASSERT_TRUE(model
                    .Pretrain(table, {data::Subspace{{0, 1}}},
                              /*train_meta=*/true, &rng)
                    .ok());
    // Per-test file names: CTest runs these tests as concurrent processes,
    // and one test's SetUp must not rewrite a file another test is loading.
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path_ = testing::TempDir() + "/robustness_" + name + ".ltemodel";
    truncated_path_ = testing::TempDir() + "/truncated_" + name + ".ltemodel";
    ASSERT_TRUE(model.Save(path_).ok());

    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes_ = buf.str();
    ASSERT_GT(bytes_.size(), 64u);
  }

  void WriteTruncated(size_t n) {
    std::ofstream out(truncated_path(), std::ios::binary);
    out.write(bytes_.data(), static_cast<std::streamsize>(n));
  }

  const std::string& truncated_path() const { return truncated_path_; }

  std::string path_;
  std::string truncated_path_;
  std::string bytes_;
};

TEST_F(ModelRobustnessTest, FullFileLoads) {
  core::ExplorationModel model(core::ExplorerOptions{});
  EXPECT_TRUE(model.Load(path_).ok());
}

TEST_F(ModelRobustnessTest, EveryTruncationFailsCleanly) {
  // Sweep truncation points across the file (every ~5% plus the first few
  // bytes, where the header parses).
  std::vector<size_t> cuts = {0, 1, 7, 8, 15, 16, 17};
  for (int i = 1; i < 20; ++i) {
    cuts.push_back(bytes_.size() * static_cast<size_t>(i) / 20);
  }
  for (size_t cut : cuts) {
    if (cut >= bytes_.size()) continue;
    WriteTruncated(cut);
    core::ExplorationModel model(core::ExplorerOptions{});
    const Status s = model.Load(truncated_path());
    EXPECT_FALSE(s.ok()) << "truncation at byte " << cut
                         << " unexpectedly loaded";
  }
}

TEST_F(ModelRobustnessTest, CorruptedMagicRejected) {
  std::string corrupted = bytes_;
  corrupted[0] = static_cast<char>(corrupted[0] ^ 0xFF);
  std::ofstream out(truncated_path(), std::ios::binary);
  out.write(corrupted.data(), static_cast<std::streamsize>(corrupted.size()));
  out.close();
  core::ExplorationModel model(core::ExplorerOptions{});
  const Status s = model.Load(truncated_path());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(ModelRobustnessTest, FailedLoadLeavesExplorerUnusable) {
  WriteTruncated(bytes_.size() / 2);
  auto model =
      std::make_shared<core::ExplorationModel>(core::ExplorerOptions{});
  ASSERT_FALSE(model->Load(truncated_path()).ok());
  // The failed load must not report a pretrained model.
  EXPECT_FALSE(model->pretrained());
  core::ExplorationSession session(model);
  EXPECT_EQ(
      session.StartExploration({{1.0}}, core::Variant::kBasic, nullptr).code(),
      StatusCode::kFailedPrecondition);
}

TEST_F(ModelRobustnessTest, FailedLoadPreservesPreviousModel) {
  core::ExplorationModel model(core::ExplorerOptions{});
  ASSERT_TRUE(model.Load(path_).ok());
  ASSERT_NE(model.InitialTuples(0), nullptr);
  const std::vector<std::vector<double>> initial = *model.InitialTuples(0);
  WriteTruncated(bytes_.size() / 3);
  ASSERT_FALSE(model.Load(truncated_path()).ok());
  // A failed re-load must not clobber the previously loaded model.
  ASSERT_NE(model.InitialTuples(0), nullptr);
  EXPECT_EQ(*model.InitialTuples(0), initial);
}

}  // namespace
}  // namespace lte
