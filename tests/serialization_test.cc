// Round-trip tests of the model-persistence layer, from the binary I/O
// primitives up to a full pre-trained ExplorationModel.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>

#include "common/binary_io.h"
#include "core/lte.h"
#include "data/synthetic.h"
#include "nn/mlp.h"
#include "preprocess/tabular_encoder.h"

namespace lte {
namespace {

TEST(BinaryIoTest, PrimitivesRoundTrip) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteU64(42);
  w.WriteI64(-7);
  w.WriteDouble(3.25);
  w.WriteBool(true);
  w.WriteString("hello");
  w.WriteDoubleVector({1.5, -2.5});
  w.WriteI64Vector({10, 20});
  w.WritePointSet({{1, 2}, {3, 4}});
  ASSERT_TRUE(w.status().ok());

  BinaryReader r(&buf);
  uint64_t u = 0;
  int64_t i = 0;
  double d = 0;
  bool b = false;
  std::string s;
  std::vector<double> dv;
  std::vector<int64_t> iv;
  std::vector<std::vector<double>> ps;
  ASSERT_TRUE(r.ReadU64(&u).ok());
  ASSERT_TRUE(r.ReadI64(&i).ok());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  ASSERT_TRUE(r.ReadBool(&b).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  ASSERT_TRUE(r.ReadDoubleVector(&dv).ok());
  ASSERT_TRUE(r.ReadI64Vector(&iv).ok());
  ASSERT_TRUE(r.ReadPointSet(&ps).ok());
  EXPECT_EQ(u, 42u);
  EXPECT_EQ(i, -7);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(dv, (std::vector<double>{1.5, -2.5}));
  EXPECT_EQ(iv, (std::vector<int64_t>{10, 20}));
  EXPECT_EQ(ps, (std::vector<std::vector<double>>{{1, 2}, {3, 4}}));
}

TEST(BinaryIoTest, TruncatedStreamFails) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteU64(5);  // Claims 5 doubles follow; none do.
  BinaryReader r(&buf);
  std::vector<double> v;
  EXPECT_EQ(r.ReadDoubleVector(&v).code(), StatusCode::kIoError);
}

// A corrupt length prefix claiming 2^24 elements, followed by only one
// element's worth of bytes: every reader must fail cleanly without first
// allocating the declared length.
TEST(BinaryIoTest, CorruptLengthFailsWithBoundedAllocation) {
  constexpr uint64_t kClaimed = uint64_t{1} << 24;
  std::ostringstream out;
  BinaryWriter w(&out);
  w.WriteU64(kClaimed);
  w.WriteU64(0);
  const std::string bytes = out.str();
  ASSERT_EQ(bytes.size(), 16u);
  constexpr size_t kBound = kClaimed / 8;

  {
    std::istringstream in(bytes);
    BinaryReader r(&in);
    std::vector<double> v;
    EXPECT_EQ(r.ReadDoubleVector(&v).code(), StatusCode::kIoError);
    EXPECT_LT(v.capacity(), kBound);
  }
  {
    std::istringstream in(bytes);
    BinaryReader r(&in);
    std::vector<int64_t> v;
    EXPECT_EQ(r.ReadI64Vector(&v).code(), StatusCode::kIoError);
    EXPECT_LT(v.capacity(), kBound);
  }
  {
    std::istringstream in(bytes);
    BinaryReader r(&in);
    std::string str;
    EXPECT_EQ(r.ReadString(&str).code(), StatusCode::kIoError);
    EXPECT_LT(str.capacity(), kBound);
  }
  {
    std::istringstream in(bytes);
    BinaryReader r(&in);
    std::vector<std::vector<double>> points;
    EXPECT_EQ(r.ReadPointSet(&points).code(), StatusCode::kIoError);
    EXPECT_LT(points.capacity(), kBound);
  }
}

TEST(SerializationTest, MatrixRoundTrip) {
  Rng rng(1);
  nn::Matrix m(3, 4);
  m.InitGaussian(&rng, 1.0);
  std::stringstream buf;
  BinaryWriter w(&buf);
  m.Save(&w);
  nn::Matrix loaded;
  BinaryReader r(&buf);
  ASSERT_TRUE(loaded.Load(&r).ok());
  EXPECT_EQ(loaded.rows(), 3);
  EXPECT_EQ(loaded.cols(), 4);
  EXPECT_EQ(loaded.data(), m.data());
}

TEST(SerializationTest, MlpRoundTripPreservesOutputs) {
  Rng rng(2);
  nn::Mlp mlp({4, 8, 1}, &rng);
  std::stringstream buf;
  BinaryWriter w(&buf);
  mlp.Save(&w);
  nn::Mlp loaded;
  BinaryReader r(&buf);
  ASSERT_TRUE(loaded.Load(&r).ok());
  const std::vector<double> x = {0.1, -0.2, 0.3, 0.4};
  EXPECT_EQ(loaded.Forward(x), mlp.Forward(x));
  EXPECT_EQ(loaded.LayerSizes(), mlp.LayerSizes());
}

TEST(SerializationTest, EncoderRoundTripPreservesEncoding) {
  Rng rng(3);
  const data::Table table = data::MakeCarLike(1500, &rng);
  preprocess::TabularEncoder enc;
  ASSERT_TRUE(enc.Fit(table, &rng).ok());
  std::stringstream buf;
  BinaryWriter w(&buf);
  enc.Save(&w);
  preprocess::TabularEncoder loaded;
  BinaryReader r(&buf);
  ASSERT_TRUE(loaded.Load(&r).ok());
  EXPECT_TRUE(loaded.fitted());
  for (int64_t row = 0; row < 20; ++row) {
    EXPECT_EQ(loaded.EncodeRow(table.Row(row)), enc.EncodeRow(table.Row(row)));
  }
}

TEST(SerializationTest, MetaLearnerRoundTripPreservesPredictions) {
  Rng rng(4);
  core::MetaLearnerOptions opt;
  opt.uis_feature_dim = 12;
  opt.tuple_feature_dim = 6;
  opt.embedding_size = 8;
  opt.clf_hidden = {8};
  opt.use_memory = true;
  opt.num_memory_modes = 3;
  core::MetaLearner learner(opt, &rng);

  std::stringstream buf;
  BinaryWriter w(&buf);
  learner.Save(&w);
  std::unique_ptr<core::MetaLearner> loaded;
  BinaryReader r(&buf);
  ASSERT_TRUE(core::MetaLearner::LoadFrom(&r, &loaded).ok());

  std::vector<double> v_r(12, 0.0);
  v_r[2] = 1.0;
  v_r[7] = 1.0;
  const std::vector<double> x = {0.1, 0.9, 0.3, 0.7, 0.5, 0.2};
  core::TaskModel a = learner.CreateTaskModel(v_r);
  core::TaskModel b = loaded->CreateTaskModel(v_r);
  EXPECT_DOUBLE_EQ(a.Logit(x), b.Logit(x));
  EXPECT_EQ(learner.Attention(v_r), loaded->Attention(v_r));
}

core::ExplorerOptions SmallModelOptions() {
  core::ExplorerOptions opt;
  opt.task_gen.k_u = 30;
  opt.task_gen.k_s = 10;
  opt.task_gen.k_q = 30;
  opt.learner.embedding_size = 12;
  opt.learner.clf_hidden = {12};
  opt.learner.num_memory_modes = 3;
  opt.num_meta_tasks = 25;
  opt.trainer.epochs = 3;
  opt.trainer.local_steps = 3;
  return opt;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(SerializationTest, ExplorerRoundTripPreservesExploration) {
  Rng rng(5);
  data::Table table = data::MakeBlobs(3000, 4, 4, &rng);
  std::vector<data::Subspace> subspaces = {data::Subspace{{0, 1}},
                                           data::Subspace{{2, 3}}};
  auto original =
      std::make_shared<core::ExplorationModel>(SmallModelOptions());
  ASSERT_TRUE(
      original->Pretrain(table, subspaces, /*train_meta=*/true, &rng).ok());

  const std::string path = testing::TempDir() + "/explorer.ltemodel";
  ASSERT_TRUE(original->Save(path).ok());

  auto restored =
      std::make_shared<core::ExplorationModel>(core::ExplorerOptions{});
  ASSERT_TRUE(restored->Load(path).ok());
  EXPECT_EQ(restored->num_subspaces(), 2);
  EXPECT_TRUE(restored->meta_trained());
  EXPECT_EQ(*restored->InitialTuples(0), *original->InitialTuples(0));
  EXPECT_EQ(*restored->InitialTuples(1), *original->InitialTuples(1));

  // Both adapt with identical labels and rngs and must agree exactly.
  std::vector<std::vector<double>> labels(2);
  for (int s = 0; s < 2; ++s) {
    for (const auto& t : *original->InitialTuples(s)) {
      labels[static_cast<size_t>(s)].push_back(t[0] < 5.0 ? 1.0 : 0.0);
    }
  }
  core::ExplorationSession session_a(original);
  core::ExplorationSession session_b(restored);
  Rng rng_a(99);
  Rng rng_b(99);
  ASSERT_TRUE(
      session_a.StartExploration(labels, core::Variant::kMetaStar, &rng_a)
          .ok());
  ASSERT_TRUE(
      session_b.StartExploration(labels, core::Variant::kMetaStar, &rng_b)
          .ok());
  for (int64_t r = 0; r < 50; ++r) {
    EXPECT_EQ(session_a.PredictRow(table.Row(r)).value_or(-1.0),
              session_b.PredictRow(table.Row(r)).value_or(-2.0));
  }
}

// Save → Load → Save reproduces the original bytes exactly: the format has
// no lossy fields.
TEST(SerializationTest, ModelSaveLoadSaveIsByteIdentical) {
  Rng rng(6);
  data::Table table = data::MakeBlobs(3000, 4, 4, &rng);
  std::vector<data::Subspace> subspaces = {data::Subspace{{0, 1}},
                                           data::Subspace{{2, 3}}};
  core::ExplorationModel trained(SmallModelOptions());
  ASSERT_TRUE(
      trained.Pretrain(table, subspaces, /*train_meta=*/true, &rng).ok());
  const std::string first_path = testing::TempDir() + "/first.ltemodel";
  ASSERT_TRUE(trained.Save(first_path).ok());

  core::ExplorationModel loaded(core::ExplorerOptions{});
  ASSERT_TRUE(loaded.Load(first_path).ok());
  EXPECT_TRUE(loaded.meta_trained());
  ASSERT_EQ(loaded.num_subspaces(), 2);
  EXPECT_EQ(*loaded.InitialTuples(0), *trained.InitialTuples(0));
  EXPECT_EQ(loaded.fingerprint(), trained.fingerprint());

  const std::string second_path = testing::TempDir() + "/second.ltemodel";
  ASSERT_TRUE(loaded.Save(second_path).ok());
  const std::string first = ReadFileBytes(first_path);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, ReadFileBytes(second_path));
}

TEST(SerializationTest, ModelLoadPreservesConstructedThreadKnob) {
  Rng rng(7);
  data::Table table = data::MakeBlobs(2000, 2, 3, &rng);
  core::ExplorerOptions opt;
  opt.task_gen.k_u = 20;
  opt.task_gen.k_s = 8;
  opt.task_gen.k_q = 20;
  opt.learner.embedding_size = 8;
  opt.learner.clf_hidden = {8};
  opt.learner.num_memory_modes = 3;
  opt.num_meta_tasks = 10;
  opt.trainer.epochs = 2;
  opt.trainer.local_steps = 2;
  core::ExplorationModel trained(opt);
  ASSERT_TRUE(trained
                  .Pretrain(table, {data::Subspace{{0, 1}}},
                            /*train_meta=*/false, &rng)
                  .ok());
  const std::string path = testing::TempDir() + "/threads.ltemodel";
  ASSERT_TRUE(trained.Save(path).ok());

  core::ExplorerOptions host_opt;
  host_opt.num_threads = 3;
  host_opt.trainer.num_threads = 2;
  core::ExplorationModel host(host_opt);
  ASSERT_TRUE(host.Load(path).ok());
  EXPECT_EQ(host.options().num_threads, 3);
  EXPECT_EQ(host.options().trainer.num_threads, 2);
  // The serialized hyper-parameters did come from the file.
  EXPECT_EQ(host.options().task_gen.k_s, 8);
}

TEST(SerializationTest, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/garbage.ltemodel";
  std::ofstream out(path, std::ios::binary);
  out << "this is not a model";
  out.close();
  core::ExplorationModel model(core::ExplorerOptions{});
  const Status s = model.Load(path);
  EXPECT_FALSE(s.ok());
}

TEST(SerializationTest, LoadRejectsMissingFile) {
  core::ExplorationModel model(core::ExplorerOptions{});
  EXPECT_EQ(model.Load("/nonexistent/dir/model.bin").code(),
            StatusCode::kIoError);
}

TEST(SerializationTest, SaveBeforePretrainFails) {
  core::ExplorationModel model(core::ExplorerOptions{});
  EXPECT_EQ(model.Save(testing::TempDir() + "/x.ltemodel").code(),
            StatusCode::kFailedPrecondition);
}

// /dev/full accepts the open and every buffered write, then fails the
// flush with ENOSPC: a model small enough to sit in the stream buffer
// must still report the failure instead of OK.
TEST(SerializationTest, SaveReportsFailedFinalFlush) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  Rng rng(8);
  const data::Table table = data::MakeBlobs(200, 1, 2, &rng);
  core::ExplorerOptions opt;
  opt.task_gen.k_u = 4;
  opt.task_gen.k_s = 2;
  opt.task_gen.k_q = 4;
  opt.task_gen.delta = 1;
  opt.encoder.mode = preprocess::EncodingMode::kMinMaxOnly;
  core::ExplorationModel model(opt);
  ASSERT_TRUE(model
                  .Pretrain(table, {data::Subspace{{0}}},
                            /*train_meta=*/false, &rng)
                  .ok());
  std::ostringstream bytes;
  ASSERT_TRUE(model.SaveToStream(&bytes).ok());
  ASSERT_LT(bytes.str().size(), 4096u) << "must fit in the stream buffer";
  EXPECT_EQ(model.Save("/dev/full").code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace lte
