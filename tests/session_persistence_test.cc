// Session lifecycle test battery, part 1: ExplorationSession::Save/Load.
//
//  * Round-trip determinism: Save -> Load -> continue is byte-identical to
//    the uninterrupted session, across scan paths and thread counts {1, 4}.
//  * Adversarial decodes: truncation at every byte boundary and bit flips
//    across the header + model stamp return an error Status — never a crash,
//    never a silent load (runs under the ASan/UBSan CI job).
//  * Model mismatch: a session saved against model A refuses to load against
//    model B (FailedPrecondition, both fingerprints in the message).
//  * Write failures: a save whose final flush fails reports IoError.
//
// Saved streams carry configured stateful exploration policies (tau-first +
// bootstrap), so the round-trip and corruption batteries exercise the
// format-v2 policy payload; see session_format_migration_test.cc for the
// v1-compat and per-kind round-trip coverage.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

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

std::string HexU64(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llX",
                static_cast<unsigned long long>(v));
  return buf;
}

class SessionPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(23);
    table_ = data::MakeBlobs(2500, 4, 5, &rng);
    subspaces_ = {data::Subspace{{0, 1}}, data::Subspace{{2, 3}}};
    model_ = std::make_shared<ExplorationModel>(SmallExplorerOptions());
    Rng pretrain_rng(23);
    ASSERT_TRUE(model_
                    ->Pretrain(table_, subspaces_, /*train_meta=*/true,
                               &pretrain_rng)
                    .ok());
  }

  // Simulated user `u`: interesting iff the subspace point's first
  // coordinate is below a per-user fraction of that attribute's range.
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

  // A deterministic ContinueExploration batch for (user, visit, subspace):
  // initial tuples re-labelled under the user's threshold.
  void MakeBatch(int64_t u, int64_t v, int64_t s,
                 std::vector<std::vector<double>>* points,
                 std::vector<double>* labels) const {
    points->clear();
    labels->clear();
    const auto& initial = *model_->InitialTuples(s);
    const data::Column& col = table_.column(subspaces_[s].attribute_indices[0]);
    const double fraction = 0.35 + 0.12 * static_cast<double>(u);
    const double threshold = col.min() + fraction * (col.max() - col.min());
    for (int64_t j = 0; j < 3; ++j) {
      const auto& p =
          initial[static_cast<size_t>((u + 2 * v + j) %
                                      static_cast<int64_t>(initial.size()))];
      points->push_back(p);
      labels->push_back(p[0] < threshold ? 1.0 : 0.0);
    }
  }

  // Installs stateful exploration policies (format-v2 payload) and consumes
  // a suggestion batch per subspace, so saved streams carry a mid-count
  // tau-first counter, bootstrap bag seeds, and an advanced session rng.
  // Called identically on the reference and the to-be-saved session, the
  // policy draws stay in lockstep.
  void ConfigurePoliciesAndSuggest(ExplorationSession* session) const {
    policy::PolicyOptions tau;
    tau.kind = policy::PolicyKind::kTauFirst;
    tau.tau = 4;
    EXPECT_TRUE(session->ConfigureSuggestPolicy(0, tau).ok());
    policy::PolicyOptions boot;
    boot.kind = policy::PolicyKind::kBootstrap;
    boot.bootstrap_bags = 4;
    EXPECT_TRUE(session->ConfigureSuggestPolicy(1, boot).ok());
    std::vector<int64_t> suggested;
    for (int64_t s = 0; s < 2; ++s) {
      EXPECT_TRUE(
          session->SuggestTuples(s, *model_->InitialTuples(s), 3, &suggested)
              .ok());
      EXPECT_EQ(suggested.size(), 3u);
    }
  }

  // One session's complete serving outcome, for exact comparison.
  struct Outcome {
    std::vector<double> predictions;
    std::vector<int64_t> matches;
    std::vector<int64_t> limited;

    bool operator==(const Outcome& other) const {
      return predictions == other.predictions && matches == other.matches &&
             limited == other.limited;
    }
  };

  Outcome Serve(const ExplorationSession& session) const {
    Outcome out;
    std::vector<int64_t> rows(500);
    std::iota(rows.begin(), rows.end(), 0);
    EXPECT_TRUE(session.PredictRows(table_, rows, &out.predictions).ok());
    EXPECT_TRUE(session.RetrieveMatches(table_, -1, &out.matches).ok());
    EXPECT_TRUE(session.RetrieveMatches(table_, 50, &out.limited).ok());
    return out;
  }

  // Serializes a mid-exploration session (start + one continue batch on each
  // subspace, session-owned rng) to a string. kMetaStar exercises every
  // section of the format: memories, history, and the FP/FN rebuild.
  std::string SavedMidExploration(Variant variant, int64_t threads,
                                  ScanPath path) {
    ExplorationSession session(model_, threads);
    session.set_scan_path(path);
    session.SeedRng(777);
    EXPECT_TRUE(
        session.StartExploration(UserLabels(0), variant, session.session_rng())
            .ok());
    ConfigurePoliciesAndSuggest(&session);
    std::vector<std::vector<double>> points;
    std::vector<double> labels;
    for (int64_t s = 0; s < 2; ++s) {
      MakeBatch(0, 1, s, &points, &labels);
      EXPECT_TRUE(
          session.ContinueExploration(s, points, labels, session.session_rng())
              .ok());
    }
    std::ostringstream out(std::ios::binary);
    EXPECT_TRUE(session.SaveToStream(&out).ok());
    return out.str();
  }

  data::Table table_;
  std::vector<data::Subspace> subspaces_;
  std::shared_ptr<ExplorationModel> model_;
};

// Save -> Load -> continue must be byte-identical to never having saved, for
// every variant, scan path, and thread count — and across them: the loader
// may run a different host configuration than the saver.
TEST_F(SessionPersistenceTest, RoundTripContinuationMatchesUninterrupted) {
  for (const Variant variant : {Variant::kMetaStar, Variant::kBasic}) {
    for (const ScanPath path :
         {ScanPath::kColumnar, ScanPath::kColumnarSimd}) {
      for (const int64_t save_threads : {int64_t{1}, int64_t{4}}) {
        // Uninterrupted reference: start, continue twice, serve.
        ExplorationSession reference(model_, save_threads);
        reference.set_scan_path(path);
        reference.SeedRng(777);
        ASSERT_TRUE(reference
                        .StartExploration(UserLabels(0), variant,
                                          reference.session_rng())
                        .ok());
        ConfigurePoliciesAndSuggest(&reference);
        std::vector<std::vector<double>> points;
        std::vector<double> labels;
        for (int64_t s = 0; s < 2; ++s) {
          MakeBatch(0, 1, s, &points, &labels);
          ASSERT_TRUE(reference
                          .ContinueExploration(s, points, labels,
                                               reference.session_rng())
                          .ok());
        }
        const std::string saved =
            SavedMidExploration(variant, save_threads, path);
        MakeBatch(0, 2, 0, &points, &labels);
        ASSERT_TRUE(reference
                        .ContinueExploration(0, points, labels,
                                             reference.session_rng())
                        .ok());
        const Outcome expected = Serve(reference);

        for (const int64_t load_threads : {int64_t{1}, int64_t{4}}) {
          ExplorationSession restored(model_, load_threads);
          restored.set_scan_path(path);
          std::istringstream in(saved, std::ios::binary);
          ASSERT_TRUE(restored.LoadFromStream(&in).ok());
          ASSERT_EQ(restored.active_subspaces(), 2);
          ASSERT_NE(restored.session_rng(), nullptr);
          MakeBatch(0, 2, 0, &points, &labels);
          ASSERT_TRUE(restored
                          .ContinueExploration(0, points, labels,
                                               restored.session_rng())
                          .ok());
          EXPECT_TRUE(Serve(restored) == expected)
              << "variant=" << static_cast<int>(variant)
              << " path=" << static_cast<int>(path)
              << " save_threads=" << save_threads
              << " load_threads=" << load_threads;
        }
      }
    }
  }
}

// The serialized bytes themselves are thread-count- and scan-path-invariant:
// persistence inherits the adaptation determinism contract.
TEST_F(SessionPersistenceTest, SavedBytesIdenticalAcrossHostKnobs) {
  const std::string base =
      SavedMidExploration(Variant::kMetaStar, 1, ScanPath::kColumnar);
  EXPECT_EQ(base, SavedMidExploration(Variant::kMetaStar, 4,
                                      ScanPath::kColumnar));
  EXPECT_EQ(base, SavedMidExploration(Variant::kMetaStar, 1,
                                      ScanPath::kColumnarSimd));
}

// Truncating the file at every byte boundary must yield an error Status —
// never a crash, never a silent load — and must leave the destination
// session's previous state untouched.
TEST_F(SessionPersistenceTest, TruncationAtEveryByteFailsCleanly) {
  const std::string saved =
      SavedMidExploration(Variant::kMetaStar, 1, ScanPath::kColumnar);
  // Sanity: the intact stream loads.
  ExplorationSession intact(model_, 1);
  std::istringstream full(saved, std::ios::binary);
  ASSERT_TRUE(intact.LoadFromStream(&full).ok());

  ExplorationSession victim(model_, 1);
  victim.SeedRng(11);
  ASSERT_TRUE(victim
                  .StartExploration(UserLabels(1), Variant::kMeta,
                                    victim.session_rng())
                  .ok());
  const Outcome before = Serve(victim);
  for (size_t len = 0; len < saved.size(); ++len) {
    std::istringstream in(saved.substr(0, len), std::ios::binary);
    const Status st = victim.LoadFromStream(&in);
    ASSERT_FALSE(st.ok()) << "truncation at byte " << len << " loaded";
  }
  // Every failed decode left the previous exploration fully intact.
  EXPECT_EQ(victim.active_subspaces(), 2);
  EXPECT_TRUE(Serve(victim) == before);
}

// Bit flips across the header and model stamp (magic, version, fingerprint)
// must be rejected; a flipped fingerprint specifically reports the mismatch
// as FailedPrecondition.
TEST_F(SessionPersistenceTest, HeaderAndStampBitFlipsFailCleanly) {
  const std::string saved =
      SavedMidExploration(Variant::kMetaStar, 1, ScanPath::kColumnar);
  ASSERT_GE(saved.size(), 24u);
  for (size_t byte = 0; byte < 24; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = saved;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      ExplorationSession session(model_, 1);
      std::istringstream in(corrupt, std::ios::binary);
      const Status st = session.LoadFromStream(&in);
      ASSERT_FALSE(st.ok()) << "flip of byte " << byte << " bit " << bit;
      EXPECT_EQ(session.active_subspaces(), 0);
      if (byte >= 16) {  // The model fingerprint stamp.
        EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
      }
    }
  }
}

// Garbage, too-short, and cross-format files all fail with an error Status.
TEST_F(SessionPersistenceTest, GarbageAndWrongFormatFilesAreRejected) {
  const std::string dir = ::testing::TempDir();
  ExplorationSession session(model_, 1);
  EXPECT_EQ(session.Load(dir + "/does_not_exist.ltesession").code(),
            StatusCode::kIoError);

  const std::string garbage_path = dir + "/garbage.ltesession";
  {
    std::ofstream out(garbage_path, std::ios::binary);
    out << "definitely not a session";
  }
  EXPECT_EQ(session.Load(garbage_path).code(), StatusCode::kInvalidArgument);

  const std::string short_path = dir + "/short.ltesession";
  {
    std::ofstream out(short_path, std::ios::binary);
    out << "abc";
  }
  EXPECT_EQ(session.Load(short_path).code(), StatusCode::kIoError);

  // A model artifact is not a session file (and vice versa).
  const std::string model_path = dir + "/model.ltemodel";
  ASSERT_TRUE(model_->Save(model_path).ok());
  EXPECT_EQ(session.Load(model_path).code(), StatusCode::kInvalidArgument);
  ExplorationSession donor(model_, 1);
  donor.SeedRng(5);
  ASSERT_TRUE(donor
                  .StartExploration(UserLabels(0), Variant::kBasic,
                                    donor.session_rng())
                  .ok());
  const std::string session_path = dir + "/donor.ltesession";
  ASSERT_TRUE(donor.Save(session_path).ok());
  ExplorationModel fresh(SmallExplorerOptions());
  EXPECT_FALSE(fresh.Load(session_path).ok());
}

// A session saved against model A refuses to attach to a refreshed model B:
// FailedPrecondition naming both fingerprints, and the destination session
// keeps its previous state.
TEST_F(SessionPersistenceTest, ModelMismatchRefusesLoad) {
  ExplorationSession session(model_, 1);
  session.SeedRng(3);
  ASSERT_TRUE(session
                  .StartExploration(UserLabels(0), Variant::kMetaStar,
                                    session.session_rng())
                  .ok());
  const std::string path = ::testing::TempDir() + "/mismatch.ltesession";
  ASSERT_TRUE(session.Save(path).ok());

  // Model B: same data, different pretraining stream => different artifact.
  auto other = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  Rng other_rng(24);
  ASSERT_TRUE(
      other->Pretrain(table_, subspaces_, /*train_meta=*/true, &other_rng)
          .ok());
  ASSERT_NE(other->fingerprint(), model_->fingerprint());

  ExplorationSession wrong(other, 1);
  const Status st = wrong.Load(path);
  ASSERT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find(HexU64(model_->fingerprint())),
            std::string::npos);
  EXPECT_NE(st.message().find(HexU64(other->fingerprint())),
            std::string::npos);
  EXPECT_EQ(wrong.active_subspaces(), 0);

  // The right model still accepts the file — including a model restored
  // from its own artifact, which fingerprints identically by construction.
  ExplorationSession right(model_, 1);
  ASSERT_TRUE(right.Load(path).ok());
  EXPECT_TRUE(Serve(right) == Serve(session));
  const std::string model_path = ::testing::TempDir() + "/model_rt.ltemodel";
  ASSERT_TRUE(model_->Save(model_path).ok());
  auto reloaded = std::make_shared<ExplorationModel>(SmallExplorerOptions());
  ASSERT_TRUE(reloaded->Load(model_path).ok());
  EXPECT_EQ(reloaded->fingerprint(), model_->fingerprint());
  ExplorationSession on_reloaded(reloaded, 1);
  EXPECT_TRUE(on_reloaded.Load(path).ok());
}

// An unstarted session (rng only) round-trips, and the restored rng
// continues the stream draw-for-draw.
TEST_F(SessionPersistenceTest, UnstartedSessionRoundTripsWithRng) {
  ExplorationSession session(model_, 1);
  session.SeedRng(41);
  session.session_rng()->Uniform();  // Advance past the seed state.
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(session.SaveToStream(&out).ok());

  ExplorationSession restored(model_, 1);
  std::istringstream in(out.str(), std::ios::binary);
  ASSERT_TRUE(restored.LoadFromStream(&in).ok());
  EXPECT_EQ(restored.active_subspaces(), 0);
  ASSERT_NE(restored.session_rng(), nullptr);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(session.session_rng()->engine()(),
              restored.session_rng()->engine()());
  }
}

// /dev/full accepts the open and every buffered write, then fails the
// flush with ENOSPC. An unstarted session's checkpoint fits in the stream
// buffer, so only the final flush can report the failure — and Save must
// not return OK for a checkpoint that never reached the file.
TEST_F(SessionPersistenceTest, SaveReportsFailedFinalFlush) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  ExplorationSession session(model_, 1);
  std::ostringstream bytes(std::ios::binary);
  ASSERT_TRUE(session.SaveToStream(&bytes).ok());
  ASSERT_LT(bytes.str().size(), 4096u) << "must fit in the stream buffer";
  EXPECT_EQ(session.Save("/dev/full").code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace lte::core
