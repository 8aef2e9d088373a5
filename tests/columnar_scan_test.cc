// Byte-identity property tests for the columnar serving fast path: the
// kColumnar scan behind PredictRows/RetrieveMatches must produce exactly the
// same bytes as the row-at-a-time PredictRow reference (scan_oracle.h) — for
// every variant, at any thread count, for ragged block boundaries, and under
// retrieval limits. The argument for why this holds is in DESIGN.md §2b
// "Columnar serving path"; this file is the enforcement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/synthetic.h"
#include "scan_oracle.h"

namespace lte::core {
namespace {

using testing_oracle::OracleMatches;
using testing_oracle::OraclePredictions;

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

class ColumnarScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(23);
    // 4000 rows: three full 1024-row blocks plus a ragged 928-row tail, so
    // every scan below crosses uneven block boundaries.
    table_ = data::MakeBlobs(4000, 4, 5, &rng);
    subspaces_ = {data::Subspace{{0, 1}}, data::Subspace{{2, 3}}};
    model_ = std::make_shared<ExplorationModel>(SmallExplorerOptions());
    Rng pretrain_rng(23);
    ASSERT_TRUE(model_
                    ->Pretrain(table_, subspaces_, /*train_meta=*/true,
                               &pretrain_rng)
                    .ok());
  }

  // Simulated user: interesting iff the subspace point's first coordinate is
  // below a fixed fraction of that attribute's range.
  std::vector<std::vector<double>> UserLabels() const {
    std::vector<std::vector<double>> labels(subspaces_.size());
    for (size_t s = 0; s < subspaces_.size(); ++s) {
      const data::Column& col =
          table_.column(subspaces_[s].attribute_indices[0]);
      const double threshold = col.min() + 0.45 * (col.max() - col.min());
      for (const auto& tuple :
           *model_->InitialTuples(static_cast<int64_t>(s))) {
        labels[s].push_back(tuple[0] < threshold ? 1.0 : 0.0);
      }
    }
    return labels;
  }

  data::Table table_;
  std::vector<data::Subspace> subspaces_;
  std::shared_ptr<ExplorationModel> model_;
};

TEST_F(ColumnarScanTest, ColumnarIsDefault) {
  ExplorationSession session(model_);
  EXPECT_EQ(session.scan_path(), ScanPath::kColumnar);
  session.set_scan_path(ScanPath::kColumnarSimd);
  EXPECT_EQ(session.scan_path(), ScanPath::kColumnarSimd);
}

// The core property: for every variant and thread count, PredictRows and
// RetrieveMatches return the same bytes as the row reference — over the whole
// ragged table, over subsets whose sizes are not multiples of the block
// size, and over non-contiguous row selections.
TEST_F(ColumnarScanTest, PathsAreByteIdentical) {
  const Variant variants[] = {Variant::kBasic, Variant::kMeta,
                              Variant::kMetaStar};
  const int64_t thread_counts[] = {1, 4};
  // All rows (ragged tail), a prime-sized prefix (ragged everywhere), and a
  // strided selection (exercises gathers from non-contiguous rows).
  std::vector<std::vector<int64_t>> row_sets;
  row_sets.emplace_back(table_.num_rows());
  std::iota(row_sets.back().begin(), row_sets.back().end(), 0);
  row_sets.emplace_back(1531);
  std::iota(row_sets.back().begin(), row_sets.back().end(), 37);
  row_sets.emplace_back();
  for (int64_t r = 1; r < table_.num_rows(); r += 7) {
    row_sets.back().push_back(r);
  }

  for (const Variant variant : variants) {
    for (const int64_t threads : thread_counts) {
      SCOPED_TRACE(testing::Message()
                   << "variant=" << static_cast<int>(variant)
                   << " threads=" << threads);
      ExplorationSession session(model_, threads);
      Rng rng(99);
      ASSERT_TRUE(session.StartExploration(UserLabels(), variant, &rng).ok());

      for (size_t i = 0; i < row_sets.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "row_set=" << i);
        session.set_scan_path(ScanPath::kColumnar);
        std::vector<double> columnar;
        ASSERT_TRUE(session.PredictRows(table_, row_sets[i], &columnar).ok());
        const std::vector<double> row_at_a_time =
            OraclePredictions(session, table_, row_sets[i]);
        // Exact 0.0/1.0 equality — no tolerance.
        EXPECT_EQ(columnar, row_at_a_time);
        // Sanity: the scan found both classes (a degenerate all-0/all-1
        // prediction would make the identity check vacuous).
        if (i == 0) {
          const double ones =
              std::accumulate(columnar.begin(), columnar.end(), 0.0);
          EXPECT_GT(ones, 0.0);
          EXPECT_LT(ones, static_cast<double>(columnar.size()));
        }
      }

      for (const int64_t limit : {-1, 0, 1, 7, 100, 5000}) {
        SCOPED_TRACE(testing::Message() << "limit=" << limit);
        session.set_scan_path(ScanPath::kColumnar);
        std::vector<int64_t> columnar;
        ASSERT_TRUE(session.RetrieveMatches(table_, limit, &columnar).ok());
        const std::vector<int64_t> row_at_a_time =
            OracleMatches(session, table_, limit);
        EXPECT_EQ(columnar, row_at_a_time);
        // Matches are ascending row ids regardless of path.
        EXPECT_TRUE(
            std::is_sorted(columnar.begin(), columnar.end()));
        if (limit >= 0) {
          EXPECT_LE(static_cast<int64_t>(columnar.size()), limit);
        }
      }
    }
  }
}

// The block scan must also agree with the scalar PredictRow API, which
// shares no batching machinery with it.
TEST_F(ColumnarScanTest, BlockScanAgreesWithScalarPredictRow) {
  ExplorationSession session(model_, /*num_threads=*/1);
  Rng rng(5);
  ASSERT_TRUE(
      session.StartExploration(UserLabels(), Variant::kMetaStar, &rng).ok());
  std::vector<int64_t> rows(300);
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<double> batch;
  ASSERT_TRUE(session.PredictRows(table_, rows, &batch).ok());
  for (const int64_t r : rows) {
    const std::optional<double> scalar = session.PredictRow(table_.Row(r));
    ASSERT_TRUE(scalar.has_value());
    EXPECT_EQ(batch[static_cast<size_t>(r)], *scalar) << "row " << r;
  }
}

// Tiny tables (smaller than one block) and single-row scans go through the
// same block machinery; they must behave too.
TEST_F(ColumnarScanTest, SmallAndSingleRowScans) {
  ExplorationSession session(model_);
  Rng rng(11);
  ASSERT_TRUE(
      session.StartExploration(UserLabels(), Variant::kMeta, &rng).ok());
  for (const std::vector<int64_t>& rows :
       {std::vector<int64_t>{0}, std::vector<int64_t>{3999},
        std::vector<int64_t>{5, 5, 5}}) {
    std::vector<double> columnar;
    ASSERT_TRUE(session.PredictRows(table_, rows, &columnar).ok());
    EXPECT_EQ(columnar, OraclePredictions(session, table_, rows));
  }
  std::vector<double> empty;
  ASSERT_TRUE(session.PredictRows(table_, {}, &empty).ok());
  EXPECT_TRUE(empty.empty());
}

// ---------------------------------------------------------------------------
// SIMD throughput mode (ScanPath::kColumnarSimd). The float32 vector kernels
// trade bit-identity for throughput, so the contract is *statistical* parity
// with the scalar verdicts — only rows whose probability sits exactly at the
// 0.5 threshold boundary may flip — plus full determinism of the SIMD path
// itself. These tests are the parity gate named in DESIGN.md §2b.
// ---------------------------------------------------------------------------

double MismatchFraction(const std::vector<double>& a,
                        const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  if (a.empty()) return 0.0;
  size_t mismatches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) ++mismatches;
  }
  return static_cast<double>(mismatches) / static_cast<double>(a.size());
}

// F1 between two ascending match-id sets: 1.0 means identical sets.
double MatchSetF1(const std::vector<int64_t>& ref,
                  const std::vector<int64_t>& got) {
  if (ref.empty() && got.empty()) return 1.0;
  std::vector<int64_t> both;
  std::set_intersection(ref.begin(), ref.end(), got.begin(), got.end(),
                        std::back_inserter(both));
  const double tp = static_cast<double>(both.size());
  const double denom = static_cast<double>(ref.size() + got.size());
  return denom == 0.0 ? 1.0 : 2.0 * tp / denom;
}

// The parity gate: for every variant and thread count, the SIMD scan's
// verdicts agree with the scalar columnar scan on all but a vanishing
// fraction of rows, and the retrieved match sets have F1 within epsilon of
// identical.
TEST_F(ColumnarScanTest, SimdParityAcrossVariantsAndThreads) {
  constexpr double kMaxMismatchFraction = 1e-3;
  constexpr double kMinMatchF1 = 1.0 - 1e-3;
  const Variant variants[] = {Variant::kBasic, Variant::kMeta,
                              Variant::kMetaStar};
  std::vector<int64_t> all_rows(table_.num_rows());
  std::iota(all_rows.begin(), all_rows.end(), 0);

  for (const Variant variant : variants) {
    for (const int64_t threads : {1, 4}) {
      SCOPED_TRACE(testing::Message()
                   << "variant=" << static_cast<int>(variant)
                   << " threads=" << threads);
      ExplorationSession session(model_, threads);
      Rng rng(99);
      ASSERT_TRUE(session.StartExploration(UserLabels(), variant, &rng).ok());

      session.set_scan_path(ScanPath::kColumnar);
      std::vector<double> scalar_preds;
      ASSERT_TRUE(session.PredictRows(table_, all_rows, &scalar_preds).ok());
      std::vector<int64_t> scalar_matches;
      ASSERT_TRUE(session.RetrieveMatches(table_, -1, &scalar_matches).ok());

      session.set_scan_path(ScanPath::kColumnarSimd);
      std::vector<double> simd_preds;
      ASSERT_TRUE(session.PredictRows(table_, all_rows, &simd_preds).ok());
      std::vector<int64_t> simd_matches;
      ASSERT_TRUE(session.RetrieveMatches(table_, -1, &simd_matches).ok());

      EXPECT_LE(MismatchFraction(scalar_preds, simd_preds),
                kMaxMismatchFraction);
      EXPECT_GE(MatchSetF1(scalar_matches, simd_matches), kMinMatchF1);
      EXPECT_TRUE(std::is_sorted(simd_matches.begin(), simd_matches.end()));

      // Non-vacuity: the SIMD scan found both classes.
      const double ones =
          std::accumulate(simd_preds.begin(), simd_preds.end(), 0.0);
      EXPECT_GT(ones, 0.0);
      EXPECT_LT(ones, static_cast<double>(simd_preds.size()));
    }
  }
}

// The SIMD path is deterministic in its own right: the same rows produce the
// same bits at any thread count, in any batch composition (whole table vs
// ragged subsets), and across repeated scans. Bounded retrieval over the
// SIMD path keeps the same prefix-truncation semantics as the scalar paths.
TEST_F(ColumnarScanTest, SimdPathIsDeterministic) {
  Rng rng(99);
  std::vector<int64_t> all_rows(table_.num_rows());
  std::iota(all_rows.begin(), all_rows.end(), 0);

  std::vector<double> reference;
  std::vector<int64_t> reference_matches;
  for (const int64_t threads : {1, 4, 1}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ExplorationSession session(model_, threads);
    Rng start_rng(99);
    ASSERT_TRUE(
        session.StartExploration(UserLabels(), Variant::kMeta, &start_rng)
            .ok());
    session.set_scan_path(ScanPath::kColumnarSimd);

    std::vector<double> preds;
    ASSERT_TRUE(session.PredictRows(table_, all_rows, &preds).ok());
    std::vector<int64_t> matches;
    ASSERT_TRUE(session.RetrieveMatches(table_, -1, &matches).ok());
    if (reference.empty()) {
      reference = preds;
      reference_matches = matches;
    } else {
      EXPECT_EQ(preds, reference);
      EXPECT_EQ(matches, reference_matches);
    }

    // A row's verdict does not depend on which batch it rides in: a ragged
    // strided subset reproduces the whole-table bits row for row.
    std::vector<int64_t> strided;
    for (int64_t r = 1; r < table_.num_rows(); r += 7) strided.push_back(r);
    std::vector<double> subset;
    ASSERT_TRUE(session.PredictRows(table_, strided, &subset).ok());
    for (size_t i = 0; i < strided.size(); ++i) {
      ASSERT_EQ(subset[i], reference[static_cast<size_t>(strided[i])])
          << "row " << strided[i];
    }

    // Bounded retrieval equals the prefix of the unlimited SIMD scan.
    for (const int64_t limit : {0, 1, 7, 100}) {
      std::vector<int64_t> bounded;
      ASSERT_TRUE(session.RetrieveMatches(table_, limit, &bounded).ok());
      const auto want = static_cast<size_t>(
          std::min<int64_t>(limit,
                            static_cast<int64_t>(reference_matches.size())));
      ASSERT_EQ(bounded.size(), want) << "limit=" << limit;
      EXPECT_TRUE(std::equal(bounded.begin(), bounded.end(),
                             reference_matches.begin()));
    }
  }
}

}  // namespace
}  // namespace lte::core
