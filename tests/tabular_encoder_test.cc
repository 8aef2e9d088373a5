#include "preprocess/tabular_encoder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "data/synthetic.h"
#include "encode_oracle.h"

namespace lte::preprocess {
namespace {

data::Table TwoColumnTable(Rng* rng, int n = 600) {
  // Column 0: bimodal (GMM-friendly); column 1: smooth ramp (JKC-friendly).
  data::Table t({"bimodal", "ramp"});
  for (int i = 0; i < n; ++i) {
    const double a =
        i % 2 == 0 ? rng->Normal(0.0, 0.5) : rng->Normal(10.0, 0.5);
    const double b = static_cast<double>(i) / n * 100.0;
    EXPECT_TRUE(t.AppendRow({a, b}).ok());
  }
  return t;
}

class EncoderModeTest : public ::testing::TestWithParam<EncodingMode> {};

TEST_P(EncoderModeTest, EncodedWidthMatchesDeclaredWidth) {
  Rng rng(1);
  const data::Table t = TwoColumnTable(&rng);
  EncoderOptions opt;
  opt.mode = GetParam();
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  const std::vector<double> row = t.Row(0);
  const std::vector<double> encoded = enc.EncodeRow(row);
  EXPECT_EQ(static_cast<int64_t>(encoded.size()),
            enc.AttributeWidth(0) + enc.AttributeWidth(1));
  EXPECT_EQ(enc.ProjectedWidth({0, 1}),
            enc.AttributeWidth(0) + enc.AttributeWidth(1));
}

TEST_P(EncoderModeTest, EncodedValuesInUnitRange) {
  Rng rng(2);
  const data::Table t = TwoColumnTable(&rng);
  EncoderOptions opt;
  opt.mode = GetParam();
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  for (int64_t r = 0; r < 20; ++r) {
    for (double v : enc.EncodeRow(t.Row(r))) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, EncoderModeTest,
                         ::testing::Values(EncodingMode::kMinMaxOnly,
                                           EncodingMode::kGmmOnly,
                                           EncodingMode::kJenksOnly,
                                           EncodingMode::kCombined,
                                           EncodingMode::kAuto));

TEST(TabularEncoderTest, CombinedWidth) {
  Rng rng(3);
  const data::Table t = TwoColumnTable(&rng);
  EncoderOptions opt;
  opt.mode = EncodingMode::kCombined;
  opt.num_gmm_components = 4;
  opt.num_jenks_intervals = 3;
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  EXPECT_EQ(enc.AttributeWidth(0), 4 + 1 + 3 + 1);
}

TEST(TabularEncoderTest, OneHotIsExactlyOnePerModel) {
  Rng rng(4);
  const data::Table t = TwoColumnTable(&rng);
  EncoderOptions opt;
  opt.mode = EncodingMode::kGmmOnly;
  opt.num_gmm_components = 5;
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  std::vector<double> out;
  enc.EncodeValue(0, 0.0, &out);
  ASSERT_EQ(out.size(), 6u);
  double ones = 0.0;
  for (size_t i = 0; i < 5; ++i) ones += out[i];
  EXPECT_DOUBLE_EQ(ones, 1.0);
}

TEST(TabularEncoderTest, AutoPicksGmmForPeakyAndJenksForSmooth) {
  Rng rng(5);
  const data::Table t = TwoColumnTable(&rng, 2000);
  EncoderOptions opt;
  opt.mode = EncodingMode::kAuto;
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  EXPECT_EQ(enc.AttributeMode(0), EncodingMode::kGmmOnly);
  EXPECT_EQ(enc.AttributeMode(1), EncodingMode::kJenksOnly);
}

TEST(TabularEncoderTest, EncodeProjectedMatchesEncodeValueOrder) {
  Rng rng(6);
  const data::Table t = TwoColumnTable(&rng);
  TabularEncoder enc;
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  const std::vector<double> p = enc.EncodeProjected({50.0}, {1});
  std::vector<double> direct;
  enc.EncodeValue(1, 50.0, &direct);
  EXPECT_EQ(p, direct);
}

TEST(TabularEncoderTest, NearbyValuesShareBucket) {
  Rng rng(7);
  const data::Table t = TwoColumnTable(&rng);
  // One GMM component per mode so nearby values cannot straddle an
  // intra-mode component boundary.
  EncoderOptions opt;
  opt.mode = EncodingMode::kGmmOnly;
  opt.num_gmm_components = 2;
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  // Two values in the same mode of the bimodal column: identical one-hot.
  std::vector<double> a;
  std::vector<double> b;
  enc.EncodeValue(0, 0.0, &a);
  enc.EncodeValue(0, 0.1, &b);
  for (int64_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(a[static_cast<size_t>(i)], b[static_cast<size_t>(i)]);
  }
}

TEST(TabularEncoderTest, EmptyTableFails) {
  Rng rng(8);
  data::Table t({"x"});
  TabularEncoder enc;
  EXPECT_FALSE(enc.Fit(t, &rng).ok());
}

TEST(TabularEncoderTest, WorksOnSyntheticDatasets) {
  Rng rng(9);
  const data::Table sdss = data::MakeSdssLike(800, &rng);
  TabularEncoder enc;
  ASSERT_TRUE(enc.Fit(sdss, &rng).ok());
  EXPECT_EQ(static_cast<int64_t>(enc.EncodeRow(sdss.Row(0)).size()),
            enc.ProjectedWidth({0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(CategoricalEncodingTest, OneHotOverDistinctValues) {
  Rng rng(20);
  data::Table t({"cat", "num"});
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(
        t.AppendRow({static_cast<double>(i % 3), rng.Uniform()}).ok());
  }
  EncoderOptions opt;
  opt.categorical_attributes = {0};
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  EXPECT_EQ(enc.AttributeMode(0), EncodingMode::kCategorical);
  EXPECT_EQ(enc.AttributeWidth(0), 4);  // 3 categories + "other".

  std::vector<double> out;
  enc.EncodeValue(0, 1.0, &out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  EXPECT_DOUBLE_EQ(out[2], 0.0);
  EXPECT_DOUBLE_EQ(out[3], 0.0);
  // Exactly one bit on.
  double total = 0;
  for (double v : out) total += v;
  EXPECT_DOUBLE_EQ(total, 1.0);
}

TEST(CategoricalEncodingTest, UnseenValueMapsToOther) {
  Rng rng(21);
  data::Table t({"cat"});
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(t.AppendRow({static_cast<double>(i % 2)}).ok());
  }
  EncoderOptions opt;
  opt.categorical_attributes = {0};
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  std::vector<double> out;
  enc.EncodeValue(0, 99.0, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], 1.0);  // "other" slot.
}

TEST(CategoricalEncodingTest, MaxCategoriesKeepsMostFrequent) {
  Rng rng(22);
  data::Table t({"cat"});
  // Value 0 dominates; values 1..9 are rare.
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(t.AppendRow({0.0}).ok());
  for (int i = 1; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({static_cast<double>(i)}).ok());
  }
  EncoderOptions opt;
  opt.categorical_attributes = {0};
  opt.max_categories = 2;
  opt.min_sample_rows = 600;  // Use (almost) the whole table.
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  EXPECT_LE(enc.AttributeWidth(0), 3);  // <= 2 categories + other.
  std::vector<double> dominant;
  enc.EncodeValue(0, 0.0, &dominant);
  EXPECT_DOUBLE_EQ(dominant.back(), 0.0);  // Dominant value is kept.
}

TEST(CategoricalEncodingTest, CarListingsEndToEnd) {
  Rng rng(23);
  const data::Table t = data::MakeCarListings(2000, &rng);
  ASSERT_EQ(t.num_columns(), 7);
  EncoderOptions opt;
  opt.categorical_attributes = {5, 6};
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  EXPECT_EQ(enc.AttributeMode(5), EncodingMode::kCategorical);
  EXPECT_EQ(enc.AttributeMode(6), EncodingMode::kCategorical);
  EXPECT_EQ(enc.AttributeMode(0), EncodingMode::kCombined);
  const std::vector<double> encoded = enc.EncodeRow(t.Row(0));
  EXPECT_EQ(static_cast<int64_t>(encoded.size()),
            enc.ProjectedWidth({0, 1, 2, 3, 4, 5, 6}));
}

TEST(CategoricalEncodingTest, SurvivesSerialization) {
  Rng rng(24);
  const data::Table t = data::MakeCarListings(1000, &rng);
  EncoderOptions opt;
  opt.categorical_attributes = {5, 6};
  TabularEncoder enc(opt);
  ASSERT_TRUE(enc.Fit(t, &rng).ok());

  std::stringstream buf;
  BinaryWriter w(&buf);
  enc.Save(&w);
  TabularEncoder loaded;
  BinaryReader r(&buf);
  ASSERT_TRUE(loaded.Load(&r).ok());
  EXPECT_EQ(loaded.AttributeMode(5), EncodingMode::kCategorical);
  for (int64_t row = 0; row < 10; ++row) {
    EXPECT_EQ(loaded.EncodeRow(t.Row(row)), enc.EncodeRow(t.Row(row)));
  }
}

// --- Block encode identity against the value-at-a-time oracle ------------

// Bimodal (GMM-friendly), smooth ramp (JKC-friendly), and small integer
// codes (category-friendly).
data::Table ThreeColumnTable(Rng* rng, int n) {
  data::Table t({"bimodal", "ramp", "code"});
  for (int i = 0; i < n; ++i) {
    const double a =
        i % 2 == 0 ? rng->Normal(0.0, 0.5) : rng->Normal(10.0, 0.5);
    const double b = static_cast<double>(i) / n * 100.0;
    EXPECT_TRUE(t.AppendRow({a, b, static_cast<double>(i % 7)}).ok());
  }
  return t;
}

// kCategorical is never a global mode: it is what every attribute listed in
// categorical_attributes resolves to.
EncoderOptions OptionsFor(EncodingMode mode) {
  EncoderOptions opt;
  if (mode == EncodingMode::kCategorical) {
    opt.categorical_attributes = {0, 1, 2};
  } else {
    opt.mode = mode;
  }
  return opt;
}

TabularEncoder RoundTrip(const TabularEncoder& enc) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  enc.Save(&w);
  EXPECT_TRUE(w.status().ok());
  TabularEncoder loaded;
  BinaryReader r(&buf);
  EXPECT_TRUE(loaded.Load(&r).ok());
  return loaded;
}

// Values whose bucket or clamp is decided by an exact comparison: every
// fitted mean, range bound, interval bound and category; values below 0 and
// above 1 and far outside the fitted range; signed zeros, infinities, NaN.
std::vector<double> EdgeValues(const TabularEncoder& enc, int64_t attr) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> v = {-1e9, -2.0, -1.0, -0.25, -0.0, 0.0, 0.5, 1.0,
                           1.25,  2.0, 1e9,  kInf,  -kInf,
                           std::numeric_limits<double>::quiet_NaN()};
  for (const GaussianComponent& g : enc.gmm(attr).components()) {
    const double sigma = std::sqrt(g.variance);
    v.insert(v.end(), {g.mean, g.mean - 3.0 * sigma, g.mean + 3.0 * sigma});
  }
  for (const double b : enc.jenks(attr).lower_bounds()) v.push_back(b);
  for (const double b : enc.jenks(attr).upper_bounds()) {
    v.insert(v.end(), {b, std::nextafter(b, kInf), std::nextafter(b, -kInf)});
  }
  for (const double c : enc.categories(attr)) v.push_back(c);
  return v;
}

// Appends every attribute's edge values as two sealed segments, so the
// gathers below cross the base/append and append/append boundaries.
void AppendEdgeRows(const TabularEncoder& enc, data::Table* t) {
  std::vector<std::vector<double>> edges;
  size_t n = 0;
  for (int64_t a = 0; a < t->num_columns(); ++a) {
    edges.push_back(EdgeValues(enc, a));
    n = std::max(n, edges.back().size());
  }
  std::vector<std::vector<double>> rows(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < edges.size(); ++a) {
      rows[i].push_back(edges[a][(i + a) % edges[a].size()]);
    }
  }
  const auto half = static_cast<std::ptrdiff_t>(n / 2);
  ASSERT_TRUE(t->AppendRows({rows.begin(), rows.begin() + half}).ok());
  ASSERT_TRUE(t->AppendRows({rows.begin() + half, rows.end()}).ok());
}

std::vector<double> BlockEncode(const TabularEncoder& enc,
                                const data::Table& t,
                                const std::vector<int64_t>& attrs,
                                std::span<const int64_t> rows) {
  std::vector<data::ColumnView> columns;
  for (const int64_t a : attrs) columns.push_back(t.View(a));
  std::vector<double> out = {42.0};  // Stale scratch must not leak through.
  enc.EncodeGatheredInto(columns, attrs, rows, &out);
  return out;
}

// Every row of the block encode and of the row encode equals the oracle's
// bytes, for the full projection and for a reordered subset.
void ExpectMatchesOracle(const TabularEncoder& enc, const data::Table& t) {
  // Descending, so one block visits the appended segments first.
  std::vector<int64_t> rows(static_cast<size_t>(t.num_rows()));
  std::iota(rows.rbegin(), rows.rend(), int64_t{0});
  for (const std::vector<int64_t>& attrs :
       {std::vector<int64_t>{0, 1, 2}, std::vector<int64_t>{2, 0}}) {
    const auto width = static_cast<size_t>(enc.ProjectedWidth(attrs));
    const std::vector<double> block = BlockEncode(enc, t, attrs, rows);
    ASSERT_EQ(block.size(), rows.size() * width);
    std::vector<double> row_encoded;
    for (size_t k = 0; k < rows.size(); ++k) {
      const std::vector<double> values = t.RowProjected(rows[k], attrs);
      const std::vector<double> want =
          testing_oracle::OracleEncodeProjected(enc, values, attrs);
      ASSERT_EQ(want.size(), width);
      EXPECT_EQ(std::memcmp(block.data() + k * width, want.data(),
                            width * sizeof(double)),
                0)
          << "block encode, row " << rows[k];
      enc.EncodeProjectedInto(values, attrs, &row_encoded);
      ASSERT_EQ(row_encoded.size(), width);
      EXPECT_EQ(std::memcmp(row_encoded.data(), want.data(),
                            width * sizeof(double)),
                0)
          << "row encode, row " << rows[k];
    }
    EXPECT_TRUE(BlockEncode(enc, t, attrs, {}).empty());
  }
}

class EncodeIdentityTest : public ::testing::TestWithParam<EncodingMode> {};

TEST_P(EncodeIdentityTest, BlockEncodeMatchesOracleByteForByte) {
  Rng rng(31);
  data::Table t = ThreeColumnTable(&rng, 600);
  TabularEncoder enc(OptionsFor(GetParam()));
  ASSERT_TRUE(enc.Fit(t, &rng).ok());
  AppendEdgeRows(enc, &t);
  ASSERT_EQ(t.num_segments(), 2);
  ExpectMatchesOracle(enc, t);

  // Load rebuilds the mixtures' constants; they must encode the same bytes.
  const TabularEncoder loaded = RoundTrip(enc);
  ExpectMatchesOracle(loaded, t);
  std::vector<int64_t> rows(static_cast<size_t>(t.num_rows()));
  std::iota(rows.begin(), rows.end(), int64_t{0});
  const std::vector<double> a = BlockEncode(enc, t, {0, 1, 2}, rows);
  const std::vector<double> b = BlockEncode(loaded, t, {0, 1, 2}, rows);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

INSTANTIATE_TEST_SUITE_P(AllModes, EncodeIdentityTest,
                         ::testing::Values(EncodingMode::kMinMaxOnly,
                                           EncodingMode::kGmmOnly,
                                           EncodingMode::kJenksOnly,
                                           EncodingMode::kCombined,
                                           EncodingMode::kAuto,
                                           EncodingMode::kCategorical));

// The scan lanes share one const encoder. Its constants are built by Fit
// and Load, never on first use, so concurrent encodes read only.
TEST(TabularEncoderTest, ConcurrentBlockEncodesMatchSerial) {
  Rng rng(41);
  const data::Table t = data::MakeSdssLike(4096, &rng);
  TabularEncoder fitted;
  ASSERT_TRUE(fitted.Fit(t, &rng).ok());
  const TabularEncoder loaded = RoundTrip(fitted);
  const std::vector<int64_t> attrs = {0, 1, 2, 3, 4, 5, 6, 7};
  constexpr int64_t kBlockRows = 1024;
  std::vector<int64_t> rows(static_cast<size_t>(t.num_rows()));
  std::iota(rows.begin(), rows.end(), int64_t{0});
  for (const TabularEncoder* enc : {&std::as_const(fitted), &loaded}) {
    std::vector<std::vector<double>> serial;
    for (int64_t b = 0; b < t.num_rows(); b += kBlockRows) {
      serial.push_back(BlockEncode(
          *enc, t, attrs,
          std::span<const int64_t>(rows).subspan(
              static_cast<size_t>(b), static_cast<size_t>(kBlockRows))));
    }
    std::atomic<int64_t> mismatches{0};
    std::vector<std::thread> threads;
    for (int th = 0; th < 4; ++th) {
      threads.emplace_back([&, th] {
        for (int rep = 0; rep < 3; ++rep) {
          for (size_t i = 0; i < serial.size(); ++i) {
            // Each thread walks the blocks from a different start.
            const size_t blk = (i + static_cast<size_t>(th)) % serial.size();
            const std::vector<double> got = BlockEncode(
                *enc, t, attrs,
                std::span<const int64_t>(rows).subspan(
                    blk * kBlockRows, static_cast<size_t>(kBlockRows)));
            if (got != serial[blk]) ++mismatches;
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0);
  }
}

// --- Load validation on crafted bytes ---------------------------------

// Saved layout: seven 8-byte header fields (mode, |g|, |b|, sample fraction,
// min/max sample rows, attribute count), the normalizer's mins and maxs
// vectors, then per attribute the GMM, the Jenks breaks, the resolved mode
// and the category vector.
constexpr size_t kGmmCountField = 8;
constexpr size_t kJenksCountField = 16;
constexpr size_t kAttributeCountField = 48;
constexpr size_t kHeaderBytes = 56;

struct SavedEncoder {
  std::string bytes;
  int64_t num_attributes = 0;
  size_t first_gmm = 0;  // Offset of attribute 0's GMM component count.
};

SavedEncoder SaveCombined() {
  Rng rng(51);
  const data::Table t = TwoColumnTable(&rng);
  TabularEncoder enc;  // kCombined, |g| = |b| = 5.
  EXPECT_TRUE(enc.Fit(t, &rng).ok());
  std::stringstream buf;
  BinaryWriter w(&buf);
  enc.Save(&w);
  SavedEncoder saved;
  saved.bytes = buf.str();
  saved.num_attributes = t.num_columns();
  saved.first_gmm =
      kHeaderBytes + 2 * (8 + 8 * static_cast<size_t>(t.num_columns()));
  return saved;
}

void PutU64(std::string* bytes, size_t offset, uint64_t v) {
  ASSERT_LE(offset + 8, bytes->size());
  std::memcpy(bytes->data() + offset, &v, 8);
}

Status LoadBytes(const std::string& bytes, TabularEncoder* enc) {
  std::stringstream buf(bytes);
  BinaryReader r(&buf);
  return enc->Load(&r);
}

TEST(TabularEncoderLoadTest, UnmodifiedBytesLoad) {
  const SavedEncoder saved = SaveCombined();
  TabularEncoder enc;
  EXPECT_TRUE(LoadBytes(saved.bytes, &enc).ok());
  EXPECT_TRUE(enc.fitted());
}

TEST(TabularEncoderLoadTest, RejectsDeclaredGmmWidthDisagreeingWithModels) {
  SavedEncoder saved = SaveCombined();
  PutU64(&saved.bytes, kGmmCountField, 4);  // Models still hold 5.
  TabularEncoder enc;
  const Status s = LoadBytes(saved.bytes, &enc);
  EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
  EXPECT_FALSE(enc.fitted());
}

TEST(TabularEncoderLoadTest, RejectsDeclaredJenksWidthDisagreeingWithModels) {
  SavedEncoder saved = SaveCombined();
  PutU64(&saved.bytes, kJenksCountField, 6);
  TabularEncoder enc;
  EXPECT_EQ(LoadBytes(saved.bytes, &enc).code(), StatusCode::kIoError);
}

TEST(TabularEncoderLoadTest, RejectsZeroDeclaredWidths) {
  for (const size_t field : {kGmmCountField, kJenksCountField}) {
    SavedEncoder saved = SaveCombined();
    PutU64(&saved.bytes, field, 0);
    TabularEncoder enc;
    EXPECT_EQ(LoadBytes(saved.bytes, &enc).code(), StatusCode::kIoError);
  }
}

TEST(TabularEncoderLoadTest, RejectsImplausibleGmmComponentCount) {
  SavedEncoder saved = SaveCombined();
  PutU64(&saved.bytes, saved.first_gmm, uint64_t{1} << 61);
  TabularEncoder enc;
  EXPECT_EQ(LoadBytes(saved.bytes, &enc).code(), StatusCode::kIoError);
}

TEST(TabularEncoderLoadTest, RejectsNormalizerSizedForOtherAttributeCount) {
  SavedEncoder saved = SaveCombined();
  PutU64(&saved.bytes, kAttributeCountField,
         static_cast<uint64_t>(saved.num_attributes + 1));
  TabularEncoder enc;
  EXPECT_EQ(LoadBytes(saved.bytes, &enc).code(), StatusCode::kIoError);
}

TEST(TabularEncoderLoadTest, RejectsUnresolvedAttributeMode) {
  SavedEncoder saved = SaveCombined();
  // Attribute 0: GMM (count + 5 x 3 doubles), Jenks (two 5-vectors and the
  // goodness of fit), then its resolved mode.
  const size_t mode_at = saved.first_gmm + 8 + 5 * 24 + 2 * (8 + 5 * 8) + 8;
  uint64_t saved_mode = 0;
  std::memcpy(&saved_mode, saved.bytes.data() + mode_at, 8);
  ASSERT_EQ(saved_mode, static_cast<uint64_t>(EncodingMode::kCombined));
  PutU64(&saved.bytes, mode_at, static_cast<uint64_t>(EncodingMode::kAuto));
  TabularEncoder enc;
  EXPECT_EQ(LoadBytes(saved.bytes, &enc).code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace lte::preprocess
