#include "preprocess/tabular_encoder.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"
#include "common/math_util.h"
#include "data/sampling.h"

namespace lte::preprocess {
namespace {

// Auto-mode heuristic (paper Section VII-A): GMM suits unimodal/multimodal
// "peaky" marginals; JKC suits smooth trend-like marginals. A marginal is
// peaky when two *adjacent* substantial mixture components (sorted by mean)
// are separated by a density valley — the gap between their means exceeds
// the sum of their spreads. Only adjacent pairs matter: in a smooth
// distribution the components tile the range, so non-adjacent pairs are far
// apart without any valley between them. (A pure likelihood-gain test
// misfires for the same reason: a uniform ramp also gains likelihood from
// extra overlapping components.)
bool MixtureIsPeaky(const GaussianMixture& gmm) {
  constexpr double kMinWeight = 0.10;
  constexpr double kSeparationSigmas = 2.5;
  std::vector<GaussianComponent> comps;
  for (const GaussianComponent& c : gmm.components()) {
    if (c.weight >= kMinWeight) comps.push_back(c);
  }
  std::sort(comps.begin(), comps.end(),
            [](const GaussianComponent& a, const GaussianComponent& b) {
              return a.mean < b.mean;
            });
  for (size_t i = 0; i + 1 < comps.size(); ++i) {
    const double gap = comps[i + 1].mean - comps[i].mean;
    const double spread =
        kSeparationSigmas *
        (std::sqrt(comps[i].variance) + std::sqrt(comps[i + 1].variance));
    if (gap > spread) return true;
  }
  return false;
}

}  // namespace

Status TabularEncoder::Fit(const data::Table& table, Rng* rng) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("encoder: empty table");
  }
  num_attributes_ = table.num_columns();
  LTE_RETURN_IF_ERROR(normalizer_.Fit(table));

  // Sample rows once; all per-attribute models share the sample.
  int64_t sample_size = static_cast<int64_t>(
      options_.sample_fraction * static_cast<double>(table.num_rows()));
  sample_size = std::max(sample_size, options_.min_sample_rows);
  sample_size = std::min(sample_size, options_.max_sample_rows);
  sample_size = std::min(sample_size, table.num_rows());
  const std::vector<int64_t> rows =
      data::SampleRowIndices(table, sample_size, rng);

  gmms_.assign(static_cast<size_t>(num_attributes_), GaussianMixture{});
  jenks_.assign(static_cast<size_t>(num_attributes_), JenksBreaks{});
  attr_modes_.assign(static_cast<size_t>(num_attributes_), options_.mode);
  categories_.assign(static_cast<size_t>(num_attributes_), {});

  for (int64_t a = 0; a < num_attributes_; ++a) {
    std::vector<double> values;
    values.reserve(rows.size());
    for (int64_t r : rows) values.push_back(table.column(a).value(r));

    if (std::find(options_.categorical_attributes.begin(),
                  options_.categorical_attributes.end(),
                  a) != options_.categorical_attributes.end()) {
      LTE_RETURN_IF_ERROR(FitCategorical(a, values));
      continue;
    }

    const bool need_gmm = options_.mode == EncodingMode::kGmmOnly ||
                          options_.mode == EncodingMode::kCombined ||
                          options_.mode == EncodingMode::kAuto;
    const bool need_jenks = options_.mode == EncodingMode::kJenksOnly ||
                            options_.mode == EncodingMode::kCombined ||
                            options_.mode == EncodingMode::kAuto;
    if (need_gmm) {
      LTE_RETURN_IF_ERROR(
          gmms_[static_cast<size_t>(a)].Fit(values,
                                            options_.num_gmm_components, rng));
    }
    if (need_jenks) {
      LTE_RETURN_IF_ERROR(jenks_[static_cast<size_t>(a)].Fit(
          values, options_.num_jenks_intervals));
    }
    if (options_.mode == EncodingMode::kAuto) {
      attr_modes_[static_cast<size_t>(a)] =
          MixtureIsPeaky(gmms_[static_cast<size_t>(a)])
              ? EncodingMode::kGmmOnly
              : EncodingMode::kJenksOnly;
    }
  }
  fitted_ = true;
  return Status::OK();
}

Status TabularEncoder::FitCategorical(int64_t attr,
                                      const std::vector<double>& values) {
  if (options_.max_categories <= 0) {
    return Status::InvalidArgument("encoder: max_categories must be > 0");
  }
  std::map<double, int64_t> counts;
  for (double v : values) ++counts[v];
  // Keep the most frequent values, then store them sorted for binary search.
  std::vector<std::pair<int64_t, double>> by_freq;
  by_freq.reserve(counts.size());
  for (const auto& [value, count] : counts) by_freq.push_back({count, value});
  std::sort(by_freq.begin(), by_freq.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (static_cast<int64_t>(by_freq.size()) > options_.max_categories) {
    by_freq.resize(static_cast<size_t>(options_.max_categories));
  }
  std::vector<double>& cats = categories_[static_cast<size_t>(attr)];
  cats.clear();
  for (const auto& [count, value] : by_freq) cats.push_back(value);
  std::sort(cats.begin(), cats.end());
  attr_modes_[static_cast<size_t>(attr)] = EncodingMode::kCategorical;
  return Status::OK();
}

EncodingMode TabularEncoder::AttributeMode(int64_t attr) const {
  LTE_CHECK(fitted_);
  LTE_CHECK_GE(attr, 0);
  LTE_CHECK_LT(attr, num_attributes_);
  return attr_modes_[static_cast<size_t>(attr)];
}

int64_t TabularEncoder::AttributeWidth(int64_t attr) const {
  switch (AttributeMode(attr)) {
    case EncodingMode::kMinMaxOnly:
      return 1;
    case EncodingMode::kGmmOnly:
      return options_.num_gmm_components + 1;
    case EncodingMode::kJenksOnly:
      return options_.num_jenks_intervals + 1;
    case EncodingMode::kCombined:
      return options_.num_gmm_components + options_.num_jenks_intervals + 2;
    case EncodingMode::kCategorical:
      return static_cast<int64_t>(categories_[static_cast<size_t>(attr)].size()) +
             1;  // +1 for the "other" slot.
    case EncodingMode::kAuto:
      break;  // Resolved at Fit time; unreachable.
  }
  LTE_CHECK_MSG(false, "unresolved encoding mode");
  return 0;
}

int64_t TabularEncoder::ProjectedWidth(
    const std::vector<int64_t>& attrs) const {
  int64_t w = 0;
  for (int64_t a : attrs) w += AttributeWidth(a);
  return w;
}

size_t TabularEncoder::EncodeAttributeInto(int64_t attr, const double* xs,
                                           size_t n, double* out,
                                           size_t stride) const {
  const auto a = static_cast<size_t>(attr);
  const GaussianMixture& gmm = gmms_[a];
  const JenksBreaks& jenks = jenks_[a];
  const auto gmm_width = static_cast<size_t>(gmm.num_components()) + 1;
  const auto jenks_width = static_cast<size_t>(jenks.num_intervals()) + 1;
  switch (AttributeMode(attr)) {
    case EncodingMode::kMinMaxOnly:
      for (size_t k = 0; k < n; ++k) {
        out[k * stride] = normalizer_.Transform(attr, xs[k]);
      }
      return 1;
    case EncodingMode::kGmmOnly:
      for (size_t k = 0; k < n; ++k) gmm.EncodeInto(xs[k], out + k * stride);
      return gmm_width;
    case EncodingMode::kJenksOnly:
      for (size_t k = 0; k < n; ++k) jenks.EncodeInto(xs[k], out + k * stride);
      return jenks_width;
    case EncodingMode::kCombined:
      for (size_t k = 0; k < n; ++k) {
        gmm.EncodeInto(xs[k], out + k * stride);
        jenks.EncodeInto(xs[k], out + k * stride + gmm_width);
      }
      return gmm_width + jenks_width;
    case EncodingMode::kCategorical: {
      // Categories are sorted and distinct, so at most one matches; an
      // unknown value (NaN included) sets the trailing "other" slot.
      const std::vector<double>& cats = categories_[a];
      for (size_t k = 0; k < n; ++k) {
        const auto it = std::lower_bound(cats.begin(), cats.end(), xs[k]);
        const bool known = it != cats.end() && *it == xs[k];
        const auto slot =
            known ? static_cast<size_t>(it - cats.begin()) : cats.size();
        out[k * stride + slot] = 1.0;
      }
      return cats.size() + 1;
    }
    case EncodingMode::kAuto:
      break;  // Resolved at Fit time; unreachable.
  }
  LTE_CHECK_MSG(false, "unresolved encoding mode");
  return 0;
}

void TabularEncoder::EncodeValue(int64_t attr, double x,
                                 std::vector<double>* out) const {
  const size_t at = out->size();
  out->resize(at + static_cast<size_t>(AttributeWidth(attr)), 0.0);
  EncodeAttributeInto(attr, &x, 1, out->data() + at, 0);
}

std::vector<double> TabularEncoder::EncodeProjected(
    const std::vector<double>& values,
    const std::vector<int64_t>& attrs) const {
  std::vector<double> out;
  EncodeProjectedInto(values, attrs, &out);
  return out;
}

void TabularEncoder::EncodeProjectedInto(const std::vector<double>& values,
                                         const std::vector<int64_t>& attrs,
                                         std::vector<double>* out) const {
  LTE_CHECK_EQ(values.size(), attrs.size());
  out->assign(static_cast<size_t>(ProjectedWidth(attrs)), 0.0);
  size_t offset = 0;
  for (size_t i = 0; i < attrs.size(); ++i) {
    offset += EncodeAttributeInto(attrs[i], &values[i], 1,
                                  out->data() + offset, 0);
  }
}

void TabularEncoder::EncodeGatheredInto(
    const std::vector<data::ColumnView>& columns,
    const std::vector<int64_t>& attrs, std::span<const int64_t> rows,
    std::vector<double>* out) const {
  LTE_CHECK_EQ(columns.size(), attrs.size());
  const auto width = static_cast<size_t>(ProjectedWidth(attrs));
  out->assign(rows.size() * width, 0.0);
  // Attribute-major: gather one attribute's values for a serving block, then
  // run the kernel over them into that attribute's slots of every row. A
  // cell's bits depend only on its value and its attribute's model, so each
  // row equals EncodeProjectedInto of the tuple.
  constexpr size_t kChunk = 1024;
  double xs[kChunk];
  size_t offset = 0;
  for (size_t j = 0; j < attrs.size(); ++j) {
    for (size_t begin = 0; begin < rows.size(); begin += kChunk) {
      const size_t n = std::min(kChunk, rows.size() - begin);
      for (size_t k = 0; k < n; ++k) xs[k] = columns[j][rows[begin + k]];
      EncodeAttributeInto(attrs[j], xs, n, out->data() + begin * width + offset,
                          width);
    }
    offset += static_cast<size_t>(AttributeWidth(attrs[j]));
  }
}

std::vector<double> TabularEncoder::EncodeRow(
    const std::vector<double>& row) const {
  LTE_CHECK_EQ(static_cast<int64_t>(row.size()), num_attributes_);
  std::vector<double> out;
  for (size_t i = 0; i < row.size(); ++i) {
    EncodeValue(static_cast<int64_t>(i), row[i], &out);
  }
  return out;
}

void TabularEncoder::Save(BinaryWriter* writer) const {
  LTE_CHECK_MSG(fitted_, "encoder: Save before Fit");
  writer->WriteI64(static_cast<int64_t>(options_.mode));
  writer->WriteI64(options_.num_gmm_components);
  writer->WriteI64(options_.num_jenks_intervals);
  writer->WriteDouble(options_.sample_fraction);
  writer->WriteI64(options_.min_sample_rows);
  writer->WriteI64(options_.max_sample_rows);
  writer->WriteI64(num_attributes_);
  normalizer_.Save(writer);
  for (int64_t a = 0; a < num_attributes_; ++a) {
    gmms_[static_cast<size_t>(a)].Save(writer);
    jenks_[static_cast<size_t>(a)].Save(writer);
    writer->WriteI64(static_cast<int64_t>(attr_modes_[static_cast<size_t>(a)]));
    writer->WriteDoubleVector(categories_[static_cast<size_t>(a)]);
  }
}

Status TabularEncoder::Load(BinaryReader* reader) {
  fitted_ = false;  // A failed load leaves no half-loaded encoder servable.
  int64_t mode = 0;
  LTE_RETURN_IF_ERROR(reader->ReadI64(&mode));
  if (mode < 0 || mode > static_cast<int64_t>(EncodingMode::kAuto)) {
    return Status::IoError("encoder load: invalid mode");
  }
  options_.mode = static_cast<EncodingMode>(mode);
  LTE_RETURN_IF_ERROR(reader->ReadI64(&options_.num_gmm_components));
  LTE_RETURN_IF_ERROR(reader->ReadI64(&options_.num_jenks_intervals));
  LTE_RETURN_IF_ERROR(reader->ReadDouble(&options_.sample_fraction));
  LTE_RETURN_IF_ERROR(reader->ReadI64(&options_.min_sample_rows));
  LTE_RETURN_IF_ERROR(reader->ReadI64(&options_.max_sample_rows));
  LTE_RETURN_IF_ERROR(reader->ReadI64(&num_attributes_));
  if (num_attributes_ <= 0) {
    return Status::IoError("encoder load: invalid attribute count");
  }
  LTE_RETURN_IF_ERROR(normalizer_.Load(reader));
  if (normalizer_.num_attributes() != num_attributes_) {
    return Status::IoError("encoder load: normalizer width mismatch");
  }
  gmms_.assign(static_cast<size_t>(num_attributes_), GaussianMixture{});
  jenks_.assign(static_cast<size_t>(num_attributes_), JenksBreaks{});
  attr_modes_.assign(static_cast<size_t>(num_attributes_), options_.mode);
  categories_.assign(static_cast<size_t>(num_attributes_), {});
  for (int64_t a = 0; a < num_attributes_; ++a) {
    LTE_RETURN_IF_ERROR(gmms_[static_cast<size_t>(a)].Load(reader));
    LTE_RETURN_IF_ERROR(jenks_[static_cast<size_t>(a)].Load(reader));
    int64_t attr_mode = 0;
    LTE_RETURN_IF_ERROR(reader->ReadI64(&attr_mode));
    if (attr_mode < 0 ||
        attr_mode > static_cast<int64_t>(EncodingMode::kCategorical) ||
        attr_mode == static_cast<int64_t>(EncodingMode::kAuto)) {
      return Status::IoError("encoder load: invalid attribute mode");
    }
    attr_modes_[static_cast<size_t>(a)] = static_cast<EncodingMode>(attr_mode);
    LTE_RETURN_IF_ERROR(
        reader->ReadDoubleVector(&categories_[static_cast<size_t>(a)]));
    LTE_RETURN_IF_ERROR(ValidateAttributeModels(a));
  }
  fitted_ = true;
  return Status::OK();
}

Status TabularEncoder::ValidateAttributeModels(int64_t attr) const {
  // The encode writes each model's slots at the widths AttributeWidth
  // declares, so a loaded model must agree with them exactly.
  const auto a = static_cast<size_t>(attr);
  const EncodingMode mode = attr_modes_[a];
  if ((mode == EncodingMode::kGmmOnly || mode == EncodingMode::kCombined) &&
      (options_.num_gmm_components <= 0 ||
       gmms_[a].num_components() != options_.num_gmm_components)) {
    return Status::IoError("encoder load: gmm component count mismatch");
  }
  if ((mode == EncodingMode::kJenksOnly || mode == EncodingMode::kCombined) &&
      (options_.num_jenks_intervals <= 0 ||
       jenks_[a].num_intervals() != options_.num_jenks_intervals)) {
    return Status::IoError("encoder load: jenks interval count mismatch");
  }
  const std::vector<double>& cats = categories_[a];
  for (size_t i = 1; i < cats.size(); ++i) {
    if (!(cats[i - 1] < cats[i])) {
      return Status::IoError("encoder load: categories out of order");
    }
  }
  return Status::OK();
}

}  // namespace lte::preprocess
