#ifndef LTE_PREPROCESS_TABULAR_ENCODER_H_
#define LTE_PREPROCESS_TABULAR_ENCODER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/table.h"
#include "preprocess/gmm.h"
#include "preprocess/jenks.h"
#include "preprocess/normalizer.h"

namespace lte::preprocess {

/// Which multi-modal feature model encodes each attribute (paper Fig. 8(a)
/// ablates these choices).
enum class EncodingMode {
  /// Plain min-max normalization only — the representation the paper shows
  /// "can hardly be trained" (Fig. 8(a), "without JKC and GMM").
  kMinMaxOnly,
  /// GMM component one-hot + within-component normalized value.
  kGmmOnly,
  /// Jenks interval one-hot + within-interval normalized value.
  kJenksOnly,
  /// Concatenation of the GMM and JKC parts — the default "Basic integrates
  /// JKC and GMM representations" configuration.
  kCombined,
  /// Per-attribute choice: GMM when the marginal is peaky (high mixture
  /// likelihood gain), otherwise JKC (smooth trends).
  kAuto,
  /// One-hot over the attribute's distinct values plus an "other" slot.
  /// Never chosen globally; attributes listed in
  /// EncoderOptions::categorical_attributes resolve to this mode.
  kCategorical,
};

struct EncoderOptions {
  EncodingMode mode = EncodingMode::kCombined;
  /// |g|: number of GMM components per attribute.
  int64_t num_gmm_components = 5;
  /// |b|: number of JKC intervals per attribute.
  int64_t num_jenks_intervals = 5;
  /// Fit models on a random sample of this fraction of rows (paper caps the
  /// sampling ratio at 1%)...
  double sample_fraction = 0.01;
  /// ...but never on fewer than this many rows (small tables are used whole).
  int64_t min_sample_rows = 256;
  /// Cap so the O(n^2) Jenks DP stays fast.
  int64_t max_sample_rows = 2000;
  /// Attributes holding category codes rather than quantities (e.g. the
  /// gearbox / fuel-type columns of a listings table). They are one-hot
  /// encoded over their distinct sampled values, regardless of `mode`.
  std::vector<int64_t> categorical_attributes;
  /// Most-frequent categories kept per attribute; rarer values map to the
  /// shared "other" slot.
  int64_t max_categories = 32;
};

/// Algorithm 3 of the paper: converts tabular tuples into feature-rich
/// vectors for NN training.
///
/// Per attribute the encoding is `[one-hot(model bucket of x), norm(x)]`
/// where the model is a GMM (peaky distributions) and/or JKC (smooth
/// distributions); a tuple's representation concatenates its attributes'
/// encodings. Fit() learns all per-attribute models from a sample.
class TabularEncoder {
 public:
  TabularEncoder() = default;
  explicit TabularEncoder(EncoderOptions options) : options_(options) {}

  /// Fits per-attribute GMM/JKC models (and the min-max fallback) on a
  /// sample of `table`.
  Status Fit(const data::Table& table, Rng* rng);

  /// Encoded width of one attribute's representation.
  int64_t AttributeWidth(int64_t attr) const;

  /// Width of a tuple projected on `attrs` (sum of attribute widths).
  int64_t ProjectedWidth(const std::vector<int64_t>& attrs) const;

  /// Encodes raw value x of attribute `attr`, appending to *out.
  void EncodeValue(int64_t attr, double x, std::vector<double>* out) const;

  /// Encodes a tuple projection: `values[i]` is the raw value of attribute
  /// `attrs[i]`.
  std::vector<double> EncodeProjected(const std::vector<double>& values,
                                      const std::vector<int64_t>& attrs) const;

  /// Allocation-free variant of EncodeProjected for hot prediction loops:
  /// clears and refills `*out` (capacity is retained across calls, so a
  /// reused buffer reaches a steady state with zero allocations per call).
  void EncodeProjectedInto(const std::vector<double>& values,
                           const std::vector<int64_t>& attrs,
                           std::vector<double>* out) const;

  /// Columnar block encode for the serving fast path: `columns[j]` is the
  /// segment-spanning value view of attribute `attrs[j]` over the whole
  /// table (`Table::View`), and `rows` selects the tuples to encode by
  /// global row id. Writes the encodings row-major into the reusable scratch
  /// matrix `*out` (resized to `rows.size() x ProjectedWidth(attrs)`;
  /// capacity is retained across calls, so a reused buffer reaches a steady
  /// state with zero allocations per block). The encode is attribute-major:
  /// each attribute's mode is resolved once per block and its slots are
  /// written in place into every row. Row k of `*out` is bit-identical to
  /// EncodeProjectedInto of the k-th selected tuple, which runs the same
  /// kernel on one value per attribute.
  void EncodeGatheredInto(const std::vector<data::ColumnView>& columns,
                          const std::vector<int64_t>& attrs,
                          std::span<const int64_t> rows,
                          std::vector<double>* out) const;

  /// Encodes a full-width row (all attributes in column order).
  std::vector<double> EncodeRow(const std::vector<double>& row) const;

  bool fitted() const { return fitted_; }
  const EncoderOptions& options() const { return options_; }

  /// The encoding mode actually used for `attr` (only differs from
  /// options().mode under kAuto).
  EncodingMode AttributeMode(int64_t attr) const;

  /// The fitted per-attribute models. A model the attribute's mode does not
  /// use is empty.
  const MinMaxNormalizer& normalizer() const { return normalizer_; }
  const GaussianMixture& gmm(int64_t attr) const {
    return gmms_[static_cast<size_t>(attr)];
  }
  const JenksBreaks& jenks(int64_t attr) const {
    return jenks_[static_cast<size_t>(attr)];
  }
  /// Kept category values (sorted) of a kCategorical attribute.
  const std::vector<double>& categories(int64_t attr) const {
    return categories_[static_cast<size_t>(attr)];
  }

  /// Serialization (model persistence): options, per-attribute models, and
  /// resolved modes.
  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader);

 private:
  Status FitCategorical(int64_t attr, const std::vector<double>& values);
  /// Load's check that attribute `attr`'s models match its declared width.
  Status ValidateAttributeModels(int64_t attr) const;

  /// The one encode kernel (Algorithm 3) behind every public encode: writes
  /// attribute `attr`'s slots for the n values `xs`, the k-th at
  /// `out + k * stride`, into storage the caller zero-filled (only the
  /// one-hot and normalized slots are stored). Returns the attribute width.
  size_t EncodeAttributeInto(int64_t attr, const double* xs, size_t n,
                             double* out, size_t stride) const;

  EncoderOptions options_;
  bool fitted_ = false;
  int64_t num_attributes_ = 0;
  MinMaxNormalizer normalizer_;
  std::vector<GaussianMixture> gmms_;       // Indexed by attribute.
  std::vector<JenksBreaks> jenks_;          // Indexed by attribute.
  std::vector<EncodingMode> attr_modes_;    // Resolved per-attribute mode.
  /// Kept category values (sorted) for kCategorical attributes; empty
  /// elsewhere.
  std::vector<std::vector<double>> categories_;
};

}  // namespace lte::preprocess

#endif  // LTE_PREPROCESS_TABULAR_ENCODER_H_
