#ifndef LTE_PREPROCESS_GMM_H_
#define LTE_PREPROCESS_GMM_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/binary_io.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/status.h"

namespace lte::preprocess {

/// One component of a univariate Gaussian mixture.
struct GaussianComponent {
  double weight = 0.0;
  double mean = 0.0;
  double variance = 1.0;
};

/// Univariate Gaussian mixture model fitted with EM.
///
/// The tabular encoder (paper Section VII-A, Algorithm 3) fits one GMM per
/// numeric attribute on a sampled value set; the encoding of a value is the
/// one-hot of its maximum-likelihood component plus the value normalized
/// within that component's effective range (mean ± 3σ).
class GaussianMixture {
 public:
  GaussianMixture() = default;

  /// Fits `num_components` components to `values` by EM (quantile-based
  /// initialization). Fails when values.size() < num_components or
  /// num_components <= 0.
  Status Fit(const std::vector<double>& values, int64_t num_components,
             Rng* rng, int64_t max_iterations = 100);

  int64_t num_components() const {
    return static_cast<int64_t>(components_.size());
  }
  const std::vector<GaussianComponent>& components() const {
    return components_;
  }

  /// The encoder's slot block for x: sets `slots[c]` to 1 for the component
  /// c maximizing the posterior responsibility of x (ties and NaN keep the
  /// lower index, so NaN maps to component 0), and `slots[num_components()]`
  /// to x normalized to [0, 1] within c's effective range
  /// [mean - 3σ, mean + 3σ] (clamped). The other slots are left as they are
  /// (the caller zero-fills). Requires num_components() > 0; unchecked, as
  /// it runs once per cell.
  void EncodeInto(double x, double* slots) const {
    const auto c = static_cast<size_t>(BestComponent(x));
    slots[c] = 1.0;
    slots[constants_.size()] = NormalizedIn(constants_[c], x);
  }

  /// Mean per-point log-likelihood of `values` under the fitted mixture.
  double MeanLogLikelihood(const std::vector<double>& values) const;

  /// Serialization (model persistence).
  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader);

 private:
  /// Per-component constants of the encode, built once at the end of Fit
  /// and of Load (never lazily, so a const mixture is safe to share across
  /// scan lanes). They are the exact subexpressions LogGaussianPdf and the
  /// range bounds evaluate, and both go through LogGaussianPdfNormed, so
  /// every log-probability keeps its bits.
  struct Constants {
    double log_weight = 0.0;  // log(max(weight, 1e-12))
    double mean = 0.0;
    double variance = 1.0;    // max(variance, 1e-12)
    double log_norm = 0.0;    // log(2π · variance)
    double lo = 0.0;          // mean - 3σ
    double hi = 0.0;          // mean + 3σ
  };

  void BuildConstants();

  int64_t BestComponent(double x) const {
    int64_t best = 0;
    double best_lp = -std::numeric_limits<double>::max();
    for (size_t c = 0; c < constants_.size(); ++c) {
      const Constants& k = constants_[c];
      const double lp =
          k.log_weight +
          LogGaussianPdfNormed(x, k.mean, k.variance, k.log_norm);
      if (lp > best_lp) {
        best_lp = lp;
        best = static_cast<int64_t>(c);
      }
    }
    return best;
  }

  static double NormalizedIn(const Constants& k, double x) {
    if (k.hi <= k.lo) return 0.5;
    return Clamp((x - k.lo) / (k.hi - k.lo), 0.0, 1.0);
  }

  std::vector<GaussianComponent> components_;
  std::vector<Constants> constants_;  // Parallel to components_.
};

}  // namespace lte::preprocess

#endif  // LTE_PREPROCESS_GMM_H_
