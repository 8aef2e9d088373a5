#ifndef LTE_PREPROCESS_JENKS_H_
#define LTE_PREPROCESS_JENKS_H_

#include <cstdint>
#include <vector>

#include "common/binary_io.h"
#include "common/math_util.h"
#include "common/status.h"

namespace lte::preprocess {

/// Jenks natural-breaks classification (Fisher's optimal partition).
///
/// Divides a numeric attribute's distribution into |b| contiguous intervals
/// minimizing within-interval variance (paper Section VII-A). The dynamic
/// program is O(|b| * n^2) on the sorted sample, so callers fit on a bounded
/// sample (the tabular encoder caps it).
class JenksBreaks {
 public:
  JenksBreaks() = default;

  /// Computes `num_intervals` optimal classes over `values`. Fails when
  /// num_intervals <= 0 or values.size() < num_intervals.
  Status Fit(const std::vector<double>& values, int64_t num_intervals);

  int64_t num_intervals() const {
    return static_cast<int64_t>(upper_bounds_.size());
  }

  /// Interval boundaries: interval i covers
  /// (upper_bounds[i-1], upper_bounds[i]], with interval 0 starting at the
  /// sample minimum. upper_bounds.back() is the sample maximum.
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  const std::vector<double>& lower_bounds() const { return lower_bounds_; }

  /// The encoder's slot block for x: sets `slots[i]` to 1 for the interval i
  /// containing x, and `slots[num_intervals()]` to x normalized to [0, 1]
  /// within it (clamped). The other slots are left as they are (the caller
  /// zero-fills). i counts the upper bounds below x, which Fit and Load keep
  /// non-decreasing: values beyond the fitted range go to the first/last
  /// interval, and NaN counts none, so it maps to interval 0. Requires
  /// num_intervals() > 0; unchecked, as it runs once per cell.
  void EncodeInto(double x, double* slots) const {
    const size_t k = upper_bounds_.size();
    size_t b = 0;
    for (size_t i = 0; i < k; ++i) b += upper_bounds_[i] < x ? 1 : 0;
    if (b == k) b = k - 1;
    slots[b] = 1.0;
    slots[k] = NormalizedIn(b, x);
  }

  /// Goodness of variance fit in [0, 1]: 1 - SSD_within / SSD_total.
  double goodness_of_fit() const { return goodness_; }

  /// Serialization (model persistence).
  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader);

 private:
  double NormalizedIn(size_t i, double x) const {
    const double lo = lower_bounds_[i];
    const double hi = upper_bounds_[i];
    if (hi <= lo) return 0.5;
    return Clamp((x - lo) / (hi - lo), 0.0, 1.0);
  }

  std::vector<double> lower_bounds_;
  std::vector<double> upper_bounds_;
  double goodness_ = 0.0;
};

}  // namespace lte::preprocess

#endif  // LTE_PREPROCESS_JENKS_H_
