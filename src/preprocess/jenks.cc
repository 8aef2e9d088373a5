#include "preprocess/jenks.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lte::preprocess {

Status JenksBreaks::Fit(const std::vector<double>& values,
                        int64_t num_intervals) {
  if (num_intervals <= 0) {
    return Status::InvalidArgument("jenks: num_intervals must be > 0");
  }
  if (static_cast<int64_t>(values.size()) < num_intervals) {
    return Status::InvalidArgument("jenks: fewer values than intervals");
  }
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<size_t>(v.size());
  const auto k = static_cast<size_t>(num_intervals);

  // Prefix sums for O(1) segment SSD queries:
  // ssd(i..j) = sumsq - sum^2 / count over the closed index range.
  std::vector<double> prefix(n + 1, 0.0);
  std::vector<double> prefix_sq(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + v[i];
    prefix_sq[i + 1] = prefix_sq[i] + v[i] * v[i];
  }
  auto segment_ssd = [&](size_t i, size_t j) {  // Closed range [i, j].
    const double cnt = static_cast<double>(j - i + 1);
    const double s = prefix[j + 1] - prefix[i];
    const double sq = prefix_sq[j + 1] - prefix_sq[i];
    return std::max(0.0, sq - s * s / cnt);
  };

  // dp[c][j]: minimal SSD splitting v[0..j] into c+1 classes.
  constexpr double kInf = std::numeric_limits<double>::max();
  std::vector<std::vector<double>> dp(k, std::vector<double>(n, kInf));
  std::vector<std::vector<size_t>> split(k, std::vector<size_t>(n, 0));
  for (size_t j = 0; j < n; ++j) dp[0][j] = segment_ssd(0, j);
  for (size_t c = 1; c < k; ++c) {
    for (size_t j = c; j < n; ++j) {
      for (size_t m = c; m <= j; ++m) {  // Class c covers [m, j].
        const double cost = dp[c - 1][m - 1] + segment_ssd(m, j);
        if (cost < dp[c][j]) {
          dp[c][j] = cost;
          split[c][j] = m;
        }
      }
    }
  }

  // Recover the break positions.
  std::vector<size_t> starts(k, 0);  // starts[c]: first index of class c.
  size_t j = n - 1;
  for (size_t c = k; c-- > 1;) {
    starts[c] = split[c][j];
    j = starts[c] - 1;
  }
  starts[0] = 0;

  lower_bounds_.assign(k, 0.0);
  upper_bounds_.assign(k, 0.0);
  for (size_t c = 0; c < k; ++c) {
    const size_t lo = starts[c];
    const size_t hi = (c + 1 < k ? starts[c + 1] - 1 : n - 1);
    lower_bounds_[c] = v[lo];
    upper_bounds_[c] = v[hi];
  }

  const double total_ssd = segment_ssd(0, n - 1);
  goodness_ = total_ssd > 0.0 ? 1.0 - dp[k - 1][n - 1] / total_ssd : 1.0;
  return Status::OK();
}

void JenksBreaks::Save(BinaryWriter* writer) const {
  writer->WriteDoubleVector(lower_bounds_);
  writer->WriteDoubleVector(upper_bounds_);
  writer->WriteDouble(goodness_);
}

Status JenksBreaks::Load(BinaryReader* reader) {
  LTE_RETURN_IF_ERROR(reader->ReadDoubleVector(&lower_bounds_));
  LTE_RETURN_IF_ERROR(reader->ReadDoubleVector(&upper_bounds_));
  LTE_RETURN_IF_ERROR(reader->ReadDouble(&goodness_));
  if (lower_bounds_.size() != upper_bounds_.size()) {
    return Status::IoError("jenks load: bound count mismatch");
  }
  for (size_t i = 1; i < upper_bounds_.size(); ++i) {
    if (!(upper_bounds_[i - 1] <= upper_bounds_[i])) {
      return Status::IoError("jenks load: upper bounds out of order");
    }
  }
  return Status::OK();
}

}  // namespace lte::preprocess
