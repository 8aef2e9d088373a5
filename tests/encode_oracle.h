// Value-at-a-time reference for the tabular encode: Algorithm 3 evaluated
// per cell straight from each attribute's fitted parameters, recomputing
// every logarithm and bound on every call. It shares no code with
// TabularEncoder's attribute-major kernel or the mixtures' precomputed
// constants, so every public encode must equal it byte for byte.
#ifndef LTE_TESTS_ENCODE_ORACLE_H_
#define LTE_TESTS_ENCODE_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "preprocess/tabular_encoder.h"

namespace lte::testing_oracle {

/// Appends the encoding of raw value x of attribute `attr` to *out.
inline void OracleEncodeValue(const preprocess::TabularEncoder& enc,
                              int64_t attr, double x,
                              std::vector<double>* out) {
  using preprocess::EncodingMode;
  const EncodingMode mode = enc.AttributeMode(attr);
  if (mode == EncodingMode::kMinMaxOnly) {
    out->push_back(enc.normalizer().Transform(attr, x));
    return;
  }
  if (mode == EncodingMode::kCategorical) {
    const std::vector<double>& cats = enc.categories(attr);
    const auto it = std::lower_bound(cats.begin(), cats.end(), x);
    const bool known = it != cats.end() && *it == x;
    for (size_t i = 0; i < cats.size(); ++i) {
      out->push_back(known && cats[i] == x ? 1.0 : 0.0);
    }
    out->push_back(known ? 0.0 : 1.0);  // "other".
    return;
  }
  if (mode == EncodingMode::kGmmOnly || mode == EncodingMode::kCombined) {
    const std::vector<preprocess::GaussianComponent>& comps =
        enc.gmm(attr).components();
    LTE_CHECK(!comps.empty());
    size_t c = 0;
    double best_lp = -std::numeric_limits<double>::max();
    for (size_t i = 0; i < comps.size(); ++i) {
      const double lp = std::log(std::max(comps[i].weight, 1e-12)) +
                        LogGaussianPdf(x, comps[i].mean, comps[i].variance);
      if (lp > best_lp) {
        best_lp = lp;
        c = i;
      }
    }
    for (size_t i = 0; i < comps.size(); ++i) {
      out->push_back(i == c ? 1.0 : 0.0);
    }
    const double sigma = std::sqrt(comps[c].variance);
    const double lo = comps[c].mean - 3.0 * sigma;
    const double hi = comps[c].mean + 3.0 * sigma;
    out->push_back(hi <= lo ? 0.5 : Clamp((x - lo) / (hi - lo), 0.0, 1.0));
  }
  if (mode == EncodingMode::kJenksOnly || mode == EncodingMode::kCombined) {
    const std::vector<double>& lower = enc.jenks(attr).lower_bounds();
    const std::vector<double>& upper = enc.jenks(attr).upper_bounds();
    LTE_CHECK(!upper.empty());
    const auto it = std::lower_bound(upper.begin(), upper.end(), x);
    const size_t b = it == upper.end()
                         ? upper.size() - 1
                         : static_cast<size_t>(it - upper.begin());
    for (size_t i = 0; i < upper.size(); ++i) {
      out->push_back(i == b ? 1.0 : 0.0);
    }
    const double lo = lower[b];
    const double hi = upper[b];
    out->push_back(hi <= lo ? 0.5 : Clamp((x - lo) / (hi - lo), 0.0, 1.0));
  }
}

/// The encoding of a tuple projection: `values[i]` is the raw value of
/// attribute `attrs[i]`.
inline std::vector<double> OracleEncodeProjected(
    const preprocess::TabularEncoder& enc, const std::vector<double>& values,
    const std::vector<int64_t>& attrs) {
  LTE_CHECK_EQ(values.size(), attrs.size());
  std::vector<double> out;
  for (size_t i = 0; i < attrs.size(); ++i) {
    OracleEncodeValue(enc, attrs[i], values[i], &out);
  }
  return out;
}

}  // namespace lte::testing_oracle

#endif  // LTE_TESTS_ENCODE_ORACLE_H_
