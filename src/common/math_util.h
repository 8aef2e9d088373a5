#ifndef LTE_COMMON_MATH_UTIL_H_
#define LTE_COMMON_MATH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <vector>

namespace lte {

/// Squared Euclidean distance between two equally sized vectors.
double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b);

/// Euclidean distance between two equally sized vectors.
double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b);

/// Dot product of two equally sized vectors.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// L2 norm.
double Norm(const std::vector<double>& a);

/// Cosine similarity; returns 0 when either vector is all-zero.
double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b);

/// In-place numerically stable softmax.
void SoftmaxInPlace(std::vector<double>* v);

/// Arithmetic mean; returns 0 for an empty vector.
double Mean(const std::vector<double>& v);

/// Population variance; returns 0 for vectors with fewer than 1 element.
double Variance(const std::vector<double>& v);

/// Variance floor of the Gaussian log-pdf.
inline constexpr double kMinGaussianVariance = 1e-12;

/// Log of the Gaussian pdf of x for a variance already floored at
/// kMinGaussianVariance, given `log_norm` = log(2π · variance). The one
/// expression behind LogGaussianPdf and the GMM encode's precomputed
/// constants, so both round alike.
inline double LogGaussianPdfNormed(double x, double mean, double variance,
                                   double log_norm) {
  const double d = x - mean;
  return -0.5 * (log_norm + d * d / variance);
}

/// Numerically stable log of the Gaussian pdf.
double LogGaussianPdf(double x, double mean, double variance);

/// Clamps x into [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return std::min(std::max(x, lo), hi);
}

/// Indices of the k smallest values of `values`, ascending by
/// (value, index) — equal values break toward the lower index, so the result
/// is a deterministic function of the input. Requires k <= values.size().
std::vector<size_t> ArgSmallestK(const std::vector<double>& values, size_t k);

}  // namespace lte

#endif  // LTE_COMMON_MATH_UTIL_H_
