#include "common/math_util.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace lte {

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  LTE_CHECK_EQ(a.size(), b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  return std::sqrt(SquaredDistance(a, b));
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  LTE_CHECK_EQ(a.size(), b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double Norm(const std::vector<double>& a) { return std::sqrt(Dot(a, a)); }

double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b) {
  const double na = Norm(a);
  const double nb = Norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

void SoftmaxInPlace(std::vector<double>* v) {
  if (v->empty()) return;
  const double mx = *std::max_element(v->begin(), v->end());
  double sum = 0.0;
  for (double& x : *v) {
    x = std::exp(x - mx);
    sum += x;
  }
  for (double& x : *v) x /= sum;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

double LogGaussianPdf(double x, double mean, double variance) {
  const double var = std::max(variance, kMinGaussianVariance);
  return LogGaussianPdfNormed(x, mean, var, std::log(2.0 * M_PI * var));
}

std::vector<size_t> ArgSmallestK(const std::vector<double>& values, size_t k) {
  LTE_CHECK_LE(k, values.size());
  std::vector<size_t> idx(values.size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  // Lexicographic (value, index) order: equal values keep ascending index, so
  // callers that perturb scores (exploration policies) stay deterministic
  // even when perturbed scores collide exactly.
  std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(k), idx.end(),
                    [&](size_t a, size_t b) {
                      if (values[a] != values[b]) return values[a] < values[b];
                      return a < b;
                    });
  idx.resize(k);
  return idx;
}

}  // namespace lte
