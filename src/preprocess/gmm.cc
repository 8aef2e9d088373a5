#include "preprocess/gmm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/math_util.h"

namespace lte::preprocess {
namespace {

constexpr double kVarianceFloor = 1e-8;

double LogSumExp(const std::vector<double>& v) {
  const double mx = *std::max_element(v.begin(), v.end());
  if (!std::isfinite(mx)) return mx;
  double s = 0.0;
  for (double x : v) s += std::exp(x - mx);
  return mx + std::log(s);
}

}  // namespace

Status GaussianMixture::Fit(const std::vector<double>& values,
                            int64_t num_components, Rng* rng,
                            int64_t max_iterations) {
  if (num_components <= 0) {
    return Status::InvalidArgument("gmm: num_components must be > 0");
  }
  if (static_cast<int64_t>(values.size()) < num_components) {
    return Status::InvalidArgument("gmm: fewer values than components");
  }
  const auto n = static_cast<int64_t>(values.size());
  const auto kk = static_cast<size_t>(num_components);

  // Initialize means at quantiles of the sorted sample; shared variance.
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double total_var = std::max(Variance(values), kVarianceFloor);
  components_.assign(kk, GaussianComponent{});
  for (size_t c = 0; c < kk; ++c) {
    const size_t q = static_cast<size_t>(
        (static_cast<double>(c) + 0.5) / static_cast<double>(kk) *
        static_cast<double>(n - 1));
    components_[c].weight = 1.0 / static_cast<double>(kk);
    components_[c].mean = sorted[q];
    components_[c].variance = total_var / static_cast<double>(kk);
  }

  std::vector<std::vector<double>> resp(
      static_cast<size_t>(n), std::vector<double>(kk, 0.0));
  std::vector<double> logp(kk);  // Reused by every point's E-step.
  double prev_ll = -std::numeric_limits<double>::max();
  for (int64_t iter = 0; iter < max_iterations; ++iter) {
    // E-step.
    double ll = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < kk; ++c) {
        logp[c] = std::log(std::max(components_[c].weight, 1e-12)) +
                  LogGaussianPdf(values[static_cast<size_t>(i)],
                                 components_[c].mean, components_[c].variance);
      }
      const double lse = LogSumExp(logp);
      ll += lse;
      for (size_t c = 0; c < kk; ++c) {
        resp[static_cast<size_t>(i)][c] = std::exp(logp[c] - lse);
      }
    }
    // M-step.
    for (size_t c = 0; c < kk; ++c) {
      double rsum = 0.0;
      double msum = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        rsum += resp[static_cast<size_t>(i)][c];
        msum += resp[static_cast<size_t>(i)][c] * values[static_cast<size_t>(i)];
      }
      if (rsum < 1e-10) {
        // Dead component: re-seed at a random sample point.
        components_[c].mean =
            values[static_cast<size_t>(rng->UniformInt(n))];
        components_[c].variance = total_var;
        components_[c].weight = 1.0 / static_cast<double>(kk);
        continue;
      }
      const double mean = msum / rsum;
      double vsum = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        const double d = values[static_cast<size_t>(i)] - mean;
        vsum += resp[static_cast<size_t>(i)][c] * d * d;
      }
      components_[c].mean = mean;
      components_[c].variance = std::max(vsum / rsum, kVarianceFloor);
      components_[c].weight = rsum / static_cast<double>(n);
    }
    if (std::abs(ll - prev_ll) < 1e-6 * std::abs(ll)) break;
    prev_ll = ll;
  }
  BuildConstants();
  return Status::OK();
}

void GaussianMixture::BuildConstants() {
  constants_.resize(components_.size());
  for (size_t c = 0; c < components_.size(); ++c) {
    const GaussianComponent& g = components_[c];
    Constants& k = constants_[c];
    k.log_weight = std::log(std::max(g.weight, 1e-12));
    k.mean = g.mean;
    k.variance = std::max(g.variance, kMinGaussianVariance);
    k.log_norm = std::log(2.0 * M_PI * k.variance);
    const double sigma = std::sqrt(g.variance);
    k.lo = g.mean - 3.0 * sigma;
    k.hi = g.mean + 3.0 * sigma;
  }
}

double GaussianMixture::MeanLogLikelihood(
    const std::vector<double>& values) const {
  if (values.empty()) return 0.0;
  double ll = 0.0;
  std::vector<double> logp(static_cast<size_t>(num_components()));
  for (double x : values) {
    for (int64_t c = 0; c < num_components(); ++c) {
      const GaussianComponent& g = components_[static_cast<size_t>(c)];
      logp[static_cast<size_t>(c)] =
          std::log(std::max(g.weight, 1e-12)) +
          LogGaussianPdf(x, g.mean, g.variance);
    }
    ll += LogSumExp(logp);
  }
  return ll / static_cast<double>(values.size());
}

void GaussianMixture::Save(BinaryWriter* writer) const {
  writer->WriteU64(components_.size());
  for (const GaussianComponent& g : components_) {
    writer->WriteDouble(g.weight);
    writer->WriteDouble(g.mean);
    writer->WriteDouble(g.variance);
  }
}

Status GaussianMixture::Load(BinaryReader* reader) {
  uint64_t n = 0;
  LTE_RETURN_IF_ERROR(reader->ReadU64(&n));
  if (n > kMaxSerializedCount) {
    return Status::IoError("gmm load: implausible component count");
  }
  // Grow with what the stream really holds: a corrupt count runs into the
  // end of the stream instead of allocating up front.
  std::vector<GaussianComponent> components;
  for (uint64_t i = 0; i < n; ++i) {
    GaussianComponent g;
    LTE_RETURN_IF_ERROR(reader->ReadDouble(&g.weight));
    LTE_RETURN_IF_ERROR(reader->ReadDouble(&g.mean));
    LTE_RETURN_IF_ERROR(reader->ReadDouble(&g.variance));
    if (g.variance <= 0.0) {
      return Status::IoError("gmm load: non-positive variance");
    }
    components.push_back(g);
  }
  components_ = std::move(components);
  BuildConstants();
  return Status::OK();
}

}  // namespace lte::preprocess
