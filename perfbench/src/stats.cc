#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace lte::perfbench {

namespace {

// Index of the nearest-rank percentile `p` in a sorted sample of size n > 0.
int64_t NearestRank(int64_t n, double p) {
  // The epsilon keeps an exact product (99.9% of 11000) from rounding up a
  // whole rank.
  const auto rank = static_cast<int64_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
  return std::clamp<int64_t>(rank - 1, 0, n - 1);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const int64_t n = static_cast<int64_t>(samples.size());
  return samples[static_cast<size_t>(NearestRank(n, p))];
}

Tail TailPercentile(const std::vector<double>& samples, int64_t min_beyond) {
  static constexpr double kLadder[] = {99.9, 99.0, 90.0, 50.0};
  Tail tail;
  tail.samples = static_cast<int64_t>(samples.size());
  if (samples.empty()) return tail;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const int64_t n = tail.samples;
  for (const double p : kLadder) {
    const int64_t idx = NearestRank(n, p);
    if (n - 1 - idx >= min_beyond) {
      tail.percentile = p;
      tail.value = sorted[static_cast<size_t>(idx)];
      tail.beyond = n - 1 - idx;
      return tail;
    }
  }
  tail.percentile = 100.0;
  tail.value = sorted.back();
  tail.beyond = 0;
  return tail;
}

WindowStats SummarizeWindows(const std::vector<int64_t>& end_ns,
                             const std::vector<double>& latency_ms,
                             int64_t start_ns, int64_t windows) {
  LTE_CHECK_EQ(end_ns.size(), latency_ms.size());
  WindowStats out;
  const auto n = static_cast<int64_t>(end_ns.size());
  out.tail.samples = n;
  if (n == 0) return out;
  windows = std::clamp<int64_t>(windows, 1, n);
  std::vector<size_t> order(end_ns.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return end_ns[a] < end_ns[b]; });
  std::vector<double> rates;
  std::vector<double> tails;
  out.tail.beyond = n;
  int64_t from = start_ns;
  for (int64_t k = 0; k < windows; ++k) {
    const int64_t lo = k * n / windows;
    const int64_t hi = (k + 1) * n / windows;
    const int64_t to = end_ns[order[static_cast<size_t>(hi - 1)]];
    const double seconds =
        static_cast<double>(std::max<int64_t>(1, to - from)) * 1e-9;
    rates.push_back(static_cast<double>(hi - lo) / seconds);
    from = to;
    std::vector<double> window;
    for (int64_t i = lo; i < hi; ++i) {
      window.push_back(latency_ms[order[static_cast<size_t>(i)]]);
    }
    const Tail tail = TailPercentile(window);
    tails.push_back(tail.value);
    out.tail.percentile = std::min(out.tail.percentile, tail.percentile);
    out.tail.beyond = std::min(out.tail.beyond, tail.beyond);
  }
  out.rate = Percentile(rates, 50.0);
  out.tail.value = Percentile(tails, 50.0);
  return out;
}

ZipfSampler::ZipfSampler(int64_t n, double exponent) {
  LTE_CHECK_GT(n, 0);
  cdf_.resize(static_cast<size_t>(n));
  double total = 0.0;
  for (int64_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[static_cast<size_t>(k)] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

int64_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<int64_t>(it - cdf_.begin(), size() - 1);
}

double ZipfSampler::Probability(int64_t rank) const {
  LTE_CHECK_GE(rank, 0);
  LTE_CHECK_LT(rank, size());
  const auto r = static_cast<size_t>(rank);
  return r == 0 ? cdf_[0] : cdf_[r] - cdf_[r - 1];
}

std::vector<int64_t> UsersOfShard(int64_t num_users, int64_t shard,
                                  int64_t shards) {
  LTE_CHECK_GT(shards, 0);
  std::vector<int64_t> users;
  for (int64_t u = shard; u < num_users; u += shards) users.push_back(u);
  return users;
}

std::vector<int64_t> SeededSubset(int64_t n, int64_t k, uint64_t seed) {
  Rng rng = Stream(seed, /*domain=*/0x5355, /*index=*/0);  // "SU"
  std::vector<int64_t> subset =
      rng.SampleWithoutReplacement(n, std::min(k, n));
  std::sort(subset.begin(), subset.end());
  return subset;
}

Rng Stream(uint64_t seed, uint64_t domain, uint64_t index) {
  return Rng(seed).Fork(domain).Fork(index);
}

}  // namespace lte::perfbench
