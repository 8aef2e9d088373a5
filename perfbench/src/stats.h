#ifndef LTE_PERFBENCH_STATS_H_
#define LTE_PERFBENCH_STATS_H_

// Order statistics, the tail-percentile rule, and the seeded samplers the
// load generator draws its work from.

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace lte::perfbench {

/// Nearest-rank percentile (`p` in [0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// The tail a run can support: the highest percentile on the ladder of
/// nines (99.9, 99, 90, 50) whose nearest-rank position leaves at least
/// `min_beyond` samples above it. With fewer than `min_beyond + 1` samples no
/// rung qualifies and the maximum (percentile 100, nothing beyond) is
/// reported instead, so the shortfall is visible rather than hidden.
struct Tail {
  double percentile = 100.0;
  double value = 0.0;
  int64_t samples = 0;  // Sample count the tail was taken over.
  int64_t beyond = 0;   // Samples strictly above the chosen rank.
};
Tail TailPercentile(const std::vector<double>& samples,
                    int64_t min_beyond = 10);

/// Throughput and tail of a timed loop that a burst of noise from other
/// tenants of the host cannot drag: the requests (completion time
/// `end_ns[i]`, latency `latency_ms[i]`, any order) of a loop that began at
/// `start_ns` are cut, in completion order, into `windows` consecutive
/// windows of (nearly) equal request count. `rate` is the median of the
/// windows' completions per second; `tail.value` the median of the windows'
/// TailPercentile values, with `tail.percentile` and `tail.beyond` the
/// lowest rung and beyond-count any window used, and `tail.samples` the
/// request count.
struct WindowStats {
  double rate = 0.0;
  Tail tail;
};
WindowStats SummarizeWindows(const std::vector<int64_t>& end_ns,
                             const std::vector<double>& latency_ms,
                             int64_t start_ns, int64_t windows);

/// Zipf(s) over ranks [0, n): P(rank k) ∝ 1 / (k + 1)^s. Sampling inverts
/// the cumulative table with one uniform draw, so a sequence is a pure
/// function of the rng stream.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double exponent);
  int64_t Sample(Rng* rng) const;
  int64_t size() const { return static_cast<int64_t>(cdf_.size()); }
  /// Probability of `rank`.
  double Probability(int64_t rank) const;

 private:
  std::vector<double> cdf_;
};

/// The users [0, num_users) that client thread `shard` of `shards` owns
/// (round-robin), in ascending order. Every request of a user runs on its
/// owner, so a user's session is never touched by two threads and its
/// results cannot depend on thread timing.
std::vector<int64_t> UsersOfShard(int64_t num_users, int64_t shard,
                                  int64_t shards);

/// `k` distinct values of [0, n) chosen by `seed` alone (ascending), e.g. the
/// users a run scores or replays.
std::vector<int64_t> SeededSubset(int64_t n, int64_t k, uint64_t seed);

/// Child stream `index` of stream family `domain` under the run seed: a
/// keyed split, so it does not depend on what any other stream drew.
Rng Stream(uint64_t seed, uint64_t domain, uint64_t index);

}  // namespace lte::perfbench

#endif  // LTE_PERFBENCH_STATS_H_
