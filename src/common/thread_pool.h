#ifndef LTE_COMMON_THREAD_POOL_H_
#define LTE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lte {

/// Number of worker lanes used when an option's `num_threads` is 0 ("auto"):
/// the hardware concurrency, with a floor of 1.
int64_t DefaultThreadCount();

/// Resolves the `num_threads` convention used by every parallel option in
/// the library: 0 = auto (DefaultThreadCount()), otherwise max(value, 1).
int64_t ResolveThreadCount(int64_t num_threads);

/// A fixed-size pool of worker threads shared by the offline-training path
/// (meta-training batches, task encoding, per-subspace training, k-means
/// assignment). Workers are created once and block on a condition variable
/// between jobs, so per-call overhead is a wake-up, not a thread spawn.
///
/// Determinism contract: `ParallelFor` splits [begin, end) into at most
/// `max_parallelism` *contiguous lanes* whose boundaries depend only on the
/// range and `max_parallelism` — never on the worker count or on scheduling.
/// Which OS thread executes a lane is dynamic, but every index is executed
/// exactly once and callers that write to disjoint per-index slots get
/// bit-identical results for any pool size.
class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (clamped to >= 0). The calling
  /// thread also participates in every ParallelFor, so a pool with 0 workers
  /// degenerates to the sequential loop.
  explicit ThreadPool(int64_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int64_t num_workers() const {
    return static_cast<int64_t>(workers_.size());
  }

  /// Runs `fn(i)` exactly once for every i in [begin, end) and returns when
  /// all calls have finished. Work is split into contiguous lanes as
  /// described above; the calling thread participates. `max_parallelism`
  /// <= 1, an empty range, or a nested call from inside a pool lane runs the
  /// plain sequential loop on the caller — byte-for-byte the legacy path.
  /// `fn` must not throw (the library is exception-free by convention).
  void ParallelFor(int64_t begin, int64_t end, int64_t max_parallelism,
                   const std::function<void(int64_t)>& fn);

  /// Shard-level variant for cheap per-index bodies: `fn(lo, hi)` is called
  /// once per lane with the lane's contiguous sub-range. Same determinism
  /// contract; same inline fallback (a single `fn(begin, end)` call).
  void ParallelForShards(int64_t begin, int64_t end, int64_t max_parallelism,
                         const std::function<void(int64_t, int64_t)>& fn);

  /// Early-exit variant for chunked scans (e.g. a `limit`-bounded table
  /// scan): up to `max_parallelism` lanes repeatedly claim the next chunk
  /// index from a shared counter and run `fn(lane, chunk)`; before every
  /// claim a lane consults `cancelled()`, and once it returns true no
  /// further chunks are claimed (chunks already running finish normally).
  /// `cancelled` must be monotone (once true it stays true) and safe to call
  /// concurrently. `lane` lies in [0, min(max_parallelism, num_chunks)) and
  /// no two concurrent calls share one, so callers can index per-lane
  /// scratch with it.
  ///
  /// Chunks are claimed in increasing order, so on return the set of
  /// executed chunks is a contiguous prefix [0, C) with C == num_chunks when
  /// cancellation never fired. Unlike ParallelFor, *which* chunks beyond the
  /// cancellation point still ran depends on timing — callers must derive
  /// their result only from chunk outputs that are timing-independent (e.g.
  /// concatenate per-chunk slots in chunk order and truncate at the limit;
  /// see core::BlockScan).
  void ParallelForEarlyExit(
      int64_t num_chunks, int64_t max_parallelism,
      const std::function<void(int64_t lane, int64_t chunk)>& fn,
      const std::function<bool()>& cancelled);

  /// Process-wide pool with DefaultThreadCount() workers, created on first
  /// use. All library internals share this instance.
  static ThreadPool& Shared();

 private:
  // One ParallelFor invocation. Lanes are claimed dynamically via
  // `next_lane`; `lanes_done` (guarded by the pool mutex) counts completed
  // lanes so the submitting thread knows when to return. Late-waking workers
  // hold a shared_ptr, so a job outlives the call that submitted it.
  struct Job {
    std::function<void(int64_t, int64_t)> shard_fn;
    int64_t begin = 0;
    int64_t end = 0;
    int64_t lanes = 0;
    std::atomic<int64_t> next_lane{0};
    int64_t lanes_done = 0;
  };

  void WorkerLoop();
  static void RunLane(const Job& job, int64_t lane);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;   // Guarded by mu_.
  uint64_t job_generation_ = 0;  // Guarded by mu_.
  bool stopping_ = false;        // Guarded by mu_.
  std::vector<std::thread> workers_;
};

}  // namespace lte

#endif  // LTE_COMMON_THREAD_POOL_H_
