#ifndef LTE_CORE_BLOCK_SCAN_H_
#define LTE_CORE_BLOCK_SCAN_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/exploration_session.h"
#include "core/meta_learner.h"
#include "data/column_view.h"
#include "data/table.h"

namespace lte::core {

/// One session's share of a block-scan pass.
struct ScanSubscriber {
  const ExplorationSession* session = nullptr;
  /// Ascending, duplicate-free row ids this subscriber scores; empty scores
  /// every row of the domain. A non-empty list needs an ascending domain
  /// that contains every listed row.
  std::span<const int64_t> rows;
  /// > 0: only the first `limit` matches in domain order are wanted, so the
  /// pass may skip this subscriber in later blocks and stop early once every
  /// subscriber is covered. Otherwise every match is wanted.
  int64_t limit = -1;
  /// Output, overwritten: the ascending domain positions the session
  /// predicts interesting, truncated to `limit` when bounded.
  std::vector<int64_t>* matches = nullptr;
};

/// The survivor-cascade block scan behind every table scan (DESIGN.md §2b):
/// a standalone session's PredictRows / RetrieveMatches is the N = 1 case,
/// the coalesced scheduler's shared pass (src/serving/) the N > 1 case.
/// Pool lanes claim `kServingBlockRows`-position blocks of the domain in
/// increasing order; per subspace, a lane gathers and encodes the union of
/// the live subscribers' survivors once, scores each subscriber's slice
/// through `ExplorationSession::ScoreEncodedBlock`, and prunes the rejected
/// rows. Every verdict is the session's standalone one, byte for byte, and a
/// bounded subscriber gets exactly the prefix of its unbounded matches, at
/// any lane count. Scratch lives per lane and is reused across blocks and
/// `Run` calls, so a lane allocates nothing per block once capacities
/// settle. One object runs one pass at a time.
class BlockScan {
 public:
  /// Scans `domain_size` positions of `table`: position p is row
  /// `domain_rows[p]`, or row p itself when `domain_rows` is empty (a
  /// whole-table scan materializes no id list). Every subscriber must be
  /// bound to one model and have passed `ValidateServing(table)`.
  /// `num_threads` is the lane cap (>= 1). Returns the gather+encode rounds
  /// run, one per (block, subspace) with live subscribers.
  int64_t Run(const data::Table& table, int64_t domain_size,
              std::span<const int64_t> domain_rows,
              std::span<const ScanSubscriber> subscribers,
              int64_t num_threads);

 private:
  /// One block's matches for one subscriber: `hits[begin, end)` of `lane`.
  struct Segment {
    int64_t subscriber = 0;
    int64_t block = 0;
    int64_t lane = 0;
    int64_t begin = 0;
    int64_t end = 0;
  };

  struct Lane {
    std::vector<int64_t> dense;  // Row ids of a block of a dense domain.
    std::vector<int64_t> alive;  // Per subscriber: kServingBlockRows slots.
    std::vector<int64_t> alive_count;
    /// Per subscriber: 1 once matches from blocks below the lane's next
    /// claim cover the limit (read after each block, before the next claim).
    std::vector<uint8_t> covered;
    std::vector<int64_t> index_in_gather;  // Block position -> gather index.
    std::vector<int64_t> gather;           // Row ids of the union.
    std::vector<int64_t> sub_rows;         // One subscriber's survivor rows.
    std::vector<data::ColumnView> columns;
    std::vector<double> encoded;      // Union x width.
    std::vector<double> sub_encoded;  // One subscriber's slice.
    std::vector<double> verdicts;
    std::vector<double> point;
    TaskModel::BatchScratch batch;
    std::vector<int64_t> hits;  // Matched domain positions, by segment.
    std::vector<Segment> segments;
    int64_t encode_passes = 0;
  };

  void ScanBlock(const data::Table& table, int64_t domain_size,
                 std::span<const int64_t> domain_rows,
                 std::span<const ScanSubscriber> subscribers,
                 std::span<std::atomic<int64_t>> found, int64_t lane_index,
                 int64_t block);

  std::vector<Lane> lanes_;
  std::vector<Segment> segments_;
};

}  // namespace lte::core

#endif  // LTE_CORE_BLOCK_SCAN_H_
