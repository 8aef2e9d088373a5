#include "core/block_scan.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <tuple>

#include "common/check.h"
#include "common/thread_pool.h"

namespace lte::core {

int64_t BlockScan::Run(const data::Table& table, int64_t domain_size,
                       std::span<const int64_t> domain_rows,
                       std::span<const ScanSubscriber> subscribers,
                       int64_t num_threads) {
  LTE_CHECK(domain_rows.empty() ||
            static_cast<int64_t>(domain_rows.size()) == domain_size);
  for (const ScanSubscriber& sub : subscribers) sub.matches->clear();
  const int64_t num_blocks =
      (domain_size + kServingBlockRows - 1) / kServingBlockRows;
  if (num_blocks == 0 || subscribers.empty()) return 0;

  const size_t n_subs = subscribers.size();
  const auto num_lanes = static_cast<size_t>(
      std::min(std::max<int64_t>(num_threads, 1), num_blocks));
  if (lanes_.size() < num_lanes) lanes_.resize(num_lanes);
  for (size_t l = 0; l < num_lanes; ++l) {
    Lane& lane = lanes_[l];
    lane.alive.resize(n_subs * static_cast<size_t>(kServingBlockRows));
    lane.alive_count.assign(n_subs, 0);
    lane.covered.assign(n_subs, 0);
    lane.hits.clear();
    lane.segments.clear();
    lane.encode_passes = 0;
  }

  // Matches found per bounded subscriber, from completed blocks.
  const auto found = std::make_unique<std::atomic<int64_t>[]>(n_subs);
  bool all_bounded = true;
  for (const ScanSubscriber& sub : subscribers) all_bounded &= sub.limit > 0;
  ThreadPool::Shared().ParallelForEarlyExit(
      num_blocks, static_cast<int64_t>(num_lanes),
      [&](int64_t lane, int64_t block) {
        ScanBlock(table, domain_size, domain_rows, subscribers,
                  {found.get(), n_subs}, lane, block);
      },
      [&] {
        // Checked before every claim, so the matches counted come from
        // blocks below any block claimed afterwards.
        if (!all_bounded) return false;
        for (size_t q = 0; q < n_subs; ++q) {
          if (found[q].load(std::memory_order_acquire) <
              subscribers[q].limit) {
            return false;
          }
        }
        return true;
      });

  // Which blocks past a cancellation still ran depends on timing, but the
  // executed blocks form a prefix [0, C) holding each bounded subscriber's
  // first `limit` matches; concatenating in block order and truncating
  // reproduces the unbounded scan's prefix exactly.
  segments_.clear();
  int64_t encode_passes = 0;
  for (size_t l = 0; l < num_lanes; ++l) {
    segments_.insert(segments_.end(), lanes_[l].segments.begin(),
                     lanes_[l].segments.end());
    encode_passes += lanes_[l].encode_passes;
  }
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) {
              return std::tie(a.subscriber, a.block) <
                     std::tie(b.subscriber, b.block);
            });
  for (size_t i = 0; i < segments_.size();) {
    const int64_t q = segments_[i].subscriber;
    const ScanSubscriber& sub = subscribers[static_cast<size_t>(q)];
    const int64_t cap =
        sub.limit > 0 ? sub.limit : std::numeric_limits<int64_t>::max();
    size_t j = i;
    int64_t total = 0;
    for (; j < segments_.size() && segments_[j].subscriber == q; ++j) {
      total += segments_[j].end - segments_[j].begin;
    }
    std::vector<int64_t>& out = *sub.matches;
    out.reserve(static_cast<size_t>(std::min(total, cap)));
    for (; i < j; ++i) {
      const Segment& seg = segments_[i];
      const std::vector<int64_t>& hits =
          lanes_[static_cast<size_t>(seg.lane)].hits;
      const int64_t take = std::min(
          seg.end - seg.begin, cap - static_cast<int64_t>(out.size()));
      out.insert(out.end(), hits.begin() + seg.begin,
                 hits.begin() + seg.begin + take);
    }
  }
  return encode_passes;
}

void BlockScan::ScanBlock(const data::Table& table, int64_t domain_size,
                          std::span<const int64_t> domain_rows,
                          std::span<const ScanSubscriber> subscribers,
                          std::span<std::atomic<int64_t>> found,
                          int64_t lane_index, int64_t block) {
  Lane& lane = lanes_[static_cast<size_t>(lane_index)];
  const int64_t lo = block * kServingBlockRows;
  const int64_t n = std::min(kServingBlockRows, domain_size - lo);
  std::span<const int64_t> blk;
  if (domain_rows.empty()) {
    lane.dense.resize(static_cast<size_t>(n));
    std::iota(lane.dense.begin(), lane.dense.end(), lo);
    blk = lane.dense;
  } else {
    blk = domain_rows.subspan(static_cast<size_t>(lo), static_cast<size_t>(n));
  }

  // Each subscriber starts from the block positions it wants; a covered
  // bounded subscriber sits the block out.
  const size_t n_subs = subscribers.size();
  int64_t max_active = 0;
  for (size_t q = 0; q < n_subs; ++q) {
    int64_t* alive = lane.alive.data() + q * kServingBlockRows;
    int64_t& count = lane.alive_count[q];
    count = 0;
    if (lane.covered[q] != 0) continue;
    const std::span<const int64_t> want = subscribers[q].rows;
    if (want.empty()) {
      std::iota(alive, alive + n, int64_t{0});
      count = n;
    } else {
      // Merge of two ascending lists; every wanted row is in the domain.
      int64_t p = 0;
      for (auto it = std::lower_bound(want.begin(), want.end(), blk[0]);
           it != want.end() && *it <= blk[static_cast<size_t>(n - 1)]; ++it) {
        while (blk[static_cast<size_t>(p)] < *it) ++p;
        if (blk[static_cast<size_t>(p)] == *it) alive[count++] = p;
      }
    }
    if (count > 0) {
      max_active =
          std::max(max_active, subscribers[q].session->active_subspaces());
    }
  }

  const ExplorationModel& model = subscribers[0].session->model();
  for (int64_t s = 0; s < max_active; ++s) {
    const auto live = [&](size_t q) {
      return lane.alive_count[q] > 0 &&
             subscribers[q].session->active_subspaces() > s;
    };
    // Mark the union of the live survivors (-1 = no live subscriber).
    lane.index_in_gather.assign(static_cast<size_t>(n), -1);
    bool any = false;
    for (size_t q = 0; q < n_subs; ++q) {
      if (!live(q)) continue;
      const int64_t* alive = lane.alive.data() + q * kServingBlockRows;
      for (int64_t i = 0; i < lane.alive_count[q]; ++i) {
        lane.index_in_gather[static_cast<size_t>(alive[i])] = 0;
      }
      any = true;
    }
    if (!any) break;

    // One gather+encode of the union serves every live subscriber.
    lane.gather.clear();
    for (int64_t p = 0; p < n; ++p) {
      int64_t& index = lane.index_in_gather[static_cast<size_t>(p)];
      if (index < 0) continue;
      index = static_cast<int64_t>(lane.gather.size());
      lane.gather.push_back(blk[static_cast<size_t>(p)]);
    }
    const std::vector<int64_t>& attrs = model.subspace(s)->attribute_indices;
    lane.columns.clear();
    for (const int64_t a : attrs) lane.columns.push_back(table.View(a));
    model.encoder().EncodeGatheredInto(lane.columns, attrs, lane.gather,
                                       &lane.encoded);
    ++lane.encode_passes;
    const int64_t width = model.encoder().ProjectedWidth(attrs);

    for (size_t q = 0; q < n_subs; ++q) {
      if (!live(q)) continue;
      int64_t* alive = lane.alive.data() + q * kServingBlockRows;
      int64_t& count = lane.alive_count[q];
      std::span<const int64_t> rows = lane.gather;
      std::span<const double> encoded = lane.encoded;
      if (count != static_cast<int64_t>(lane.gather.size())) {
        // A strict subset of the union: copy out this subscriber's slice.
        lane.sub_rows.resize(static_cast<size_t>(count));
        lane.sub_encoded.resize(static_cast<size_t>(count * width));
        for (int64_t i = 0; i < count; ++i) {
          const auto p = static_cast<size_t>(alive[i]);
          lane.sub_rows[static_cast<size_t>(i)] = blk[p];
          std::memcpy(lane.sub_encoded.data() + i * width,
                      lane.encoded.data() + lane.index_in_gather[p] * width,
                      static_cast<size_t>(width) * sizeof(double));
        }
        rows = lane.sub_rows;
        encoded = lane.sub_encoded;
      }
      lane.verdicts.resize(static_cast<size_t>(count));
      subscribers[q].session->ScoreEncodedBlock(s, encoded, rows, lane.columns,
                                                &lane.batch, &lane.point,
                                                lane.verdicts);
      int64_t kept = 0;
      for (int64_t i = 0; i < count; ++i) {
        if (lane.verdicts[static_cast<size_t>(i)] >= 0.5) {
          alive[kept++] = alive[i];
        }
      }
      count = kept;
    }
  }

  for (size_t q = 0; q < n_subs; ++q) {
    const int64_t count = lane.alive_count[q];
    if (count == 0) continue;
    const int64_t* alive = lane.alive.data() + q * kServingBlockRows;
    const auto begin = static_cast<int64_t>(lane.hits.size());
    for (int64_t i = 0; i < count; ++i) lane.hits.push_back(lo + alive[i]);
    lane.segments.push_back(Segment{static_cast<int64_t>(q), block, lane_index,
                                    begin, begin + count});
    if (subscribers[q].limit > 0) {
      found[q].fetch_add(count, std::memory_order_release);
    }
  }
  // Read before this lane's next claim: every match counted here lies in a
  // block below it, so skipping a covered subscriber there loses nothing.
  for (size_t q = 0; q < n_subs; ++q) {
    const int64_t limit = subscribers[q].limit;
    lane.covered[q] =
        limit > 0 && found[q].load(std::memory_order_acquire) >= limit;
  }
}

}  // namespace lte::core
