#include "serving/coalesced_scan_scheduler.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"

namespace lte::serving {

CoalescedScanScheduler::CoalescedScanScheduler(
    std::shared_ptr<const core::ExplorationModel> model,
    const data::Table* table, CoalescedScanOptions options)
    : model_(std::move(model)), table_(table), options_(options) {
  LTE_CHECK(model_ != nullptr);
  LTE_CHECK(table != nullptr);
  options_.max_batch_requests = std::max<int64_t>(options_.max_batch_requests, 1);
  options_.max_pending_requests = std::max<int64_t>(
      options_.max_pending_requests, options_.max_batch_requests);
  options_.flush_deadline_micros =
      std::max<int64_t>(options_.flush_deadline_micros, 0);
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

CoalescedScanScheduler::~CoalescedScanScheduler() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  scheduler_cv_.notify_all();
  submit_cv_.notify_all();
  scheduler_.join();
}

void CoalescedScanScheduler::Flush() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return;  // Nothing queued; nothing to trigger.
    flush_requested_ = true;
  }
  scheduler_cv_.notify_all();
}

CoalescedScanStats CoalescedScanScheduler::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status CoalescedScanScheduler::ValidateSubmission(
    const core::ExplorationSession& session) const {
  if (&session.model() != model_.get()) {
    return Status::InvalidArgument(
        "scheduler: session is bound to a different model");
  }
  return session.ValidateServing(*table_);
}

Status CoalescedScanScheduler::PredictRows(
    const core::ExplorationSession& session, std::span<const int64_t> rows,
    std::vector<double>* predictions) {
  if (predictions == nullptr) {
    return Status::InvalidArgument("scheduler: predictions must not be null");
  }
  LTE_RETURN_IF_ERROR(ValidateSubmission(session));
  for (const int64_t r : rows) {
    if (r < 0 || r >= table_->num_rows()) {
      return Status::OutOfRange("scheduler: row index " + std::to_string(r) +
                                " outside [0, " +
                                std::to_string(table_->num_rows()) + ")");
    }
  }
  predictions->assign(rows.size(), 0.0);
  if (rows.empty()) return Status::OK();

  Request request;
  request.session = &session;
  request.retrieve = false;
  request.rows = rows;
  request.sorted_rows.assign(rows.begin(), rows.end());
  std::sort(request.sorted_rows.begin(), request.sorted_rows.end());
  request.sorted_rows.erase(
      std::unique(request.sorted_rows.begin(), request.sorted_rows.end()),
      request.sorted_rows.end());
  request.predictions = predictions;
  return Submit(&request);
}

Status CoalescedScanScheduler::RetrieveMatches(
    const core::ExplorationSession& session, int64_t limit,
    std::vector<int64_t>* matches) {
  if (matches == nullptr) {
    return Status::InvalidArgument("scheduler: matches must not be null");
  }
  matches->clear();
  LTE_RETURN_IF_ERROR(ValidateSubmission(session));
  if (limit == 0) return Status::OK();  // Only limit < 0 means "unlimited".
  if (table_->num_rows() == 0) return Status::OK();

  Request request;
  request.session = &session;
  request.retrieve = true;
  request.limit = limit;
  request.matches = matches;
  return Submit(&request);
}

Status CoalescedScanScheduler::Submit(Request* request) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Backpressure: park the submitter until the scheduler works the
    // pending set below the bound (each completed batch frees capacity).
    submit_cv_.wait(lock, [&] {
      return stopping_ || pending_ < options_.max_pending_requests;
    });
    if (stopping_) {
      return Status::FailedPrecondition("scheduler: shutting down");
    }
    request->enqueue_time = std::chrono::steady_clock::now();
    queue_.push_back(request);
    ++pending_;
  }
  scheduler_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  submit_cv_.wait(lock, [&] { return request->done; });
  return Status::OK();
}

void CoalescedScanScheduler::SchedulerLoop() {
  std::vector<Request*> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (queue_.empty()) {
          if (stopping_) return;
          flush_requested_ = false;  // Nothing left to flush.
          scheduler_cv_.wait(lock);
          continue;
        }
        if (stopping_ || flush_requested_ ||
            static_cast<int64_t>(queue_.size()) >=
                options_.max_batch_requests) {
          break;
        }
        const auto deadline =
            queue_.front()->enqueue_time +
            std::chrono::microseconds(options_.flush_deadline_micros);
        if (std::chrono::steady_clock::now() >= deadline) break;
        scheduler_cv_.wait_until(lock, deadline);
      }
      const auto take = std::min<int64_t>(
          static_cast<int64_t>(queue_.size()), options_.max_batch_requests);
      batch.assign(queue_.begin(), queue_.begin() + take);
      queue_.erase(queue_.begin(), queue_.begin() + take);
      if (queue_.empty()) flush_requested_ = false;
    }

    const BatchOutcome outcome = RunBatch(batch);

    {
      const std::lock_guard<std::mutex> lock(mu_);
      pending_ -= static_cast<int64_t>(batch.size());
      stats_.batches += 1;
      stats_.requests += static_cast<int64_t>(batch.size());
      stats_.largest_batch = std::max<int64_t>(
          stats_.largest_batch, static_cast<int64_t>(batch.size()));
      stats_.rows_served += outcome.rows_served;
      stats_.encode_passes += outcome.encode_passes;
      for (Request* request : batch) request->done = true;
    }
    submit_cv_.notify_all();
  }
}

CoalescedScanScheduler::BatchOutcome CoalescedScanScheduler::RunBatch(
    const std::vector<Request*>& batch) {
  // Union row domain of the batch, ascending. A retrieval subscribes to the
  // whole table, which the engine scans without an id list (positions are
  // row ids); otherwise the PredictRows requests' (validated) row sets.
  // Every requested row was validated below num_rows() at submission and a
  // live table only grows, so one mark per current row covers them all.
  bool whole_table = false;
  for (const Request* request : batch) whole_table |= request->retrieve;
  const int64_t table_rows = table_->num_rows();
  row_marks_.resize(static_cast<size_t>(table_rows), 0);
  union_rows_.clear();
  if (!whole_table) {
    // Distinct rows first, then sort only those: the cost follows the
    // requests' rows, not their concatenation's sort.
    for (const Request* request : batch) {
      for (const int64_t r : request->sorted_rows) {
        uint8_t& mark = row_marks_[static_cast<size_t>(r)];
        if (mark == 0) {
          mark = 1;
          union_rows_.push_back(r);
        }
      }
    }
    std::sort(union_rows_.begin(), union_rows_.end());
    for (const int64_t r : union_rows_) row_marks_[static_cast<size_t>(r)] = 0;
  }
  const int64_t domain_size =
      whole_table ? table_rows : static_cast<int64_t>(union_rows_.size());
  LTE_CHECK_GT(domain_size, 0);  // Empty requests never reach a pass.

  subscribers_.clear();
  for (Request* request : batch) {
    if (request->retrieve) {
      subscribers_.push_back(core::ScanSubscriber{
          request->session, {}, request->limit, request->matches});
    } else {
      subscribers_.push_back(core::ScanSubscriber{
          request->session, request->sorted_rows, -1, &request->hits});
    }
  }
  BatchOutcome outcome;
  outcome.encode_passes =
      scan_.Run(*table_, domain_size, union_rows_, subscribers_,
                ResolveThreadCount(options_.num_threads));

  // Retrievals already hold their ascending, limit-truncated row ids.
  // PredictRows verdicts go back to input order, duplicates included: mark
  // the matched rows, read one mark per requested row, and clear the marks
  // again for the next request.
  for (Request* request : batch) {
    if (request->retrieve) {
      outcome.rows_served += domain_size;
      continue;
    }
    const auto row_of = [&](int64_t p) {
      return static_cast<size_t>(
          whole_table ? p : union_rows_[static_cast<size_t>(p)]);
    };
    for (const int64_t p : request->hits) row_marks_[row_of(p)] = 1;
    for (size_t i = 0; i < request->rows.size(); ++i) {
      (*request->predictions)[i] =
          row_marks_[static_cast<size_t>(request->rows[i])] != 0 ? 1.0 : 0.0;
    }
    for (const int64_t p : request->hits) row_marks_[row_of(p)] = 0;
    outcome.rows_served += static_cast<int64_t>(request->rows.size());
  }
  return outcome;
}

}  // namespace lte::serving
