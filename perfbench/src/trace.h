#ifndef LTE_PERFBENCH_TRACE_H_
#define LTE_PERFBENCH_TRACE_H_

// Spans recorded by the load generator around its calls into the library's
// layers. Each client thread owns one `TraceBuffer`; spans stay in memory
// until the run ends and are written out once. A null buffer is the untraced
// run: `SpanScope` then reads no clock and stores nothing.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lte::perfbench {

/// Layer boundaries the generator records. Names are the span names written
/// to the trace file.
enum class SpanKind : int32_t {
  kRequest,            // One end-to-end request (root span).
  kStart,              // core: ExplorationSession::StartExploration.
  kContinue,           // core: ExplorationSession::ContinueExploration.
  kRetrieve,           // core: standalone ExplorationSession::RetrieveMatches.
  kSuggest,            // policy: ExplorationSession::SuggestTuples.
  kSchedulerCall,      // serving: CoalescedScanScheduler::RetrieveMatches.
  kAcquire,            // serving: SessionManager::Acquire.
  kRelease,            // serving: SessionManager::Lease::Release.
  kOracle,             // bench: ground-truth labelling of suggested tuples.
  kPool,               // bench: drawing and projecting a candidate pool.
};

const char* SpanName(SpanKind kind);

/// Tags of kAcquire spans: how SessionManager::Acquire found the session.
enum AcquireTag : int32_t { kAcquireHit, kAcquireCreate, kAcquireRestore };

struct Span {
  SpanKind kind = SpanKind::kRequest;
  int64_t request = -1;  // Request id shared by all spans of one request.
  int64_t parent = -1;   // Index of the enclosing span in the same buffer.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t tag = 0;       // Kind-specific outcome (e.g. Acquire hit/restore).
};

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One thread's spans, in start order, with the stack of open spans.
class TraceBuffer {
 public:
  int64_t Begin(SpanKind kind, int64_t request);
  void End(int64_t index);
  void SetTag(int64_t index, int32_t tag) {
    spans_[static_cast<size_t>(index)].tag = tag;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span; a no-op when `buffer` is null.
class SpanScope {
 public:
  SpanScope(TraceBuffer* buffer, SpanKind kind, int64_t request)
      : buffer_(buffer),
        index_(buffer == nullptr ? -1 : buffer->Begin(kind, request)) {}
  ~SpanScope() {
    if (buffer_ != nullptr) buffer_->End(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void SetTag(int32_t tag) {
    if (buffer_ != nullptr) buffer_->SetTag(index_, tag);
  }

 private:
  TraceBuffer* buffer_;
  int64_t index_;
};

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover. Children may nest further or overlap each other
/// (spans from parallel work); their union is clipped to the parent's
/// interval, so no instant is subtracted twice.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Durations (ms) of the spans of `kind`, optionally only those whose tag
/// equals `tag`.
std::vector<double> DurationsMs(const std::vector<Span>& spans, SpanKind kind,
                                int32_t tag = -1);

/// Sum of self time (ns) over the spans of `kind`.
int64_t SelfTotalNs(const std::vector<Span>& spans,
                    const std::vector<int64_t>& self_ns, SpanKind kind);

/// Writes one JSON object per span (name, request, parent, start/end, self
/// time, tag) to `path`. Returns false when the file cannot be written.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const std::vector<int64_t>& self_ns);

/// Concatenates per-thread buffers into one span list, rebasing each
/// buffer's parent indices onto the merged list.
std::vector<Span> MergeBuffers(const std::vector<TraceBuffer>& buffers);

}  // namespace lte::perfbench

#endif  // LTE_PERFBENCH_TRACE_H_
