#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace lte::perfbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kStart:
      return "core.adapt.start";
    case SpanKind::kContinue:
      return "core.adapt.continue";
    case SpanKind::kRetrieve:
      return "core.scan.retrieve";
    case SpanKind::kSuggest:
      return "policy.suggest";
    case SpanKind::kSchedulerCall:
      return "serving.scheduler.call";
    case SpanKind::kAcquire:
      return "serving.sessions.acquire";
    case SpanKind::kRelease:
      return "serving.sessions.release";
    case SpanKind::kOracle:
      return "bench.oracle";
    case SpanKind::kPool:
      return "bench.pool";
  }
  return "?";
}

int64_t TraceBuffer::Begin(SpanKind kind, int64_t request) {
  Span span;
  span.kind = kind;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void TraceBuffer::End(int64_t index) {
  LTE_CHECK(!open_.empty() && open_.back() == index);
  open_.pop_back();
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;  // Everything before `cursor` is already counted.
    for (const auto& [start, end] : kids) {
      const int64_t a = std::max(start, cursor);
      const int64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::vector<double> DurationsMs(const std::vector<Span>& spans, SpanKind kind,
                                int32_t tag) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.kind != kind || (tag >= 0 && span.tag != tag)) continue;
    out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
  }
  return out;
}

int64_t SelfTotalNs(const std::vector<Span>& spans,
                    const std::vector<int64_t>& self_ns, SpanKind kind) {
  int64_t total = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].kind == kind) total += self_ns[i];
  }
  return total;
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const std::vector<int64_t>& self_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"request\": %lld, "
                 "\"parent\": %lld, \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"self_ns\": %lld, \"tag\": %d}\n",
                 i, SpanName(s.kind), static_cast<long long>(s.request),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self_ns[i]), s.tag);
  }
  return std::fclose(f) == 0;
}

std::vector<Span> MergeBuffers(const std::vector<TraceBuffer>& buffers) {
  std::vector<Span> merged;
  for (const TraceBuffer& buffer : buffers) {
    const auto offset = static_cast<int64_t>(merged.size());
    for (Span span : buffer.spans()) {
      if (span.parent >= 0) span.parent += offset;
      merged.push_back(span);
    }
  }
  return merged;
}

}  // namespace lte::perfbench
