#ifndef LTE_PERFBENCH_REPORT_H_
#define LTE_PERFBENCH_REPORT_H_

// The one JSON line the benchmark pipeline reads:
//   {"correct": true, "attempted": N, "failed": F,
//    "metrics": {"name": {"value": v, "unit": "u"}, ...}}

#include <cstdint>
#include <string>
#include <vector>

namespace lte::perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Serializes `result` as one JSON line (no trailing newline). Values are
/// printed with every significant digit (%.17g). A non-finite value cannot
/// be represented in JSON: it is written as null and `correct` as false, so
/// the pipeline rejects the run instead of reading a made-up number.
std::string ToJson(const Result& result);

/// JSON string literal of `text` (quotes, backslashes and control characters
/// escaped).
std::string JsonString(const std::string& text);

}  // namespace lte::perfbench

#endif  // LTE_PERFBENCH_REPORT_H_
