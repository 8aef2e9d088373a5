#include "report.h"

#include <cmath>
#include <cstdio>

namespace lte::perfbench {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string ToJson(const Result& result) {
  bool finite = true;
  std::string metrics;
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::string value = "null";
    if (std::isfinite(m.value)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      value = buf;
    } else {
      finite = false;
    }
    if (i > 0) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + value +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  const bool correct = result.correct && finite;
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"metrics\": {" + metrics + "}}";
}

}  // namespace lte::perfbench
