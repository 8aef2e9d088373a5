// Row-at-a-time reference for the block scans: ExplorationSession::PredictRow
// on each materialized table row. It shares no batching machinery with
// PredictRows / RetrieveMatches, so on the scalar kernel those must equal it
// byte for byte.
#ifndef LTE_TESTS_SCAN_ORACLE_H_
#define LTE_TESTS_SCAN_ORACLE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/exploration_session.h"
#include "data/table.h"

namespace lte::testing_oracle {

/// One 0.0/1.0 per entry of `rows`, in input order.
inline std::vector<double> OraclePredictions(
    const core::ExplorationSession& session, const data::Table& table,
    std::span<const int64_t> rows) {
  std::vector<double> out;
  out.reserve(rows.size());
  for (const int64_t r : rows) {
    const std::optional<double> p = session.PredictRow(table.Row(r));
    out.push_back(p.value_or(-1.0));
  }
  return out;
}

/// Ascending matching row ids of `table`: all of them for `limit < 0`, else
/// the first `limit`.
inline std::vector<int64_t> OracleMatches(
    const core::ExplorationSession& session, const data::Table& table,
    int64_t limit) {
  std::vector<int64_t> out;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    if (limit >= 0 && static_cast<int64_t>(out.size()) >= limit) break;
    if (session.PredictRow(table.Row(r)).value_or(0.0) > 0.5) out.push_back(r);
  }
  return out;
}

}  // namespace lte::testing_oracle

#endif  // LTE_TESTS_SCAN_ORACLE_H_
