#include "data/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

namespace lte::data {
namespace {

// Quoting is deliberately unsupported (see csv.h): a quoted field would be
// silently mis-split on its embedded commas, so its mere presence is an
// error, checked before any splitting happens.
Status SplitLine(const std::string& line, int64_t line_no,
                 std::vector<std::string>* cells) {
  if (line.find('"') != std::string::npos) {
    return Status::InvalidArgument(
        "quoted field at line " + std::to_string(line_no) +
        " (CSV quoting is not supported; cells must be bare numbers)");
  }
  cells->clear();
  std::string cell;
  std::stringstream ss(line);
  while (std::getline(ss, cell, ',')) cells->push_back(cell);
  // A trailing comma denotes an empty last cell.
  if (!line.empty() && line.back() == ',') cells->emplace_back();
  return Status::OK();
}

Status ParseDouble(const std::string& cell, int64_t line_no, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(cell.c_str(), &end);
  if (end == cell.c_str() || *end != '\0') {
    return Status::InvalidArgument("non-numeric cell '" + cell + "' at line " +
                                   std::to_string(line_no));
  }
  // Overflow (ERANGE with a ±HUGE_VAL result) and the literal nan/inf
  // spellings strtod accepts both come back non-finite; loaded silently they
  // would poison every downstream distance computation (normalization,
  // k-means, proximity matrices). Underflow to a denormal is a valid finite
  // double and passes.
  const bool overflow = errno == ERANGE && (v >= HUGE_VAL || v <= -HUGE_VAL);
  if (overflow || !std::isfinite(v)) {
    return Status::InvalidArgument(
        "non-finite or out-of-range cell '" + cell + "' at line " +
        std::to_string(line_no) + " (values must be finite doubles)");
  }
  *out = v;
  return Status::OK();
}

}  // namespace

Status ReadCsv(const std::string& path, Table* table) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open " + path);
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty CSV file: " + path);
  }
  // Strip a possible trailing carriage return from files written on Windows.
  if (!line.empty() && line.back() == '\r') line.pop_back();
  std::vector<std::string> header;
  LTE_RETURN_IF_ERROR(SplitLine(line, /*line_no=*/1, &header));
  if (header.empty()) {
    return Status::InvalidArgument("CSV header has no columns: " + path);
  }
  Table out(header);
  int64_t line_no = 1;
  std::vector<std::string> cells;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    LTE_RETURN_IF_ERROR(SplitLine(line, line_no, &cells));
    if (cells.size() != header.size()) {
      return Status::InvalidArgument("row width mismatch at line " +
                                     std::to_string(line_no));
    }
    std::vector<double> row(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      LTE_RETURN_IF_ERROR(ParseDouble(cells[i], line_no, &row[i]));
    }
    LTE_RETURN_IF_ERROR(out.AppendRow(row));
  }
  *table = std::move(out);
  return Status::OK();
}

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  const std::vector<std::string> names = table.AttributeNames();
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out << ',';
    out << names[i];
  }
  out << '\n';
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int64_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out << ',';
      out << table.column(c).value(r);
    }
    out << '\n';
  }
  // Close before checking: the final flush can fail too (e.g. ENOSPC).
  out.close();
  if (out.fail()) {
    return Status::IoError("write failure on " + path);
  }
  return Status::OK();
}

}  // namespace lte::data
