#include "data/table.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace lte::data {

Table::Table(const std::vector<std::string>& attribute_names) {
  columns_.reserve(attribute_names.size());
  for (const std::string& name : attribute_names) {
    columns_.emplace_back(name);
  }
}

void Table::CopyFrom(const Table& other) {
  columns_ = other.columns_;
  base_rows_ = other.base_rows_;
  num_rows_.store(other.num_rows(), std::memory_order_release);
  // Segments are immutable, so sharing the directory snapshot is safe; the
  // copy simply starts from the same sealed history.
  dir_ = other.SnapshotDirectory();
}

void Table::MoveFrom(Table&& other) {
  columns_ = std::move(other.columns_);
  base_rows_ = other.base_rows_;
  num_rows_.store(other.num_rows(), std::memory_order_release);
  dir_ = std::move(other.dir_);
  other.base_rows_ = 0;
  other.num_rows_.store(0, std::memory_order_release);
}

Table::Table(const Table& other) { CopyFrom(other); }

Table& Table::operator=(const Table& other) {
  if (this != &other) CopyFrom(other);
  return *this;
}

Table::Table(Table&& other) noexcept { MoveFrom(std::move(other)); }

Table& Table::operator=(Table&& other) noexcept {
  if (this != &other) MoveFrom(std::move(other));
  return *this;
}

const Column& Table::column(int64_t i) const {
  LTE_CHECK_GE(i, 0);
  LTE_CHECK_LT(i, num_columns());
  return columns_[static_cast<size_t>(i)];
}

Column* Table::mutable_column(int64_t i) {
  LTE_CHECK_GE(i, 0);
  LTE_CHECK_LT(i, num_columns());
  LTE_CHECK_MSG(SnapshotDirectory() == nullptr,
                "mutable_column on a table with sealed segments");
  return &columns_[static_cast<size_t>(i)];
}

std::span<const double> Table::ColumnValues(int64_t i) const {
  LTE_CHECK_MSG(SnapshotDirectory() == nullptr,
                "ColumnValues cannot address appended segments; use View");
  return column(i).AsSpan();
}

ColumnView Table::View(int64_t i) const {
  const Column& c = column(i);
  const std::shared_ptr<const Directory> dir = SnapshotDirectory();
  if (dir == nullptr) return ColumnView(c.AsSpan(), {}, nullptr);
  return ColumnView(c.AsSpan(),
                    std::span<const ColumnSlice>(dir->slices[static_cast<size_t>(i)]),
                    dir);
}

std::shared_ptr<const Table::Directory> Table::SnapshotDirectory() const {
  const std::lock_guard<std::mutex> lock(dir_mu_);
  return dir_;
}

const Table::Segment& Table::SegmentFor(const Directory& dir, int64_t row) {
  // Segments are ascending by start; find the first one ending past `row`.
  const auto it = std::upper_bound(
      dir.segments.begin(), dir.segments.end(), row,
      [](int64_t r, const std::shared_ptr<const Segment>& seg) {
        return r < seg->start + seg->rows;
      });
  LTE_CHECK(it != dir.segments.end());
  LTE_CHECK_GE(row, (*it)->start);
  return **it;
}

std::vector<std::string> Table::AttributeNames() const {
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const Column& c : columns_) names.push_back(c.name());
  return names;
}

int64_t Table::ColumnIndex(const std::string& name) const {
  for (int64_t i = 0; i < num_columns(); ++i) {
    if (columns_[static_cast<size_t>(i)].name() == name) return i;
  }
  return -1;
}

Status Table::AppendRow(const std::vector<double>& row) {
  if (static_cast<int64_t>(row.size()) != num_columns()) {
    return Status::InvalidArgument("row width does not match table width");
  }
  if (SnapshotDirectory() != nullptr) {
    return Status::FailedPrecondition(
        "AppendRow on a live table: the base segment is sealed; use "
        "AppendRows");
  }
  for (size_t i = 0; i < row.size(); ++i) columns_[i].Append(row[i]);
  ++base_rows_;
  num_rows_.store(base_rows_, std::memory_order_release);
  return Status::OK();
}

Status Table::AppendRows(const std::vector<std::vector<double>>& rows) {
  if (columns_.empty()) {
    return Status::InvalidArgument("AppendRows on a table with no columns");
  }
  for (const std::vector<double>& row : rows) {
    if (static_cast<int64_t>(row.size()) != num_columns()) {
      return Status::InvalidArgument("row width does not match table width");
    }
  }
  if (rows.empty()) return Status::OK();

  auto seg = std::make_shared<Segment>();
  seg->start = num_rows();
  seg->rows = static_cast<int64_t>(rows.size());
  seg->values.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    seg->values[c].reserve(rows.size());
    for (const std::vector<double>& row : rows) {
      seg->values[c].push_back(row[c]);
    }
  }

  const std::lock_guard<std::mutex> lock(dir_mu_);
  auto next = std::make_shared<Directory>();
  if (dir_ != nullptr) *next = *dir_;  // Shares the sealed segments.
  if (next->slices.empty()) next->slices.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    next->slices[c].push_back(
        ColumnSlice{seg->start, seg->start + seg->rows, seg->values[c].data()});
  }
  next->segments.push_back(std::move(seg));
  dir_ = std::move(next);
  // Published last: a reader that sees the new count finds the rows in the
  // directory; one that does not simply serves the previous snapshot.
  num_rows_.store(dir_->segments.back()->start + dir_->segments.back()->rows,
                  std::memory_order_release);
  return Status::OK();
}

int64_t Table::num_segments() const {
  const std::shared_ptr<const Directory> dir = SnapshotDirectory();
  return dir == nullptr ? 0 : static_cast<int64_t>(dir->segments.size());
}

Status Table::AddColumn(Column column) {
  if (SnapshotDirectory() != nullptr) {
    return Status::FailedPrecondition(
        "AddColumn on a live table: the base segment is sealed");
  }
  if (ColumnIndex(column.name()) >= 0) {
    return Status::InvalidArgument("duplicate column name: " + column.name());
  }
  if (!columns_.empty() && column.size() != base_rows_) {
    return Status::InvalidArgument("column length mismatch: " + column.name());
  }
  if (columns_.empty()) {
    base_rows_ = column.size();
    num_rows_.store(base_rows_, std::memory_order_release);
  }
  columns_.push_back(std::move(column));
  return Status::OK();
}

std::vector<double> Table::Row(int64_t row) const {
  LTE_CHECK_GE(row, 0);
  LTE_CHECK_LT(row, num_rows());
  std::vector<double> out;
  out.reserve(columns_.size());
  if (row < base_rows_) {
    for (const Column& c : columns_) out.push_back(c.value(row));
    return out;
  }
  const std::shared_ptr<const Directory> dir = SnapshotDirectory();
  const Segment& seg = SegmentFor(*dir, row);
  for (size_t c = 0; c < columns_.size(); ++c) {
    out.push_back(seg.values[c][static_cast<size_t>(row - seg.start)]);
  }
  return out;
}

std::vector<double> Table::RowProjected(
    int64_t row, const std::vector<int64_t>& cols) const {
  LTE_CHECK_GE(row, 0);
  LTE_CHECK_LT(row, num_rows());
  std::vector<double> out;
  out.reserve(cols.size());
  if (row < base_rows_) {
    for (int64_t c : cols) out.push_back(column(c).value(row));
    return out;
  }
  const std::shared_ptr<const Directory> dir = SnapshotDirectory();
  const Segment& seg = SegmentFor(*dir, row);
  for (int64_t c : cols) {
    LTE_CHECK_GE(c, 0);
    LTE_CHECK_LT(c, num_columns());
    out.push_back(
        seg.values[static_cast<size_t>(c)][static_cast<size_t>(row - seg.start)]);
  }
  return out;
}

Table Table::Project(const std::vector<int64_t>& cols) const {
  Table out;
  const int64_t n = num_rows();
  for (int64_t c : cols) {
    Column projected;
    if (n == base_rows_) {
      projected = column(c);  // Static fast path: one vector copy.
    } else {
      const ColumnView view = View(c);
      std::vector<double> values;
      values.reserve(static_cast<size_t>(n));
      for (int64_t r = 0; r < n; ++r) values.push_back(view[r]);
      projected = Column(column(c).name(), std::move(values));
    }
    Status s = out.AddColumn(std::move(projected));
    LTE_CHECK_MSG(s.ok(), s.ToString().c_str());
  }
  return out;
}

Table Table::SelectRows(const std::vector<int64_t>& rows) const {
  Table out(AttributeNames());
  for (int64_t r : rows) {
    Status s = out.AppendRow(Row(r));
    LTE_CHECK_MSG(s.ok(), s.ToString().c_str());
  }
  return out;
}

Table Table::SnapshotPrefix(int64_t n) const {
  LTE_CHECK_GE(n, 0);
  LTE_CHECK_LE(n, num_rows());
  Table out;
  const int64_t base = std::min<int64_t>(n, base_rows_);
  const std::shared_ptr<const Directory> dir = SnapshotDirectory();
  for (int64_t c = 0; c < num_columns(); ++c) {
    const std::span<const double> base_values = column(c).AsSpan();
    std::vector<double> values(base_values.begin(),
                               base_values.begin() + base);
    values.reserve(static_cast<size_t>(n));
    if (n > base_rows_) {
      for (const ColumnSlice& s : dir->slices[static_cast<size_t>(c)]) {
        const int64_t end = std::min<int64_t>(s.end, n);
        for (int64_t r = s.start; r < end; ++r) {
          values.push_back(s.data[r - s.start]);
        }
        if (end < s.end) break;
      }
    }
    Status st = out.AddColumn(Column(column(c).name(), std::move(values)));
    LTE_CHECK_MSG(st.ok(), st.ToString().c_str());
  }
  return out;
}

}  // namespace lte::data
