#include "common/binary_io.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace lte {

namespace {

/// Bytes a reader commits ahead of the stream: the first reserve is
/// min(n, chunk) elements, so a sequence below the chunk allocates exactly
/// once and a corrupt length costs at most one chunk before the read fails.
constexpr uint64_t kReadChunkBytes = uint64_t{1} << 20;

}  // namespace

void BinaryWriter::WriteU64(uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out_->write(buf, 8);
}

void BinaryWriter::WriteI64(int64_t v) {
  WriteU64(static_cast<uint64_t>(v));
}

void BinaryWriter::WriteDouble(double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out_->write(buf, 8);
}

void BinaryWriter::WriteBool(bool v) { WriteU64(v ? 1 : 0); }

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  out_->write(s.data(), static_cast<std::streamsize>(s.size()));
}

void BinaryWriter::WriteDoubleVector(const std::vector<double>& v) {
  WriteU64(v.size());
  for (double x : v) WriteDouble(x);
}

void BinaryWriter::WriteI64Vector(const std::vector<int64_t>& v) {
  WriteU64(v.size());
  for (int64_t x : v) WriteI64(x);
}

void BinaryWriter::WritePointSet(
    const std::vector<std::vector<double>>& points) {
  WriteU64(points.size());
  for (const auto& p : points) WriteDoubleVector(p);
}

Status BinaryWriter::status() const {
  return out_->good() ? Status::OK() : Status::IoError("binary write failed");
}

uint64_t Fnv1a64(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis.
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001B3ULL;  // FNV prime.
  }
  return h;
}

Status BinaryReader::ReadBytes(void* dst, size_t n) {
  in_->read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (static_cast<size_t>(in_->gcount()) != n) {
    return Status::IoError("binary read: unexpected end of stream");
  }
  return Status::OK();
}

Status BinaryReader::ReadU64(uint64_t* v) { return ReadBytes(v, 8); }

Status BinaryReader::ReadI64(int64_t* v) {
  uint64_t u = 0;
  LTE_RETURN_IF_ERROR(ReadU64(&u));
  *v = static_cast<int64_t>(u);
  return Status::OK();
}

Status BinaryReader::ReadDouble(double* v) { return ReadBytes(v, 8); }

Status BinaryReader::ReadBool(bool* v) {
  uint64_t u = 0;
  LTE_RETURN_IF_ERROR(ReadU64(&u));
  if (u > 1) return Status::IoError("binary read: invalid bool");
  *v = u == 1;
  return Status::OK();
}

template <typename Container>
Status BinaryReader::ReadChunked(uint64_t n, Container* out) {
  using T = typename Container::value_type;
  constexpr uint64_t kChunk = kReadChunkBytes / sizeof(T);
  out->clear();
  out->reserve(static_cast<size_t>(std::min(n, kChunk)));
  while (out->size() < n) {
    const size_t done = out->size();
    const size_t k = static_cast<size_t>(std::min<uint64_t>(n - done, kChunk));
    out->resize(done + k);
    LTE_RETURN_IF_ERROR(ReadBytes(out->data() + done, k * sizeof(T)));
  }
  return Status::OK();
}

Status BinaryReader::ReadString(std::string* s) {
  uint64_t n = 0;
  LTE_RETURN_IF_ERROR(ReadU64(&n));
  if (n > kMaxSerializedCount) {
    return Status::IoError("binary read: implausible string length");
  }
  return ReadChunked(n, s);
}

Status BinaryReader::ReadDoubleVector(std::vector<double>* v) {
  uint64_t n = 0;
  LTE_RETURN_IF_ERROR(ReadU64(&n));
  if (n > kMaxSerializedCount) {
    return Status::IoError("binary read: implausible vector length");
  }
  return ReadChunked(n, v);
}

Status BinaryReader::ReadI64Vector(std::vector<int64_t>* v) {
  uint64_t n = 0;
  LTE_RETURN_IF_ERROR(ReadU64(&n));
  if (n > kMaxSerializedCount) {
    return Status::IoError("binary read: implausible vector length");
  }
  return ReadChunked(n, v);
}

Status BinaryReader::ReadPointSet(std::vector<std::vector<double>>* points) {
  uint64_t n = 0;
  LTE_RETURN_IF_ERROR(ReadU64(&n));
  if (n > kMaxSerializedCount) {
    return Status::IoError("binary read: implausible point-set size");
  }
  constexpr uint64_t kChunk = kReadChunkBytes / sizeof(std::vector<double>);
  points->clear();
  points->reserve(static_cast<size_t>(std::min(n, kChunk)));
  for (uint64_t i = 0; i < n; ++i) {
    LTE_RETURN_IF_ERROR(ReadDoubleVector(&points->emplace_back()));
  }
  return Status::OK();
}

}  // namespace lte
