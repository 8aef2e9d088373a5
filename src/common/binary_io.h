#ifndef LTE_COMMON_BINARY_IO_H_
#define LTE_COMMON_BINARY_IO_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace lte {

/// Little-endian binary serialization helpers used by the model-persistence
/// layer (core/serialization.h). Writers are infallible until the final
/// `status()` check (stream errors are sticky); readers return Status so a
/// truncated or corrupted file surfaces as a clean error instead of garbage
/// state.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream* out) : out_(out) {}

  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteDouble(double v);
  void WriteBool(bool v);
  void WriteString(const std::string& s);
  void WriteDoubleVector(const std::vector<double>& v);
  void WriteI64Vector(const std::vector<int64_t>& v);
  /// Vector of equally important rows (e.g. cluster centers).
  void WritePointSet(const std::vector<std::vector<double>>& points);

  /// OK while every write so far succeeded.
  Status status() const;

 private:
  std::ostream* out_;
};

/// FNV-1a 64-bit hash of a byte buffer. Used as the model content
/// fingerprint stamped into saved sessions (see exploration_model.h):
/// fast, dependency-free, stable across hosts, and good enough to make an
/// accidental stale-session/refreshed-model collision vanishingly unlikely
/// (this is an integrity check, not a cryptographic commitment).
uint64_t Fnv1a64(const void* data, size_t size);

/// Largest element count a reader accepts for a length-prefixed sequence;
/// a larger count is corruption and fails before anything is allocated.
/// Below it, readers grow their output in bounded chunks as the stream
/// yields elements, so a corrupt count runs into the end of the stream
/// instead of allocating the declared length up front.
inline constexpr uint64_t kMaxSerializedCount = uint64_t{1} << 32;

class BinaryReader {
 public:
  explicit BinaryReader(std::istream* in) : in_(in) {}

  Status ReadU64(uint64_t* v);
  Status ReadI64(int64_t* v);
  Status ReadDouble(double* v);
  Status ReadBool(bool* v);
  Status ReadString(std::string* s);
  Status ReadDoubleVector(std::vector<double>* v);
  Status ReadI64Vector(std::vector<int64_t>* v);
  Status ReadPointSet(std::vector<std::vector<double>>* points);

 private:
  Status ReadBytes(void* dst, size_t n);
  /// Reads `n` trivially copyable elements into `*out` (a vector or string),
  /// growing it one bounded chunk at a time.
  template <typename Container>
  Status ReadChunked(uint64_t n, Container* out);

  std::istream* in_;
};

}  // namespace lte

#endif  // LTE_COMMON_BINARY_IO_H_
