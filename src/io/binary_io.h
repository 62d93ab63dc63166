#ifndef STREAMAD_IO_BINARY_IO_H_
#define STREAMAD_IO_BINARY_IO_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "src/linalg/matrix.h"

namespace streamad::io {

/// Little binary archive writer used for model checkpoints.
///
/// The format is a flat little-endian byte stream with no padding:
/// integers as fixed-width u64/i64, doubles as IEEE-754 bits, strings and
/// containers length-prefixed. Every checkpoint opens with a magic tag and
/// a version so loaders can reject foreign data (see `Model::SaveState`).
/// I/O failures are environmental, not programming errors: the writer
/// carries an `ok()` flag instead of CHECK-ing.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream* out);

  void WriteU8(std::uint8_t value);
  void WriteU32(std::uint32_t value);
  void WriteU64(std::uint64_t value);
  void WriteI64(std::int64_t value);
  void WriteDouble(double value);
  void WriteString(const std::string& value);
  void WriteDoubleVec(std::span<const double> value);
  void WriteIntVec(const std::vector<int>& value);
  void WriteMatrix(const linalg::Matrix& value);

  /// False once any write failed; subsequent writes are no-ops.
  bool ok() const { return ok_; }

 private:
  void WriteBytes(const void* data, std::size_t size);

  std::ostream* out_;
  bool ok_ = true;
};

/// Counterpart reader. Every `Read*` returns false (and poisons the
/// reader) on EOF, short reads or absurd sizes; callers bail out on the
/// first failure. Containers grow as their bytes arrive, so a garbage
/// length prefix costs at most one `kReadChunkBytes` beyond the input.
class BinaryReader {
 public:
  explicit BinaryReader(std::istream* in);

  bool ReadU8(std::uint8_t* value);
  bool ReadU32(std::uint32_t* value);
  bool ReadU64(std::uint64_t* value);
  bool ReadI64(std::int64_t* value);
  bool ReadDouble(double* value);
  bool ReadString(std::string* value);
  bool ReadDoubleVec(std::vector<double>* value);
  /// Reads one `WriteDoubleVec` record and appends its elements to
  /// `*value`, keeping what it already held; `*size` receives the
  /// record's length. Lets a loader stage many rows in one buffer.
  bool AppendDoubleVec(std::vector<double>* value, std::uint64_t* size);
  bool ReadIntVec(std::vector<int>* value);
  bool ReadMatrix(linalg::Matrix* value);

  /// Convenience: reads a string and compares against `expected`.
  bool ExpectString(const std::string& expected);

  bool ok() const { return ok_; }

  /// Upper bound on any single container's length prefix.
  static constexpr std::uint64_t kMaxElements = 1ull << 28;
  /// Most bytes a container grows by ahead of the data that fills them.
  static constexpr std::size_t kReadChunkBytes = 256u << 10;

 private:
  bool ReadBytes(void* data, std::size_t size);
  /// Reads a container length prefix; false above `kMaxElements`.
  bool ReadLength(std::uint64_t* count);
  /// Appends `count` raw elements to `*value`, one chunk per read.
  template <typename Container>
  bool AppendChunked(Container* value, std::uint64_t count);

  std::istream* in_;
  bool ok_ = true;
};

}  // namespace streamad::io

#endif  // STREAMAD_IO_BINARY_IO_H_
