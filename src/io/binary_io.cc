#include "src/io/binary_io.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

namespace streamad::io {

BinaryWriter::BinaryWriter(std::ostream* out) : out_(out) {
  STREAMAD_CHECK(out != nullptr);
}

void BinaryWriter::WriteBytes(const void* data, std::size_t size) {
  if (!ok_) return;
  out_->write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  ok_ = static_cast<bool>(*out_);
}

void BinaryWriter::WriteU8(std::uint8_t value) {
  WriteBytes(&value, sizeof(value));
}

void BinaryWriter::WriteU32(std::uint32_t value) {
  WriteBytes(&value, sizeof(value));
}

void BinaryWriter::WriteU64(std::uint64_t value) {
  WriteBytes(&value, sizeof(value));
}

void BinaryWriter::WriteI64(std::int64_t value) {
  WriteBytes(&value, sizeof(value));
}

void BinaryWriter::WriteDouble(double value) {
  WriteBytes(&value, sizeof(value));
}

void BinaryWriter::WriteString(const std::string& value) {
  WriteU64(value.size());
  WriteBytes(value.data(), value.size());
}

void BinaryWriter::WriteDoubleVec(std::span<const double> value) {
  WriteU64(value.size());
  WriteBytes(value.data(), value.size() * sizeof(double));
}

void BinaryWriter::WriteIntVec(const std::vector<int>& value) {
  WriteU64(value.size());
  for (int v : value) WriteI64(v);
}

void BinaryWriter::WriteMatrix(const linalg::Matrix& value) {
  WriteU64(value.rows());
  WriteU64(value.cols());
  WriteBytes(value.data().data(), value.size() * sizeof(double));
}

BinaryReader::BinaryReader(std::istream* in) : in_(in) {
  STREAMAD_CHECK(in != nullptr);
}

bool BinaryReader::ReadBytes(void* data, std::size_t size) {
  if (!ok_) return false;
  in_->read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  ok_ = static_cast<bool>(*in_);
  return ok_;
}

bool BinaryReader::ReadLength(std::uint64_t* count) {
  if (ReadU64(count) && *count <= kMaxElements) return true;
  ok_ = false;
  return false;
}

template <typename Container>
bool BinaryReader::AppendChunked(Container* value, std::uint64_t count) {
  using Element = typename Container::value_type;
  constexpr std::size_t kChunk = kReadChunkBytes / sizeof(Element);
  const std::size_t end = value->size() + count;
  while (value->size() < end) {
    const std::size_t at = value->size();
    const std::size_t n = std::min(end - at, kChunk);
    value->resize(at + n);
    if (!ReadBytes(value->data() + at, n * sizeof(Element))) return false;
  }
  return true;
}

bool BinaryReader::ReadU8(std::uint8_t* value) {
  STREAMAD_CHECK(value != nullptr);
  return ReadBytes(value, sizeof(*value));
}

bool BinaryReader::ReadU32(std::uint32_t* value) {
  STREAMAD_CHECK(value != nullptr);
  return ReadBytes(value, sizeof(*value));
}

bool BinaryReader::ReadU64(std::uint64_t* value) {
  STREAMAD_CHECK(value != nullptr);
  return ReadBytes(value, sizeof(*value));
}

bool BinaryReader::ReadI64(std::int64_t* value) {
  STREAMAD_CHECK(value != nullptr);
  return ReadBytes(value, sizeof(*value));
}

bool BinaryReader::ReadDouble(double* value) {
  STREAMAD_CHECK(value != nullptr);
  return ReadBytes(value, sizeof(*value));
}

bool BinaryReader::ReadString(std::string* out) {
  STREAMAD_CHECK(out != nullptr);
  std::uint64_t size = 0;
  if (!ReadLength(&size)) return false;
  out->clear();
  return AppendChunked(out, size);
}

bool BinaryReader::ReadDoubleVec(std::vector<double>* out) {
  STREAMAD_CHECK(out != nullptr);
  out->clear();
  std::uint64_t size = 0;
  return AppendDoubleVec(out, &size);
}

bool BinaryReader::AppendDoubleVec(std::vector<double>* value,
                                   std::uint64_t* size) {
  STREAMAD_CHECK(value != nullptr && size != nullptr);
  return ReadLength(size) && AppendChunked(value, *size);
}

bool BinaryReader::ReadIntVec(std::vector<int>* out) {
  STREAMAD_CHECK(out != nullptr);
  std::uint64_t size = 0;
  if (!ReadLength(&size)) return false;
  std::vector<std::int64_t> wide;
  if (!AppendChunked(&wide, size)) return false;
  out->assign(wide.begin(), wide.end());  // written as i64 from int
  return true;
}

bool BinaryReader::ReadMatrix(linalg::Matrix* value) {
  STREAMAD_CHECK(value != nullptr);
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  if (!ReadU64(&rows) || !ReadU64(&cols)) return false;
  if (rows > kMaxElements || cols > kMaxElements ||
      (rows != 0 && cols > kMaxElements / rows)) {
    ok_ = false;
    return false;
  }
  std::vector<double> flat;
  if (!AppendChunked(&flat, rows * cols)) return false;
  *value = linalg::Matrix::FromFlat(rows, cols, std::move(flat));
  return true;
}

bool BinaryReader::ExpectString(const std::string& expected) {
  std::string actual;
  if (!ReadString(&actual)) return false;
  if (actual != expected) {
    ok_ = false;
    return false;
  }
  return true;
}

}  // namespace streamad::io
