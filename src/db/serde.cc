#include "db/serde.h"

#include <cstring>

#include "common/crc32c.h"

namespace orchestra::db {

void PutVarint64(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

size_t VarintLength(uint64_t value) {
  size_t len = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++len;
  }
  return len;
}

Result<uint64_t> GetVarint64(std::string_view data, size_t* pos) {
  uint64_t value = 0;
  int shift = 0;
  while (*pos < data.size()) {
    const uint8_t byte = static_cast<uint8_t>(data[(*pos)++]);
    if (shift >= 64) {
      return Status::Corruption("varint too long");
    }
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  return Status::Corruption("truncated varint");
}

void PutLengthPrefixed(std::string* out, std::string_view value) {
  PutVarint64(out, value.size());
  out->append(value);
}

Result<std::string_view> GetLengthPrefixedView(std::string_view data,
                                               size_t* pos) {
  ORCH_ASSIGN_OR_RETURN(uint64_t len, GetVarint64(data, pos));
  if (len > data.size() - *pos) {  // written to avoid uint64 overflow
    return Status::Corruption("truncated length-prefixed field");
  }
  std::string_view out = data.substr(*pos, len);
  *pos += len;
  return out;
}

Result<std::string> GetLengthPrefixed(std::string_view data, size_t* pos) {
  ORCH_ASSIGN_OR_RETURN(std::string_view view,
                        GetLengthPrefixedView(data, pos));
  return std::string(view);
}

void ValueWriter::PutRaw(std::string_view bytes) {
  size_ += bytes.size();
  if (out_ != nullptr) out_->append(bytes);
}

void ValueWriter::PutByte(uint8_t byte) {
  size_ += 1;
  if (out_ != nullptr) out_->push_back(static_cast<char>(byte));
}

void ValueWriter::PutVarint(uint64_t value) {
  size_ += VarintLength(value);
  if (out_ != nullptr) PutVarint64(out_, value);
}

void ValueWriter::PutString(std::string_view s) {
  for (size_t i = 0; i < strings_.size(); ++i) {
    if (strings_[i] == s) {
      PutVarint((uint64_t{i} << 1) | 1);
      return;
    }
  }
  strings_.push_back(s);
  PutVarint(uint64_t{s.size()} << 1);
  PutRaw(s);
}

void ValueWriter::PutValue(const Value& value) {
  PutByte(static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64: {
      // Zigzag so negative values stay short.
      const int64_t v = value.AsInt64();
      PutVarint((static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63));
      break;
    }
    case ValueType::kDouble: {
      const double d = value.AsDouble();
      char buf[8];
      std::memcpy(buf, &d, sizeof(buf));
      PutRaw(std::string_view(buf, sizeof(buf)));
      break;
    }
    case ValueType::kString:
      PutString(value.AsString());
      break;
  }
}

void ValueWriter::PutTuple(const Tuple& tuple) {
  PutVarint(tuple.size());
  for (const Value& v : tuple.values()) PutValue(v);
}

Result<uint8_t> ValueReader::GetByte() {
  if (*pos_ >= data_.size()) return Status::Corruption("truncated byte");
  return static_cast<uint8_t>(data_[(*pos_)++]);
}

Result<uint64_t> ValueReader::GetVarint() { return GetVarint64(data_, pos_); }

Result<std::string_view> ValueReader::GetString() {
  ORCH_ASSIGN_OR_RETURN(uint64_t ref, GetVarint());
  if ((ref & 1) != 0) {
    const uint64_t index = ref >> 1;
    if (index >= strings_.size()) {
      return Status::Corruption("string back-reference " +
                                std::to_string(index) + " past a table of " +
                                std::to_string(strings_.size()));
    }
    return strings_[index];
  }
  const uint64_t len = ref >> 1;
  if (len > remaining()) {
    return Status::Corruption("string literal length " + std::to_string(len) +
                              " exceeds the remaining input");
  }
  const std::string_view literal = data_.substr(*pos_, len);
  *pos_ += len;
  strings_.push_back(literal);
  return literal;
}

Result<Value> ValueReader::GetValue() {
  ORCH_ASSIGN_OR_RETURN(uint8_t tag, GetByte());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt64: {
      ORCH_ASSIGN_OR_RETURN(uint64_t zz, GetVarint());
      return Value(static_cast<int64_t>(zz >> 1) ^
                   -static_cast<int64_t>(zz & 1));
    }
    case ValueType::kDouble: {
      if (remaining() < 8) return Status::Corruption("truncated double");
      double d;
      std::memcpy(&d, data_.data() + *pos_, sizeof(d));
      *pos_ += 8;
      return Value(d);
    }
    case ValueType::kString: {
      ORCH_ASSIGN_OR_RETURN(std::string_view s, GetString());
      return Value(std::string(s));
    }
  }
  return Status::Corruption("unknown value type tag " + std::to_string(tag));
}

Result<Tuple> ValueReader::GetTuple() {
  ORCH_ASSIGN_OR_RETURN(uint64_t count, GetVarint());
  // Every value occupies at least one byte; a larger count is corrupt
  // input (and must not drive an allocation).
  if (count > remaining()) {
    return Status::Corruption("tuple arity " + std::to_string(count) +
                              " exceeds the remaining input");
  }
  std::vector<Value> values;
  values.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ORCH_ASSIGN_OR_RETURN(Value v, GetValue());
    values.push_back(std::move(v));
  }
  return Tuple(std::move(values));
}

namespace {

/// Varint read that tells a cut-short buffer (kOutOfRange: more bytes
/// might complete it) apart from an over-long encoding (kCorruption).
/// GetVarint64 collapses both into kCorruption, which is right for
/// whole-buffer decodes but loses the torn-tail distinction the WAL
/// replay path depends on.
Result<uint64_t> ReadEnvelopeVarint(std::string_view data, size_t* pos) {
  uint64_t value = 0;
  int shift = 0;
  while (*pos < data.size()) {
    const uint8_t byte = static_cast<uint8_t>(data[(*pos)++]);
    if (shift >= 64) return Status::Corruption("envelope varint too long");
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  return Status::OutOfRange("envelope length cut short");
}

uint32_t ReadCrcLE(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

}  // namespace

Result<std::string_view> ReadEnvelope(std::string_view data, size_t* pos) {
  if (*pos + 3 > data.size()) {
    return Status::OutOfRange("envelope header cut short");
  }
  if (data[*pos] != kEnvelopeMagic0 || data[*pos + 1] != kEnvelopeMagic1) {
    return Status::Corruption("bad envelope magic");
  }
  if (data[*pos + 2] != kEnvelopeVersion) {
    return Status::Corruption(
        "unsupported envelope version " +
        std::to_string(static_cast<int>(
            static_cast<uint8_t>(data[*pos + 2]))));
  }
  size_t cursor = *pos + 3;
  ORCH_ASSIGN_OR_RETURN(uint64_t len, ReadEnvelopeVarint(data, &cursor));
  if (len > data.size() - cursor || data.size() - cursor - len < 4) {
    return Status::OutOfRange("envelope payload cut short");
  }
  const uint32_t stored = ReadCrcLE(data.data() + cursor);
  cursor += 4;
  std::string_view payload = data.substr(cursor, len);
  if (stored != Crc32c(0, payload)) {
    return Status::Corruption("envelope checksum mismatch");
  }
  *pos = cursor + len;
  return payload;
}

size_t EnvelopeOverhead(size_t payload_len) {
  return 3 + VarintLength(payload_len) + 4;
}

void WrapEnvelope(std::string* out, std::string_view payload) {
  out->reserve(out->size() + EnvelopeOverhead(payload.size()) +
               payload.size());
  out->push_back(kEnvelopeMagic0);
  out->push_back(kEnvelopeMagic1);
  out->push_back(kEnvelopeVersion);
  PutVarint64(out, payload.size());
  const uint32_t crc = Crc32c(0, payload);
  out->push_back(static_cast<char>(crc & 0xFF));
  out->push_back(static_cast<char>((crc >> 8) & 0xFF));
  out->push_back(static_cast<char>((crc >> 16) & 0xFF));
  out->push_back(static_cast<char>((crc >> 24) & 0xFF));
  out->append(payload);
}

Result<std::string_view> UnwrapEnvelope(std::string_view data) {
  size_t pos = 0;
  auto payload = ReadEnvelope(data, &pos);
  if (!payload.ok()) {
    // A whole-buffer unwrap has no "more bytes coming" case: a cut-short
    // frame here is corruption of a stored value, not a torn tail.
    if (payload.status().code() == StatusCode::kOutOfRange) {
      return Status::Corruption("truncated envelope: " +
                                payload.status().message());
    }
    return payload.status();
  }
  if (pos != data.size()) {
    return Status::Corruption("trailing bytes after envelope");
  }
  return payload;
}

}  // namespace orchestra::db
