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

void EncodeValue(std::string* out, const Value& value) {
  out->push_back(static_cast<char>(value.type()));
  switch (value.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64: {
      // Zigzag so negative values stay short.
      const int64_t v = value.AsInt64();
      PutVarint64(out, (static_cast<uint64_t>(v) << 1) ^
                           static_cast<uint64_t>(v >> 63));
      break;
    }
    case ValueType::kDouble: {
      const double d = value.AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      char buf[8];
      std::memcpy(buf, &bits, sizeof(bits));
      out->append(buf, sizeof(buf));
      break;
    }
    case ValueType::kString:
      PutLengthPrefixed(out, value.AsString());
      break;
  }
}

Value ValueView::ToValue() const {
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt64:
      return Value(i64);
    case ValueType::kDouble:
      return Value(f64);
    case ValueType::kString:
      return Value(std::string(str));
  }
  return Value::Null();
}

Result<ValueView> DecodeValueView(std::string_view data, size_t* pos) {
  if (*pos >= data.size()) return Status::Corruption("truncated value tag");
  ValueView view;
  view.type = static_cast<ValueType>(data[(*pos)++]);
  switch (view.type) {
    case ValueType::kNull:
      return view;
    case ValueType::kInt64: {
      ORCH_ASSIGN_OR_RETURN(uint64_t zz, GetVarint64(data, pos));
      view.i64 = static_cast<int64_t>(zz >> 1) ^ -static_cast<int64_t>(zz & 1);
      return view;
    }
    case ValueType::kDouble: {
      if (*pos + 8 > data.size()) {
        return Status::Corruption("truncated double");
      }
      uint64_t bits;
      std::memcpy(&bits, data.data() + *pos, sizeof(bits));
      *pos += 8;
      std::memcpy(&view.f64, &bits, sizeof(view.f64));
      return view;
    }
    case ValueType::kString: {
      ORCH_ASSIGN_OR_RETURN(view.str, GetLengthPrefixedView(data, pos));
      return view;
    }
  }
  return Status::Corruption("unknown value type tag");
}

Result<Value> DecodeValue(std::string_view data, size_t* pos) {
  ORCH_ASSIGN_OR_RETURN(ValueView view, DecodeValueView(data, pos));
  return view.ToValue();
}

void EncodeTuple(std::string* out, const Tuple& tuple) {
  out->reserve(out->size() + EncodedTupleSize(tuple));
  PutVarint64(out, tuple.size());
  for (const Value& v : tuple.values()) EncodeValue(out, v);
}

Status DecodeTupleView(std::string_view data, size_t* pos,
                       std::vector<ValueView>* out) {
  out->clear();
  ORCH_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(data, pos));
  // Every value occupies at least one byte; a larger count is corrupt
  // input (and must not drive an allocation).
  if (count > data.size() - *pos) {
    return Status::Corruption("tuple arity " + std::to_string(count) +
                              " exceeds the remaining input");
  }
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ORCH_ASSIGN_OR_RETURN(ValueView v, DecodeValueView(data, pos));
    out->push_back(v);
  }
  return Status::OK();
}

Result<Tuple> DecodeTuple(std::string_view data, size_t* pos) {
  ORCH_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(data, pos));
  if (count > data.size() - *pos) {
    return Status::Corruption("tuple arity " + std::to_string(count) +
                              " exceeds the remaining input");
  }
  std::vector<Value> values;
  values.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ORCH_ASSIGN_OR_RETURN(ValueView v, DecodeValueView(data, pos));
    values.push_back(v.ToValue());
  }
  return Tuple(std::move(values));
}

size_t EncodedValueSize(const Value& value) {
  switch (value.type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kInt64: {
      const int64_t v = value.AsInt64();
      return 1 + VarintLength((static_cast<uint64_t>(v) << 1) ^
                              static_cast<uint64_t>(v >> 63));
    }
    case ValueType::kDouble:
      return 1 + 8;
    case ValueType::kString: {
      const size_t len = value.AsString().size();
      return 1 + VarintLength(len) + len;
    }
  }
  return 1;
}

size_t EncodedTupleSize(const Tuple& tuple) {
  size_t size = VarintLength(tuple.size());
  for (const Value& v : tuple.values()) size += EncodedValueSize(v);
  return size;
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
