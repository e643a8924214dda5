#ifndef ORCHESTRA_DB_SERDE_H_
#define ORCHESTRA_DB_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/tuple.h"
#include "db/value.h"

namespace orchestra::db {

/// Binary encoding for db values/tuples. Used by the WAL (durability of
/// the central store) and by the simulated network to account message
/// sizes. The format is length-prefixed and self-describing:
///   varint  LEB128 unsigned
///   value   [type:1 byte][payload]
///   tuple   [varint count][value...]
///
/// Two decode paths share one set of parsers: the *copying* decoders
/// return owning Value/Tuple objects, and the *zero-copy* decoders
/// return string_view slices over the input buffer (valid only while
/// the buffer outlives them). The copying path is implemented on top of
/// the zero-copy one, so the two cannot disagree about the format.

/// Appends a LEB128-encoded unsigned integer to `out`.
void PutVarint64(std::string* out, uint64_t value);

/// Number of bytes PutVarint64 would append for `value`.
size_t VarintLength(uint64_t value);

/// Reads a varint from data[*pos...], advancing *pos.
Result<uint64_t> GetVarint64(std::string_view data, size_t* pos);

/// Appends a length-prefixed string.
void PutLengthPrefixed(std::string* out, std::string_view value);
Result<std::string> GetLengthPrefixed(std::string_view data, size_t* pos);

/// Zero-copy variant: the returned view aliases `data` and is valid
/// only while the underlying buffer is.
Result<std::string_view> GetLengthPrefixedView(std::string_view data,
                                               size_t* pos);

void EncodeValue(std::string* out, const Value& value);
Result<Value> DecodeValue(std::string_view data, size_t* pos);

/// A decoded value whose string payload (if any) aliases the input
/// buffer instead of owning a copy. Convert with ToValue() only where
/// an owning Value is actually needed.
struct ValueView {
  ValueType type = ValueType::kNull;
  int64_t i64 = 0;
  double f64 = 0;
  std::string_view str;

  Value ToValue() const;
};

Result<ValueView> DecodeValueView(std::string_view data, size_t* pos);

void EncodeTuple(std::string* out, const Tuple& tuple);
Result<Tuple> DecodeTuple(std::string_view data, size_t* pos);

/// Zero-copy tuple decode: appends one ValueView per attribute to
/// `out` (cleared first). Views alias `data`.
Status DecodeTupleView(std::string_view data, size_t* pos,
                       std::vector<ValueView>* out);

/// Size in bytes of the encoded value/tuple, computed arithmetically —
/// no encoding is materialized. Used by the simulated network for
/// message accounting on the reconciliation hot path.
size_t EncodedValueSize(const Value& value);
size_t EncodedTupleSize(const Tuple& tuple);

/// --- Integrity envelope ------------------------------------------------
///
/// A length+CRC32C frame wrapped around every payload the system stores
/// or ships: WAL records, staged/committed publish rows, DHT replica
/// values, and simulated network payloads. Layout:
///
///   [magic 0xC6][magic 0x32][version 0x01]
///   [varint payload_len][crc32c 4B little-endian][payload]
///
/// The checksum covers the payload bytes only; length and checksum
/// together detect truncation, bit flips, and torn writes. The version
/// byte leaves room for future framings; the two magic bytes make the
/// frame self-identifying, which lets the WAL resync at the next record
/// after a corrupt one. Every reader requires the frame and verifies
/// the checksum: there is no unframed or unverified read.

inline constexpr char kEnvelopeMagic0 = static_cast<char>(0xC6);
inline constexpr char kEnvelopeMagic1 = static_cast<char>(0x32);
inline constexpr char kEnvelopeVersion = 0x01;

/// Bytes of framing overhead for a payload of `payload_len` bytes.
size_t EnvelopeOverhead(size_t payload_len);

/// Appends the envelope frame for `payload` to `out`.
void WrapEnvelope(std::string* out, std::string_view payload);

/// Verifies the frame occupying the whole of `data` and returns a view
/// of the payload (aliasing `data`). kCorruption on bad magic/version/
/// checksum, length mismatch, trailing garbage, or a buffer that is not
/// framed at all.
Result<std::string_view> UnwrapEnvelope(std::string_view data);

/// Streaming variant for concatenated frames (the WAL): reads one
/// envelope at data[*pos...], advancing *pos past it. kOutOfRange when
/// the frame is cut short by the end of the buffer (a torn tail — the
/// bytes so far are a valid prefix), kCorruption when the bytes are
/// inconsistent with any frame (bad magic/version/checksum).
Result<std::string_view> ReadEnvelope(std::string_view data, size_t* pos);

}  // namespace orchestra::db

#endif  // ORCHESTRA_DB_SERDE_H_
