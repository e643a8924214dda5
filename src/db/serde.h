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

/// Binary encoding primitives shared by every on-disk and on-wire format:
///   varint            LEB128 unsigned
///   length-prefixed   [varint len][len bytes]
/// and, on top of them, the value/tuple layer of the transaction codec
/// (core::EncodeTransaction), written through a ValueWriter and read
/// back through a ValueReader:
///   string ref  [varint len << 1][len bytes]   a literal: the string's
///                                              first appearance, which
///                                              becomes the next entry of
///                                              the string table
///               [varint n << 1 | 1]            entry n of the table
///   value       [type:1 byte][payload]         int64: zigzag varint;
///                                              double: 8 bytes; string:
///                                              a string ref
///   tuple       [varint count][value...]
/// The string table is scoped to one writer (one transaction), so a
/// relation name or a string value repeated across its updates is
/// written once. A reader appends every literal it reads to its table;
/// a writer back-references only strings it wrote earlier.

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

/// Writes the value/tuple layer above, in one of two modes that share
/// every line of the writer: append mode adds the bytes to a string,
/// count mode only counts them. Sizing a body is therefore encoding it
/// without the output, and the two cannot disagree.
///
/// The string table is a flat list of views of the strings written so
/// far, searched linearly: a transaction holds few distinct strings, and
/// the count pass runs for every body a store ships, so it must not
/// allocate a hash map. Every string passed in must outlive the writer.
class ValueWriter {
 public:
  /// Count mode: writes nothing; size() is what append mode would append.
  ValueWriter() = default;
  /// Append mode: appends to *out.
  explicit ValueWriter(std::string* out) : out_(out) {}

  void PutByte(uint8_t byte);
  void PutVarint(uint64_t value);
  /// A string ref: a back-reference if `s` was written before, else a
  /// literal.
  void PutString(std::string_view s);
  void PutValue(const Value& value);
  void PutTuple(const Tuple& tuple);

  /// Bytes written (or counted) so far.
  size_t size() const { return size_; }

 private:
  void PutRaw(std::string_view bytes);

  std::string* out_ = nullptr;
  size_t size_ = 0;
  std::vector<std::string_view> strings_;
};

/// Reads what a ValueWriter wrote, from data[*pos...], advancing *pos.
/// Every malformed input (a truncation, an unknown type tag, a
/// back-reference past the table, a length or count past the end of the
/// buffer) is kCorruption; no count read from the input drives an
/// allocation larger than the input could fill.
class ValueReader {
 public:
  ValueReader(std::string_view data, size_t* pos) : data_(data), pos_(pos) {}

  Result<uint8_t> GetByte();
  Result<uint64_t> GetVarint();
  /// The view aliases the input buffer (a back-reference yields the view
  /// of its literal), valid only while that buffer is.
  Result<std::string_view> GetString();
  Result<Value> GetValue();
  Result<Tuple> GetTuple();

  /// Unread bytes of the input.
  size_t remaining() const { return data_.size() - *pos_; }

 private:
  std::string_view data_;
  size_t* pos_;
  std::vector<std::string_view> strings_;
};

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
