// Robustness fuzz for the wire format: random values and transactions
// round-trip exactly, the count pass sizes every encoding to the byte,
// and garbage or cut-short input never crashes the decoders — they fail
// with kCorruption (or, for garbage, rarely decode to *something*; the
// requirement is memory safety plus bounded position advance).
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/transaction.h"
#include "db/serde.h"
#include "test_util.h"

namespace orchestra::db {
namespace {

Value RandomValue(Rng& rng) {
  switch (rng.NextBounded(5)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(static_cast<int64_t>(rng.Next()));
    case 2:
      return Value(rng.NextDouble() * 1e12 - 5e11);
    case 3: {
      std::string s;
      const size_t len = rng.NextBounded(40);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng.NextBounded(256)));
      }
      return Value(std::move(s));
    }
    default:
      return Value(static_cast<int64_t>(rng.NextBounded(100)) - 50);
  }
}

Tuple RandomTuple(Rng& rng, size_t max_arity = 6) {
  std::vector<Value> values;
  const size_t arity = rng.NextBounded(max_arity + 1);
  for (size_t i = 0; i < arity; ++i) values.push_back(RandomValue(rng));
  return Tuple(std::move(values));
}

/// A tuple whose strings come from a small pool, so they repeat within
/// and across the updates of one transaction, mixed with random values
/// (NULL, ints, doubles, fresh strings); sometimes empty.
Tuple RepetitiveTuple(Rng& rng) {
  static const char* const kPool[] = {"rat", "P53", "", "immune",
                                      "Homo sapiens"};
  std::vector<Value> values;
  const size_t arity = rng.NextBounded(5);
  for (size_t i = 0; i < arity; ++i) {
    if (rng.NextBool(0.5)) {
      values.emplace_back(kPool[rng.NextBounded(5)]);
    } else {
      values.push_back(RandomValue(rng));
    }
  }
  return Tuple(std::move(values));
}

core::Transaction RandomTransaction(Rng& rng) {
  static const char* const kRelations[] = {"F", "CrossRef", "Function"};
  core::Transaction txn;
  txn.id = {static_cast<core::ParticipantId>(rng.NextBounded(100)),
            rng.NextBounded(1000)};
  txn.epoch = static_cast<core::Epoch>(rng.NextBounded(10000)) - 1;
  const size_t n_updates = rng.NextBounded(8);
  for (size_t u = 0; u < n_updates; ++u) {
    // Half the updates carry the transaction's own origin, whose varint
    // the codec leaves out; the rest are foreign.
    const auto origin =
        rng.NextBool(0.5)
            ? txn.id.origin
            : static_cast<core::ParticipantId>(rng.NextBounded(1000));
    const std::string relation = kRelations[rng.NextBounded(3)];
    switch (rng.NextBounded(3)) {
      case 0:
        txn.updates.push_back(
            core::Update::Insert(relation, RepetitiveTuple(rng), origin));
        break;
      case 1:
        txn.updates.push_back(
            core::Update::Delete(relation, RepetitiveTuple(rng), origin));
        break;
      default:
        txn.updates.push_back(core::Update::Modify(
            relation, RepetitiveTuple(rng), RepetitiveTuple(rng), origin));
    }
  }
  const size_t n_antes = rng.NextBounded(4);
  for (size_t a = 0; a < n_antes; ++a) {
    txn.antecedents.push_back(
        {static_cast<core::ParticipantId>(rng.NextBounded(1000)),
         rng.NextBounded(1u << 20)});
  }
  return txn;
}

class SerdeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerdeFuzzTest, RandomTuplesRoundTrip) {
  // One writer and one reader for the whole run: later tuples lean on
  // strings the table took from earlier ones.
  Rng rng(GetParam());
  std::vector<Tuple> tuples;
  tuples.reserve(500);  // the writer's table holds views into them
  std::string buf;
  ValueWriter w(&buf);
  for (int i = 0; i < 500; ++i) {
    tuples.push_back(rng.NextBool(0.5) ? RandomTuple(rng)
                                       : RepetitiveTuple(rng));
    w.PutTuple(tuples.back());
  }
  EXPECT_EQ(w.size(), buf.size());
  size_t pos = 0;
  ValueReader r(buf, &pos);
  for (const Tuple& t : tuples) {
    auto decoded = r.GetTuple();
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, t);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST_P(SerdeFuzzTest, RandomTransactionsRoundTrip) {
  Rng rng(GetParam() + 500);
  for (int i = 0; i < 300; ++i) {
    const core::Transaction txn = RandomTransaction(rng);
    std::string buf;
    core::EncodeTransaction(&buf, txn);
    EXPECT_EQ(core::EncodedTransactionSize(txn), buf.size());
    size_t pos = 0;
    auto decoded = core::DecodeTransaction(buf, &pos);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(pos, buf.size());
    EXPECT_EQ(decoded->id, txn.id);
    EXPECT_EQ(decoded->epoch, txn.epoch);
    EXPECT_EQ(decoded->updates, txn.updates);
    EXPECT_EQ(decoded->antecedents, txn.antecedents);
    // The header prefix reads the same fields without the body.
    pos = 0;
    auto header = core::DecodeTransactionHeader(buf, &pos);
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header->id, txn.id);
    EXPECT_EQ(header->epoch, txn.epoch);
  }
}

TEST_P(SerdeFuzzTest, GarbageNeverCrashesDecoders) {
  Rng rng(GetParam() + 1000);
  for (int i = 0; i < 500; ++i) {
    std::string garbage;
    const size_t len = rng.NextBounded(64);
    for (size_t b = 0; b < len; ++b) {
      garbage.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    size_t pos = 0;
    auto tuple = ValueReader(garbage, &pos).GetTuple();
    EXPECT_LE(pos, garbage.size());
    if (!tuple.ok()) {
      EXPECT_EQ(tuple.status().code(), StatusCode::kCorruption);
    }
    pos = 0;
    auto value = ValueReader(garbage, &pos).GetValue();
    EXPECT_LE(pos, garbage.size());
    if (!value.ok()) {
      EXPECT_EQ(value.status().code(), StatusCode::kCorruption);
    }
    pos = 0;
    auto txn = core::DecodeTransaction(garbage, &pos);
    EXPECT_LE(pos, garbage.size());
    if (!txn.ok()) {
      EXPECT_EQ(txn.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST_P(SerdeFuzzTest, TruncationsAreCorruption) {
  Rng rng(GetParam() + 2000);
  for (int i = 0; i < 100; ++i) {
    const core::Transaction txn = RandomTransaction(rng);
    std::string buf;
    core::EncodeTransaction(&buf, txn);
    // Every strict prefix must fail cleanly.
    for (size_t cut = 0; cut < buf.size(); ++cut) {
      size_t pos = 0;
      auto decoded = core::DecodeTransaction(
          std::string_view(buf).substr(0, cut), &pos);
      ASSERT_FALSE(decoded.ok()) << "cut at " << cut;
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
      EXPECT_LE(pos, cut);
    }
  }
}

/// The encoded header of transaction X1:2 in epoch 3, then an update
/// count of 1: what every hand-made body below starts with.
std::string BodyPrefix() {
  std::string buf;
  PutVarint64(&buf, 1);
  PutVarint64(&buf, 2);
  PutVarint64(&buf, 4);
  PutVarint64(&buf, 1);
  return buf;
}

TEST(TransactionCodecTest, BackReferencePastTheTableIsCorruption) {
  // An insert whose relation names table entry 0 of an empty table.
  std::string buf = BodyPrefix();
  buf.push_back(static_cast<char>(0x04));  // insert, same origin
  PutVarint64(&buf, (uint64_t{0} << 1) | 1);
  PutVarint64(&buf, 0);  // empty tuple
  PutVarint64(&buf, 0);  // no antecedents
  size_t pos = 0;
  const auto decoded = core::DecodeTransaction(buf, &pos);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(TransactionCodecTest, LiteralLengthPastTheBufferIsCorruption) {
  std::string buf = BodyPrefix();
  buf.push_back(static_cast<char>(0x04));
  PutVarint64(&buf, uint64_t{1} << 40);  // a 2^39-byte relation name
  buf += "F";
  size_t pos = 0;
  const auto decoded = core::DecodeTransaction(buf, &pos);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(TransactionCodecTest, HugeCountsAreCorruptionNotAllocations) {
  // Update, antecedent and arity counts far past the input must be
  // refused before anything is reserved for them.
  const uint64_t huge = uint64_t{1} << 60;
  std::string updates;
  PutVarint64(&updates, 1);
  PutVarint64(&updates, 2);
  PutVarint64(&updates, 4);
  PutVarint64(&updates, huge);
  std::string antes = BodyPrefix();
  antes.back() = 0;  // no updates
  PutVarint64(&antes, huge);
  std::string arity = BodyPrefix();
  arity.push_back(static_cast<char>(0x04));
  PutVarint64(&arity, uint64_t{1} << 1);  // literal "F"
  arity += "F";
  PutVarint64(&arity, huge);
  for (const std::string& buf : {updates, antes, arity}) {
    size_t pos = 0;
    const auto decoded = core::DecodeTransaction(buf, &pos);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(TransactionCodecTest, UnknownKindBitsAreCorruption) {
  for (uint8_t tag : {uint8_t{0x03}, uint8_t{0x07}, uint8_t{0x08},
                      uint8_t{0x80}}) {
    std::string buf = BodyPrefix();
    buf.push_back(static_cast<char>(tag));
    PutVarint64(&buf, uint64_t{1} << 1);
    buf += "F";
    PutVarint64(&buf, 7);  // origin
    PutVarint64(&buf, 0);
    PutVarint64(&buf, 0);
    PutVarint64(&buf, 0);
    size_t pos = 0;
    const auto decoded = core::DecodeTransaction(buf, &pos);
    ASSERT_FALSE(decoded.ok()) << static_cast<int>(tag);
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

// --- Varint edges. ---

TEST(VarintEdgeTest, BoundaryValuesRoundTripAtExactLength) {
  std::vector<uint64_t> edges = {0, 1, 127, 128, 129, UINT64_MAX};
  // Every LEB128 length boundary: 2^(7k) - 1, 2^(7k), 2^(7k) + 1.
  for (int k = 1; k < 10; ++k) {
    const uint64_t boundary = uint64_t{1} << (7 * k);
    edges.push_back(boundary - 1);
    edges.push_back(boundary);
    edges.push_back(boundary + 1);
  }
  for (uint64_t v : edges) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(buf.size(), VarintLength(v)) << v;
    size_t pos = 0;
    auto decoded = GetVarint64(buf, &pos);
    ASSERT_TRUE(decoded.ok()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_EQ(pos, buf.size()) << v;
  }
  // The extremes pin the length formula itself.
  EXPECT_EQ(VarintLength(0), 1u);
  EXPECT_EQ(VarintLength(127), 1u);
  EXPECT_EQ(VarintLength(128), 2u);
  EXPECT_EQ(VarintLength(UINT64_MAX), 10u);
}

TEST(VarintEdgeTest, TruncatedVarintsFailCleanly) {
  for (uint64_t v : {uint64_t{128}, uint64_t{1} << 35, UINT64_MAX}) {
    std::string buf;
    PutVarint64(&buf, v);
    for (size_t cut = 0; cut < buf.size(); ++cut) {
      size_t pos = 0;
      auto decoded = GetVarint64(std::string_view(buf).substr(0, cut), &pos);
      EXPECT_FALSE(decoded.ok()) << v << " cut at " << cut;
      EXPECT_LE(pos, cut);
    }
  }
  // An unterminated run of continuation bytes must not read past the
  // 10-byte maximum encoding.
  const std::string runaway(11, '\x80');
  size_t pos = 0;
  EXPECT_FALSE(GetVarint64(runaway, &pos).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeFuzzTest, ::testing::Values(7u, 8u, 9u));

}  // namespace
}  // namespace orchestra::db
