#include "db/serde.h"

#include <gtest/gtest.h>

#include <limits>

namespace orchestra::db {
namespace {

TEST(VarintTest, RoundTripSmallAndLarge) {
  for (uint64_t v : std::vector<uint64_t>{0, 1, 127, 128, 300, uint64_t{1} << 32,
                                          std::numeric_limits<uint64_t>::max()}) {
    std::string buf;
    PutVarint64(&buf, v);
    size_t pos = 0;
    auto decoded = GetVarint64(buf, &pos);
    ASSERT_TRUE(decoded.ok()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, SmallValuesAreOneByte) {
  std::string buf;
  PutVarint64(&buf, 127);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  size_t pos = 0;
  EXPECT_FALSE(GetVarint64(buf, &pos).ok());
}

TEST(LengthPrefixedTest, RoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  size_t pos = 0;
  EXPECT_EQ(*GetLengthPrefixed(buf, &pos), "hello");
  EXPECT_EQ(*GetLengthPrefixed(buf, &pos), "");
  EXPECT_EQ(*GetLengthPrefixed(buf, &pos), std::string(1000, 'x'));
  EXPECT_EQ(pos, buf.size());
}

TEST(LengthPrefixedTest, TruncatedPayloadFails) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  buf.resize(buf.size() - 2);
  size_t pos = 0;
  EXPECT_FALSE(GetLengthPrefixed(buf, &pos).ok());
}

TEST(ValueSerdeTest, RoundTripAllTypes) {
  const std::vector<Value> values = {
      Value::Null(),
      Value(int64_t{0}),
      Value(int64_t{-1}),
      Value(int64_t{123456789}),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
      Value(0.0),
      Value(-2.5),
      Value(1e300),
      Value(""),
      Value("protein function"),
  };
  for (const Value& v : values) {
    std::string buf;
    ValueWriter w(&buf);
    w.PutValue(v);
    EXPECT_EQ(w.size(), buf.size());
    size_t pos = 0;
    ValueReader r(buf, &pos);
    auto decoded = r.GetValue();
    ASSERT_TRUE(decoded.ok()) << v.ToString();
    EXPECT_EQ(*decoded, v) << v.ToString();
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(ValueSerdeTest, NegativeIntsAreCompact) {
  std::string buf;
  ValueWriter(&buf).PutValue(Value(int64_t{-1}));
  EXPECT_LE(buf.size(), 2u);  // zigzag: tag + 1 byte
}

TEST(TupleSerdeTest, RoundTrip) {
  Tuple t{Value("rat"), Value(int64_t{7}), Value::Null(), Value(2.5)};
  std::string buf;
  ValueWriter(&buf).PutTuple(t);
  size_t pos = 0;
  auto decoded = ValueReader(buf, &pos).GetTuple();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, t);
  EXPECT_EQ(pos, buf.size());
}

TEST(TupleSerdeTest, EmptyTuple) {
  std::string buf;
  ValueWriter(&buf).PutTuple(Tuple());
  size_t pos = 0;
  EXPECT_EQ(*ValueReader(buf, &pos).GetTuple(), Tuple());
}

TEST(TupleSerdeTest, CountModeMatchesAppendMode) {
  const Tuple t{Value("abc"), Value(int64_t{1}), Value("abc")};
  std::string buf;
  ValueWriter append(&buf);
  append.PutTuple(t);
  append.PutTuple(t);
  ValueWriter count;
  count.PutTuple(t);
  count.PutTuple(t);
  EXPECT_EQ(count.size(), buf.size());
  EXPECT_EQ(append.size(), buf.size());
}

TEST(TupleSerdeTest, CorruptTagFails) {
  std::string buf;
  ValueWriter(&buf).PutTuple(Tuple{Value("x")});
  buf[1] = 9;  // invalid type tag
  size_t pos = 0;
  const auto decoded = ValueReader(buf, &pos).GetTuple();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

// --- The string table. ---

TEST(StringTableTest, RepeatedStringIsWrittenOnceThenBackReferenced) {
  // The writer's table holds views: what it writes must outlive it.
  const Tuple tuple{Value("Homo sapiens"), Value("P12345")};
  std::string buf;
  ValueWriter w(&buf);
  w.PutString("Homo sapiens");
  w.PutTuple(tuple);
  w.PutString("P12345");
  // One literal each; the repeats cost one byte apiece (index < 64).
  EXPECT_EQ(buf.size(), (1 + 12) + (1 + 2 + (1 + 1 + 6)) + 1);
  EXPECT_EQ(buf.find("Homo sapiens"), buf.rfind("Homo sapiens"));
  EXPECT_EQ(buf.find("P12345"), buf.rfind("P12345"));

  size_t pos = 0;
  ValueReader r(buf, &pos);
  auto first = r.GetString();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, "Homo sapiens");
  auto decoded = r.GetTuple();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, tuple);
  auto last = r.GetString();
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, "P12345");
  EXPECT_EQ(pos, buf.size());
}

TEST(StringTableTest, EachWriterHasItsOwnTable) {
  std::string a;
  std::string b;
  ValueWriter(&a).PutString("CrossRef");
  ValueWriter wb(&b);
  wb.PutString("CrossRef");
  EXPECT_EQ(a, b);  // a fresh writer writes the literal again
}

TEST(StringTableTest, BackReferencePastTheTableIsCorruption) {
  std::string buf;
  ValueWriter(&buf).PutString("only");
  PutVarint64(&buf, (uint64_t{1} << 1) | 1);  // entry 1 of a 1-entry table
  size_t pos = 0;
  ValueReader r(buf, &pos);
  ASSERT_TRUE(r.GetString().ok());
  const auto past = r.GetString();
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), StatusCode::kCorruption);
}

TEST(StringTableTest, LiteralLengthPastTheBufferIsCorruption) {
  std::string buf;
  PutVarint64(&buf, uint64_t{1000} << 1);  // claims 1000 bytes
  buf += "short";
  size_t pos = 0;
  const auto literal = ValueReader(buf, &pos).GetString();
  ASSERT_FALSE(literal.ok());
  EXPECT_EQ(literal.status().code(), StatusCode::kCorruption);
}

TEST(StringTableTest, ViewsAliasTheInputBuffer) {
  std::string buf;
  ValueWriter w(&buf);
  w.PutString("P53");
  w.PutString("P53");
  size_t pos = 0;
  ValueReader r(buf, &pos);
  auto literal = r.GetString();
  auto back = r.GetString();
  ASSERT_TRUE(literal.ok() && back.ok());
  // Zero copies: the literal points into buf, and the back-reference
  // yields the literal's own view.
  EXPECT_GE(literal->data(), buf.data());
  EXPECT_LE(literal->data() + literal->size(), buf.data() + buf.size());
  EXPECT_EQ(back->data(), literal->data());
  EXPECT_EQ(*back, "P53");
}

}  // namespace
}  // namespace orchestra::db
