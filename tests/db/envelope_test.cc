// The integrity envelope (db/serde): round-trips, rejection of
// unframed bytes, and the detection guarantee — any truncation or bit
// flip of a framed buffer must surface as kCorruption, never as a
// silently different payload.
#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "db/serde.h"

namespace orchestra::db {
namespace {

TEST(EnvelopeTest, RoundTrip) {
  for (const std::string& payload :
       {std::string(""), std::string("x"), std::string("hello envelope"),
        std::string(1000, 'z'), std::string("\x00\xff\xc6\x32", 4)}) {
    std::string framed;
    WrapEnvelope(&framed, payload);
    EXPECT_EQ(framed.size(), payload.size() + EnvelopeOverhead(payload.size()));
    auto out = UnwrapEnvelope(framed);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out, payload);
  }
}

TEST(EnvelopeTest, SequentialFramesReadBack) {
  std::string buf;
  WrapEnvelope(&buf, "first");
  WrapEnvelope(&buf, "second");
  WrapEnvelope(&buf, "");
  size_t pos = 0;
  auto a = ReadEnvelope(buf, &pos);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "first");
  auto b = ReadEnvelope(buf, &pos);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, "second");
  auto c = ReadEnvelope(buf, &pos);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, "");
  EXPECT_EQ(pos, buf.size());
}

TEST(EnvelopeTest, UnframedBytesAreRejected) {
  auto out = UnwrapEnvelope("not a frame");
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(EnvelopeTest, TrailingBytesAreRejected) {
  std::string framed;
  WrapEnvelope(&framed, "payload");
  framed.push_back('!');
  EXPECT_EQ(UnwrapEnvelope(framed).status().code(), StatusCode::kCorruption);
}

TEST(EnvelopeTest, UnsupportedVersionIsRejected) {
  std::string framed;
  WrapEnvelope(&framed, "payload");
  framed[2] = 0x7F;
  auto out = UnwrapEnvelope(framed);
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

TEST(EnvelopeFuzzTest, EveryTruncationIsDetected) {
  Rng rng(101);
  std::string payload(64, '\0');
  for (char& c : payload) c = static_cast<char>(rng.NextBounded(256));
  std::string framed;
  WrapEnvelope(&framed, payload);
  for (size_t keep = 0; keep < framed.size(); ++keep) {
    auto out = UnwrapEnvelope(framed.substr(0, keep));
    EXPECT_FALSE(out.ok()) << "keep " << keep;
    EXPECT_EQ(out.status().code(), StatusCode::kCorruption) << "keep " << keep;
  }
}

TEST(EnvelopeFuzzTest, EveryBitFlipIsDetected) {
  Rng rng(202);
  for (int round = 0; round < 50; ++round) {
    std::string payload(1 + rng.NextBounded(96), '\0');
    for (char& c : payload) c = static_cast<char>(rng.NextBounded(256));
    std::string framed;
    WrapEnvelope(&framed, payload);
    for (size_t bit = 0; bit < framed.size() * 8; ++bit) {
      std::string bad = framed;
      bad[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      auto out = UnwrapEnvelope(bad);
      // A flip may corrupt the structure (magic, version, length) or
      // the bytes the checksum covers; it must never unwrap to a
      // payload other than the original. (A length-field flip can keep
      // the frame valid only by also keeping the same byte range, which
      // a varint flip cannot.)
      if (out.ok()) {
        EXPECT_EQ(*out, payload) << "round " << round << " bit " << bit;
      } else {
        EXPECT_EQ(out.status().code(), StatusCode::kCorruption)
            << "round " << round << " bit " << bit;
      }
    }
  }
}

TEST(EnvelopeFuzzTest, RandomGarbageNeverUnwrapsStrict) {
  Rng rng(303);
  for (int round = 0; round < 2000; ++round) {
    std::string junk(rng.NextBounded(64), '\0');
    for (char& c : junk) c = static_cast<char>(rng.NextBounded(256));
    auto out = UnwrapEnvelope(junk);
    if (out.ok()) {
      // Astronomically unlikely (needs magic + version + valid length +
      // matching CRC32C); if it ever fires, the RNG found a real frame.
      std::string reframed;
      WrapEnvelope(&reframed, *out);
      EXPECT_EQ(reframed, junk);
    }
  }
}

}  // namespace
}  // namespace orchestra::db
