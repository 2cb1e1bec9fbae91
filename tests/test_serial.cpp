// Serialization round-trip and malformed-input tests. Agent migration
// depends on this layer being exact, so the property suite hammers it with
// randomized payloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "serial/byte_buffer.hpp"
#include "sim/random.hpp"

namespace marp::serial {
namespace {

TEST(ZigZag, RoundTripsExtremes) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                         std::int64_t{42}, std::int64_t{-42},
                         std::numeric_limits<std::int64_t>::max(),
                         std::numeric_limits<std::int64_t>::min()}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
}

TEST(ZigZag, SmallMagnitudesStaySmall) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
}

TEST(Varint, BoundaryValues) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{127},
                          std::uint64_t{128}, std::uint64_t{16383},
                          std::uint64_t{16384},
                          std::numeric_limits<std::uint64_t>::max()}) {
    Writer w;
    w.varint(v);
    Reader r(w.bytes());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.at_end());
  }
}

TEST(Varint, SingleByteForSmallValues) {
  Writer w;
  w.varint(127);
  EXPECT_EQ(w.size(), 1u);
  Writer w2;
  w2.varint(128);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Scalars, RoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.boolean(true);
  w.boolean(false);
  w.svarint(-123456789);
  w.f64(3.14159265358979);
  w.f64(-0.0);
  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.svarint(), -123456789);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159265358979);
  EXPECT_DOUBLE_EQ(r.f64(), -0.0);
  EXPECT_TRUE(r.at_end());
}

TEST(Strings, RoundTripIncludingEmptyAndBinary) {
  Writer w;
  w.str("");
  w.str("hello");
  w.str(std::string("\0\x01\xFFmix", 7));
  Reader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), std::string("\0\x01\xFFmix", 7));
}

TEST(Raw, RoundTrip) {
  Writer w;
  Bytes payload{1, 2, 3, 255, 0};
  w.raw(payload);
  Reader r(w.bytes());
  EXPECT_EQ(r.raw(), payload);
}

TEST(Containers, SeqAndMapAndOptional) {
  Writer w;
  std::vector<std::int64_t> seq{-5, 0, 5, 1000000};
  w.seq(seq, [](Writer& ww, std::int64_t v) { ww.svarint(v); });
  std::map<std::string, std::uint64_t> m{{"a", 1}, {"b", 2}};
  w.map(m, [](Writer& ww, const std::string& k) { ww.str(k); },
        [](Writer& ww, std::uint64_t v) { ww.varint(v); });
  w.optional(std::optional<std::string>{"present"},
             [](Writer& ww, const std::string& s) { ww.str(s); });
  w.optional(std::optional<std::string>{},
             [](Writer& ww, const std::string& s) { ww.str(s); });

  Reader r(w.bytes());
  EXPECT_EQ(r.seq<std::int64_t>([](Reader& rr) { return rr.svarint(); }), seq);
  auto m2 = r.map<std::string, std::uint64_t>(
      [](Reader& rr) { return rr.str(); }, [](Reader& rr) { return rr.varint(); });
  EXPECT_EQ(m2, m);
  auto present =
      r.optional<std::string>([](Reader& rr) { return rr.str(); });
  ASSERT_TRUE(present.has_value());
  EXPECT_EQ(*present, "present");
  EXPECT_FALSE(
      r.optional<std::string>([](Reader& rr) { return rr.str(); }).has_value());
  EXPECT_TRUE(r.at_end());
}

TEST(Reader, TruncatedInputThrows) {
  Writer w;
  w.str("truncate-me");
  Bytes bytes = w.take();
  bytes.resize(bytes.size() - 3);
  Reader r(bytes);
  EXPECT_THROW(r.str(), DecodeError);
}

TEST(Reader, EmptyBufferThrowsOnAnyRead) {
  Bytes empty;
  Reader r(empty);
  EXPECT_THROW(r.u8(), DecodeError);
  Reader r2(empty);
  EXPECT_THROW(r2.varint(), DecodeError);
  Reader r3(empty);
  EXPECT_THROW(r3.f64(), DecodeError);
}

TEST(Reader, OversizedSequenceLengthRejected) {
  Writer w;
  w.varint(1'000'000'000);  // sequence claims a billion entries
  Reader r(w.bytes());
  EXPECT_THROW(r.seq<std::uint8_t>([](Reader& rr) { return rr.u8(); }),
               DecodeError);
}

TEST(Reader, MalformedVarintRejected) {
  Bytes bytes(11, 0x80);  // 11 continuation bytes: > 64 bits
  Reader r(bytes);
  EXPECT_THROW(r.varint(), DecodeError);
}

class SerialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerialFuzz, RandomRecordsRoundTrip) {
  sim::Rng rng(GetParam());
  for (int iteration = 0; iteration < 200; ++iteration) {
    // Random record: a mix of scalars, a string, and a vector.
    const std::uint64_t a = rng();
    const std::int64_t b = static_cast<std::int64_t>(rng());
    const double c = rng.uniform(-1e12, 1e12);
    std::string s;
    const std::size_t len = rng.bounded(64);
    for (std::size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.bounded(256)));
    }
    std::vector<std::uint64_t> v;
    const std::size_t vlen = rng.bounded(32);
    for (std::size_t i = 0; i < vlen; ++i) v.push_back(rng());

    Writer w;
    w.varint(a);
    w.svarint(b);
    w.f64(c);
    w.str(s);
    w.seq(v, [](Writer& ww, std::uint64_t x) { ww.varint(x); });

    Reader r(w.bytes());
    EXPECT_EQ(r.varint(), a);
    EXPECT_EQ(r.svarint(), b);
    EXPECT_DOUBLE_EQ(r.f64(), c);
    EXPECT_EQ(r.str(), s);
    EXPECT_EQ(r.seq<std::uint64_t>([](Reader& rr) { return rr.varint(); }), v);
    EXPECT_TRUE(r.at_end());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialFuzz, ::testing::Values(1, 7, 99, 12345));

TEST(Nested, WritesTheBytesOfRawAndReadsInPlace) {
  // Lengths on both sides of the two bytes set aside for the prefix.
  for (const std::size_t n : {0u, 1u, 127u, 128u, 16383u, 16384u, 70000u}) {
    Bytes block(n);
    for (std::size_t i = 0; i < n; ++i) block[i] = static_cast<std::uint8_t>(i * 7);
    Writer expected;
    expected.u8(0xAB);
    expected.raw(block);
    expected.u8(0xCD);

    Writer w;
    w.u8(0xAB);
    w.nested([&](Writer& inner) {
      for (const std::uint8_t b : block) inner.u8(b);
    });
    w.u8(0xCD);
    ASSERT_EQ(w.bytes(), expected.bytes()) << n;

    Reader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xAB);
    Reader inner = r.nested();
    ASSERT_EQ(inner.remaining(), n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(inner.u8(), block[i]);
    EXPECT_EQ(r.u8(), 0xCD);
    EXPECT_TRUE(r.at_end());
  }
}

TEST(Nested, TruncatedBlockIsATypedRejection) {
  Writer w;
  w.varint(10);  // announces ten bytes, carries three
  w.u8(1);
  w.u8(2);
  w.u8(3);
  Reader r(w.bytes());
  EXPECT_THROW(r.nested(), TruncatedError);
}

}  // namespace
}  // namespace marp::serial
