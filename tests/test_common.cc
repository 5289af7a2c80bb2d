#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_codec.h"
#include "common/hash.h"
#include "common/rng.h"

namespace tara {
namespace {

using codec::ByteReader;
using codec::ByteWriter;
using codec::StringWriter;
using codec::VarintStatus;

const std::vector<uint64_t> kVarintValues = {
    0, 1, 127, 128, 255, 16383, 16384, 1u << 20, (1ull << 32) - 1,
    1ull << 32, 0x7fffffffffffffffULL, 0xffffffffffffffffULL};

VarintStatus Decode(const std::vector<uint8_t>& bytes, size_t* pos,
                    uint64_t* out) {
  return codec::GetVarint(bytes.data(), bytes.size(), pos, out);
}

TEST(ByteCodecTest, VarintEncodesSmallValuesInOneByte) {
  for (uint64_t v : {0ULL, 1ULL, 42ULL, 127ULL}) {
    std::vector<uint8_t> bytes;
    codec::PutVarint(v, &bytes);
    EXPECT_EQ(bytes.size(), 1u) << v;
  }
  std::vector<uint8_t> widest;
  codec::PutVarint(UINT64_MAX, &widest);
  EXPECT_EQ(widest.size(), 10u);
}

TEST(ByteCodecTest, VarintRoundTripsUnsigned) {
  std::vector<uint8_t> bytes;
  for (uint64_t v : kVarintValues) codec::PutVarint(v, &bytes);
  size_t pos = 0;
  for (uint64_t v : kVarintValues) {
    uint64_t got = 0;
    ASSERT_EQ(Decode(bytes, &pos, &got), VarintStatus::kOk) << v;
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, bytes.size());
}

TEST(ByteCodecTest, VarintRoundTripsSignedThroughZigzag) {
  const std::vector<int64_t> values = {0, -1, 1, -63, 64, -64, 1000, -100000,
                                       INT64_MAX, INT64_MIN};
  std::vector<uint8_t> bytes;
  for (int64_t v : values) codec::PutVarint(codec::ZigzagEncode(v), &bytes);
  size_t pos = 0;
  for (int64_t v : values) {
    uint64_t got = 0;
    ASSERT_EQ(Decode(bytes, &pos, &got), VarintStatus::kOk);
    EXPECT_EQ(codec::ZigzagDecode(got), v);
  }
}

TEST(ByteCodecTest, ZigzagMapsSmallMagnitudesToSmallCodes) {
  EXPECT_EQ(codec::ZigzagEncode(0), 0u);
  EXPECT_EQ(codec::ZigzagEncode(-1), 1u);
  EXPECT_EQ(codec::ZigzagEncode(1), 2u);
  EXPECT_EQ(codec::ZigzagEncode(-2), 3u);
  for (int64_t v = -1000; v <= 1000; ++v) {
    EXPECT_EQ(codec::ZigzagDecode(codec::ZigzagEncode(v)), v);
  }
}

TEST(ByteCodecTest, VarintTruncatedAtEveryLength) {
  for (uint64_t v : kVarintValues) {
    std::vector<uint8_t> bytes;
    codec::PutVarint(v, &bytes);
    for (size_t n = 0; n < bytes.size(); ++n) {
      const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + n);
      size_t pos = 0;
      uint64_t got = 0;
      EXPECT_EQ(Decode(prefix, &pos, &got), VarintStatus::kTruncated)
          << v << " cut to " << n << " bytes";
    }
  }
}

TEST(ByteCodecTest, OverlongVarintsAreRejected) {
  // Ten continuation bytes never end a 64-bit varint, whatever follows.
  for (const size_t length : {10u, 11u, 16u}) {
    const std::vector<uint8_t> bytes(length, 0x80);
    size_t pos = 0;
    uint64_t got = 0;
    EXPECT_EQ(Decode(bytes, &pos, &got), VarintStatus::kOverlong) << length;
  }
  std::vector<uint8_t> eleven(10, 0xff);
  eleven.push_back(0x01);
  size_t pos = 0;
  uint64_t got = 0;
  EXPECT_EQ(Decode(eleven, &pos, &got), VarintStatus::kOverlong);
  // Nine continuation bytes then the end of input is a truncation.
  const std::vector<uint8_t> nine(9, 0x80);
  pos = 0;
  EXPECT_EQ(Decode(nine, &pos, &got), VarintStatus::kTruncated);
}

TEST(ByteCodecTest, FixedWidthWordsAreLittleEndian) {
  std::vector<uint8_t> bytes;
  codec::PutFixed(uint32_t{0x04030201}, &bytes);
  codec::PutFixed(uint64_t{0x0807060504030201}, &bytes);
  EXPECT_EQ(bytes, (std::vector<uint8_t>{1, 2, 3, 4, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(codec::GetFixed<uint32_t>(bytes.data()), 0x04030201u);
  EXPECT_EQ(codec::GetFixed<uint64_t>(bytes.data() + 4), 0x0807060504030201u);
  ByteWriter writer;
  writer.F64(1.0);
  EXPECT_EQ(writer.bytes(),
            (std::vector<uint8_t>{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}));
}

TEST(ByteCodecTest, ExactSizeWritesMatchAppends) {
  const std::vector<uint64_t> ids(kVarintValues.begin(), kVarintValues.end());
  const auto write = [&](auto out) {
    for (uint64_t v : kVarintValues) out = codec::WriteVarint(v, out);
    out = codec::WriteFixed(uint32_t{0x04030201}, out);
    out = codec::WriteFixed(uint64_t{0x0807060504030201}, out);
    out = codec::WriteByte(0xab, out);
    return codec::WriteIdList(ids, out);
  };
  std::string appended;
  for (uint64_t v : kVarintValues) codec::PutVarint(v, &appended);
  codec::PutFixed(uint32_t{0x04030201}, &appended);
  codec::PutFixed(uint64_t{0x0807060504030201}, &appended);
  appended.push_back(static_cast<char>(0xab));
  StringWriter id_list;
  id_list.IdList(ids);
  appended += id_list.bytes();

  const size_t size = write(codec::ByteCount{}).bytes;
  ASSERT_EQ(size, appended.size());
  std::string exact(size, '\0');
  EXPECT_EQ(write(exact.data()), exact.data() + size);
  EXPECT_EQ(exact, appended);
  for (uint64_t v : kVarintValues) {
    std::string one;
    codec::PutVarint(v, &one);
    EXPECT_EQ(codec::VarintLength(v), one.size()) << v;
  }
}

/// One of every primitive, in a fixed order.
template <typename Bytes>
Bytes WriteEveryPrimitive() {
  ByteWriter<Bytes> w;
  w.Magic("TEST", 4);
  w.Byte(0xab);
  w.U64(300);
  w.Raw32(0xdeadbeef);
  w.Raw64(0x0123456789abcdefULL);
  w.F64(-2.5);
  w.IdList(std::vector<uint32_t>{7, 1, 70000});
  w.Items(std::vector<uint32_t>{2, 3, 900});
  w.Append(std::string_view("tail"));
  return std::move(w).bytes();
}

/// Reads WriteEveryPrimitive's sequence back; false at the first failure.
bool ReadEveryPrimitive(ByteReader* r) {
  uint8_t byte = 0;
  uint64_t u64 = 0, raw64 = 0;
  double f64 = 0;
  std::vector<uint32_t> ids, items;
  std::string_view raw32, tail;
  if (!r->Magic("TEST", 4) || !r->Byte(&byte) || !r->U64(&u64) ||
      !r->Slice(4, &raw32) || !r->Raw64(&raw64) || !r->F64(&f64) ||
      !r->IdList(&ids) || !r->Items(&items) || !r->Slice(4, &tail)) {
    return false;
  }
  EXPECT_EQ(byte, 0xab);
  EXPECT_EQ(u64, 300u);
  EXPECT_EQ(codec::GetFixed<uint32_t>(
                reinterpret_cast<const uint8_t*>(raw32.data())),
            0xdeadbeefu);
  EXPECT_EQ(raw64, 0x0123456789abcdefULL);
  EXPECT_EQ(f64, -2.5);
  EXPECT_EQ(ids, (std::vector<uint32_t>{7, 1, 70000}));
  EXPECT_EQ(items, (std::vector<uint32_t>{2, 3, 900}));
  EXPECT_EQ(tail, "tail");
  return r->AtEnd();
}

TEST(ByteCodecTest, StringAndVectorWritersAgree) {
  const std::string text = WriteEveryPrimitive<std::string>();
  const std::vector<uint8_t> buffer =
      WriteEveryPrimitive<std::vector<uint8_t>>();
  EXPECT_EQ(std::vector<uint8_t>(text.begin(), text.end()), buffer);
}

TEST(ByteCodecTest, ReaderRoundTripsEveryPrimitive) {
  const std::string bytes = WriteEveryPrimitive<std::string>();
  ByteReader reader(bytes);
  EXPECT_TRUE(ReadEveryPrimitive(&reader));
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ByteCodecTest, ReaderRejectsEveryTruncation) {
  const std::string bytes = WriteEveryPrimitive<std::string>();
  for (size_t n = 0; n < bytes.size(); ++n) {
    ByteReader reader(std::string_view(bytes).substr(0, n));
    EXPECT_FALSE(ReadEveryPrimitive(&reader)) << "prefix " << n;
  }
}

TEST(ByteCodecTest, CountIsBoundedByTheRemainingBytes) {
  const std::vector<uint64_t> claims = {3, 4, 60'000'000, UINT64_MAX};
  for (const uint64_t claimed : claims) {
    std::vector<uint8_t> bytes;
    codec::PutVarint(claimed, &bytes);
    bytes.insert(bytes.end(), 3, 0x01);
    ByteReader reader(bytes.data(), bytes.size());
    uint64_t count = 0;
    EXPECT_EQ(reader.Count(&count), claimed <= 3) << claimed;
    // The list readers share the bound, so a hostile count never sizes
    // an allocation.
    ByteReader ids(bytes.data(), bytes.size());
    std::vector<uint64_t> out;
    EXPECT_EQ(ids.IdList(&out), claimed <= 3) << claimed;
    ByteReader items(bytes.data(), bytes.size());
    EXPECT_EQ(items.Items(&out), claimed <= 3) << claimed;
  }
}

TEST(ByteCodecTest, SliceAndRestStayInBounds) {
  const std::string bytes = "abcdef";
  ByteReader reader(bytes);
  std::string_view slice;
  EXPECT_TRUE(reader.Slice(2, &slice));
  EXPECT_EQ(slice, "ab");
  EXPECT_EQ(reader.Rest(), "cdef");
  EXPECT_FALSE(reader.Slice(5, &slice));
  EXPECT_TRUE(reader.Slice(4, &slice));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(reader.Rest(), "");
}

class VarintPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintPropertyTest, RandomRoundTrip) {
  Rng rng(GetParam());
  std::vector<uint64_t> values;
  std::vector<uint8_t> bytes;
  for (int i = 0; i < 1000; ++i) {
    // Mix magnitudes so all byte lengths are exercised.
    const uint64_t v = rng.Next() >> rng.NextBounded(64);
    values.push_back(v);
    codec::PutVarint(v, &bytes);
  }
  size_t pos = 0;
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_EQ(Decode(bytes, &pos, &got), VarintStatus::kOk);
    ASSERT_EQ(got, v);
  }
  EXPECT_EQ(pos, bytes.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, VarintPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 20160197));

TEST(RngTest, IsDeterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleStaysInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, PoissonMeanIsApproximatelyCorrect) {
  Rng rng(11);
  const double mean = 8.0;
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextPoisson(mean);
  EXPECT_NEAR(sum / n, mean, 0.15);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApproximation) {
  Rng rng(13);
  const double mean = 100.0;
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextPoisson(mean);
  EXPECT_NEAR(sum / n, mean, 1.0);
}

TEST(RngTest, ZipfStaysInRangeAndIsSkewed) {
  Rng rng(17);
  const uint64_t n = 100;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 50000; ++i) {
    const uint64_t r = rng.NextZipf(n, 1.2);
    ASSERT_LT(r, n);
    ++counts[r];
  }
  // Rank 0 must dominate rank 50 heavily under alpha=1.2.
  EXPECT_GT(counts[0], counts[50] * 10);
  // Monotone-ish head.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[5]);
}

TEST(HashTest, CombinesOrderSensitively) {
  const std::vector<uint32_t> a = {1, 2, 3};
  const std::vector<uint32_t> b = {3, 2, 1};
  EXPECT_NE(HashSpan(a), HashSpan(b));
  EXPECT_EQ(HashSpan(a), HashSpan(a));
}

TEST(HashTest, ManyChainsMatchHashBytes) {
  // 0 to 17 inputs (idle lanes, a refill after every lane, two full
  // rounds plus one), of unequal lengths from 0 to 3,000 bytes, starting
  // at unaligned offsets of one buffer.
  Rng rng(17);
  std::vector<uint8_t> buffer(64 * 1024);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.NextBounded(256));
  for (size_t n = 0; n <= 17; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::span<const uint8_t>> inputs;
      for (size_t i = 0; i < n; ++i) {
        const size_t size =
            i % 5 == 0 ? rng.NextBounded(3) : rng.NextBounded(3001);
        const size_t start = rng.NextBounded(buffer.size() - size);
        inputs.emplace_back(buffer.data() + start, size);
      }
      std::vector<uint64_t> hashes(n + 1, 0);
      HashBytesMany(inputs, hashes.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hashes[i], HashBytes(inputs[i].data(), inputs[i].size()))
            << n << " inputs, input " << i;
      }
      EXPECT_EQ(hashes[n], 0u) << "wrote past the last input";
    }
  }
}

}  // namespace
}  // namespace tara
