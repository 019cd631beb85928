// Unit tests for the util substrate: bit vectors, serialization, RNG,
// hex and table formatting.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/bitvec.h"
#include "util/buffer.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/hex.h"
#include "util/rng.h"

namespace lrs {
namespace {

// ---------------------------------------------------------------------------
// BitVec
// ---------------------------------------------------------------------------

TEST(BitVec, StartsCleared) {
  BitVec v(70);
  EXPECT_EQ(v.size(), 70u);
  EXPECT_EQ(v.count(), 0u);
  EXPECT_TRUE(v.none());
  for (std::size_t i = 0; i < 70; ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVec, SetAndClearAcrossWordBoundary) {
  BitVec v(130);
  v.set(0);
  v.set(63);
  v.set(64);
  v.set(129);
  EXPECT_EQ(v.count(), 4u);
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  v.clear(64);
  EXPECT_FALSE(v.get(64));
  EXPECT_EQ(v.count(), 3u);
}

TEST(BitVec, SetAllRespectsSize) {
  BitVec v(67, true);
  EXPECT_EQ(v.count(), 67u);
  v.clear_all();
  EXPECT_EQ(v.count(), 0u);
}

TEST(BitVec, UnionIntersectionSubtract) {
  BitVec a(10), b(10);
  a.set(1);
  a.set(3);
  b.set(3);
  b.set(5);
  EXPECT_EQ((a | b).count(), 3u);
  EXPECT_EQ((a & b).count(), 1u);
  BitVec c = a;
  c.subtract(b);
  EXPECT_TRUE(c.get(1));
  EXPECT_FALSE(c.get(3));
}

TEST(BitVec, FirstSetLinearAndCyclic) {
  BitVec v(10);
  EXPECT_FALSE(v.first_set().has_value());
  v.set(7);
  v.set(2);
  EXPECT_EQ(v.first_set().value(), 2u);
  EXPECT_EQ(v.first_set(3).value(), 7u);
  EXPECT_EQ(v.first_set_cyclic(8).value(), 2u);
  EXPECT_EQ(v.first_set_cyclic(7).value(), 7u);
}

TEST(BitVec, RoundTripsThroughBytes) {
  BitVec v(19);
  v.set(0);
  v.set(8);
  v.set(18);
  const Bytes raw = v.to_bytes();
  EXPECT_EQ(raw.size(), 3u);
  EXPECT_EQ(BitVec::from_bytes(view(raw), 19), v);
}

TEST(BitVec, InlineAndHeapSizesAgree) {
  // Sizes on both sides of every word boundary and of the inline/heap
  // boundary (BitVec::kInlineBits = 128), each against a plain
  // std::vector<bool> reference.
  Rng rng(0xb17);
  for (std::size_t size : {0, 1, 63, 64, 65, 127, 128, 129, 300}) {
    SCOPED_TRACE("size " + std::to_string(size));
    std::vector<bool> ref(size);
    BitVec v(size);
    for (std::size_t i = 0; i < size; ++i) {
      ref[i] = rng.bernoulli(0.3);
      v.set(i, ref[i]);
    }
    std::size_t ones = 0;
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_EQ(v.get(i), ref[i]) << "bit " << i;
      ones += ref[i] ? 1 : 0;
    }
    EXPECT_EQ(v.count(), ones);
    EXPECT_EQ(v.none(), ones == 0);
    EXPECT_EQ(v.any(), ones != 0);
    EXPECT_EQ(BitVec(size, true).count(), size);

    // first_set from every index (and past the end), and the cyclic scan.
    for (std::size_t from = 0; from <= size + 1; ++from) {
      std::optional<std::size_t> want;
      for (std::size_t i = from; i < size && !want; ++i)
        if (ref[i]) want = i;
      EXPECT_EQ(v.first_set(from), want) << "from " << from;
    }
    for (std::size_t from = 0; from < size; ++from) {
      std::optional<std::size_t> want;
      for (std::size_t step = 0; step < size && !want; ++step)
        if (ref[(from + step) % size]) want = (from + step) % size;
      EXPECT_EQ(v.first_set_cyclic(from), want) << "from " << from;
    }

    // Byte packing against a bit-by-bit reference, both directions; bits
    // past `size` in the last byte are ignored on the way back.
    Bytes packed((size + 7) / 8, 0);
    for (std::size_t i = 0; i < size; ++i)
      if (ref[i]) packed[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    EXPECT_EQ(v.to_bytes(), packed);
    Bytes written(v.byte_size(), 0xff);
    v.write_bytes(written);
    EXPECT_EQ(written, packed);
    Bytes dirty = packed;
    if (size % 8 != 0)
      dirty.back() |= static_cast<std::uint8_t>(0xff << (size % 8));
    EXPECT_EQ(BitVec::from_bytes(view(dirty), size), v);

    // Copy, move and assignment across the inline/heap boundary, both ways.
    for (std::size_t other : {0, 5, 128, 129, 300}) {
      BitVec copied(other, true);
      copied = v;
      EXPECT_EQ(copied, v);
      EXPECT_EQ(copied.count(), ones);
      BitVec source(v);
      EXPECT_EQ(source, v);
      BitVec moved(other, true);
      moved = std::move(source);
      EXPECT_EQ(moved, v);
      BitVec constructed(std::move(moved));
      EXPECT_EQ(constructed, v);
      if (size > 0) {  // copies are independent
        copied.set(size - 1, !v.get(size - 1));
        EXPECT_FALSE(copied == v);
        EXPECT_EQ(v.get(size - 1), ref[size - 1]);
      }
      BitVec back(v);
      back = BitVec(other, true);
      EXPECT_EQ(back.size(), other);
      EXPECT_EQ(back.count(), other);
      back = v;
      EXPECT_EQ(back, v);
    }
  }
}

TEST(BitVec, SizeMismatchThrows) {
  BitVec a(4), b(5);
  EXPECT_THROW(a |= b, std::logic_error);
  EXPECT_THROW(a.get(4), std::logic_error);
}

// ---------------------------------------------------------------------------
// Writer / Reader
// ---------------------------------------------------------------------------

TEST(Buffer, IntegerRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  Reader r(view(w.data()));
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.at_end());
}

TEST(Buffer, SizedBytesRoundTrip) {
  Writer w;
  const Bytes payload{1, 2, 3, 4, 5};
  w.sized_bytes(view(payload));
  Reader r(view(w.data()));
  EXPECT_EQ(r.sized_bytes(), payload);
}

TEST(Buffer, TruncatedInputFailsSoft) {
  Writer w;
  w.u16(300);
  Reader r(view(w.data()));
  EXPECT_FALSE(r.try_u32().has_value());
  // try_* must not consume on failure paths that matter: a fresh reader
  // still parses the u16.
  Reader r2(view(w.data()));
  EXPECT_EQ(r2.try_u16().value(), 300);
}

TEST(Buffer, SizedBytesWithLyingLengthFails) {
  Writer w;
  w.u16(100);  // claims 100 bytes follow
  w.u8(1);
  Reader r(view(w.data()));
  EXPECT_FALSE(r.try_sized_bytes().has_value());
}

TEST(Buffer, ThrowingAccessorsThrowOnTruncation) {
  Bytes empty;
  Reader r(view(empty));
  EXPECT_THROW(r.u32(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(13), 13u);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(99);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(3);
  double total = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i)
    total += static_cast<double>(rng.geometric(0.25));
  EXPECT_NEAR(total / trials, 4.0, 0.1);
}

TEST(Rng, ForkedStreamsAreIndependentlySeeded) {
  Rng parent(10);
  Rng a = parent.fork();
  Rng b = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

// Power-of-two bounds take a division-free path, and other bounds compute
// the rejection limit only for draws near the top; every bound must still
// draw and reject exactly like the textbook formula, or every seeded run
// would shift. The two largest bounds reject a quarter to a half of all
// draws.
TEST(Rng, UniformMatchesRejectionFormula) {
  const std::uint64_t bounds[] = {1,    2,
                                  256,  std::uint64_t{1} << 32,
                                  std::uint64_t{1} << 63,
                                  3,    1000,
                                  3 * (std::uint64_t{1} << 62)};
  const std::uint64_t all = ~std::uint64_t{0};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (const std::uint64_t bound : bounds) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " bound "
                                        << bound);
      Rng rng(seed);
      Rng raw(seed);
      const std::uint64_t limit = all - all % bound;
      for (int i = 0; i < 200; ++i) {
        std::uint64_t v;
        do {
          v = raw.next();
        } while (v >= limit);
        ASSERT_EQ(rng.uniform(bound), v % bound);
      }
    }
  }
}

// A recorded draw sequence: uniform() and bernoulli() must keep producing
// exactly these values for this seed.
TEST(Rng, UniformAndBernoulliSequenceIsPinned) {
  Rng rng(2024);
  std::vector<std::uint64_t> bytes;
  for (int i = 0; i < 8; ++i) bytes.push_back(rng.uniform(256));
  EXPECT_EQ(bytes, (std::vector<std::uint64_t>{46, 101, 1, 107, 167, 245,
                                                168, 108}));
  std::vector<std::uint64_t> small;
  for (int i = 0; i < 4; ++i) small.push_back(rng.uniform(1000));
  EXPECT_EQ(small, (std::vector<std::uint64_t>{765, 124, 376, 851}));
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 4; ++i) {
    words.push_back(rng.uniform(std::uint64_t{1} << 32));
  }
  EXPECT_EQ(words, (std::vector<std::uint64_t>{2543990406ull, 2322014069ull,
                                                2210733327ull,
                                                3410110725ull}));
  std::string coins;
  for (int i = 0; i < 16; ++i) coins += rng.bernoulli(0.3) ? '1' : '0';
  EXPECT_EQ(coins, "1000001001010000");
  EXPECT_EQ(rng.uniform01(), 0.13139945470803949);
}

// ---------------------------------------------------------------------------
// Hex
// ---------------------------------------------------------------------------

TEST(Hex, EncodesLowercase) {
  const Bytes data{0x00, 0xff, 0xa5};
  EXPECT_EQ(to_hex(view(data)), "00ffa5");
}

TEST(Hex, DecodesBothCases) {
  EXPECT_EQ(from_hex("00FFa5").value(), (Bytes{0x00, 0xff, 0xa5}));
}

TEST(Hex, RejectsOddLengthAndBadChars) {
  EXPECT_FALSE(from_hex("abc").has_value());
  EXPECT_FALSE(from_hex("zz").has_value());
}

TEST(Hex, RoundTrip) {
  Bytes data;
  for (int i = 0; i < 256; ++i) data.push_back(static_cast<std::uint8_t>(i));
  EXPECT_EQ(from_hex(to_hex(view(data))).value(), data);
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(Table, RendersAlignedAndCsv) {
  Table t({"a", "long header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row(std::vector<double>{1.5, 2.0, 3.25});
  std::ostringstream human, csv;
  t.print(human);
  t.print_csv(csv);
  EXPECT_NE(human.str().find("long header"), std::string::npos);
  EXPECT_EQ(csv.str(), "a,long header,c\n1,2,3\n1.50,2,3.25\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::logic_error);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t({"x"});
  t.add_row({std::string("a,\"b\"")});
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "x\n\"a,\"\"b\"\"\"\n");
}

}  // namespace
}  // namespace lrs
