// GF(256) field axioms, matrix algebra, and erasure-code properties:
// exhaustive loss patterns for small codes, randomized patterns for the
// paper's parameters, MDS guarantees for Reed-Solomon and rank behavior
// for the random linear codes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <numeric>
#include <string>
#include <thread>

#include "erasure/code.h"
#include "erasure/gf256.h"
#include "erasure/matrix.h"
#include "sim/stats/stats.h"
#include "util/rng.h"

namespace lrs::erasure {
namespace {

// ---------------------------------------------------------------------------
// GF(256)
// ---------------------------------------------------------------------------

TEST(Gf256Test, MultiplicationCommutesAndAssociates) {
  Rng rng(1);
  for (int t = 0; t < 2000; ++t) {
    const auto a = static_cast<std::uint8_t>(rng.uniform(256));
    const auto b = static_cast<std::uint8_t>(rng.uniform(256));
    const auto c = static_cast<std::uint8_t>(rng.uniform(256));
    EXPECT_EQ(Gf256::mul(a, b), Gf256::mul(b, a));
    EXPECT_EQ(Gf256::mul(a, Gf256::mul(b, c)),
              Gf256::mul(Gf256::mul(a, b), c));
  }
}

TEST(Gf256Test, DistributesOverAddition) {
  Rng rng(2);
  for (int t = 0; t < 2000; ++t) {
    const auto a = static_cast<std::uint8_t>(rng.uniform(256));
    const auto b = static_cast<std::uint8_t>(rng.uniform(256));
    const auto c = static_cast<std::uint8_t>(rng.uniform(256));
    EXPECT_EQ(Gf256::mul(a, Gf256::add(b, c)),
              Gf256::add(Gf256::mul(a, b), Gf256::mul(a, c)));
  }
}

TEST(Gf256Test, IdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    const auto v = static_cast<std::uint8_t>(a);
    EXPECT_EQ(Gf256::mul(v, 1), v);
    EXPECT_EQ(Gf256::mul(v, 0), 0);
  }
}

TEST(Gf256Test, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto v = static_cast<std::uint8_t>(a);
    EXPECT_EQ(Gf256::mul(v, Gf256::inv(v)), 1) << a;
    EXPECT_EQ(Gf256::div(v, v), 1) << a;
  }
}

TEST(Gf256Test, ZeroHasNoInverse) {
  EXPECT_THROW(Gf256::inv(0), std::logic_error);
  EXPECT_THROW(Gf256::div(1, 0), std::logic_error);
}

TEST(Gf256Test, KnownAesProducts) {
  // From the AES specification: {53} * {CA} = {01}.
  EXPECT_EQ(Gf256::mul(0x53, 0xCA), 0x01);
  EXPECT_EQ(Gf256::mul(0x02, 0x80), 0x1b);  // x * x^7 = x^8 = 0x1b
}

TEST(Gf256Test, PowMatchesRepeatedMultiplication) {
  Rng rng(3);
  for (int t = 0; t < 200; ++t) {
    const auto a = static_cast<std::uint8_t>(rng.uniform(255) + 1);
    const unsigned e = static_cast<unsigned>(rng.uniform(16));
    std::uint8_t expect = 1;
    for (unsigned i = 0; i < e; ++i) expect = Gf256::mul(expect, a);
    EXPECT_EQ(Gf256::pow(a, e), expect);
  }
}

TEST(Gf256Test, AddmulMatchesScalarLoop) {
  Rng rng(4);
  Bytes dst(64), src(64);
  for (auto& b : dst) b = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto& b : src) b = static_cast<std::uint8_t>(rng.uniform(256));
  const std::uint8_t c = 0x8e;
  Bytes expect = dst;
  for (std::size_t i = 0; i < 64; ++i)
    expect[i] = Gf256::add(expect[i], Gf256::mul(src[i], c));
  Gf256::addmul(MutByteView(dst.data(), dst.size()), view(src), c);
  EXPECT_EQ(dst, expect);
}

// ---------------------------------------------------------------------------
// MatrixGf256
// ---------------------------------------------------------------------------

TEST(MatrixTest, SingularMatrixReported) {
  MatrixGf256 m(3, 3);
  // Row 2 = row 0 + row 1.
  m.set(0, 0, 1);
  m.set(0, 1, 2);
  m.set(1, 1, 3);
  m.set(1, 2, 4);
  m.set(2, 0, 1);
  m.set(2, 1, Gf256::add(2, 3));
  m.set(2, 2, 4);
  EXPECT_EQ(m.rank(), 2u);
}

TEST(MatrixTest, RankOfTallMatrix) {
  MatrixGf256 m(4, 2);
  m.set(0, 0, 1);
  m.set(1, 1, 1);
  m.set(2, 0, 5);
  m.set(3, 1, 9);
  EXPECT_EQ(m.rank(), 2u);
}

// ---------------------------------------------------------------------------
// Erasure codes: shared property helpers
// ---------------------------------------------------------------------------

std::vector<Bytes> random_blocks(std::size_t k, std::size_t len,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> blocks(k);
  for (auto& b : blocks) {
    b.resize(len);
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform(256));
  }
  return blocks;
}

std::vector<Share> pick_shares(const std::vector<Bytes>& encoded,
                               const std::vector<std::size_t>& indices) {
  std::vector<Share> shares;
  for (auto i : indices) shares.push_back({i, encoded[i]});
  return shares;
}

TEST(RsCode, SystematicPrefix) {
  auto code = make_rs_code(4, 8);
  const auto blocks = random_blocks(4, 16, 1);
  const auto encoded = code->encode(blocks);
  ASSERT_EQ(encoded.size(), 8u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(encoded[i], blocks[i]);
}

TEST(RsCode, ExhaustiveLossPatternsSmall) {
  // Every subset of exactly k=3 out of n=6 shares must decode (MDS).
  auto code = make_rs_code(3, 6);
  const auto blocks = random_blocks(3, 8, 2);
  const auto encoded = code->encode(blocks);
  std::vector<std::size_t> idx{0, 1, 2, 3, 4, 5};
  std::vector<bool> mask(6, false);
  std::fill(mask.begin(), mask.begin() + 3, true);
  std::sort(mask.begin(), mask.end());
  do {
    std::vector<std::size_t> chosen;
    for (std::size_t i = 0; i < 6; ++i)
      if (mask[i]) chosen.push_back(i);
    const auto decoded = code->decode(pick_shares(encoded, chosen));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, blocks);
  } while (std::next_permutation(mask.begin(), mask.end()));
}

TEST(RsCode, InsufficientSharesReturnNullopt) {
  auto code = make_rs_code(4, 8);
  const auto blocks = random_blocks(4, 8, 3);
  const auto encoded = code->encode(blocks);
  EXPECT_FALSE(code->decode(pick_shares(encoded, {0, 5, 7})).has_value());
  EXPECT_FALSE(code->decode({}).has_value());
}

TEST(RsCode, DuplicateSharesIgnored) {
  auto code = make_rs_code(3, 6);
  const auto blocks = random_blocks(3, 8, 4);
  const auto encoded = code->encode(blocks);
  // Three copies of share 5 plus shares 0,1: exactly k distinct.
  auto decoded =
      code->decode(pick_shares(encoded, {5, 5, 5, 0, 1}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, blocks);
  // Duplicates alone are not enough.
  EXPECT_FALSE(code->decode(pick_shares(encoded, {5, 5, 5})).has_value());
}

TEST(RsCode, PaperScaleRandomPatterns) {
  auto code = make_rs_code(32, 48);
  const auto blocks = random_blocks(32, 64, 5);
  const auto encoded = code->encode(blocks);
  Rng rng(6);
  for (int t = 0; t < 25; ++t) {
    std::vector<std::size_t> idx(48);
    std::iota(idx.begin(), idx.end(), 0);
    // Random k-subset.
    for (std::size_t i = 0; i < 32; ++i) {
      std::swap(idx[i], idx[i + rng.uniform(48 - i)]);
    }
    idx.resize(32);
    const auto decoded = code->decode(pick_shares(encoded, idx));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, blocks);
  }
}

TEST(RsCode, ParityOnlyDecodes) {
  auto code = make_rs_code(4, 12);
  const auto blocks = random_blocks(4, 8, 7);
  const auto encoded = code->encode(blocks);
  const auto decoded = code->decode(pick_shares(encoded, {8, 9, 10, 11}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, blocks);
}

TEST(RsCode, RejectsBadParameters) {
  EXPECT_THROW(make_rs_code(5, 4), std::logic_error);
  EXPECT_THROW(make_rs_code(0, 4), std::logic_error);
  EXPECT_THROW(make_rs_code(10, 300), std::logic_error);
}

TEST(RsCode, KEqualsNDegenerates) {
  auto code = make_rs_code(3, 3);
  const auto blocks = random_blocks(3, 4, 8);
  const auto encoded = code->encode(blocks);
  EXPECT_EQ(encoded, blocks);
  EXPECT_EQ(code->decode(pick_shares(encoded, {0, 1, 2})).value(), blocks);
}

// Parameterized sweep: MDS property across geometries.
class RsGeometry
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(RsGeometry, DecodesFromAnyKRandomSubset) {
  const auto [k, n] = GetParam();
  auto code = make_rs_code(k, n);
  EXPECT_EQ(code->decode_threshold(), k);
  const auto blocks = random_blocks(k, 24, k * 100 + n);
  const auto encoded = code->encode(blocks);
  Rng rng(k * 7 + n);
  for (int t = 0; t < 10; ++t) {
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0);
    for (std::size_t i = 0; i < k; ++i)
      std::swap(idx[i], idx[i + rng.uniform(n - i)]);
    idx.resize(k);
    const auto decoded = code->decode(pick_shares(encoded, idx));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, blocks);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RsGeometry,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 2},
                      std::pair<std::size_t, std::size_t>{2, 3},
                      std::pair<std::size_t, std::size_t>{8, 16},
                      std::pair<std::size_t, std::size_t>{16, 24},
                      std::pair<std::size_t, std::size_t>{32, 40},
                      std::pair<std::size_t, std::size_t>{32, 56},
                      std::pair<std::size_t, std::size_t>{32, 64},
                      std::pair<std::size_t, std::size_t>{64, 128}));

// ---------------------------------------------------------------------------
// Random linear codes
// ---------------------------------------------------------------------------

class RlcBothFields : public ::testing::TestWithParam<CodecKind> {};

TEST_P(RlcBothFields, SystematicAndDecodesFromAllSystematic) {
  auto code = make_code(GetParam(), 8, 16, 2, 99);
  const auto blocks = random_blocks(8, 16, 9);
  const auto encoded = code->encode(blocks);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(encoded[i], blocks[i]);
  std::vector<std::size_t> idx{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(code->decode(pick_shares(encoded, idx)).value(), blocks);
}

TEST_P(RlcBothFields, DecodesFromParityHeavySubsets) {
  auto code = make_code(GetParam(), 8, 24, 2, 100);
  const auto blocks = random_blocks(8, 16, 10);
  const auto encoded = code->encode(blocks);
  Rng rng(11);
  int successes = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    // Take threshold-many random shares.
    std::vector<std::size_t> idx(24);
    std::iota(idx.begin(), idx.end(), 0);
    const std::size_t take = code->decode_threshold();
    for (std::size_t i = 0; i < take; ++i)
      std::swap(idx[i], idx[i + rng.uniform(24 - i)]);
    idx.resize(take);
    auto decoded = code->decode(pick_shares(encoded, idx));
    if (decoded) {
      EXPECT_EQ(*decoded, blocks);
      ++successes;
    }
  }
  // Probabilistic: with delta=2 overhead the failure rate must be small.
  EXPECT_GE(successes, trials * 2 / 3);
}

TEST_P(RlcBothFields, AllSharesAlwaysDecode) {
  auto code = make_code(GetParam(), 8, 20, 2, 101);
  const auto blocks = random_blocks(8, 16, 12);
  const auto encoded = code->encode(blocks);
  std::vector<std::size_t> idx(20);
  std::iota(idx.begin(), idx.end(), 0);
  EXPECT_EQ(code->decode(pick_shares(encoded, idx)).value(), blocks);
}

TEST_P(RlcBothFields, DeterministicAcrossInstances) {
  // Two nodes constructing the same code instance from the preloaded seed
  // must produce identical packets (required for hash chaining).
  auto a = make_code(GetParam(), 8, 20, 2, 77);
  auto b = make_code(GetParam(), 8, 20, 2, 77);
  const auto blocks = random_blocks(8, 16, 13);
  EXPECT_EQ(a->encode(blocks), b->encode(blocks));
}

TEST_P(RlcBothFields, DifferentSeedsDifferentParity) {
  auto a = make_code(GetParam(), 8, 20, 2, 1);
  auto b = make_code(GetParam(), 8, 20, 2, 2);
  const auto blocks = random_blocks(8, 16, 14);
  EXPECT_NE(a->encode(blocks), b->encode(blocks));
}

INSTANTIATE_TEST_SUITE_P(Fields, RlcBothFields,
                         ::testing::Values(CodecKind::kRlcGf2,
                                           CodecKind::kRlcGf256));

TEST(CodecRegistry, ParsesNames) {
  EXPECT_EQ(parse_codec_kind("rs"), CodecKind::kReedSolomon);
  EXPECT_EQ(parse_codec_kind("rlc2"), CodecKind::kRlcGf2);
  EXPECT_EQ(parse_codec_kind("rlc256"), CodecKind::kRlcGf256);
  EXPECT_FALSE(parse_codec_kind("fountain").has_value());
  // The deleted XOR-schedule backend's spelling must not alias to rs.
  EXPECT_FALSE(parse_codec_kind("xorsched").has_value());
}

TEST(CodecRegistry, NameRoundTripsEveryKind) {
  for (const CodecKind kind :
       {CodecKind::kReedSolomon, CodecKind::kRlcGf2, CodecKind::kRlcGf256,
        CodecKind::kLt, CodecKind::kLrc}) {
    EXPECT_EQ(parse_codec_kind(codec_kind_name(kind)), kind)
        << codec_kind_name(kind);
  }
}

TEST(CodecRegistry, ThresholdReflectsDelta) {
  EXPECT_EQ(make_code(CodecKind::kReedSolomon, 8, 16, 2, 1)->decode_threshold(),
            8u);
  EXPECT_EQ(make_code(CodecKind::kRlcGf2, 8, 16, 2, 1)->decode_threshold(),
            10u);
  EXPECT_EQ(make_code(CodecKind::kRlcGf256, 8, 16, 0, 1)->decode_threshold(),
            8u);
}

}  // namespace
}  // namespace lrs::erasure
// NOTE: LT-code tests appended; see lt_code.cc for the codec itself.
namespace lrs::erasure {
namespace {

std::vector<Bytes> lt_blocks(std::size_t k, std::size_t len,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> blocks(k);
  for (auto& b : blocks) {
    b.resize(len);
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform(256));
  }
  return blocks;
}

TEST(LtCode, FullSetAlwaysDecodes) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    auto code = make_lt_code(16, 32, 6, seed);
    const auto blocks = lt_blocks(16, 24, seed);
    const auto encoded = code->encode(blocks);
    std::vector<Share> shares;
    for (std::size_t i = 0; i < 32; ++i) shares.push_back({i, encoded[i]});
    const auto decoded = code->decode(shares);
    ASSERT_TRUE(decoded.has_value()) << "seed " << seed;
    EXPECT_EQ(*decoded, blocks);
  }
}

TEST(LtCode, DeterministicAcrossInstances) {
  auto a = make_lt_code(16, 32, 6, 77);
  auto b = make_lt_code(16, 32, 6, 77);
  const auto blocks = lt_blocks(16, 24, 9);
  EXPECT_EQ(a->encode(blocks), b->encode(blocks));
}

TEST(LtCode, ThresholdDecodesWithReasonableProbability) {
  auto code = make_lt_code(32, 64, 16, 5);
  const auto blocks = lt_blocks(32, 16, 6);
  const auto encoded = code->encode(blocks);
  Rng rng(7);
  int success = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    std::vector<std::size_t> idx(64);
    std::iota(idx.begin(), idx.end(), 0);
    const std::size_t take = code->decode_threshold();
    for (std::size_t i = 0; i < take; ++i)
      std::swap(idx[i], idx[i + rng.uniform(64 - i)]);
    idx.resize(take);
    std::vector<Share> shares;
    for (auto i : idx) shares.push_back({i, encoded[i]});
    auto d = code->decode(shares);
    if (d) {
      EXPECT_EQ(*d, blocks);
      ++success;
    }
  }
  // Probabilistic by nature; the protocol just keeps collecting on a miss.
  EXPECT_GE(success, trials / 3);
}

TEST(LtCode, InsufficientSharesFailSoft) {
  auto code = make_lt_code(16, 32, 4, 11);
  const auto blocks = lt_blocks(16, 8, 12);
  const auto encoded = code->encode(blocks);
  std::vector<Share> shares;
  for (std::size_t i = 0; i < 4; ++i) shares.push_back({i, encoded[i]});
  EXPECT_FALSE(code->decode(shares).has_value());
  EXPECT_FALSE(code->decode({}).has_value());
}

/// Whether peeling alone recovers every column from `rows` of `g`: some row
/// with exactly one unknown column in its support solves that column,
/// repeated until none qualifies.
bool peels_completely(const MatrixGf256& g,
                      const std::vector<std::size_t>& rows) {
  std::vector<bool> known(g.cols(), false);
  std::size_t count = 0;
  for (bool progress = true; progress;) {
    progress = false;
    for (auto r : rows) {
      std::size_t unknown = 0, col = 0;
      for (std::size_t j = 0; j < g.cols(); ++j) {
        if (g.at(r, j) != 0 && !known[j]) {
          ++unknown;
          col = j;
        }
      }
      if (unknown == 1) {
        known[col] = true;
        ++count;
        progress = true;
      }
    }
  }
  return count == g.cols();
}

TEST(LtCode, DecodesExactlyWhenPeelingCompletes) {
  // LT decodes by peeling alone: over random share subsets, decode must
  // succeed exactly when a structural peel over the probed generator
  // covers every column. The search must meet a subset whose rows have
  // full rank yet stall the peel, which a decoder with a solve fallback
  // would recover.
  struct Instance {
    std::size_t k, n, delta;
    std::uint64_t seed;
  };
  std::size_t stalled_full_rank = 0;
  for (const Instance in : {Instance{8, 16, 4, 5}, Instance{16, 32, 6, 1},
                            Instance{16, 32, 6, 2}, Instance{32, 48, 8, 3}}) {
    auto code = make_lt_code(in.k, in.n, in.delta, in.seed);
    MatrixGf256 g(in.n, in.k);
    std::vector<Bytes> unit(in.k, Bytes{0});
    for (std::size_t j = 0; j < in.k; ++j) {
      unit[j][0] = 1;
      const auto enc = code->encode(unit);
      for (std::size_t i = 0; i < in.n; ++i) g.set(i, j, enc[i][0]);
      unit[j][0] = 0;
    }
    const auto blocks = random_blocks(in.k, 12, in.seed + 40);
    const auto encoded = code->encode(blocks);
    Rng rng(in.seed + 50);
    for (int t = 0; t < 150; ++t) {
      std::vector<std::size_t> idx(in.n);
      std::iota(idx.begin(), idx.end(), 0);
      const std::size_t take = in.k + rng.uniform(in.n - in.k + 1);
      for (std::size_t i = 0; i < take; ++i)
        std::swap(idx[i], idx[i + rng.uniform(in.n - i)]);
      idx.resize(take);
      const bool peels = peels_completely(g, idx);
      const auto decoded = code->decode(pick_shares(encoded, idx));
      ASSERT_EQ(decoded.has_value(), peels)
          << "k=" << in.k << " seed=" << in.seed << " t=" << t;
      if (decoded.has_value()) {
        EXPECT_EQ(*decoded, blocks);
      }
      MatrixGf256 sub(take, in.k);
      for (std::size_t r = 0; r < take; ++r)
        for (std::size_t j = 0; j < in.k; ++j) sub.set(r, j, g.at(idx[r], j));
      if (!peels && sub.rank() == in.k) ++stalled_full_rank;
    }
  }
  EXPECT_GT(stalled_full_rank, 0u)
      << "no full-rank subset that stalls the peel was met";
}

TEST(LtCode, RegistryExposesIt) {
  EXPECT_EQ(parse_codec_kind("lt"), CodecKind::kLt);
  auto code = make_code(CodecKind::kLt, 8, 24, 4, 3);
  EXPECT_EQ(code->name(), "lt");
  EXPECT_EQ(code->decode_threshold(), 12u);
}

}  // namespace
}  // namespace lrs::erasure
// Golden parity bytes for RS, RLC and LRC, LRC local-repair counters,
// decode fuzz, and codec-cache canonicalization/thread tests.
namespace lrs::erasure {
namespace {

std::vector<Bytes> pattern_blocks(std::size_t k, std::size_t len) {
  std::vector<Bytes> blocks(k);
  for (std::size_t j = 0; j < k; ++j) {
    blocks[j].resize(len);
    for (std::size_t i = 0; i < len; ++i)
      blocks[j][i] = static_cast<std::uint8_t>(j * 16 + i);
  }
  return blocks;
}

std::string to_hex(const Bytes& b) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  for (auto v : b) {
    s.push_back(kDigits[v >> 4]);
    s.push_back(kDigits[v & 0xf]);
  }
  return s;
}

TEST(RsCode, GoldenParityBytes) {
  // Freezes the Cauchy generator for (k=4, n=8): the only byte-level pin on
  // RS codewords. A change here is a wire-format break for every deployed
  // image.
  auto code = make_rs_code(4, 8);
  const auto encoded = code->encode(pattern_blocks(4, 8));
  EXPECT_EQ(to_hex(encoded[4]), "74471221b88bdeed");
  EXPECT_EQ(to_hex(encoded[5]), "695a0f3ca596c3f0");
  EXPECT_EQ(to_hex(encoded[6]), "4e7d281b82b1e4d7");
  EXPECT_EQ(to_hex(encoded[7]), "536035069facf9ca");
}

TEST(RlcCode, GoldenParityBytes) {
  // Freezes the seeded parity rows of both random linear codes for (k=4,
  // n=8, delta=2, seed=9): GF(2) rows are 0/1 coefficients (parity = XOR of
  // the selected blocks), GF(256) rows are random bytes. A change here is a
  // wire-format break for every deployed image. Random blocks, because
  // XORs of the linear pattern blocks collide.
  const auto blocks = random_blocks(4, 8, 11);
  const auto rlc2 = make_rlc_gf2(4, 8, 2, 9)->encode(blocks);
  EXPECT_EQ(to_hex(rlc2[4]), "bf8d987f8ec15947");
  EXPECT_EQ(to_hex(rlc2[5]), "b98bd67b89586203");
  EXPECT_EQ(to_hex(rlc2[6]), "e29ce765a801f945");
  EXPECT_EQ(to_hex(rlc2[7]), "06064e0407993b44");
  const auto rlc256 = make_rlc_gf256(4, 8, 2, 9)->encode(blocks);
  EXPECT_EQ(to_hex(rlc256[4]), "467a1fdb7790c2c8");
  EXPECT_EQ(to_hex(rlc256[5]), "5d99dac6820b7cd5");
  EXPECT_EQ(to_hex(rlc256[6]), "7583806f8cbd541e");
  EXPECT_EQ(to_hex(rlc256[7]), "17e3f5fab598a2e0");
}

TEST(LtCode, GoldenEncodedBytes) {
  // Freezes the seeded soliton draws and the re-salting loop for (k=8,
  // n=16, delta=4, seed=9): every encoded block is the XOR of the data
  // blocks its row names. A change here is a wire-format break for every
  // deployed image.
  const auto encoded =
      make_lt_code(8, 16, 4, 9)->encode(random_blocks(8, 8, 13));
  const char* const kGolden[16] = {
      "3c107268885276a2", "2de458f925d3fd7e", "d1a5928840ef313b",
      "1c2e3c2224014764", "dd0c72750eba7939", "45133d677ea91b2b",
      "1b74b77158e490fa", "0ffc01231240f9c8", "a173a1b91f64f65e",
      "7870b941312ee933", "a226406743714794", "1952a0e1c324a58a",
      "7a56aed1aaeedc43", "79034f0ff6fb6d89", "1c2e3c2224014764",
      "90b9c5621eb64c44"};
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_EQ(to_hex(encoded[i]), kGolden[i]) << "encoded block " << i;
}

TEST(LrcCode, GroupCountRule) {
  // Largest divisor of k that is <= (n-k)/2; 0 when fewer than 2 parities.
  EXPECT_EQ(lrc_group_count(32, 48), 8u);  // paper geometry -> k' = 39
  EXPECT_EQ(lrc_group_count(8, 16), 4u);   // hash page -> k' = 11
  EXPECT_EQ(lrc_group_count(4, 8), 2u);
  EXPECT_EQ(lrc_group_count(7, 16), 1u);  // prime k, small parity budget
  EXPECT_EQ(lrc_group_count(6, 12), 3u);
  EXPECT_EQ(lrc_group_count(5, 6), 0u);  // one parity: plain RS row
  EXPECT_EQ(lrc_group_count(5, 5), 0u);  // no parity at all
}

TEST(LrcCode, ThresholdMatchesGeometry) {
  EXPECT_EQ(make_lrc_code(32, 48)->decode_threshold(), 39u);
  EXPECT_EQ(make_lrc_code(8, 16)->decode_threshold(), 11u);
  EXPECT_EQ(make_lrc_code(5, 6)->decode_threshold(), 5u);
}

TEST(LrcCode, GoldenParityBytes) {
  // Freezes the pyramid construction for (k=4, n=8): g=2 local parities
  // (masked Cauchy row 0) then 2 global rows. A change here is a wire-format
  // break for every deployed image.
  auto code = make_lrc_code(4, 8);
  const auto encoded = code->encode(pattern_blocks(4, 8));
  EXPECT_EQ(to_hex(encoded[4]), "04397e43f0cd8ab7");  // local, group {0,1}
  EXPECT_EQ(to_hex(encoded[5]), "a68ff4dd022b5079");  // local, group {2,3}
  EXPECT_EQ(to_hex(encoded[6]), "854014d1bc792de8");  // global row 1
  EXPECT_EQ(to_hex(encoded[7]), "98f858380363c3a3");  // global row 2
}

TEST(LrcCode, LocalParitiesOnlySpanTheirGroup) {
  // Local parity of group 0 must be a function of blocks {0,1} alone.
  auto code = make_lrc_code(4, 8);
  auto blocks = pattern_blocks(4, 8);
  const auto before = code->encode(blocks);
  blocks[2][0] ^= 0xff;  // outside group 0, inside group 1
  const auto after = code->encode(blocks);
  EXPECT_EQ(before[4], after[4]);  // group-0 local unchanged
  EXPECT_NE(before[5], after[5]);  // group-1 local moved
  EXPECT_NE(before[6], after[6]);  // globals see every block
}

/// An LRC decode-path counter: "erasure.lrc.<name>" in the process-wide
/// metrics registry, shared by every LRC instance.
stats::Counter& lrc_counter(const char* name) {
  return stats::Registry::instance().counter(std::string("erasure.lrc.") +
                                             name);
}

void reset_lrc_counters() {
  for (const char* name :
       {"decodes", "local_repairs", "local_only_decodes", "full_solves"})
    lrc_counter(name).reset();
}

TEST(LrcCode, LocalRepairCountsAndResets) {
  // The counters live in the process-wide metrics registry: enable the
  // registry and zero any residue left by earlier tests in this binary.
  stats::set_enabled(true);
  auto code = make_lrc_code(8, 16);  // g=4, groups of 2, locals at 8..11
  reset_lrc_counters();
  const auto blocks = pattern_blocks(8, 12);
  const auto encoded = code->encode(blocks);

  // Drop data 3 (group 1); its local parity 9 completes the page locally.
  std::vector<Share> shares;
  for (std::size_t i = 0; i < 8; ++i)
    if (i != 3) shares.push_back({i, encoded[i]});
  shares.push_back({9, encoded[9]});
  EXPECT_EQ(code->decode(shares).value(), blocks);
  EXPECT_EQ(lrc_counter("decodes").value(), 1u);
  EXPECT_EQ(lrc_counter("local_repairs").value(), 1u);
  EXPECT_EQ(lrc_counter("local_only_decodes").value(), 1u);
  EXPECT_EQ(lrc_counter("full_solves").value(), 0u);

  // Drop both blocks of group 0: local repair cannot fire, full solve runs.
  shares.clear();
  for (std::size_t i = 2; i < 8; ++i) shares.push_back({i, encoded[i]});
  for (std::size_t i = 8; i < 13; ++i) shares.push_back({i, encoded[i]});
  EXPECT_EQ(code->decode(shares).value(), blocks);
  EXPECT_EQ(lrc_counter("decodes").value(), 2u);
  EXPECT_EQ(lrc_counter("full_solves").value(), 1u);

  reset_lrc_counters();
  EXPECT_EQ(lrc_counter("decodes").value(), 0u);
  EXPECT_EQ(lrc_counter("local_repairs").value(), 0u);

  // Failed decodes are not counted as decodes.
  EXPECT_FALSE(code->decode({}).has_value());
  EXPECT_EQ(lrc_counter("decodes").value(), 0u);
}

TEST(DecodePaths, RowsSpanningEveryColumnGoToTheSolve) {
  // A row whose support is every column could peel only a page's last
  // unknown column, so RS and LRC leave it to the solve: RS never peels,
  // and LRC peels exactly its local parities.
  stats::set_enabled(true);
  const auto counter = [](const std::string& codec, const char* path) -> auto& {
    return stats::Registry::instance().counter("erasure." + codec + "." + path);
  };
  for (const char* codec : {"rs", "lrc"}) {
    for (const char* path : {"local_repairs", "full_solves"})
      counter(codec, path).reset();
  }
  const auto blocks = pattern_blocks(8, 12);

  // RS: one data block lost, one parity row received.
  auto rs = make_rs_code(8, 16);
  const auto rs_encoded = rs->encode(blocks);
  std::vector<Share> shares;
  for (std::size_t i = 0; i < 8; ++i)
    if (i != 3) shares.push_back({i, rs_encoded[i]});
  shares.push_back({12, rs_encoded[12]});
  EXPECT_EQ(rs->decode(shares).value(), blocks);
  EXPECT_EQ(counter("rs", "local_repairs").value(), 0u);
  EXPECT_EQ(counter("rs", "full_solves").value(), 1u);

  // LRC (g=4, locals at 8..11): data 3 and its local parity 9 lost; the
  // other locals have nothing to repair, so a global row solves column 3.
  auto lrc = make_lrc_code(8, 16);
  const auto lrc_encoded = lrc->encode(blocks);
  shares.clear();
  for (std::size_t i = 0; i < 16; ++i)
    if (i != 3 && i != 9) shares.push_back({i, lrc_encoded[i]});
  EXPECT_EQ(lrc->decode(shares).value(), blocks);
  EXPECT_EQ(counter("lrc", "local_repairs").value(), 0u);
  EXPECT_EQ(counter("lrc", "full_solves").value(), 1u);
}

TEST(LrcCode, RegistryExposesIt) {
  EXPECT_EQ(parse_codec_kind("lrc"), CodecKind::kLrc);
  auto lrc = make_code(CodecKind::kLrc, 8, 16, 3, 99);
  EXPECT_EQ(lrc->name(), "lrc");
  EXPECT_EQ(lrc->decode_threshold(), 11u);  // delta ignored: k + g - 1
}

// ---------------------------------------------------------------------------
// Deterministic decode fuzz: malformed shares must make the contiguous
// decode return false or throw std::logic_error (LRS_CHECK), never read or
// write out of bounds.
// ---------------------------------------------------------------------------

TEST(DecodeFuzz, MalformedSharesFailCleanly) {
  const CodecKind kinds[] = {CodecKind::kReedSolomon, CodecKind::kRlcGf2,
                             CodecKind::kRlcGf256,    CodecKind::kLt,
                             CodecKind::kLrc};
  for (std::size_t ki = 0; ki < std::size(kinds); ++ki) {
    auto code = make_code(kinds[ki], 8, 16, 2, 5);
    std::vector<Bytes> blocks(8);
    Rng init(1000 + ki);
    for (auto& b : blocks) {
      b.resize(12);
      for (auto& v : b) v = static_cast<std::uint8_t>(init.uniform(256));
    }
    const auto encoded = code->encode(blocks);
    Rng rng(2000 + ki);
    int clean = 0, thrown = 0;
    for (int t = 0; t < 300; ++t) {
      // Random subset with duplicates allowed, then one random corruption.
      // Shares are views; `oversized` backs a lengthened one.
      std::vector<Share> shares;
      Bytes oversized;
      const std::size_t cnt = rng.uniform(20);
      for (std::size_t i = 0; i < cnt; ++i) {
        const std::size_t idx = rng.uniform(16);
        shares.push_back({idx, encoded[idx]});
      }
      if (!shares.empty()) {
        auto& victim = shares[rng.uniform(shares.size())];
        switch (rng.uniform(4)) {
          case 0:
            break;  // clean subset
          case 1:  // truncated block
            victim.data =
                victim.data.first(rng.uniform(victim.data.size() + 1));
            break;
          case 2:  // oversized block
            oversized.assign(victim.data.begin(), victim.data.end());
            oversized.resize(oversized.size() + 1 + rng.uniform(32), 0xAB);
            victim.data = view(oversized);
            break;
          case 3:  // out-of-range index
            victim.index = 16 + rng.uniform(1000);
            break;
        }
      }
      try {
        // Caller-owned k-block output between canary guards: a decode,
        // successful or not, writes only inside its own 8 x 12 bytes.
        constexpr std::size_t kGuard = 16;
        Bytes buf(8 * 12 + 2 * kGuard, 0xA5);
        const MutByteView out(buf.data() + kGuard, 8 * 12);
        const bool decoded = code->decode(shares, out);
        for (std::size_t g = 0; g < kGuard; ++g) {
          ASSERT_EQ(buf[g], 0xA5) << "kind " << ki << " t=" << t;
          ASSERT_EQ(buf[buf.size() - 1 - g], 0xA5) << "kind " << ki;
        }
        if (decoded) {
          // Every distinct share the decode could have used was intact or
          // rejected by a check, so a success reproduces the blocks.
          for (std::size_t j = 0; j < 8; ++j) {
            ASSERT_TRUE(std::equal(blocks[j].begin(), blocks[j].end(),
                                   out.begin() + j * 12))
                << "kind " << ki << " t=" << t << " block " << j;
          }
        }
        ++clean;
      } catch (const std::logic_error&) {
        ++thrown;  // LRS_CHECK rejection is the contract for malformed input
      }
    }
    EXPECT_GT(clean, 0) << "kind " << ki;
    EXPECT_GT(thrown, 0) << "kind " << ki;
  }
}

// ---------------------------------------------------------------------------
// Codec cache: canonicalization of the seed-independent kinds, and the
// thread-hammer the TSan CI job runs.
// ---------------------------------------------------------------------------

TEST(CodecCache, CanonicalizesLrcAndRsSpellings) {
  codec_cache_clear();
  auto a = make_code_cached(CodecKind::kLrc, 8, 16, 0, 0);
  auto b = make_code_cached(CodecKind::kLrc, 8, 16, 3, 0xdeadbeef);
  EXPECT_EQ(a.get(), b.get());
  auto c = make_code_cached(CodecKind::kReedSolomon, 8, 16, 0, 0);
  auto d = make_code_cached(CodecKind::kReedSolomon, 8, 16, 7, 42);
  EXPECT_EQ(c.get(), d.get());
  EXPECT_NE(a.get(), c.get());  // kinds stay distinct entries
  EXPECT_EQ(codec_cache_size(), 2u);
  codec_cache_clear();
}

TEST(CodecCache, ThreadHammerSharedInstances) {
  // Many threads resolve differing spellings of the same canonical codecs
  // and decode through the shared LRC instance (the registry stat counters
  // are the only mutable state). Run under TSan in CI.
  codec_cache_clear();
  stats::set_enabled(true);
  reset_lrc_counters();
  constexpr int kThreads = 8;
  constexpr int kIters = 25;
  std::vector<Bytes> blocks(8);
  for (std::size_t j = 0; j < 8; ++j) blocks[j] = Bytes(16, std::uint8_t(j));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &blocks, &failures] {
      for (int i = 0; i < kIters; ++i) {
        auto lrc = make_code_cached(CodecKind::kLrc, 8, 16,
                                    static_cast<std::size_t>(i % 3),
                                    static_cast<std::uint64_t>(t));
        auto rs = make_code_cached(CodecKind::kReedSolomon, 8, 16,
                                   static_cast<std::size_t>(i % 2),
                                   static_cast<std::uint64_t>(t * 31 + i));
        const auto enc = lrc->encode(blocks);
        std::vector<Share> shares;
        for (std::size_t s = 1; s < 8; ++s) shares.push_back({s, enc[s]});
        shares.push_back({8, enc[8]});  // local parity of group {0,1}
        const auto dec = lrc->decode(shares);
        if (!dec.has_value() || *dec != blocks) failures.fetch_add(1);
        const auto enc2 = rs->encode(blocks);
        if (enc2.size() != 16) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(codec_cache_size(), 2u);
  EXPECT_EQ(lrc_counter("decodes").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(lrc_counter("local_repairs").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  codec_cache_clear();
}

}  // namespace
}  // namespace lrs::erasure
