// Differential tests for the dispatched GF(256) kernels: every compiled-in
// kernel must match the reference log/exp kernel byte-for-byte, for every
// coefficient 0-255, over randomized buffers of awkward lengths (empty,
// sub-word, around the 8/16/32-byte vector strides, and page-sized) — the
// fused dot included, over 0 to 33 sources.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "erasure/code.h"
#include "erasure/gf256.h"
#include "erasure/gf256_kernels.h"
#include "util/rng.h"

namespace lrs::erasure {
namespace {

constexpr std::size_t kLengths[] = {0, 1, 7, 63, 64, 65, 4096};

Bytes random_bytes(std::size_t len, Rng& rng) {
  Bytes b(len);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform(256));
  return b;
}

TEST(Gf256Kernels, RegistryAlwaysHasRefAndTable) {
  const auto names = gf256_available_kernels();
  EXPECT_NE(std::find(names.begin(), names.end(), "ref"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "table"), names.end());
  for (const auto& name : names) {
    EXPECT_NE(gf256_find_kernel(name), nullptr) << name;
  }
  EXPECT_EQ(gf256_find_kernel("no-such-kernel"), nullptr);
  EXPECT_EQ(gf256_find_kernel("auto"), nullptr);
}

TEST(Gf256Kernels, SetKernelRejectsUnknownAndAcceptsAuto) {
  const std::string before = gf256_kernel().name;
  EXPECT_FALSE(gf256_set_kernel("no-such-kernel"));
  EXPECT_EQ(gf256_kernel().name, before);  // unchanged on failure
  EXPECT_TRUE(gf256_set_kernel("auto"));
  EXPECT_TRUE(gf256_set_kernel(before));
}

TEST(Gf256Kernels, MulTableMatchesScalarMul) {
  const std::uint8_t* table = gf256_mul_table();
  for (int c = 0; c < 256; ++c) {
    for (int x = 0; x < 256; ++x) {
      ASSERT_EQ(table[c * 256 + x],
                Gf256::mul(static_cast<std::uint8_t>(c),
                           static_cast<std::uint8_t>(x)))
          << "c=" << c << " x=" << x;
    }
  }
}

TEST(Gf256Kernels, ScalarMulHandlesZeroWithoutGuards) {
  // The log[0] sentinel must make unguarded zero products come out 0.
  for (int x = 0; x < 256; ++x) {
    EXPECT_EQ(Gf256::mul(0, static_cast<std::uint8_t>(x)), 0);
    EXPECT_EQ(Gf256::mul(static_cast<std::uint8_t>(x), 0), 0);
  }
  // And the known AES products still hold.
  EXPECT_EQ(Gf256::mul(0x53, 0xCA), 0x01);
  EXPECT_EQ(Gf256::mul(0x02, 0x80), 0x1b);
}

class KernelDifferential : public ::testing::TestWithParam<std::string> {
 protected:
  const Gf256Kernel* kernel() { return gf256_find_kernel(GetParam()); }
  const Gf256Kernel* ref() { return gf256_find_kernel("ref"); }
};

TEST_P(KernelDifferential, AddmulMatchesReferenceEverywhere) {
  const auto* k = kernel();
  ASSERT_NE(k, nullptr);
  const auto* r = ref();
  Rng rng(0x5eed);
  for (std::size_t len : kLengths) {
    const Bytes src = random_bytes(len, rng);
    const Bytes dst0 = random_bytes(len, rng);
    for (int c = 0; c < 256; ++c) {
      Bytes got = dst0, want = dst0;
      k->addmul(got.data(), src.data(), len,
                static_cast<std::uint8_t>(c));
      r->addmul(want.data(), src.data(), len,
                static_cast<std::uint8_t>(c));
      ASSERT_EQ(got, want) << GetParam() << " coeff=" << c << " len=" << len;
    }
  }
}

TEST_P(KernelDifferential, ScaleMatchesReferenceEverywhere) {
  const auto* k = kernel();
  ASSERT_NE(k, nullptr);
  const auto* r = ref();
  Rng rng(0xfeed);
  for (std::size_t len : kLengths) {
    const Bytes dst0 = random_bytes(len, rng);
    for (int c = 0; c < 256; ++c) {
      Bytes got = dst0, want = dst0;
      k->scale(got.data(), len, static_cast<std::uint8_t>(c));
      r->scale(want.data(), len, static_cast<std::uint8_t>(c));
      ASSERT_EQ(got, want) << GetParam() << " coeff=" << c << " len=" << len;
    }
  }
}

TEST_P(KernelDifferential, UnalignedBuffersMatchReference) {
  // SIMD paths use unaligned loads; shear the buffers so neither dst nor
  // src sits on a vector boundary.
  const auto* k = kernel();
  ASSERT_NE(k, nullptr);
  const auto* r = ref();
  Rng rng(0xa11);
  const std::size_t len = 257;
  Bytes src_store = random_bytes(len + 3, rng);
  Bytes base = random_bytes(len + 1, rng);
  for (int c : {0, 1, 2, 0x8e, 255}) {
    Bytes got = base, want = base;
    k->addmul(got.data() + 1, src_store.data() + 3, len,
              static_cast<std::uint8_t>(c));
    r->addmul(want.data() + 1, src_store.data() + 3, len,
              static_cast<std::uint8_t>(c));
    ASSERT_EQ(got, want) << GetParam() << " coeff=" << c;
  }
}

TEST_P(KernelDifferential, DotMatchesReferenceEverywhere) {
  // Lengths straddle the 16/32-byte vectors and the 64/128-byte register
  // strips; 33 sources exceed any unrolling. Every pattern mixes zero and
  // one coefficients (skipped / plain XOR) with random ones, and a single
  // source sweeps every coefficient. dst starts as garbage: dot overwrites.
  const auto* k = kernel();
  ASSERT_NE(k, nullptr);
  const auto* r = ref();
  Rng rng(0xd07);
  for (std::size_t len : {0, 1, 15, 16, 31, 32, 48, 63, 64, 65, 200}) {
    for (std::size_t count : {0, 1, 2, 33}) {
      std::vector<Bytes> srcs;
      std::vector<const std::uint8_t*> ptrs;
      for (std::size_t s = 0; s < count; ++s) {
        // One spare leading byte so every source sits off alignment.
        srcs.push_back(random_bytes(len + 1, rng));
        ptrs.push_back(srcs.back().data() + 1);
      }
      const int patterns = count == 1 ? 256 : 8;
      for (int pat = 0; pat < patterns; ++pat) {
        Bytes coeffs(count);
        for (std::size_t s = 0; s < count; ++s) {
          const std::size_t pick = (s + static_cast<std::size_t>(pat)) % 4;
          coeffs[s] = pick == 0   ? 0
                      : pick == 1 ? 1
                                  : static_cast<std::uint8_t>(rng.uniform(256));
        }
        if (count == 1) coeffs[0] = static_cast<std::uint8_t>(pat);
        Bytes got = random_bytes(len, rng);
        Bytes want = random_bytes(len, rng);
        k->dot(got.data(), ptrs.data(), coeffs.data(), count, len);
        r->dot(want.data(), ptrs.data(), coeffs.data(), count, len);
        ASSERT_EQ(got, want) << GetParam() << " len=" << len
                             << " count=" << count << " pattern=" << pat;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelDifferential,
                         ::testing::ValuesIn(gf256_available_kernels()),
                         [](const auto& info) { return info.param; });

// End-to-end: the full RS encode/decode round-trip must be bit-identical
// under every kernel (the protocol hash-chains encoded packets, so kernels
// must not merely be self-consistent — they must agree across nodes that
// may have selected different kernels).
TEST(Gf256Kernels, RsRoundTripIdenticalAcrossKernels) {
  const std::string before = gf256_kernel().name;
  auto code = make_rs_code(8, 12);
  Rng rng(9);
  std::vector<Bytes> blocks(8);
  for (auto& b : blocks) b = random_bytes(40, rng);

  std::vector<std::vector<Bytes>> encodings;
  for (const auto& name : gf256_available_kernels()) {
    ASSERT_TRUE(gf256_set_kernel(name));
    encodings.push_back(code->encode(blocks));
    std::vector<Share> shares;
    for (std::size_t i : {2u, 5u, 8u, 9u, 10u, 11u, 0u, 7u})
      shares.push_back({i, encodings.back()[i]});
    auto decoded = code->decode(shares);
    ASSERT_TRUE(decoded.has_value()) << name;
    EXPECT_EQ(*decoded, blocks) << name;
  }
  for (std::size_t i = 1; i < encodings.size(); ++i)
    EXPECT_EQ(encodings[i], encodings[0]);
  ASSERT_TRUE(gf256_set_kernel(before));
}

// ---------------------------------------------------------------------------
// Codec cache
// ---------------------------------------------------------------------------

TEST(CodecCache, SameKeyYieldsSameInstance) {
  codec_cache_clear();
  auto a = make_code_cached(CodecKind::kRlcGf256, 8, 16, 2, 42);
  auto b = make_code_cached(CodecKind::kRlcGf256, 8, 16, 2, 42);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(codec_cache_size(), 1u);
}

TEST(CodecCache, DistinctKeysYieldDistinctInstances) {
  codec_cache_clear();
  auto a = make_code_cached(CodecKind::kRlcGf256, 8, 16, 2, 42);
  auto b = make_code_cached(CodecKind::kRlcGf256, 8, 16, 2, 43);
  auto c = make_code_cached(CodecKind::kRlcGf2, 8, 16, 2, 42);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(codec_cache_size(), 3u);
}

TEST(CodecCache, ReedSolomonCanonicalizesDeltaAndSeed) {
  codec_cache_clear();
  auto a = make_code_cached(CodecKind::kReedSolomon, 8, 16, 0, 1);
  auto b = make_code_cached(CodecKind::kReedSolomon, 8, 16, 3, 99);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(codec_cache_size(), 1u);
}

TEST(CodecCache, CachedCodecBehavesLikeFresh) {
  codec_cache_clear();
  auto cached = make_code_cached(CodecKind::kRlcGf256, 4, 8, 1, 7);
  auto fresh = make_code(CodecKind::kRlcGf256, 4, 8, 1, 7);
  Rng rng(11);
  std::vector<Bytes> blocks(4);
  for (auto& b : blocks) b = random_bytes(16, rng);
  EXPECT_EQ(cached->encode(blocks), fresh->encode(blocks));
}

TEST(CodecCache, ClearKeepsOutstandingPointersValid) {
  codec_cache_clear();
  auto a = make_code_cached(CodecKind::kReedSolomon, 4, 8, 0, 0);
  codec_cache_clear();
  EXPECT_EQ(codec_cache_size(), 0u);
  EXPECT_EQ(a->k(), 4u);  // shared_ptr keeps the instance alive
  auto b = make_code_cached(CodecKind::kReedSolomon, 4, 8, 0, 0);
  EXPECT_NE(a.get(), b.get());  // rebuilt after clear
}

}  // namespace
}  // namespace lrs::erasure
