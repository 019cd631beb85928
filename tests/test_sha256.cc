// SHA-256 known-answer tests (FIPS 180-4 / NIST CAVP vectors),
// incremental-API behavior, and differential tests for the dispatched
// kernel layer: every compiled-in kernel (and the batch entry points) must
// match the scalar reference byte-for-byte for every message length around
// the block/padding boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "crypto/hash.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "util/hex.h"
#include "util/rng.h"

namespace lrs::crypto {
namespace {

std::string hash_hex(const std::string& msg) {
  const auto d = Sha256::hash(
      ByteView(reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  return to_hex(ByteView(d.data(), d.size()));
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, FourBlock896BitMessage) {
  EXPECT_EQ(hash_hex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                     "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    ctx.update(ByteView(reinterpret_cast<const std::uint8_t*>(chunk.data()),
                        chunk.size()));
  }
  const auto d = ctx.finalize();
  EXPECT_EQ(to_hex(ByteView(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShotAtEveryBoundary) {
  // Sweep split points around the 64-byte block boundary.
  std::string msg;
  for (int i = 0; i < 200; ++i) msg.push_back(static_cast<char>('A' + i % 26));
  const auto expect = hash_hex(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 ctx;
    ctx.update(ByteView(reinterpret_cast<const std::uint8_t*>(msg.data()),
                        split));
    ctx.update(ByteView(
        reinterpret_cast<const std::uint8_t*>(msg.data()) + split,
        msg.size() - split));
    const auto d = ctx.finalize();
    EXPECT_EQ(to_hex(ByteView(d.data(), d.size())), expect) << split;
  }
}

TEST(Sha256, EmptyUpdateWithPartialBlockBuffered) {
  // A default view has a null data pointer; feeding it while bytes of a
  // partial block are buffered must leave the digest unchanged (and pass
  // no null pointer to memcpy, which the sanitizer build would abort on).
  Sha256 ctx;
  ctx.update(ByteView(reinterpret_cast<const std::uint8_t*>("abc"), 3));
  ctx.update(ByteView{});
  const auto d = ctx.finalize();
  EXPECT_EQ(to_hex(ByteView(d.data(), d.size())), hash_hex("abc"));
}

TEST(Sha256, ExactBlockLengths) {
  // 55/56/57/63/64/65 bytes exercise every padding branch.
  const char* expected[] = {
      // echo -n <55 a's> | sha256sum, etc. (NIST-derived)
      "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
      "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
      "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6",
      "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
      "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
      "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"};
  const std::size_t lengths[] = {55, 56, 57, 63, 64, 65};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(hash_hex(std::string(lengths[i], 'a')), expected[i])
        << lengths[i];
  }
}

TEST(Sha256, ReuseAfterFinalizeThrows) {
  Sha256 ctx;
  ctx.update(Bytes{1, 2, 3});
  ctx.finalize();
  EXPECT_THROW(ctx.update(Bytes{4}), std::logic_error);
  EXPECT_THROW(ctx.finalize(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Kernel registry and differential tests.
// ---------------------------------------------------------------------------

Bytes random_bytes(std::size_t len, Rng& rng) {
  Bytes b(len);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform(256));
  return b;
}

/// Restores the auto-selected kernel even when a test fails mid-way.
struct KernelGuard {
  ~KernelGuard() { sha256_set_kernel("auto"); }
};

TEST(Sha256Kernels, RegistryAlwaysHasRefAndUnrolled) {
  const auto names = sha256_available_kernels();
  EXPECT_NE(std::find(names.begin(), names.end(), "ref"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "unrolled"), names.end());
  for (const auto& name : names) {
    EXPECT_NE(sha256_find_kernel(name), nullptr) << name;
  }
  EXPECT_EQ(sha256_find_kernel("no-such-kernel"), nullptr);
  EXPECT_EQ(sha256_find_kernel("auto"), nullptr);
  for (const auto& name : sha256_available_batch_kernels()) {
    const auto* k = sha256_find_batch_kernel(name);
    ASSERT_NE(k, nullptr) << name;
    EXPECT_GE(k->lanes, 1u) << name;
  }
  EXPECT_EQ(sha256_find_batch_kernel("no-such-kernel"), nullptr);
}

TEST(Sha256Kernels, SetKernelRejectsUnknownAndAcceptsAuto) {
  KernelGuard guard;
  const std::string before = sha256_kernel().name;
  EXPECT_FALSE(sha256_set_kernel("no-such-kernel"));
  EXPECT_EQ(sha256_kernel().name, before);  // unchanged on failure
  EXPECT_TRUE(sha256_set_kernel("auto"));
  EXPECT_TRUE(sha256_set_kernel(before));
}

TEST(Sha256Kernels, PinningScalarKernelDisablesBatchPath) {
  KernelGuard guard;
  ASSERT_TRUE(sha256_set_kernel("ref"));
  EXPECT_EQ(sha256_batch_kernel(), nullptr);
  ASSERT_TRUE(sha256_set_kernel("auto"));
  if (!sha256_available_batch_kernels().empty()) {
    EXPECT_NE(sha256_batch_kernel(), nullptr);
  }
}

// Every kernel must produce the reference digest for every length 0..1025:
// that range crosses the 55/56/64-byte padding branches, both one- and
// two-block tails, and multi-block messages.
TEST(Sha256Kernels, AllKernelsMatchReferenceForLengths0To1025) {
  KernelGuard guard;
  Rng rng(0x5eed);
  std::vector<Bytes> messages;
  for (std::size_t len = 0; len <= 1025; ++len) {
    messages.push_back(random_bytes(len, rng));
  }

  ASSERT_TRUE(sha256_set_kernel("ref"));
  std::vector<Sha256Digest> expected;
  for (const auto& m : messages) expected.push_back(Sha256::hash(view(m)));

  for (const auto& name : sha256_available_kernels()) {
    ASSERT_TRUE(sha256_set_kernel(name)) << name;
    for (std::size_t len = 0; len < messages.size(); ++len) {
      ASSERT_EQ(Sha256::hash(view(messages[len])), expected[len])
          << "kernel=" << name << " len=" << len;
    }
  }
}

// The one-block path (Sha256::hash below 56 bytes, finish_one_block from
// the IV or from a midstate, split into head || tail) must match the
// reference kernel's incremental hash for every length 0..119: the 55/56
// boundary where padding spills into a second block, and two-block
// messages. Lengths above 55 check that hash() and resume() still take the
// buffered path.
TEST(Sha256, OneBlockMatchesReference) {
  KernelGuard guard;
  Rng rng(0x0b10c);
  const Bytes prefix = random_bytes(128, rng);
  std::vector<Bytes> messages;
  for (std::size_t len = 0; len < 120; ++len) {
    messages.push_back(random_bytes(len, rng));
  }

  // Expected digests from the reference kernel through a plain context:
  // the message alone, and after 64 or 128 prefix bytes.
  ASSERT_TRUE(sha256_set_kernel("ref"));
  const std::size_t prefix_lens[] = {64, 128};
  std::vector<Sha256Digest> plain;
  std::vector<std::array<Sha256Digest, 2>> resumed;
  for (const auto& m : messages) {
    Sha256 ctx;
    plain.push_back(ctx.update(view(m)).finalize());
    std::array<Sha256Digest, 2> r;
    for (std::size_t p = 0; p < 2; ++p) {
      Sha256 c;
      c.update(ByteView(prefix.data(), prefix_lens[p])).update(view(m));
      r[p] = c.finalize();
    }
    resumed.push_back(r);
  }

  for (const auto& name : sha256_available_kernels()) {
    ASSERT_TRUE(sha256_set_kernel(name)) << name;
    std::array<Sha256Midstate, 2> mid;
    for (std::size_t p = 0; p < 2; ++p) {
      Sha256 c;
      c.update(ByteView(prefix.data(), prefix_lens[p]));
      mid[p] = c.midstate();
    }
    for (std::size_t len = 0; len < messages.size(); ++len) {
      const ByteView m = view(messages[len]);
      ASSERT_EQ(Sha256::hash(m), plain[len]) << name << " len=" << len;
      const std::size_t cut = len / 3;
      ASSERT_EQ(Sha256::hash(m.subspan(0, cut), m.subspan(cut)), plain[len])
          << name << " len=" << len;
      for (std::size_t p = 0; p < 2; ++p) {
        ASSERT_EQ(Sha256::resume(mid[p]).update(m).finalize(), resumed[len][p])
            << name << " len=" << len << " prefix=" << prefix_lens[p];
      }
      if (len > kSha256OneBlockMax) continue;
      ASSERT_EQ(Sha256::finish_one_block(kSha256Iv, m), plain[len])
          << name << " len=" << len;
      ASSERT_EQ(Sha256::finish_one_block(kSha256Iv, m.subspan(0, cut),
                                         m.subspan(cut)),
                plain[len])
          << name << " len=" << len;
      for (std::size_t p = 0; p < 2; ++p) {
        ASSERT_EQ(Sha256::finish_one_block(mid[p], m), resumed[len][p])
            << name << " len=" << len << " prefix=" << prefix_lens[p];
      }
    }
  }
  EXPECT_THROW(Sha256::finish_one_block(kSha256Iv, view(messages[56])),
               std::logic_error);
}

// The raw batch compressors must agree with the reference compressor on
// every lane, including ragged counts that exercise the remainder loop.
TEST(Sha256Kernels, BatchCompressorsMatchReferenceCompressor) {
  const Sha256Kernel* ref = sha256_find_kernel("ref");
  ASSERT_NE(ref, nullptr);
  Rng rng(0xba7c4);
  for (const auto& name : sha256_available_batch_kernels()) {
    const Sha256BatchKernel* batch = sha256_find_batch_kernel(name);
    ASSERT_NE(batch, nullptr) << name;
    for (std::size_t count : {1u, 3u, 4u, 5u, 8u, 9u, 17u}) {
      const Bytes data = random_bytes(count * 64, rng);
      std::vector<const std::uint8_t*> ptrs(count);
      std::vector<std::uint32_t> got(count * 8), want(count * 8);
      for (std::size_t i = 0; i < count; ++i) {
        ptrs[i] = data.data() + 64 * i;
        for (int j = 0; j < 8; ++j) {
          got[8 * i + j] = want[8 * i + j] = kSha256Init[j];
        }
      }
      batch->compress_batch(got.data(), ptrs.data(), count);
      for (std::size_t i = 0; i < count; ++i) {
        ref->compress(want.data() + 8 * i, ptrs[i], 1);
      }
      ASSERT_EQ(got, want) << "kernel=" << name << " count=" << count;
    }
  }
}

// hash_batch must equal one-shot hashing whatever mix of lengths it sees
// and whichever kernels are active.
TEST(Sha256Kernels, HashBatchMatchesOneShotForAllKernels) {
  KernelGuard guard;
  Rng rng(0xfeed);
  // Uniform runs (batch path), mixed lengths (run splitting), singletons.
  std::vector<Bytes> messages;
  for (std::size_t i = 0; i < 9; ++i) messages.push_back(random_bytes(64, rng));
  for (std::size_t len : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 127u, 128u, 300u}) {
    messages.push_back(random_bytes(len, rng));
  }
  for (std::size_t i = 0; i < 5; ++i) messages.push_back(random_bytes(77, rng));

  std::vector<ByteView> views;
  for (const auto& m : messages) views.push_back(view(m));

  ASSERT_TRUE(sha256_set_kernel("ref"));
  std::vector<Sha256Digest> expected;
  for (const auto& m : messages) expected.push_back(Sha256::hash(view(m)));

  std::vector<std::string> modes = sha256_available_kernels();
  modes.push_back("auto");
  for (const auto& name : modes) {
    ASSERT_TRUE(sha256_set_kernel(name)) << name;
    const auto got = hash_batch(std::span<const ByteView>(views));
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << "kernel=" << name << " msg=" << i;
    }
  }
}

TEST(Sha256Kernels, PacketHashBatchMatchesPacketHash) {
  Rng rng(0x9a5);
  std::vector<Bytes> messages;
  for (std::size_t i = 0; i < 48; ++i) messages.push_back(random_bytes(77, rng));
  std::vector<ByteView> views;
  for (const auto& m : messages) views.push_back(view(m));
  std::vector<PacketHash> got(messages.size());
  packet_hash_batch(views.data(), messages.size(), got.data());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    ASSERT_EQ(got[i], packet_hash(view(messages[i]))) << i;
  }
}

}  // namespace
}  // namespace lrs::crypto
