// HMAC (RFC 4231 vectors), Merkle tree, WOTS / multi-key signatures and the
// message-specific puzzle.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/hash.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/puzzle.h"
#include "crypto/wots.h"
#include "util/hex.h"
#include "util/rng.h"

namespace lrs::crypto {
namespace {

Bytes str_bytes(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

// ---------------------------------------------------------------------------
// HMAC-SHA256
// ---------------------------------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto mac = hmac_sha256(view(key), view(str_bytes("Hi There")));
  EXPECT_EQ(to_hex(ByteView(mac.data(), mac.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const auto mac = hmac_sha256(
      view(str_bytes("Jefe")), view(str_bytes("what do ya want for nothing?")));
  EXPECT_EQ(to_hex(ByteView(mac.data(), mac.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  const auto mac = hmac_sha256(view(key), view(data));
  EXPECT_EQ(to_hex(ByteView(mac.data(), mac.size())),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  const Bytes key(131, 0xaa);
  const auto mac = hmac_sha256(
      view(key), view(str_bytes("Test Using Larger Than Block-Size Key - "
                                "Hash Key First")));
  EXPECT_EQ(to_hex(ByteView(mac.data(), mac.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Case7LongKeyAndMessage) {
  // A 152-byte message: the inner step is longer than one padded block.
  const Bytes key(131, 0xaa);
  const auto mac = hmac_sha256(
      view(key),
      view(str_bytes("This is a test using a larger than block-size key and a "
                     "larger than block-size data. The key needs to be hashed "
                     "before being used by the HMAC algorithm.")));
  EXPECT_EQ(to_hex(ByteView(mac.data(), mac.size())),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(ControlMac, VerifiesAndRejectsTamper) {
  const HmacKey key(view(Bytes{1, 2, 3}));
  const Bytes msg{9, 9, 9};
  const ControlMac mac = control_mac(key, view(msg));
  EXPECT_TRUE(verify_control_mac(key, view(msg), mac));
  Bytes other{9, 9, 8};
  EXPECT_FALSE(verify_control_mac(key, view(other), mac));
  const HmacKey wrong_key(view(Bytes{1, 2, 4}));
  EXPECT_FALSE(verify_control_mac(wrong_key, view(msg), mac));
}

// ---------------------------------------------------------------------------
// Packet hashes
// ---------------------------------------------------------------------------

TEST(PacketHashTest, IsPrefixOfSha256) {
  const Bytes data{1, 2, 3};
  const auto full = Sha256::hash(view(data));
  const auto trunc = packet_hash(view(data));
  for (std::size_t i = 0; i < kPacketHashSize; ++i)
    EXPECT_EQ(trunc[i], full[i]);
}

TEST(PacketHashTest, ReadAtOffset) {
  Bytes buf(24, 0);
  const PacketHash h = packet_hash(view(Bytes{7}));
  std::copy(h.begin(), h.end(), buf.begin() + 8);
  EXPECT_TRUE(equal(read_packet_hash(view(buf), 8), h));
  EXPECT_THROW(read_packet_hash(view(buf), 20), std::logic_error);
}

// ---------------------------------------------------------------------------
// Merkle tree
// ---------------------------------------------------------------------------

std::vector<Bytes> make_leaves(std::size_t count) {
  std::vector<Bytes> leaves;
  for (std::size_t i = 0; i < count; ++i)
    leaves.push_back(Bytes{static_cast<std::uint8_t>(i), 0x55,
                           static_cast<std::uint8_t>(i * 7)});
  return leaves;
}

TEST(Merkle, EveryLeafVerifiesAgainstRoot) {
  for (std::size_t count : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const auto leaves = make_leaves(count);
    const auto tree = MerkleTree::build(leaves);
    EXPECT_EQ(tree.leaf_count(), count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto path = tree.auth_path(i);
      EXPECT_EQ(path.size(), tree.depth());
      EXPECT_TRUE(equal(
          MerkleTree::compute_root(view(leaves[i]), i, path), tree.root()))
          << "count=" << count << " leaf=" << i;
    }
  }
}

TEST(Merkle, TamperedLeafFails) {
  const auto leaves = make_leaves(8);
  const auto tree = MerkleTree::build(leaves);
  Bytes forged = leaves[3];
  forged[0] ^= 1;
  EXPECT_FALSE(equal(
      MerkleTree::compute_root(view(forged), 3, tree.auth_path(3)),
      tree.root()));
}

TEST(Merkle, WrongIndexFails) {
  const auto leaves = make_leaves(8);
  const auto tree = MerkleTree::build(leaves);
  EXPECT_FALSE(equal(
      MerkleTree::compute_root(view(leaves[3]), 4, tree.auth_path(3)),
      tree.root()));
}

TEST(Merkle, TamperedPathFails) {
  const auto leaves = make_leaves(8);
  const auto tree = MerkleTree::build(leaves);
  auto path = tree.auth_path(5);
  path[1][0] ^= 1;
  EXPECT_FALSE(
      equal(MerkleTree::compute_root(view(leaves[5]), 5, path), tree.root()));
}

TEST(Merkle, NonPowerOfTwoRejected) {
  EXPECT_THROW(MerkleTree::build(make_leaves(3)), std::logic_error);
  EXPECT_THROW(MerkleTree::build({}), std::logic_error);
}

TEST(Merkle, LeafAndNodeDomainsSeparated) {
  // A leaf containing exactly the encoding of two child hashes must not
  // collide with the internal node above them.
  const auto leaves = make_leaves(2);
  const auto tree = MerkleTree::build(leaves);
  const PacketHash l0 = MerkleTree::leaf_hash(view(leaves[0]));
  const PacketHash l1 = MerkleTree::leaf_hash(view(leaves[1]));
  Bytes concat;
  append(concat, l0);
  append(concat, l1);
  EXPECT_FALSE(equal(MerkleTree::leaf_hash(view(concat)),
                     MerkleTree::node_hash(l0, l1)));
}

// ---------------------------------------------------------------------------
// WOTS
// ---------------------------------------------------------------------------

TEST(Wots, SignVerifyRoundTrip) {
  const Bytes seed{1, 2, 3, 4};
  auto kp = WotsKeyPair::generate(view(seed), 0);
  const Bytes msg = str_bytes("new code image v2");
  const auto sig = kp.sign(view(msg));
  EXPECT_TRUE(WotsKeyPair::verify(kp.public_key(), view(msg), sig));
}

TEST(Wots, WrongMessageFails) {
  const Bytes seed{1, 2, 3, 4};
  auto kp = WotsKeyPair::generate(view(seed), 0);
  const auto sig = kp.sign(view(str_bytes("genuine")));
  EXPECT_FALSE(WotsKeyPair::verify(kp.public_key(), view(str_bytes("forged")),
                                   sig));
}

TEST(Wots, TamperedSignatureFails) {
  const Bytes seed{9};
  auto kp = WotsKeyPair::generate(view(seed), 0);
  const Bytes msg = str_bytes("m");
  auto sig = kp.sign(view(msg));
  sig.chains[5][0] ^= 1;
  EXPECT_FALSE(WotsKeyPair::verify(kp.public_key(), view(msg), sig));
}

TEST(Wots, KeyReuseRefused) {
  const Bytes seed{7};
  auto kp = WotsKeyPair::generate(view(seed), 0);
  kp.sign(view(str_bytes("one")));
  EXPECT_THROW(kp.sign(view(str_bytes("two"))), std::logic_error);
}

TEST(Wots, DistinctIndicesGiveDistinctKeys) {
  const Bytes seed{7};
  auto a = WotsKeyPair::generate(view(seed), 0);
  auto b = WotsKeyPair::generate(view(seed), 1);
  EXPECT_FALSE(equal(a.public_key(), b.public_key()));
}

TEST(Wots, SignatureSerializationRoundTrip) {
  const Bytes seed{3};
  auto kp = WotsKeyPair::generate(view(seed), 0);
  const Bytes msg = str_bytes("x");
  const auto sig = kp.sign(view(msg));
  const Bytes raw = sig.serialize();
  EXPECT_EQ(raw.size(), WotsSignature::kSerializedSize);
  const auto back = WotsSignature::deserialize(view(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(WotsKeyPair::verify(kp.public_key(), view(msg), *back));
}

TEST(Wots, PublicKeyMemoIsTransparent) {
  // A seed no other test uses, so the first generate() misses the memo.
  const Bytes seed{0xa5, 0x5a, 0x01};
  auto miss = WotsKeyPair::generate(view(seed), 3);
  auto hit = WotsKeyPair::generate(view(seed), 3);
  EXPECT_TRUE(equal(miss.public_key(), hit.public_key()));
  const Bytes msg = str_bytes("image root");
  EXPECT_TRUE(WotsKeyPair::verify(miss.public_key(), view(msg),
                                  miss.sign(view(msg))));
  EXPECT_TRUE(WotsKeyPair::verify(hit.public_key(), view(msg),
                                  hit.sign(view(msg))));
  const Bytes other{0xa5, 0x5a, 0x02};
  EXPECT_FALSE(equal(WotsKeyPair::generate(view(other), 3).public_key(),
                     miss.public_key()));
}

TEST(Wots, SignatureBytesPinned) {
  // Fixed seed, index and message; the public key and every signature chain
  // are pinned, one hex line per chain, so any change to the chaining
  // function, its padding or the digest byte order shows here.
  const Bytes seed = str_bytes("pinned wots seed");
  auto kp = WotsKeyPair::generate(view(seed), 7);
  EXPECT_EQ(to_hex(ByteView(kp.public_key().data(), kp.public_key().size())),
            "a6c380fa5bb46e7abdeb0039b31c7d4ead47ed3125b19af2f616a92d802b5a3e");
  const Bytes msg = str_bytes("pinned image root");
  const WotsSignature sig = kp.sign(view(msg));
  std::string got;
  for (const auto& c : sig.chains) {
    got += to_hex(ByteView(c.data(), c.size())) + "\n";
  }
  EXPECT_EQ(got,
            "483e65304d1364787cddaf8e58842078ee34577cdeb243bb36d32ebef3960f9d\n"
            "267701ebb9201066b0c08809f62b5dba93ba5edc6023931625146a949370ba44\n"
            "0563afebe73f4b857bb1a3025ef1714a7de8208c08f2b2514e7547259a0d899a\n"
            "cacdc81af6887994934c88cd88d1e4f5523631c2992df98500be009bbb46023b\n"
            "1ac56f09d13c0a5d2dc5a19ec447780dd41a4b3fac3e423582e20081fc2aaba5\n"
            "fd53134c8081a9905eaa8c303f330f4a5dc29bea19ffb9401cbaf6863d80175f\n"
            "d9dd341d6fb5ca0eae1ec189476d283021df2bad1a8fc46b01be84c8ab367358\n"
            "1bd7eb4dad2178745fd6d6773158596e08474d7af5df87e9d635df6f6376205f\n"
            "8432b03d25ecc7d6ef1453c1ef69cc08cc0f5674ebbab02f65e55eb4499f6a0e\n"
            "c34ea519e0328f7567308273da7efa7c8e41049b97ebb87f9373dbb432c70f95\n"
            "c809b9f9f3a5944359dd01e932a766247ac42f837ce4ffd4f1d5fccf35a32e01\n"
            "81d81f342ef807dacf63e4f9bdb01fb020fc5b88afdcc39e44b5db050e751a1c\n"
            "1736e0950388533eba95012709c5601b3ce80206f538f3d7a8a371ae9b927848\n"
            "8478b3c175f17d0f3f5a883c104b5720c4d893f31f5d9c544859a51a36662063\n"
            "3208054464842c0f16eb449065959cfc334fdc30b8f1b407b25a668d8a36cbce\n"
            "7159069e0789b30d4bacd3b4e0066d73c9191fb95788aa1e3771597bd6cebc97\n"
            "8fe74079258f550757c657c134ae8ebb2b81162b77b2089ff242635bb48e6f0f\n"
            "46143cb4cff315dbc80d85f7cda747df76ad27b22c6eef9fb1228c7a16801a77\n");
  EXPECT_TRUE(WotsKeyPair::verify(kp.public_key(), view(msg), sig));
}

// The chaining function applied one step at a time, one chain after the
// other: the walk WOTS used before its chains advanced side by side.
std::array<std::uint8_t, kWotsChainBytes> stepwise_chain(
    std::array<std::uint8_t, kWotsChainBytes> v, unsigned steps) {
  for (unsigned i = 0; i < steps; ++i) {
    const Sha256Digest d = Sha256::hash(ByteView(v.data(), v.size()));
    std::copy_n(d.begin(), kWotsChainBytes, v.begin());
  }
  return v;
}

TEST(Wots, ChainWalkMatchesStepwise) {
  Rng rng(0xc4a1);
  WotsChains start;
  for (auto& c : start) {
    for (auto& b : c) b = static_cast<std::uint8_t>(rng.uniform(256));
  }
  // Every chain the same length (0, 1, 254, 255), then mixed lengths with
  // ties, the extremes and random values.
  std::vector<std::array<unsigned, kWotsLen>> cases;
  for (const unsigned n : {0u, 1u, 254u, 255u}) {
    std::array<unsigned, kWotsLen> steps;
    steps.fill(n);
    cases.push_back(steps);
  }
  for (int r = 0; r < 4; ++r) {
    std::array<unsigned, kWotsLen> steps;
    for (auto& s : steps) s = static_cast<unsigned>(rng.uniform(256));
    steps[r] = 0;
    steps[r + 4] = 255;
    steps[r + 8] = 1;
    steps[r + 9] = 254;
    cases.push_back(steps);
  }
  for (const auto& steps : cases) {
    WotsChains walked = start;
    wots_walk_chains(walked, steps);
    for (std::size_t i = 0; i < kWotsLen; ++i) {
      ASSERT_EQ(walked[i], stepwise_chain(start[i], steps[i]))
          << "chain " << i << " steps " << steps[i];
    }
  }
}

TEST(Wots, CheckpointWalkMatchesSecretWalk) {
  Rng rng(0x64c4);
  WotsChains secret;
  for (auto& c : secret) {
    for (auto& b : c) b = static_cast<std::uint8_t>(rng.uniform(256));
  }
  // The full 255-step walk records the checkpoints and still ends at the
  // chain tops.
  WotsCheckpoints checkpoints{};
  WotsChains tops = secret;
  std::array<unsigned, kWotsLen> full;
  full.fill(255);
  wots_walk_chains(tops, full, &checkpoints);
  for (std::size_t i = 0; i < kWotsLen; ++i) {
    ASSERT_EQ(tops[i], stepwise_chain(secret[i], 255)) << "chain " << i;
    for (std::size_t j = 0; j < kWotsCheckpoints; ++j) {
      ASSERT_EQ(checkpoints[j][i],
                stepwise_chain(secret[i], (j + 1) * kWotsCheckpointSpacing))
          << "chain " << i << " checkpoint " << j;
    }
  }
  // Every step count, on every chain at once and on chains whose counts
  // straddle the checkpoints, matches the walk from the secret value.
  for (unsigned n = 0; n <= 255; ++n) {
    std::array<unsigned, kWotsLen> steps;
    for (std::size_t i = 0; i < kWotsLen; ++i) {
      steps[i] = i % 2 == 0 ? n : (n + 37 * i) % 256;
    }
    const WotsChains from_checkpoints =
        wots_walk_from_checkpoints(secret, checkpoints, steps);
    WotsChains from_secret = secret;
    wots_walk_chains(from_secret, steps);
    ASSERT_EQ(from_checkpoints, from_secret) << "steps " << n;
  }
}

// ---------------------------------------------------------------------------
// MultiKeySigner
// ---------------------------------------------------------------------------

TEST(MultiKeySigner, SignsUpToCapacityThenThrows) {
  const Bytes seed{1};
  MultiKeySigner signer(view(seed), 2);
  EXPECT_EQ(signer.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    const Bytes msg{static_cast<std::uint8_t>(i)};
    const auto sig = signer.sign(view(msg));
    EXPECT_TRUE(
        MultiKeySigner::verify(signer.root_public_key(), view(msg), sig));
  }
  const Bytes msg{99};
  EXPECT_THROW(signer.sign(view(msg)), std::runtime_error);
}

TEST(MultiKeySigner, SameSeedSignersAreIndependent) {
  // The second signer's keys come from the public-key memo; each signer
  // still owns its one-time-use state.
  const Bytes seed{0x11, 0x22, 0x33, 0x44};
  MultiKeySigner a(view(seed), 2);
  MultiKeySigner b(view(seed), 2);
  EXPECT_EQ(to_hex(ByteView(a.root_public_key().data(),
                            a.root_public_key().size())),
            "396060122c158ce9");
  EXPECT_TRUE(equal(a.root_public_key(), b.root_public_key()));
  for (MultiKeySigner* signer : {&a, &b}) {
    for (std::size_t i = 0; i < signer->capacity(); ++i) {
      const Bytes msg{static_cast<std::uint8_t>(i), 0x77};
      const auto sig = signer->sign(view(msg));
      EXPECT_TRUE(
          MultiKeySigner::verify(signer->root_public_key(), view(msg), sig));
    }
    EXPECT_THROW(signer->sign(view(Bytes{1})), std::runtime_error);
  }
}

TEST(MultiKeySigner, MemoMissAndHitSignaturesPinned) {
  // run_experiment's signer seed and a seed no other test uses (so its
  // first signer misses the memo); digests of the serialized certified
  // signature recorded from the walk that started every chain at its
  // secret value.
  const std::pair<Bytes, const char*> pinned[] = {
      {Bytes{0x11, 0x22, 0x33, 0x44},
       "8e33987bec9e1a9ff669a9df0ace10cbfe5b5e2d5cdbfeba0c3b3d44f0e78e0e"},
      {Bytes{0x5e, 0xed, 0x31},
       "6109f157052cbc86cda72cd5eb846a455cc3a7b7bbd12a18d8c3cabf465d0fe7"}};
  const Bytes msg = str_bytes("lr-seluge image root");
  for (const auto& [seed, digest] : pinned) {
    std::vector<Bytes> raw;
    for (int pass = 0; pass < 2; ++pass) {  // memo miss (cold), then hit
      MultiKeySigner signer(view(seed), 2);
      raw.push_back(signer.sign(view(msg)).serialize());
    }
    EXPECT_EQ(raw[0], raw[1]);
    for (const Bytes& r : raw) {
      const Sha256Digest d = Sha256::hash(view(r));
      EXPECT_EQ(to_hex(ByteView(d.data(), d.size())), digest);
    }
  }
}

TEST(MultiKeySigner, CrossMessageForgeryFails) {
  const Bytes seed{2};
  MultiKeySigner signer(view(seed), 1);
  const auto sig = signer.sign(view(Bytes{1}));
  EXPECT_FALSE(MultiKeySigner::verify(signer.root_public_key(), view(Bytes{2}),
                                      sig));
}

TEST(MultiKeySigner, ForeignKeyRejected) {
  const Bytes seed_a{3}, seed_b{4};
  MultiKeySigner alice(view(seed_a), 1);
  MultiKeySigner mallory(view(seed_b), 1);
  const Bytes msg{7};
  const auto sig = mallory.sign(view(msg));
  // Mallory's signature verifies under her root but not Alice's.
  EXPECT_TRUE(
      MultiKeySigner::verify(mallory.root_public_key(), view(msg), sig));
  EXPECT_FALSE(
      MultiKeySigner::verify(alice.root_public_key(), view(msg), sig));
}

TEST(MultiKeySigner, KeyIndexBitAboveTreeHeightRejected) {
  // The Merkle path fixes the tree height; an index bit at or above it names
  // no leaf, even though the path still hashes to the root from the low
  // bits. (A one-bit corruption of the serialized index's high byte once
  // bootstrapped a receiver this way.)
  const Bytes seed{0x0c};
  MultiKeySigner signer(view(seed), 2);
  const Bytes msg{4, 2};
  const auto sig = signer.sign(view(msg));
  ASSERT_EQ(sig.cert_path.size(), 2u);
  ASSERT_TRUE(MultiKeySigner::verify(signer.root_public_key(), view(msg), sig));
  for (const unsigned bit : {2u, 3u, 8u, 24u, 31u}) {
    CertifiedSignature bad = sig;
    bad.key_index |= std::uint32_t{1} << bit;
    EXPECT_FALSE(
        MultiKeySigner::verify(signer.root_public_key(), view(msg), bad))
        << "bit " << bit;
    EXPECT_FALSE(
        verify_certified_cached(signer.root_public_key(), view(msg), bad))
        << "bit " << bit;
  }
}

TEST(MultiKeySigner, SerializationRoundTrip) {
  const Bytes seed{5};
  MultiKeySigner signer(view(seed), 3);
  const Bytes msg = str_bytes("image metadata || root");
  const auto sig = signer.sign(view(msg));
  const auto back = CertifiedSignature::deserialize(view(sig.serialize()));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(
      MultiKeySigner::verify(signer.root_public_key(), view(msg), *back));
}

TEST(MultiKeySigner, TruncatedSerializationRejected) {
  const Bytes seed{6};
  MultiKeySigner signer(view(seed), 1);
  Bytes raw = signer.sign(view(Bytes{1})).serialize();
  raw.resize(raw.size() - 1);
  EXPECT_FALSE(CertifiedSignature::deserialize(view(raw)).has_value());
}

// ---------------------------------------------------------------------------
// WOTS key memo (public keys and chain checkpoints) under contention: the
// thread hammer the TSan CI job runs.
// ---------------------------------------------------------------------------

TEST(WotsMemo, ThreadHammer) {
  constexpr std::size_t kSeeds = 3, kIndices = 4, kThreads = 8;
  // Seeds unique to this test, so the threads race on cold memo entries.
  std::vector<Bytes> seeds;
  for (std::size_t s = 0; s < kSeeds; ++s)
    seeds.push_back(Bytes{0xc3, static_cast<std::uint8_t>(s)});
  const Bytes msg = str_bytes("hammer");
  // got[t][s * kIndices + i]: thread t's public key and signature for
  // (seed s, index i).
  std::vector<std::vector<WotsPublicKey>> got(
      kThreads, std::vector<WotsPublicKey>(kSeeds * kIndices));
  std::vector<std::vector<WotsSignature>> signed_by(
      kThreads, std::vector<WotsSignature>(kSeeds * kIndices));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seeds, &msg, &got, &signed_by] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t s = 0; s < kSeeds; ++s) {
          for (std::size_t k = 0; k < kIndices; ++k) {
            // Threads start at different indices so misses and hits on one
            // key interleave.
            const std::size_t i = (k + t) % kIndices;
            const WotsKeyPair kp = WotsKeyPair::generate(view(seeds[s]), i);
            got[t][s * kIndices + i] = kp.public_key();
            // A fresh copy signs from the checkpoints it shares with every
            // other copy of this key, on every thread at once.
            WotsKeyPair copy = kp;
            signed_by[t][s * kIndices + i] = copy.sign(view(msg));
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t s = 0; s < kSeeds; ++s) {
    for (std::size_t i = 0; i < kIndices; ++i) {
      auto serial = WotsKeyPair::generate(view(seeds[s]), i);
      // The uncached verify walks the chains itself, so this pins the
      // memoized key to the secret chains, not just to the memo.
      const auto sig = serial.sign(view(msg));
      ASSERT_TRUE(WotsKeyPair::verify(serial.public_key(), view(msg), sig));
      for (std::size_t t = 0; t < kThreads; ++t) {
        EXPECT_TRUE(equal(got[t][s * kIndices + i], serial.public_key()))
            << "thread " << t << " seed " << s << " index " << i;
        EXPECT_EQ(signed_by[t][s * kIndices + i].chains, sig.chains)
            << "thread " << t << " seed " << s << " index " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Puzzle
// ---------------------------------------------------------------------------

TEST(Puzzle, SolveThenVerify) {
  const Bytes msg = str_bytes("signature packet body");
  const auto sol = solve_puzzle(view(msg), 12);
  EXPECT_TRUE(verify_puzzle(view(msg), sol));
}

TEST(Puzzle, WrongMessageFails) {
  const Bytes msg = str_bytes("genuine");
  const auto sol = solve_puzzle(view(msg), 12);
  EXPECT_FALSE(verify_puzzle(view(str_bytes("forged!")), sol));
}

TEST(Puzzle, RandomSolutionAlmostNeverValid) {
  const Bytes msg = str_bytes("target");
  int valid = 0;
  for (std::uint64_t s = 0; s < 200; ++s) {
    PuzzleSolution guess{16, s * 7919 + 1};
    valid += verify_puzzle(view(msg), guess);
  }
  EXPECT_LE(valid, 1);
}

TEST(Puzzle, StrengthZeroAlwaysPasses) {
  const Bytes msg = str_bytes("m");
  PuzzleSolution sol{0, 12345};
  EXPECT_TRUE(verify_puzzle(view(msg), sol));
}

TEST(Puzzle, AbsurdStrengthRejected) {
  const Bytes msg = str_bytes("m");
  PuzzleSolution sol{200, 0};
  EXPECT_FALSE(verify_puzzle(view(msg), sol));
  EXPECT_THROW(solve_puzzle(view(msg), 200), std::logic_error);
}

TEST(Puzzle, SolutionsPinnedAcrossOneBlockBoundary) {
  // Message lengths on both sides of 47 bytes, where message and the 8-byte
  // candidate stop fitting one padded block; solutions recorded from the
  // build before one-block hashing.
  const std::pair<std::size_t, std::uint64_t> pinned[] = {
      {0, 2664}, {20, 652}, {47, 3151}, {48, 7784}, {55, 2036}, {100, 886}};
  for (const auto& [len, solution] : pinned) {
    Bytes msg(len);
    for (std::size_t i = 0; i < len; ++i) {
      msg[i] = static_cast<std::uint8_t>(i * 7 + len);
    }
    EXPECT_EQ(solve_puzzle(view(msg), 12).solution, solution) << len;
  }
}

TEST(Puzzle, SerializationRoundTrip) {
  PuzzleSolution sol{13, 0xdeadbeefcafeULL};
  const auto back = PuzzleSolution::deserialize(view(sol.serialize()));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->strength, 13);
  EXPECT_EQ(back->solution, 0xdeadbeefcafeULL);
}

}  // namespace
}  // namespace lrs::crypto
