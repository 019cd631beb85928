// Authentication conformance across the three signed schemes (Sluice,
// Seluge, LR-Seluge): the signature-packet bootstrap charges the same
// counters in the same order for every scheme, and the per-packet and
// control-frame checks leave pinned end-to-end counters under corruption.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/lr_image.h"
#include "crypto/merkle.h"
#include "crypto/puzzle.h"
#include "crypto/wots.h"
#include "proto/auth.h"
#include "proto/packet.h"
#include "proto/seluge.h"
#include "proto/sluice.h"

namespace lrs {
namespace {

using proto::CommonParams;
using proto::SchemeState;

// ---------------------------------------------------------------------------
// Signed bootstrap
// ---------------------------------------------------------------------------

struct SignedScheme {
  const char* name;
  std::function<std::unique_ptr<SchemeState>(
      const CommonParams&, const Bytes&, crypto::MultiKeySigner&)>
      source;
  std::function<std::unique_ptr<SchemeState>(const CommonParams&,
                                             const crypto::PacketHash&)>
      receiver;
};

void PrintTo(const SignedScheme& s, std::ostream* os) { *os << s.name; }

CommonParams bootstrap_params() {
  CommonParams p;
  p.payload_size = 32;
  p.k = 8;
  p.n = 12;
  p.k0 = 4;
  p.n0 = 8;
  p.puzzle_strength = 6;
  return p;
}

/// Counter deltas one on_signature call charges.
struct Charge {
  std::uint64_t auth_failures = 0;
  std::uint64_t puzzle_rejections = 0;
  std::uint64_t signature_verifications = 0;
};

class SignedBootstrap : public ::testing::TestWithParam<SignedScheme> {
 protected:
  SignedBootstrap()
      : image_(core::make_test_image(1500, 5)),
        signer_(view(Bytes{0x51}), 1),
        src_(GetParam().source(params_, image_, signer_)),
        dst_(GetParam().receiver(params_, signer_.root_public_key())),
        genuine_(src_->signature_frame().value()),
        packet_(proto::SignaturePacket::parse(view(genuine_)).value()) {}

  /// Feeds `frame` to the receiver; returns its verdict and the charge.
  std::pair<bool, Charge> offer(const Bytes& frame) {
    const sim::NodeMetrics before = m_;
    const bool ok = dst_->on_signature(view(frame), m_);
    Charge c;
    c.auth_failures = m_.auth_failures - before.auth_failures;
    c.puzzle_rejections = m_.puzzle_rejections - before.puzzle_rejections;
    c.signature_verifications =
        m_.signature_verifications - before.signature_verifications;
    return {ok, c};
  }

  static void expect_charge(const Charge& got, const Charge& want) {
    EXPECT_EQ(got.auth_failures, want.auth_failures);
    EXPECT_EQ(got.puzzle_rejections, want.puzzle_rejections);
    EXPECT_EQ(got.signature_verifications, want.signature_verifications);
  }

  CommonParams params_ = bootstrap_params();
  Bytes image_;
  crypto::MultiKeySigner signer_;
  std::unique_ptr<SchemeState> src_;
  std::unique_ptr<SchemeState> dst_;
  Bytes genuine_;
  proto::SignaturePacket packet_;
  sim::NodeMetrics m_;
};

TEST_P(SignedBootstrap, JunkFrameIsOneAuthFailure) {
  const auto [ok, c] = offer(Bytes{4, 1, 2, 3});
  EXPECT_FALSE(ok);
  expect_charge(c, {1, 0, 0});
  EXPECT_FALSE(dst_->bootstrapped());
}

TEST_P(SignedBootstrap, WrongVersionIsOneAuthFailure) {
  proto::SignaturePacket p = packet_;
  p.meta.version = params_.version + 1;
  const auto [ok, c] = offer(p.serialize());
  EXPECT_FALSE(ok);
  expect_charge(c, {1, 0, 0});
  EXPECT_FALSE(dst_->bootstrapped());
}

TEST_P(SignedBootstrap, PuzzleBelowPreloadedStrengthIsRejectedUnverified) {
  // The genuine signature with a puzzle solved at a strength the packet
  // names but the receiver was not preloaded with: the packet's own
  // strength field must not lower the gate, so the signature is never
  // checked even though it would verify.
  proto::SignaturePacket p = packet_;
  const std::uint8_t weak = params_.puzzle_strength - 4;
  p.puzzle = crypto::solve_puzzle(view(p.signed_message()), weak);
  ASSERT_EQ(p.puzzle.strength, weak);
  const auto [ok, c] = offer(p.serialize());
  EXPECT_FALSE(ok);
  expect_charge(c, {0, 1, 0});
  EXPECT_FALSE(dst_->bootstrapped());
}

TEST_P(SignedBootstrap, BadPuzzleSolutionIsRejectedUnverified) {
  proto::SignaturePacket p = packet_;
  // Walk to a solution that fails the preloaded strength.
  while (crypto::verify_puzzle(view(p.signed_message()), p.puzzle))
    ++p.puzzle.solution;
  const auto [ok, c] = offer(p.serialize());
  EXPECT_FALSE(ok);
  expect_charge(c, {0, 1, 0});
}

TEST_P(SignedBootstrap, SolvedPuzzleWithForgedSignatureCostsOneVerification) {
  // The attacker signs the genuine (meta, root) under a key the network
  // never preloaded and pays for a valid puzzle.
  crypto::MultiKeySigner mallory(view(Bytes{0x66}), 1);
  proto::SignaturePacket p = packet_;
  p.signature = mallory.sign(view(p.signed_message())).serialize();
  const auto [ok, c] = offer(p.serialize());
  EXPECT_FALSE(ok);
  expect_charge(c, {1, 0, 1});
  EXPECT_FALSE(dst_->bootstrapped());
}

TEST_P(SignedBootstrap, KeyIndexBitAboveTreeHeightIsOneFailedVerification) {
  // The genuine frame with one bit of the key index's high byte flipped:
  // the puzzle does not cover the signature, and the certification path
  // only reads the index's low bits, so the index itself must be bounded
  // by the tree height.
  proto::SignaturePacket p = packet_;
  auto cert =
      crypto::CertifiedSignature::deserialize(view(p.signature)).value();
  cert.key_index |= std::uint32_t{1} << 24;
  p.signature = cert.serialize();
  const auto [ok, c] = offer(p.serialize());
  EXPECT_FALSE(ok);
  expect_charge(c, {1, 0, 1});
  EXPECT_FALSE(dst_->bootstrapped());
  EXPECT_TRUE(offer(genuine_).first);
}

TEST_P(SignedBootstrap, GenuineFrameBootstrapsOnceThenIsIgnored) {
  const auto [ok, c] = offer(genuine_);
  EXPECT_TRUE(ok);
  expect_charge(c, {0, 0, 1});
  EXPECT_TRUE(dst_->bootstrapped());
  EXPECT_EQ(dst_->signature_frame(), genuine_);

  const auto [again, c2] = offer(genuine_);
  EXPECT_FALSE(again);
  expect_charge(c2, {0, 0, 0});
}

TEST_P(SignedBootstrap, SourceFrameCarriesPreloadedStrength) {
  EXPECT_EQ(packet_.puzzle.strength, params_.puzzle_strength);
  EXPECT_TRUE(crypto::verify_puzzle(view(packet_.signed_message()),
                                    packet_.puzzle));
  EXPECT_EQ(packet_.meta.version, params_.version);
  EXPECT_EQ(packet_.meta.image_size, image_.size());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SignedBootstrap,
    ::testing::Values(
        SignedScheme{"sluice", proto::make_sluice_source,
                     proto::make_sluice_receiver},
        SignedScheme{"seluge", proto::make_seluge_source,
                     proto::make_seluge_receiver},
        SignedScheme{"lr_seluge", core::make_lr_source,
                     core::make_lr_receiver}),
    [](const ::testing::TestParamInfo<SignedScheme>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Per-packet hash check
// ---------------------------------------------------------------------------

TEST(PacketHashImage, StreamedAndBatchedImagesMatchThePreimage) {
  std::vector<Bytes> payloads;
  for (std::uint8_t j = 0; j < 5; ++j) payloads.push_back(Bytes(40, j));
  const std::vector<ByteView> views(payloads.begin(), payloads.end());
  const auto batch = proto::page_packet_hashes(3, 7, views);
  ASSERT_EQ(batch.size(), payloads.size());
  for (std::uint32_t j = 0; j < payloads.size(); ++j) {
    proto::DataPacket d;
    d.version = 3;
    d.page = 7;
    d.index = j;
    d.payload = payloads[j];
    const crypto::PacketHash want =
        crypto::packet_hash(view(d.hash_preimage()));
    EXPECT_EQ(batch[j], want) << j;
    EXPECT_TRUE(
        proto::packet_hash_matches(3, 7, j, views[j], want, nullptr));
    // The image binds position: the same payload elsewhere fails.
    EXPECT_FALSE(
        proto::packet_hash_matches(3, 7, j + 1, views[j], want, nullptr));
    EXPECT_FALSE(
        proto::packet_hash_matches(4, 7, j, views[j], want, nullptr));
  }
}

TEST(PacketHashImage, MemoSharesTheImageNotTheVerdict) {
  const Bytes payload(24, 0x5a);
  proto::DataPacket d;
  d.version = 1;
  d.page = 2;
  d.index = 3;
  d.payload = payload;
  const crypto::PacketHash image =
      crypto::packet_hash(view(d.hash_preimage()));
  crypto::PacketHash other = image;
  other[0] ^= 1;

  proto::RxDigestMemo memo;
  EXPECT_TRUE(
      proto::packet_hash_matches(1, 2, 3, view(payload), image, &memo));
  EXPECT_TRUE(memo.valid);
  EXPECT_EQ(memo.digest, image);
  // A second receiver of the same delivery reuses the image but compares
  // it against its own expectation.
  EXPECT_FALSE(
      proto::packet_hash_matches(1, 2, 3, view(payload), other, &memo));
}

TEST(MerklePath, SerializedPathLeadsToTheTreeRoot) {
  constexpr std::size_t kLeaf = 16;
  std::vector<Bytes> leaves;
  for (std::uint8_t j = 0; j < 8; ++j) leaves.push_back(Bytes(kLeaf, j));
  const auto tree = crypto::MerkleTree::build(leaves);
  for (std::uint32_t j = 0; j < leaves.size(); ++j) {
    Bytes payload = leaves[j];
    for (const auto& sib : tree.auth_path(j)) crypto::append(payload, sib);
    EXPECT_TRUE(proto::merkle_path_matches(view(payload), kLeaf, j,
                                           tree.root(), nullptr));
    EXPECT_FALSE(proto::merkle_path_matches(view(payload), kLeaf, j ^ 1,
                                            tree.root(), nullptr));
    Bytes tampered = payload;
    tampered.back() ^= 1;  // last path sibling
    EXPECT_FALSE(proto::merkle_path_matches(view(tampered), kLeaf, j,
                                            tree.root(), nullptr));
    proto::RxDigestMemo memo;
    EXPECT_TRUE(proto::merkle_path_matches(view(payload), kLeaf, j,
                                           tree.root(), &memo));
    EXPECT_EQ(memo.digest, tree.root());
  }
}

// ---------------------------------------------------------------------------
// Control-frame keys
// ---------------------------------------------------------------------------

proto::Snack request_from(NodeId sender) {
  proto::Snack s;
  s.version = 1;
  s.sender = sender;
  s.target = 9;
  s.page = 2;
  s.requested = BitVec(12, true);
  return s;
}

TEST(ControlKeys, ClusterKeyAuthenticatesEveryControlFrame) {
  const Bytes cluster{0x42, 0x13};
  proto::ControlKeys keys(view(cluster), false, {});
  ASSERT_NE(keys.cluster(), nullptr);
  EXPECT_EQ(keys.snack_key(5), keys.cluster());
  const Bytes frame = request_from(5).serialize(keys.cluster());
  EXPECT_TRUE(keys.snack_readable(view(frame)));
  EXPECT_TRUE(keys.parse_snack(view(frame)).has_value());
  const crypto::HmacKey wrong(view(Bytes{0x42, 0x14}));
  EXPECT_FALSE(
      keys.parse_snack(view(request_from(5).serialize(&wrong))).has_value());
}

TEST(ControlKeys, EmptyClusterKeyMeansNoMac) {
  proto::ControlKeys keys({}, false, {});
  EXPECT_EQ(keys.cluster(), nullptr);
  EXPECT_EQ(keys.snack_key(5), nullptr);
  const auto back =
      keys.parse_snack(view(request_from(5).serialize(nullptr)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sender, 5u);
}

TEST(ControlKeys, LeapKeyProvesTheClaimedSender) {
  const Bytes cluster{0x42, 0x13};
  const Bytes master{0x1e, 0xa9};
  proto::ControlKeys keys(view(cluster), true, view(master));
  const crypto::HmacKey own(view(proto::leap_source_key(view(master), 5)));
  Bytes frame = request_from(5).serialize(&own);
  const auto back = keys.parse_snack(view(frame));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sender, 5u);
  // Node 5's key cannot speak for node 6, nor can the cluster key.
  EXPECT_FALSE(
      keys.parse_snack(view(request_from(6).serialize(&own))).has_value());
  EXPECT_FALSE(keys.parse_snack(view(request_from(5).serialize(
                                    keys.cluster())))
                   .has_value());
  // A frame cut before its sender field names no key: unreadable, which
  // the engine drops without charging an auth failure.
  frame.resize(8);
  EXPECT_FALSE(keys.snack_readable(view(frame)));
  EXPECT_FALSE(keys.parse_snack(view(frame)).has_value());
  proto::ControlKeys cluster_only(view(cluster), false, {});
  EXPECT_TRUE(cluster_only.snack_readable(view(frame)));
}

// ---------------------------------------------------------------------------
// End-to-end counters under corruption
// ---------------------------------------------------------------------------

TEST(AuthCounters, CorruptedStarCountersArePinned) {
  // Every authentication check of every scheme runs here: bit-flipped
  // frames fail control MACs, packet hashes and Merkle paths. The values
  // are the pinned outputs of a 6-receiver star; a change in any check's
  // accounting, or in which frames it lets through, moves them. The LEAP
  // row also truncates frames, so some SNACKs arrive without a readable
  // sender and are dropped uncharged.
  struct Pinned {
    core::Scheme scheme;
    bool leap;  // LEAP per-source SNACK keys, plus frame truncation
    std::uint64_t data_packets;
    std::uint64_t snack_packets;
    std::uint64_t adv_packets;
    std::uint64_t total_bytes;
    std::uint64_t hash_verifications;
    std::uint64_t signature_verifications;
    std::uint64_t auth_failures;
    bool images_match;  // unauthenticated schemes take corrupted data
  };
  const Pinned kPinned[] = {
      {core::Scheme::kDeluge, false, 124, 53, 5, 6958, 0, 0, 10, false},
      {core::Scheme::kRatelessDeluge, false, 127, 49, 3, 7334, 0, 0, 7, false},
      {core::Scheme::kSluice, false, 352, 98, 18, 19881, 65, 6, 54, true},
      {core::Scheme::kSeluge, false, 269, 94, 10, 15764, 916, 6, 62, true},
      {core::Scheme::kLrSeluge, false, 317, 109, 14, 18626, 1360, 6, 84, true},
      {core::Scheme::kLrSeluge, true, 251, 96, 12, 15807, 1144, 6, 83, true},
  };
  for (const Pinned& want : kPinned) {
    core::ExperimentConfig cfg;
    cfg.scheme = want.scheme;
    cfg.params.payload_size = 32;
    cfg.params.k = 8;
    cfg.params.n = 12;
    cfg.params.k0 = 4;
    cfg.params.n0 = 8;
    cfg.params.puzzle_strength = 4;
    cfg.params.leap_snack_auth = want.leap;
    cfg.image_size = 2048;
    cfg.receivers = 6;
    cfg.seed = 3;
    cfg.loss_p = 0.05;
    cfg.faults.corrupt_prob = 0.08;
    cfg.faults.corrupt_max_flips = 6;
    if (want.leap) cfg.faults.truncate_prob = 0.05;
    cfg.check_invariants = true;
    SCOPED_TRACE(std::string(core::scheme_name(want.scheme)) +
                 (want.leap ? "+leap" : ""));
    const core::ExperimentResult r = core::run_experiment(cfg);
    EXPECT_TRUE(r.all_complete);
    EXPECT_EQ(r.images_match, want.images_match);
    EXPECT_GT(r.tampered_frames, 0u);
    EXPECT_EQ(r.data_packets, want.data_packets);
    EXPECT_EQ(r.snack_packets, want.snack_packets);
    EXPECT_EQ(r.adv_packets, want.adv_packets);
    EXPECT_EQ(r.total_bytes, want.total_bytes);
    EXPECT_EQ(r.hash_verifications, want.hash_verifications);
    EXPECT_EQ(r.signature_verifications, want.signature_verifications);
    EXPECT_EQ(r.auth_failures, want.auth_failures);
  }
}

}  // namespace
}  // namespace lrs
