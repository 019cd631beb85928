#include "proto/auth.h"

#include <algorithm>
#include <array>

#include "crypto/merkle.h"
#include "crypto/puzzle.h"
#include "util/buffer.h"
#include "util/check.h"

namespace lrs::proto {

// --- signature packet --------------------------------------------------------

Bytes sign_image(const SignedMeta& meta, const crypto::PacketHash& root,
                 std::uint8_t puzzle_strength,
                 crypto::MultiKeySigner& signer) {
  SignaturePacket sig;
  sig.meta = meta;
  sig.root = root;
  const Bytes msg = sig.signed_message();
  sig.puzzle = crypto::solve_puzzle(view(msg), puzzle_strength);
  sig.signature = signer.sign(view(msg)).serialize();
  return sig.serialize();
}

std::optional<SignaturePacket> verify_signature_frame(
    ByteView frame, const CommonParams& params,
    const crypto::PacketHash& root_pk, sim::NodeMetrics& m) {
  auto packet = SignaturePacket::parse(frame);
  if (!packet || packet->meta.version != params.version) {
    m.auth_failures += 1;
    return std::nullopt;
  }
  const Bytes msg = packet->signed_message();
  if (packet->puzzle.strength < params.puzzle_strength ||
      !crypto::verify_puzzle(view(msg), packet->puzzle)) {
    m.puzzle_rejections += 1;
    return std::nullopt;
  }
  const auto cert =
      crypto::CertifiedSignature::deserialize(view(packet->signature));
  m.signature_verifications += 1;
  if (!cert || !crypto::verify_certified_cached(root_pk, view(msg), *cert)) {
    m.auth_failures += 1;
    return std::nullopt;
  }
  return packet;
}

bool SignedImageState::on_signature(ByteView frame, sim::NodeMetrics& m) {
  if (meta_) return false;
  const auto packet = verify_signature_frame(frame, params_, root_pk_, m);
  if (!packet) return false;
  adopt(packet->meta, packet->root);
  signature_frame_ = Bytes(frame.begin(), frame.end());
  return true;
}

void SignedImageState::sign(std::size_t pages, std::size_t image_size,
                            const crypto::PacketHash& root,
                            crypto::MultiKeySigner& signer) {
  SignedMeta meta;
  meta.version = params_.version;
  meta.content_pages = static_cast<std::uint32_t>(pages);
  meta.image_size = static_cast<std::uint32_t>(image_size);
  adopt(meta, root);
  signature_frame_ =
      sign_image(meta, root, params_.puzzle_strength, signer);
}

void SignedImageState::adopt(const SignedMeta& meta,
                             const crypto::PacketHash& root) {
  LRS_CHECK(meta.content_pages >= 1 && meta.image_size >= 1);
  meta_ = meta;
  root_ = root;
  store_.open(meta.content_pages + hash_pages_);
}

PageLayout SignedImageState::signed_layout(std::size_t mid_capacity,
                                           std::size_t last_capacity) const {
  LRS_CHECK(meta_.has_value());
  const PageLayout l =
      compute_layout(meta_->image_size, mid_capacity, last_capacity);
  LRS_CHECK_MSG(l.content_pages == meta_->content_pages,
                "signed geometry disagrees with preloaded parameters");
  return l;
}

// --- per-packet hash ---------------------------------------------------------

namespace {

/// The little-endian (version, page, index) header every hash image binds.
using PacketHeader = std::array<std::uint8_t, 12>;

PacketHeader packet_header(Version version, std::uint32_t page,
                           std::uint32_t index) {
  PacketHeader h;
  for (int i = 0; i < 4; ++i) {
    h[i] = static_cast<std::uint8_t>(version >> (8 * i));
    h[4 + i] = static_cast<std::uint8_t>(page >> (8 * i));
    h[8 + i] = static_cast<std::uint8_t>(index >> (8 * i));
  }
  return h;
}

/// `compute()`, or the digest an earlier receiver of the same delivery left
/// in `memo` (nullable), which the first computation fills.
template <class Compute>
crypto::PacketHash memoized(RxDigestMemo* memo, const Compute& compute) {
  if (memo && memo->valid) return memo->digest;
  const crypto::PacketHash h = compute();
  if (memo) {
    memo->digest = h;
    memo->valid = true;
  }
  return h;
}

}  // namespace

bool packet_hash_matches(Version version, std::uint32_t page,
                         std::uint32_t index, ByteView payload,
                         const crypto::PacketHash& expected,
                         RxDigestMemo* memo) {
  const crypto::PacketHash image = memoized(memo, [&] {
    const PacketHeader header = packet_header(version, page, index);
    crypto::Sha256 ctx;
    ctx.update(ByteView(header)).update(payload);
    const crypto::Sha256Digest full = ctx.finalize();
    crypto::PacketHash h;
    std::copy_n(full.begin(), crypto::kPacketHashSize, h.begin());
    return h;
  });
  return crypto::equal(image, expected);
}

std::vector<crypto::PacketHash> page_packet_hashes(
    Version version, std::uint32_t page, std::span<const ByteView> payloads) {
  // One arena of header || payload preimages, hashed as one batch. The
  // arena is reserved up front, so the views into it stay valid; both are
  // per-thread scratch reused from page to page.
  struct Scratch {
    Bytes arena;
    std::vector<ByteView> preimages;
  };
  thread_local Scratch scratch;
  std::size_t total = 0;
  for (const ByteView p : payloads) total += sizeof(PacketHeader) + p.size();
  Bytes& arena = scratch.arena;
  arena.clear();
  arena.reserve(total);
  std::vector<ByteView>& preimages = scratch.preimages;
  preimages.resize(payloads.size());
  for (std::size_t j = 0; j < payloads.size(); ++j) {
    const std::size_t start = arena.size();
    const PacketHeader header =
        packet_header(version, page, static_cast<std::uint32_t>(j));
    arena.insert(arena.end(), header.begin(), header.end());
    arena.insert(arena.end(), payloads[j].begin(), payloads[j].end());
    preimages[j] = ByteView(arena.data() + start, arena.size() - start);
  }
  std::vector<crypto::PacketHash> hashes(payloads.size());
  crypto::packet_hash_batch(preimages.data(), preimages.size(),
                            hashes.data());
  return hashes;
}

bool merkle_path_matches(ByteView payload, std::size_t leaf_size,
                         std::uint32_t index, const crypto::PacketHash& root,
                         RxDigestMemo* memo) {
  const crypto::PacketHash implied = memoized(memo, [&] {
    return crypto::MerkleTree::compute_root(payload.subspan(0, leaf_size),
                                            index, payload.subspan(leaf_size));
  });
  return crypto::equal(implied, root);
}

// --- control frames ----------------------------------------------------------

Bytes leap_source_key(ByteView master, NodeId v) {
  Writer w;
  w.u8(0x4c);  // 'L' domain tag
  w.u32(v);
  const crypto::Sha256Digest d = crypto::hmac_sha256(master, view(w.data()));
  return Bytes(d.begin(), d.begin() + 16);
}

ControlKeys::ControlKeys(ByteView cluster_key, bool leap_snack_auth,
                         ByteView leap_master)
    : leap_(leap_snack_auth) {
  if (!cluster_key.empty()) cluster_.emplace(cluster_key);
  if (leap_) leap_master_.assign(leap_master.begin(), leap_master.end());
}

const crypto::HmacKey* ControlKeys::snack_key(NodeId sender) {
  if (!leap_) return cluster();
  auto it = leap_keys_.find(sender);
  if (it == leap_keys_.end()) {
    const Bytes key = leap_source_key(view(leap_master_), sender);
    it = leap_keys_.emplace(sender, crypto::HmacKey(view(key))).first;
  }
  return &it->second;
}

bool ControlKeys::snack_readable(ByteView frame) const {
  return !leap_ || Snack::peek_sender(frame).has_value();
}

std::optional<Snack> ControlKeys::parse_snack(ByteView frame) {
  if (!leap_) return Snack::parse(frame, cluster());
  const auto sender = Snack::peek_sender(frame);
  if (!sender) return std::nullopt;
  return Snack::parse(frame, snack_key(*sender));
}

}  // namespace lrs::proto
