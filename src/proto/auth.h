// One home for each authentication decision the schemes share (paper §IV).
//
//   * Signature bootstrap: the base station signs (meta, root) behind a
//     message-specific puzzle; receivers check the puzzle at the PRELOADED
//     strength before the certified signature (sign_image,
//     verify_signature_frame, SignedImageState).
//   * Per-packet hash check: every data packet's hash image binds version,
//     page, index and payload (packet_hash_matches, page_packet_hashes);
//     page-0 packets carry Merkle paths to the signed root
//     (merkle_path_matches).
//   * Control frames: advertisements carry a MAC under the cluster key,
//     SNACKs under the cluster key or §IV-E's LEAP per-source keys
//     (ControlKeys).
//
// Sluice, Seluge and LR-Seluge, the engine and the invariant probe all call
// these; a fix or an audit here reaches every scheme.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "crypto/hash.h"
#include "crypto/hmac.h"
#include "crypto/wots.h"
#include "proto/layout.h"
#include "proto/packet.h"
#include "proto/page_store.h"
#include "proto/params.h"
#include "sim/metrics.h"
#include "util/types.h"

namespace lrs::proto {

// --- signature packet --------------------------------------------------------

/// The serialized signature frame over (meta, root): the puzzle solved at
/// `puzzle_strength`, then the signature (consumes one one-time key).
Bytes sign_image(const SignedMeta& meta, const crypto::PacketHash& root,
                 std::uint8_t puzzle_strength,
                 crypto::MultiKeySigner& signer);

/// Checks a received signature frame, cheapest test first, and returns the
/// packet once it verified. Charges `m` in this order: a frame that does
/// not parse or names another version is one auth failure; a puzzle below
/// the preloaded strength (the packet's own strength field is attacker-
/// controlled and must not weaken the gate) or with a wrong solution is one
/// puzzle rejection and no signature work; otherwise one signature
/// verification, plus an auth failure when it fails.
std::optional<SignaturePacket> verify_signature_frame(
    ByteView frame, const CommonParams& params,
    const crypto::PacketHash& root_pk, sim::NodeMetrics& m);

/// The signature-bootstrap half of Sluice, Seluge and LR-Seluge: preloaded
/// parameters and verification key, the adopted signed metadata and root,
/// and the frame kept for rebroadcast. A receiver's page store is empty
/// until on_signature verifies a frame; its (meta, root) then opens the
/// store for the signed page count.
class SignedImageState : public PagedScheme {
 public:
  Version version() const override { return params_.version; }
  bool needs_signature() const override { return true; }
  bool bootstrapped() const override { return meta_.has_value(); }
  bool on_signature(ByteView frame, sim::NodeMetrics& m) override;
  std::optional<Bytes> signature_frame() const override {
    return signature_frame_;
  }

 protected:
  /// `hash_pages` pages (Seluge's and LR-Seluge's hash page) precede
  /// content page 1.
  SignedImageState(const CommonParams& params,
                   const crypto::PacketHash& root_pk, std::uint32_t hash_pages,
                   PageShape first, PageShape rest)
      : PagedScheme(first, rest),
        params_(params),
        root_pk_(root_pk),
        hash_pages_(hash_pages) {}

  /// Base station: adopts the metadata of a `pages`-page image of
  /// `image_size` bytes under `root` and signs it.
  void sign(std::size_t pages, std::size_t image_size,
            const crypto::PacketHash& root, crypto::MultiKeySigner& signer);

  /// The layout the signed image size implies; checks it against the
  /// signed page count.
  PageLayout signed_layout(std::size_t mid_capacity,
                           std::size_t last_capacity) const;

  CommonParams params_;
  crypto::PacketHash root_pk_;  // preloaded signer verification key
  std::uint32_t hash_pages_;
  std::optional<SignedMeta> meta_;
  crypto::PacketHash root_{};  // the signed root
  std::optional<Bytes> signature_frame_;

 private:
  /// Keeps verified (meta, root) and opens the page store for them.
  void adopt(const SignedMeta& meta, const crypto::PacketHash& root);
};

// --- per-packet hash ---------------------------------------------------------

/// Whether data packet (version, page, index, payload) matches its hash
/// image `expected`. The image is streamed without materializing
/// DataPacket::hash_preimage(), and `memo` (nullable) shares it across the
/// receivers of one delivery: the first computes it, the rest reuse it.
/// The caller charges hash_verifications.
bool packet_hash_matches(Version version, std::uint32_t page,
                         std::uint32_t index, ByteView payload,
                         const crypto::PacketHash& expected,
                         RxDigestMemo* memo);

/// Hash images of packets 0..payloads.size()-1 of `page`, as one
/// multi-buffer batch when the payloads share a length (crypto/hash.h).
std::vector<crypto::PacketHash> page_packet_hashes(
    Version version, std::uint32_t page, std::span<const ByteView> payloads);

/// Whether a page-0 packet authenticates against the signed `root`: its
/// first `leaf_size` bytes are leaf `index`, the rest the Merkle path.
/// `memo` shares the implied root (never the verdict) across one
/// delivery's receivers. The caller charges depth + 1 hash verifications.
bool merkle_path_matches(ByteView payload, std::size_t leaf_size,
                         std::uint32_t index, const crypto::PacketHash& root,
                         RxDigestMemo* memo);

// --- control frames ----------------------------------------------------------

/// LEAP-style per-source key: every node v MACs its SNACKs with
/// HMAC(master, v); neighbors hold (here: derive) the key of each
/// neighbor, so a valid MAC *proves* the sender identity.
Bytes leap_source_key(ByteView master, NodeId v);

/// The keys control frames are MACed under. Advertisements use the cluster
/// key. SNACKs use the cluster key too, or under LEAP auth the claimed
/// sender's own key, derived once per sender and kept. The engine and the
/// invariant probe select keys through this one object.
class ControlKeys {
 public:
  /// An empty `cluster_key` leaves control traffic unauthenticated;
  /// `leap_master` is read only under LEAP auth.
  ControlKeys(ByteView cluster_key, bool leap_snack_auth,
              ByteView leap_master);

  /// Advertisement key; nullptr when control traffic is unauthenticated.
  const crypto::HmacKey* cluster() const {
    return cluster_ ? &*cluster_ : nullptr;
  }
  /// Key the SNACKs of `sender` carry their MAC under.
  const crypto::HmacKey* snack_key(NodeId sender);
  /// False only under LEAP auth for a frame whose claimed sender cannot be
  /// read: there is no key to check it under, so it is dropped without
  /// charging an auth failure.
  bool snack_readable(ByteView frame) const;
  /// Parses a SNACK and verifies it under its claimed sender's key.
  std::optional<Snack> parse_snack(ByteView frame);

 private:
  std::optional<crypto::HmacKey> cluster_;
  bool leap_;
  Bytes leap_master_;  // empty unless leap_
  std::unordered_map<NodeId, crypto::HmacKey> leap_keys_;
};

}  // namespace lrs::proto
