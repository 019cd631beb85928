// Wire formats for the four packet kinds all three schemes share.
//
// Every frame starts with a one-byte type tag. Advertisements and SNACKs
// optionally carry a truncated HMAC (Seluge and LR-Seluge authenticate
// control traffic; Deluge does not; proto/auth.h selects the key). Parsers
// treat malformed frames as hostile input and fail soft.
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/hash.h"
#include "crypto/hmac.h"
#include "crypto/puzzle.h"
#include "util/bitvec.h"
#include "util/buffer.h"
#include "util/types.h"

namespace lrs::proto {

enum class PacketType : std::uint8_t {
  kAdvertisement = 1,
  kSnack = 2,
  kData = 3,
  kSignature = 4,
};

/// Reads the leading type tag without consuming anything else.
std::optional<PacketType> peek_type(ByteView frame);

/// Sentinel page number used in a SNACK to request a rebroadcast of the
/// signature packet (bootstrapping nodes that missed the initial flood).
inline constexpr std::uint32_t kSignatureRequestPage = 0xffffffff;

struct Advertisement {
  Version version = 0;
  NodeId sender = 0;
  std::uint32_t pages_complete = 0;
  bool bootstrapped = false;  // holds a verified Merkle root

  /// Serializes; when `key` is non-null a control MAC is appended. The key
  /// is a precomputed schedule (crypto::HmacKey): every delivered control
  /// frame runs one MAC, so callers hold the pad midstates.
  Bytes serialize(const crypto::HmacKey* key) const;
  /// Parses and, when `key` is non-null, verifies the MAC.
  static std::optional<Advertisement> parse(ByteView frame,
                                            const crypto::HmacKey* key);
};

struct Snack {
  Version version = 0;
  NodeId sender = 0;
  NodeId target = 0;
  std::uint32_t page = 0;  // or kSignatureRequestPage
  BitVec requested;        // empty for signature requests

  /// MAC handling as for Advertisement.
  Bytes serialize(const crypto::HmacKey* key) const;
  static std::optional<Snack> parse(ByteView frame,
                                    const crypto::HmacKey* key);

  /// Reads the claimed sender without verifying anything — used to select
  /// the per-source verification key under LEAP-style SNACK auth.
  static std::optional<NodeId> peek_sender(ByteView frame);
};

/// A data packet whose payload is a view: what DataPacket::parse returns
/// (pointing into the frame, valid while the frame is) and what a server
/// serializes from the bytes it already holds.
struct DataPacketView {
  Version version = 0;
  std::uint32_t page = 0;
  std::uint32_t index = 0;
  ByteView payload;  // encoded block; page-0 payloads append the Merkle path

  Bytes serialize() const;

  /// The bytes covered by the per-packet hash image: version, page, index
  /// and payload — binding position as well as content.
  Bytes hash_preimage() const;
};

/// A data packet that owns its payload (adversaries, tests).
struct DataPacket {
  Version version = 0;
  std::uint32_t page = 0;
  std::uint32_t index = 0;
  Bytes payload;  // encoded block; page-0 payloads append the Merkle path

  DataPacketView as_view() const {
    return {version, page, index, lrs::view(payload)};
  }
  Bytes serialize() const { return as_view().serialize(); }
  /// Parses without copying: the payload of the result points into `frame`.
  static std::optional<DataPacketView> parse(ByteView frame);

  /// As DataPacketView::hash_preimage().
  Bytes hash_preimage() const { return as_view().hash_preimage(); }
};

/// Geometry and identity covered by the root signature. Signing these
/// alongside the root stops an attacker from replaying a root with altered
/// parameters.
struct SignedMeta {
  Version version = 0;
  std::uint32_t content_pages = 0;  // g
  std::uint32_t image_size = 0;     // exact byte length (strips padding)

  Bytes serialize() const;
  static std::optional<SignedMeta> parse_from(lrs::Reader& r);
};

struct SignaturePacket {
  SignedMeta meta{};
  crypto::PacketHash root{};  // Merkle root over the hash page packets
  crypto::PuzzleSolution puzzle{};
  Bytes signature;  // serialized crypto::CertifiedSignature

  /// The message the signature (and puzzle) covers: meta || root.
  Bytes signed_message() const;

  Bytes serialize() const;
  static std::optional<SignaturePacket> parse(ByteView frame);
};

}  // namespace lrs::proto
