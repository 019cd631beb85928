// HMAC-SHA256 (RFC 2104).
//
// Used for the cluster-key authentication of advertisement and SNACK packets
// (Seluge §IV and LR-Seluge §IV-E adopt the same mechanism) and for keyed
// derivations inside WOTS key generation.
#pragma once

#include "crypto/sha256.h"
#include "util/types.h"

namespace lrs::crypto {

/// Precomputed HMAC key schedule: the SHA-256 midstates left after
/// absorbing the ipad and opad blocks. A MAC over a short message then
/// costs two compressions instead of four plus the pad setup — worth
/// holding on to for keys that authenticate many packets (the cluster key,
/// LEAP per-source keys). Produces digests bit-identical to the ByteView
/// overloads.
class HmacKey {
 public:
  explicit HmacKey(ByteView key);

  const Sha256Midstate& inner() const { return inner_; }
  const Sha256Midstate& outer() const { return outer_; }

 private:
  Sha256Midstate inner_;
  Sha256Midstate outer_;
};

Sha256Digest hmac_sha256(ByteView key, ByteView message);
Sha256Digest hmac_sha256(const HmacKey& key, ByteView message);

/// Truncated 4-byte MAC as carried by control packets (advertisements and
/// SNACKs are short; sensor-network MACs are conventionally 4 bytes).
inline constexpr std::size_t kControlMacSize = 4;
using ControlMac = std::array<std::uint8_t, kControlMacSize>;

ControlMac control_mac(const HmacKey& key, ByteView message);
bool verify_control_mac(const HmacKey& key, ByteView message,
                        const ControlMac& mac);

}  // namespace lrs::crypto
