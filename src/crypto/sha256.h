// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the single cryptographic hash underlying every authenticator in
// the system: packet hash chains, the hash page, the Merkle tree, HMAC,
// WOTS signatures and the message-specific puzzle. The block compression
// dispatches through the runtime-selected kernel layer in
// crypto/sha256_kernels.h (scalar reference, unrolled portable, x86
// SHA-NI); many-message workloads should prefer the batch entry points in
// crypto/hash.h, which additionally use the multi-buffer SIMD kernels.
#pragma once

#include <array>
#include <cstdint>

#include "util/types.h"

namespace lrs::crypto {

/// A full 256-bit digest.
using Sha256Digest = std::array<std::uint8_t, 32>;

/// Compression state captured at a 64-byte block boundary. Lets a fixed
/// prefix (e.g. an HMAC pad block) be absorbed once and then resumed per
/// message — see HmacKey in crypto/hmac.h.
struct Sha256Midstate {
  std::array<std::uint32_t, 8> state;
  std::uint64_t processed = 0;  // bytes absorbed; always a multiple of 64
};

/// Incremental hashing context.
class Sha256 {
 public:
  Sha256();

  Sha256& update(ByteView data);
  /// Finalizes and returns the digest. The context must not be reused after.
  Sha256Digest finalize();

  /// Snapshot of the state; only valid when the bytes absorbed so far are
  /// an exact multiple of the block size (no partial block buffered).
  Sha256Midstate midstate() const;
  /// A context that continues as if the midstate's bytes had been absorbed.
  static Sha256 resume(const Sha256Midstate& m);

  /// One-shot convenience.
  static Sha256Digest hash(ByteView data);
  /// One-shot hash of the concatenation head || tail, without building it.
  static Sha256Digest hash(ByteView head, ByteView tail);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

}  // namespace lrs::crypto
