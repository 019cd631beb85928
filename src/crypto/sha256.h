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
#include <bit>
#include <cstdint>
#include <cstring>

#include "crypto/sha256_kernels.h"
#include "util/types.h"

namespace lrs::stats {
class Timer;
}  // namespace lrs::stats

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

/// The chaining value before any input: hashing resumed from here is plain
/// SHA-256.
inline constexpr Sha256Midstate kSha256Iv{
    {kSha256Init[0], kSha256Init[1], kSha256Init[2], kSha256Init[3],
     kSha256Init[4], kSha256Init[5], kSha256Init[6], kSha256Init[7]},
    0};

/// The longest message that pads into one block: 64 bytes less the 0x80
/// marker and the 8-byte length.
inline constexpr std::size_t kSha256OneBlockMax = 55;

/// Writes the 8 state words big-endian: the 32 digest bytes. One byte-swap
/// store per word, not a byte loop (GCC unrolls the loop into shuffles).
inline void sha256_store_digest(const std::uint32_t* state, std::uint8_t* out) {
  for (int i = 0; i < 8; ++i) {
    std::uint32_t be = state[i];
    if constexpr (std::endian::native == std::endian::little)
      be = __builtin_bswap32(be);
    std::memcpy(out + 4 * i, &be, sizeof(be));
  }
}

/// Writes the padding's length field: `bytes` * 8, big-endian, 8 bytes.
inline void sha256_store_bit_length(std::uint64_t bytes, std::uint8_t* out) {
  std::uint64_t be = bytes * 8;
  if constexpr (std::endian::native == std::endian::little)
    be = __builtin_bswap64(be);
  std::memcpy(out, &be, sizeof(be));
}

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

  /// Finishes a hash whose first `from.processed` bytes are absorbed in
  /// `from` (kSha256Iv for none, or a key's pad midstate) and whose rest,
  /// head || tail, is at most kSha256OneBlockMax bytes: pads the rest into
  /// one block and compresses it, with no context or buffering.
  static Sha256Digest finish_one_block(const Sha256Midstate& from,
                                       ByteView head, ByteView tail = {});

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

/// The `crypto.sha.oneshot` timer: one call per Sha256::hash, and one per
/// WOTS chain walk (crypto/wots.h), whatever its number of steps.
stats::Timer& sha256_oneshot_timer();

}  // namespace lrs::crypto
