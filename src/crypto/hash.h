// Digest types used by the dissemination protocols.
//
// Seluge and LR-Seluge embed per-packet hash images inside packets, so the
// hash length directly costs airtime. Following Seluge, packet hashes are
// truncated to 64 bits (kPacketHashSize); the Merkle tree and signatures use
// full-length digests internally but the tree is built over truncated node
// values to keep page-0 packets small, matching the paper's byte budget.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "crypto/sha256.h"
#include "util/check.h"
#include "util/types.h"

namespace lrs::crypto {

/// Truncated packet-hash length in bytes (64-bit, as in Seluge).
inline constexpr std::size_t kPacketHashSize = 8;

using PacketHash = std::array<std::uint8_t, kPacketHashSize>;

/// SHA-256 truncated to the first kPacketHashSize bytes.
PacketHash packet_hash(ByteView data);

/// Hashes `count` independent messages: out[i] = SHA-256(msgs[i]).
/// Same-length runs go through the multi-buffer SIMD kernel when one is
/// active (see crypto/sha256_kernels.h); digests are byte-identical to
/// one-shot Sha256::hash either way. This is the entry point for the
/// many-hashes-at-once hot paths: per-page packet hashing, Merkle levels.
void hash_batch(const ByteView* msgs, std::size_t count, Sha256Digest* out);
std::vector<Sha256Digest> hash_batch(std::span<const ByteView> msgs);

/// Batch variant of packet_hash (truncated digests).
void packet_hash_batch(const ByteView* msgs, std::size_t count,
                       PacketHash* out);

/// Constant-time-ish comparison (not security-critical in a simulator, but
/// the library should model good practice): every byte is XOR-accumulated,
/// no early exit.
template <std::size_t N>
bool equal(const std::array<std::uint8_t, N>& a,
           const std::array<std::uint8_t, N>& b) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < N; ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

/// Append helpers for building hash-chained payloads.
void append(Bytes& out, const PacketHash& h);
void append(Bytes& out, const Sha256Digest& h);

/// Reads a PacketHash at byte offset `off` (bounds-checked).
inline PacketHash read_packet_hash(ByteView data, std::size_t off) {
  LRS_CHECK(off + kPacketHashSize <= data.size());
  PacketHash h;
  std::memcpy(h.data(), data.data() + off, kPacketHashSize);
  return h;
}

}  // namespace lrs::crypto
