#include "crypto/wots.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "crypto/hmac.h"
#include "crypto/sha256_kernels.h"
#include "sim/stats/stats.h"
#include "util/buffer.h"
#include "util/check.h"

namespace lrs::crypto {

namespace {

/// Message digest -> len1 byte chunks + len2 checksum chunks, all in [0,255].
std::array<unsigned, kWotsLen> message_chunks(ByteView message) {
  const Sha256Digest d = Sha256::hash(message);
  std::array<unsigned, kWotsLen> chunks{};
  unsigned checksum = 0;
  for (std::size_t i = 0; i < kWotsLen1; ++i) {
    chunks[i] = d[i];
    checksum += 255 - d[i];
  }
  // checksum <= 16 * 255 = 4080, fits in two base-256 digits.
  chunks[kWotsLen1] = (checksum >> 8) & 0xff;
  chunks[kWotsLen1 + 1] = checksum & 0xff;
  return chunks;
}

WotsPublicKey compress_tops(const WotsChains& tops) {
  Sha256 h;
  for (const auto& t : tops) h.update(ByteView(t.data(), t.size()));
  return h.finalize();
}

/// A process-wide, thread-safe memo of a pure function's results, keyed by
/// a collision-resistant digest of the function's inputs. The value is
/// computed outside the lock; two threads missing on one key at once both
/// compute it and store the same value.
template <typename V>
class DigestMemo {
 public:
  template <typename Compute>
  V get_or_compute(const Sha256Digest& key, Compute&& compute) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end()) return it->second;
    }
    const V value = compute();
    std::lock_guard<std::mutex> lock(mu_);
    // A run only ever sees a handful of distinct keys; the cap is a leak
    // guard for adversarial floods (e.g. of forged signatures).
    if (map_.size() >= 4096) map_.clear();
    map_.emplace(key, value);
    return value;
  }

 private:
  struct DigestHash {
    std::size_t operator()(const Sha256Digest& d) const {
      std::size_t v;
      std::memcpy(&v, d.data(), sizeof(v));
      return v;
    }
  };

  std::mutex mu_;
  std::unordered_map<Sha256Digest, V, DigestHash> map_;
};

}  // namespace

void wots_walk_chains(WotsChains& chains,
                      const std::array<unsigned, kWotsLen>& steps,
                      WotsCheckpoints* record) {
  static_assert(kWotsChainBytes <= kSha256OneBlockMax);
  stats::TimerScope scope(sha256_oneshot_timer());
  // Longest walk first: the chains still walking at any step are a prefix.
  std::array<std::size_t, kWotsLen> order;
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return steps[a] > steps[b];
  });
  // Chain k's value is the head of its own padded block; each step
  // compresses the block from the IV and writes the digest back over it.
  alignas(16) std::uint8_t blocks[kWotsLen][64] = {};
  const std::uint8_t* ptrs[kWotsLen];
  for (std::size_t k = 0; k < kWotsLen; ++k) {
    std::memcpy(blocks[k], chains[order[k]].data(), kWotsChainBytes);
    blocks[k][kWotsChainBytes] = 0x80;
    sha256_store_bit_length(kWotsChainBytes, blocks[k] + 56);
    ptrs[k] = blocks[k];
  }
  const Sha256BatchKernel* batch = sha256_batch_kernel();
  const Sha256Kernel& single = sha256_kernel();
  std::uint32_t states[kWotsLen * 8];
  std::size_t active = kWotsLen;
  for (unsigned step = 0;; ++step) {
    while (active > 0 && steps[order[active - 1]] <= step) --active;
    if (active == 0) break;
    for (std::size_t k = 0; k < active; ++k)
      std::memcpy(states + 8 * k, kSha256Init, sizeof(kSha256Init));
    if (batch != nullptr) {
      batch->compress_batch(states, ptrs, active);
    } else {
      for (std::size_t k = 0; k < active; ++k)
        single.compress(states + 8 * k, blocks[k], 1);
    }
    for (std::size_t k = 0; k < active; ++k)
      sha256_store_digest(states + 8 * k, blocks[k]);
    // The active chains now stand at step + 1.
    const unsigned done = step + 1;
    if (record != nullptr && done % kWotsCheckpointSpacing == 0 &&
        done / kWotsCheckpointSpacing <= kWotsCheckpoints) {
      WotsChains& at = (*record)[done / kWotsCheckpointSpacing - 1];
      for (std::size_t k = 0; k < active; ++k)
        std::memcpy(at[order[k]].data(), blocks[k], kWotsChainBytes);
    }
  }
  for (std::size_t k = 0; k < kWotsLen; ++k)
    std::memcpy(chains[order[k]].data(), blocks[k], kWotsChainBytes);
}

WotsChains wots_walk_from_checkpoints(const WotsChains& secret,
                                      const WotsCheckpoints& checkpoints,
                                      std::array<unsigned, kWotsLen> steps) {
  WotsChains chains;
  for (std::size_t i = 0; i < kWotsLen; ++i) {
    LRS_CHECK(steps[i] <= 255);
    const unsigned j = steps[i] / kWotsCheckpointSpacing;
    chains[i] = j == 0 ? secret[i] : checkpoints[j - 1][i];
    steps[i] -= j * kWotsCheckpointSpacing;
  }
  wots_walk_chains(chains, steps);
  return chains;
}

Bytes WotsSignature::serialize() const {
  Bytes out;
  out.reserve(kSerializedSize);
  for (const auto& c : chains) out.insert(out.end(), c.begin(), c.end());
  return out;
}

std::optional<WotsSignature> WotsSignature::deserialize(ByteView data) {
  if (data.size() < kSerializedSize) return std::nullopt;
  WotsSignature sig;
  std::size_t off = 0;
  for (auto& c : sig.chains) {
    std::memcpy(c.data(), data.data() + off, kWotsChainBytes);
    off += kWotsChainBytes;
  }
  return sig;
}

WotsKeyPair WotsKeyPair::generate(ByteView seed, std::uint64_t index) {
  WotsKeyPair kp;
  const HmacKey key(seed);
  Sha256 fingerprint;
  for (std::size_t i = 0; i < kWotsLen; ++i) {
    // sk_i = HMAC(seed, index || i), both u64 little-endian: deterministic,
    // independent per chain.
    std::uint8_t msg[16];
    for (int b = 0; b < 8; ++b) {
      msg[b] = static_cast<std::uint8_t>(index >> (8 * b));
      msg[8 + b] = static_cast<std::uint8_t>(std::uint64_t{i} >> (8 * b));
    }
    const Sha256Digest d = hmac_sha256(key, ByteView(msg, sizeof(msg)));
    std::copy_n(d.begin(), kWotsChainBytes, kp.sk_[i].begin());
    fingerprint.update(ByteView(kp.sk_[i].data(), kp.sk_[i].size()));
  }
  // The public key and the checkpoints are pure functions of the secret
  // chains, and every trial and tenant re-derives the same few keys from the
  // same seed, so the 18 x 255-step chain walk runs once per distinct key
  // and records the checkpoints as it passes them. The memo is keyed by
  // one-way fingerprints of the secret chains, but the checkpoints are
  // secret material (a chain's value at step 64 signs any digit from 64 up),
  // held only for keys whose secret chains the process holds anyway: every
  // key seed here is a constant in the source. 3 x 18 x 32 B = 1.7 KB per
  // key; the memo's 4,096-entry guard bounds it at ~7 MB.
  struct Derived {
    WotsPublicKey pk;
    std::shared_ptr<const WotsCheckpoints> checkpoints;
  };
  static DigestMemo<Derived> memo;
  const Derived derived = memo.get_or_compute(fingerprint.finalize(), [&] {
    auto checkpoints = std::make_shared<WotsCheckpoints>();
    WotsChains tops = kp.sk_;
    std::array<unsigned, kWotsLen> steps;
    steps.fill(255);
    wots_walk_chains(tops, steps, checkpoints.get());
    return Derived{compress_tops(tops), std::move(checkpoints)};
  });
  kp.pk_ = derived.pk;
  kp.checkpoints_ = derived.checkpoints;
  return kp;
}

WotsSignature WotsKeyPair::sign(ByteView message) {
  LRS_CHECK_MSG(!used_, "WOTS key reuse would forfeit security");
  used_ = true;
  WotsSignature sig;
  sig.chains =
      wots_walk_from_checkpoints(sk_, *checkpoints_, message_chunks(message));
  return sig;
}

bool WotsKeyPair::verify(const WotsPublicKey& pk, ByteView message,
                         const WotsSignature& sig) {
  std::array<unsigned, kWotsLen> steps = message_chunks(message);
  for (unsigned& s : steps) s = 255 - s;
  WotsChains tops = sig.chains;
  wots_walk_chains(tops, steps);
  return equal(compress_tops(tops), pk);
}

Bytes CertifiedSignature::serialize() const {
  Writer w;
  w.u32(key_index);
  w.bytes(ByteView(wots_pk.data(), wots_pk.size()));
  w.u8(static_cast<std::uint8_t>(cert_path.size()));
  for (const auto& h : cert_path) w.bytes(ByteView(h.data(), h.size()));
  w.bytes(view(sig.serialize()));
  return std::move(w).take();
}

std::optional<CertifiedSignature> CertifiedSignature::deserialize(
    ByteView data) {
  Reader r(data);
  CertifiedSignature out;
  auto idx = r.try_u32();
  if (!idx) return std::nullopt;
  out.key_index = *idx;
  auto pk = r.try_bytes(out.wots_pk.size());
  if (!pk) return std::nullopt;
  std::copy(pk->begin(), pk->end(), out.wots_pk.begin());
  auto depth = r.try_u8();
  if (!depth || *depth > 32) return std::nullopt;
  for (unsigned i = 0; i < *depth; ++i) {
    auto h = r.try_bytes(kPacketHashSize);
    if (!h) return std::nullopt;
    PacketHash ph;
    std::copy(h->begin(), h->end(), ph.begin());
    out.cert_path.push_back(ph);
  }
  auto sig_bytes = r.try_bytes(WotsSignature::kSerializedSize);
  if (!sig_bytes) return std::nullopt;
  auto sig = WotsSignature::deserialize(view(*sig_bytes));
  if (!sig) return std::nullopt;
  out.sig = *sig;
  return out;
}

MultiKeySigner::MultiKeySigner(ByteView seed, std::size_t height)
    : tree_(MerkleTree::build([&] {
        LRS_CHECK(height <= 16);
        std::vector<Bytes> leaves;
        const std::size_t count = std::size_t{1} << height;
        leaves.reserve(count);
        keys_.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
          keys_.push_back(WotsKeyPair::generate(seed, i));
          const auto& pk = keys_.back().public_key();
          leaves.emplace_back(pk.begin(), pk.end());
        }
        return leaves;
      }())) {}

CertifiedSignature MultiKeySigner::sign(ByteView message) {
  if (next_ >= keys_.size())
    throw std::runtime_error("MultiKeySigner: all one-time keys consumed");
  CertifiedSignature out;
  out.key_index = static_cast<std::uint32_t>(next_);
  out.wots_pk = keys_[next_].public_key();
  out.cert_path = tree_.auth_path(next_);
  out.sig = keys_[next_].sign(message);
  ++next_;
  return out;
}

bool MultiKeySigner::verify(const PacketHash& root_public_key,
                            ByteView message, const CertifiedSignature& sig) {
  // 1. The WOTS public key must be certified under the preloaded root. The
  // path fixes the tree height, and compute_root reads only that many low
  // index bits: an index with any higher bit set names no leaf.
  if (sig.cert_path.size() < 32 && (sig.key_index >> sig.cert_path.size()) != 0)
    return false;
  const PacketHash root = MerkleTree::compute_root(
      ByteView(sig.wots_pk.data(), sig.wots_pk.size()), sig.key_index,
      sig.cert_path);
  if (!equal(root, root_public_key)) return false;
  // 2. The WOTS signature must verify under that key.
  return WotsKeyPair::verify(sig.wots_pk, message, sig.sig);
}

bool verify_certified_cached(const PacketHash& root_public_key,
                             ByteView message, const CertifiedSignature& sig) {
  // Collision-resistant fingerprint of the full (root, message, signature)
  // triple: two distinct verification questions cannot share a key.
  Sha256 h;
  h.update(ByteView(root_public_key.data(), root_public_key.size()));
  Writer w;
  w.u64(message.size());
  w.u32(sig.key_index);
  w.u8(static_cast<std::uint8_t>(sig.cert_path.size()));
  h.update(view(w.data()));
  h.update(message);
  h.update(ByteView(sig.wots_pk.data(), sig.wots_pk.size()));
  for (const auto& p : sig.cert_path) h.update(ByteView(p.data(), p.size()));
  for (const auto& c : sig.sig.chains) h.update(ByteView(c.data(), c.size()));
  const Sha256Digest key = h.finalize();

  static DigestMemo<bool> memo;
  return memo.get_or_compute(key, [&] {
    return MultiKeySigner::verify(root_public_key, message, sig);
  });
}

}  // namespace lrs::crypto
