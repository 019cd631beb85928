#include "crypto/hash.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_kernels.h"
#include "sim/stats/stats.h"
#include "util/check.h"

namespace lrs::crypto {

PacketHash packet_hash(ByteView data) {
  const Sha256Digest full = Sha256::hash(data);
  PacketHash out;
  std::copy_n(full.begin(), kPacketHashSize, out.begin());
  return out;
}

namespace {

/// Multi-buffer hash of `count` same-length messages. Whole blocks are
/// compressed straight out of the messages; the tail + FIPS padding (one
/// or two final blocks, identical shape across the run since lengths are
/// equal) is materialized per message in a scratch arena.
void hash_batch_uniform(const Sha256BatchKernel& kernel, const ByteView* msgs,
                        std::size_t count, Sha256Digest* out) {
  const std::size_t len = msgs[0].size();
  const std::size_t full_blocks = len / 64;
  const std::size_t tail_len = len - full_blocks * 64;
  // 0x80 + 8-byte length must fit: one extra block unless tail >= 56.
  const std::size_t pad_blocks = tail_len >= 56 ? 2 : 1;

  std::vector<std::uint32_t> states(count * 8);
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(&states[8 * i], kSha256Init, sizeof(kSha256Init));
  }

  std::vector<const std::uint8_t*> ptrs(count);
  for (std::size_t b = 0; b < full_blocks; ++b) {
    for (std::size_t i = 0; i < count; ++i) ptrs[i] = msgs[i].data() + b * 64;
    kernel.compress_batch(states.data(), ptrs.data(), count);
  }

  // Padded tail blocks, laid out per message.
  const std::uint64_t bit_len = static_cast<std::uint64_t>(len) * 8;
  std::vector<std::uint8_t> scratch(count * pad_blocks * 64, 0);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint8_t* dst = scratch.data() + i * pad_blocks * 64;
    if (tail_len > 0)
      std::memcpy(dst, msgs[i].data() + full_blocks * 64, tail_len);
    dst[tail_len] = 0x80;
    std::uint8_t* len_be = dst + pad_blocks * 64 - 8;
    for (int b = 0; b < 8; ++b)
      len_be[b] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - b)));
  }
  for (std::size_t b = 0; b < pad_blocks; ++b) {
    for (std::size_t i = 0; i < count; ++i)
      ptrs[i] = scratch.data() + (i * pad_blocks + b) * 64;
    kernel.compress_batch(states.data(), ptrs.data(), count);
  }

  for (std::size_t i = 0; i < count; ++i) {
    for (int j = 0; j < 8; ++j) {
      const std::uint32_t s = states[8 * i + j];
      out[i][4 * j] = static_cast<std::uint8_t>(s >> 24);
      out[i][4 * j + 1] = static_cast<std::uint8_t>(s >> 16);
      out[i][4 * j + 2] = static_cast<std::uint8_t>(s >> 8);
      out[i][4 * j + 3] = static_cast<std::uint8_t>(s);
    }
  }
}

}  // namespace

void hash_batch(const ByteView* msgs, std::size_t count, Sha256Digest* out) {
  // Batch-vs-oneshot attribution: how many messages rode the multi-buffer
  // kernel vs fell back to serial hashing. The batch timer is inclusive of
  // the fallback's crypto.sha.oneshot time.
  static stats::Counter& batch_msgs =
      stats::Registry::instance().counter("crypto.sha.batch_msgs");
  static stats::Counter& simd_msgs =
      stats::Registry::instance().counter("crypto.sha.batch_simd_msgs");
  static stats::Timer& timer =
      stats::Registry::instance().timer("crypto.sha.batch");
  batch_msgs.add(count);
  stats::TimerScope scope(timer);
  const Sha256BatchKernel* kernel = sha256_batch_kernel();
  std::size_t i = 0;
  while (i < count) {
    // Maximal same-length run starting at i.
    std::size_t run = 1;
    while (i + run < count && msgs[i + run].size() == msgs[i].size()) ++run;
    if (kernel != nullptr && run >= 2) {
      simd_msgs.add(run);
      hash_batch_uniform(*kernel, msgs + i, run, out + i);
    } else {
      for (std::size_t j = i; j < i + run; ++j) out[j] = Sha256::hash(msgs[j]);
    }
    i += run;
  }
}

std::vector<Sha256Digest> hash_batch(std::span<const ByteView> msgs) {
  std::vector<Sha256Digest> out(msgs.size());
  hash_batch(msgs.data(), msgs.size(), out.data());
  return out;
}

void packet_hash_batch(const ByteView* msgs, std::size_t count,
                       PacketHash* out) {
  std::vector<Sha256Digest> full(count);
  hash_batch(msgs, count, full.data());
  for (std::size_t i = 0; i < count; ++i) {
    std::copy_n(full[i].begin(), kPacketHashSize, out[i].begin());
  }
}

void append(Bytes& out, const PacketHash& h) {
  out.insert(out.end(), h.begin(), h.end());
}

void append(Bytes& out, const Sha256Digest& h) {
  out.insert(out.end(), h.begin(), h.end());
}

}  // namespace lrs::crypto
