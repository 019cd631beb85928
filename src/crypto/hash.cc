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

/// Per-thread scratch of the batch paths: grown to the largest batch a
/// thread has seen, then reused, so a warm batch allocates nothing.
struct BatchScratch {
  std::vector<std::uint32_t> states;
  std::vector<const std::uint8_t*> ptrs;
  std::vector<std::uint8_t> tails;
  std::vector<Sha256Digest> digests;  // packet_hash_batch's full digests
};

BatchScratch& batch_scratch() {
  thread_local BatchScratch s;
  return s;
}

/// Multi-buffer hash of `count` same-length messages. Whole blocks are
/// compressed straight out of the messages; the tail + FIPS padding (one
/// or two final blocks, identical shape across the run since lengths are
/// equal) is materialized per message in the scratch.
void hash_batch_uniform(const Sha256BatchKernel& kernel, const ByteView* msgs,
                        std::size_t count, Sha256Digest* out) {
  const std::size_t len = msgs[0].size();
  const std::size_t full_blocks = len / 64;
  const std::size_t tail_len = len - full_blocks * 64;
  // 0x80 + 8-byte length must fit: one extra block unless tail >= 56.
  const std::size_t pad_blocks = tail_len >= 56 ? 2 : 1;

  BatchScratch& scratch = batch_scratch();
  std::vector<std::uint32_t>& states = scratch.states;
  states.resize(count * 8);
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(&states[8 * i], kSha256Init, sizeof(kSha256Init));
  }

  std::vector<const std::uint8_t*>& ptrs = scratch.ptrs;
  ptrs.resize(count);
  for (std::size_t b = 0; b < full_blocks; ++b) {
    for (std::size_t i = 0; i < count; ++i) ptrs[i] = msgs[i].data() + b * 64;
    kernel.compress_batch(states.data(), ptrs.data(), count);
  }

  // Padded tail blocks, laid out per message.
  std::vector<std::uint8_t>& tails = scratch.tails;
  tails.assign(count * pad_blocks * 64, 0);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint8_t* dst = tails.data() + i * pad_blocks * 64;
    if (tail_len > 0)
      std::memcpy(dst, msgs[i].data() + full_blocks * 64, tail_len);
    dst[tail_len] = 0x80;
    sha256_store_bit_length(len, dst + pad_blocks * 64 - 8);
  }
  for (std::size_t b = 0; b < pad_blocks; ++b) {
    for (std::size_t i = 0; i < count; ++i)
      ptrs[i] = tails.data() + (i * pad_blocks + b) * 64;
    kernel.compress_batch(states.data(), ptrs.data(), count);
  }

  for (std::size_t i = 0; i < count; ++i) {
    sha256_store_digest(&states[8 * i], out[i].data());
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
  std::vector<Sha256Digest>& full = batch_scratch().digests;
  full.resize(count);
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
