#include "crypto/sha256.h"

#include <cstring>

#include "sim/stats/stats.h"
#include "util/check.h"

namespace lrs::crypto {

Sha256::Sha256() : state_(kSha256Iv.state) {}

Sha256& Sha256::update(ByteView data) {
  LRS_CHECK(!finalized_);
  // An empty view may carry a null pointer, which memcpy must not see.
  if (data.empty()) return *this;
  const Sha256Kernel& kernel = sha256_kernel();
  total_len_ += data.size();
  std::size_t offset = 0;

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      kernel.compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  // All remaining whole blocks in one kernel call.
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    kernel.compress(state_.data(), data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
  return *this;
}

Sha256Digest Sha256::finalize() {
  LRS_CHECK(!finalized_);
  finalized_ = true;

  // Append 0x80, pad with zeros to 56 mod 64, then the 64-bit big-endian
  // message length — written straight into the block buffer.
  const Sha256Kernel& kernel = sha256_kernel();
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    kernel.compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  sha256_store_bit_length(total_len_, buffer_.data() + 56);
  kernel.compress(state_.data(), buffer_.data(), 1);

  Sha256Digest out;
  sha256_store_digest(state_.data(), out.data());
  return out;
}

Sha256Midstate Sha256::midstate() const {
  LRS_CHECK(!finalized_ && buffer_len_ == 0);
  return {state_, total_len_};
}

Sha256 Sha256::resume(const Sha256Midstate& m) {
  Sha256 ctx;
  ctx.state_ = m.state;
  ctx.total_len_ = m.processed;
  return ctx;
}

stats::Timer& sha256_oneshot_timer() {
  // deterministic=false: the signature-verification and WOTS public-key
  // memos in wots.cc absorb a scheduling-dependent share of these calls, so
  // the count is not byte-identical across LRS_JOBS worker counts.
  static stats::Timer& timer =
      stats::Registry::instance().timer("crypto.sha.oneshot",
                                        /*top_level=*/false,
                                        /*deterministic=*/false);
  return timer;
}

Sha256Digest Sha256::hash(ByteView data) { return hash(data, ByteView()); }

Sha256Digest Sha256::hash(ByteView head, ByteView tail) {
  stats::TimerScope scope(sha256_oneshot_timer());
  if (head.size() + tail.size() <= kSha256OneBlockMax)
    return finish_one_block(kSha256Iv, head, tail);
  Sha256 ctx;
  ctx.update(head).update(tail);
  return ctx.finalize();
}

Sha256Digest Sha256::finish_one_block(const Sha256Midstate& from,
                                      ByteView head, ByteView tail) {
  const std::size_t len = head.size() + tail.size();
  LRS_CHECK(len <= kSha256OneBlockMax);
  alignas(16) std::uint8_t block[64] = {};
  if (!head.empty()) std::memcpy(block, head.data(), head.size());
  if (!tail.empty()) std::memcpy(block + head.size(), tail.data(), tail.size());
  block[len] = 0x80;
  sha256_store_bit_length(from.processed + len, block + 56);
  std::array<std::uint32_t, 8> state = from.state;
  sha256_kernel().compress(state.data(), block, 1);
  Sha256Digest out;
  sha256_store_digest(state.data(), out.data());
  return out;
}

}  // namespace lrs::crypto
