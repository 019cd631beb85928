#include "crypto/hmac.h"

#include <algorithm>

#include "crypto/hash.h"
#include "sim/stats/stats.h"

namespace lrs::crypto {

HmacKey::HmacKey(ByteView key) {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> k{};  // zero-padded
  if (key.size() > kBlock) {
    const Sha256Digest kd = Sha256::hash(key);
    std::copy(kd.begin(), kd.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  std::array<std::uint8_t, kBlock> pad;
  for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x36;
  Sha256 inner;
  inner.update(ByteView(pad.data(), pad.size()));
  inner_ = inner.midstate();

  for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x5c;
  Sha256 outer;
  outer.update(ByteView(pad.data(), pad.size()));
  outer_ = outer.midstate();
}

Sha256Digest hmac_sha256(const HmacKey& key, ByteView message) {
  static stats::Timer& timer =
      stats::Registry::instance().timer("crypto.hmac");
  stats::TimerScope scope(timer);
  // A message of at most 55 bytes is one padded block after the ipad
  // midstate; the 32-byte inner digest always is one after the opad's.
  const Sha256Digest inner_digest =
      message.size() <= kSha256OneBlockMax
          ? Sha256::finish_one_block(key.inner(), message)
          : Sha256::resume(key.inner()).update(message).finalize();
  return Sha256::finish_one_block(
      key.outer(), ByteView(inner_digest.data(), inner_digest.size()));
}

Sha256Digest hmac_sha256(ByteView key, ByteView message) {
  return hmac_sha256(HmacKey(key), message);
}

ControlMac control_mac(const HmacKey& key, ByteView message) {
  const Sha256Digest full = hmac_sha256(key, message);
  ControlMac mac;
  std::copy_n(full.begin(), kControlMacSize, mac.begin());
  return mac;
}

bool verify_control_mac(const HmacKey& key, ByteView message,
                        const ControlMac& mac) {
  return equal(control_mac(key, message), mac);
}

}  // namespace lrs::crypto
