#include "proto/packet.h"

#include <algorithm>

#include "util/buffer.h"
#include "util/check.h"

namespace lrs::proto {

namespace {

void append_mac(Bytes& frame, const crypto::HmacKey* key) {
  if (key == nullptr) return;
  const crypto::ControlMac mac = crypto::control_mac(*key, view(frame));
  frame.insert(frame.end(), mac.begin(), mac.end());
}

/// Splits off and checks the trailing MAC; returns the covered prefix, or
/// nullopt on failure. Without a key the whole frame is returned.
std::optional<ByteView> strip_mac(ByteView frame, const crypto::HmacKey* key) {
  if (key == nullptr) return frame;
  if (frame.size() < crypto::kControlMacSize) return std::nullopt;
  const std::size_t body_len = frame.size() - crypto::kControlMacSize;
  crypto::ControlMac mac;
  std::copy_n(frame.begin() + body_len, crypto::kControlMacSize, mac.begin());
  const ByteView body = frame.subspan(0, body_len);
  if (!crypto::verify_control_mac(*key, body, mac)) return std::nullopt;
  return body;
}

}  // namespace

std::optional<PacketType> peek_type(ByteView frame) {
  if (frame.empty()) return std::nullopt;
  switch (frame[0]) {
    case 1: return PacketType::kAdvertisement;
    case 2: return PacketType::kSnack;
    case 3: return PacketType::kData;
    case 4: return PacketType::kSignature;
    default: return std::nullopt;
  }
}

namespace {

/// `mac_size` is the length of the MAC the caller will append, so the
/// frame is allocated once at its final size.
Bytes adv_body(const Advertisement& a, std::size_t mac_size) {
  Writer w(14 + mac_size);  // tag, 3 x u32, flag
  w.u8(static_cast<std::uint8_t>(PacketType::kAdvertisement));
  w.u32(a.version);
  w.u32(a.sender);
  w.u32(a.pages_complete);
  w.u8(a.bootstrapped ? 1 : 0);
  return std::move(w).take();
}

std::optional<Advertisement> parse_adv_body(ByteView body) {
  Reader r(body);
  Advertisement a;
  auto type = r.try_u8();
  if (!type || *type != static_cast<std::uint8_t>(PacketType::kAdvertisement))
    return std::nullopt;
  auto ver = r.try_u32();
  auto sender = r.try_u32();
  auto pages = r.try_u32();
  auto boot = r.try_u8();
  if (!ver || !sender || !pages || !boot || !r.at_end()) return std::nullopt;
  a.version = *ver;
  a.sender = *sender;
  a.pages_complete = *pages;
  a.bootstrapped = *boot != 0;
  return a;
}

}  // namespace

Bytes Advertisement::serialize(const crypto::HmacKey* key) const {
  Bytes frame = adv_body(*this, key ? crypto::kControlMacSize : 0);
  append_mac(frame, key);
  return frame;
}

std::optional<Advertisement> Advertisement::parse(ByteView frame,
                                                  const crypto::HmacKey* key) {
  auto body = strip_mac(frame, key);
  if (!body) return std::nullopt;
  return parse_adv_body(*body);
}

namespace {

/// `mac_size` as for adv_body.
Bytes snack_body(const Snack& s, std::size_t mac_size) {
  // tag, 4 x u32, u16 count, then the bitmap packed straight into the frame
  Writer w(19 + s.requested.byte_size() + mac_size);
  w.u8(static_cast<std::uint8_t>(PacketType::kSnack));
  w.u32(s.version);
  w.u32(s.sender);
  w.u32(s.target);
  w.u32(s.page);
  w.u16(static_cast<std::uint16_t>(s.requested.size()));
  s.requested.write_bytes(w.extend(s.requested.byte_size()));
  return std::move(w).take();
}

std::optional<Snack> parse_snack_body(ByteView body) {
  Reader r(body);
  Snack s;
  auto type = r.try_u8();
  if (!type || *type != static_cast<std::uint8_t>(PacketType::kSnack))
    return std::nullopt;
  auto ver = r.try_u32();
  auto sender = r.try_u32();
  auto target = r.try_u32();
  auto page = r.try_u32();
  auto bits = r.try_u16();
  if (!ver || !sender || !target || !page || !bits) return std::nullopt;
  auto raw = r.try_view((static_cast<std::size_t>(*bits) + 7) / 8);
  if (!raw || !r.at_end()) return std::nullopt;
  s.version = *ver;
  s.sender = *sender;
  s.target = *target;
  s.page = *page;
  s.requested = BitVec::from_bytes(*raw, *bits);
  return s;
}

}  // namespace

Bytes Snack::serialize(const crypto::HmacKey* key) const {
  Bytes frame = snack_body(*this, key ? crypto::kControlMacSize : 0);
  append_mac(frame, key);
  return frame;
}

std::optional<Snack> Snack::parse(ByteView frame, const crypto::HmacKey* key) {
  auto body = strip_mac(frame, key);
  if (!body) return std::nullopt;
  return parse_snack_body(*body);
}

std::optional<NodeId> Snack::peek_sender(ByteView frame) {
  Reader r(frame);
  auto type = r.try_u8();
  if (!type || *type != static_cast<std::uint8_t>(PacketType::kSnack))
    return std::nullopt;
  if (!r.try_u32()) return std::nullopt;  // version
  return r.try_u32();
}

Bytes DataPacketView::serialize() const {
  Writer w(15 + payload.size());  // tag, 3 x u32, u16 length
  w.u8(static_cast<std::uint8_t>(PacketType::kData));
  w.u32(version);
  w.u32(page);
  w.u32(index);
  w.sized_bytes(payload);
  return std::move(w).take();
}

std::optional<DataPacketView> DataPacket::parse(ByteView frame) {
  Reader r(frame);
  DataPacketView d;
  auto type = r.try_u8();
  if (!type || *type != static_cast<std::uint8_t>(PacketType::kData))
    return std::nullopt;
  auto ver = r.try_u32();
  auto page = r.try_u32();
  auto index = r.try_u32();
  if (!ver || !page || !index) return std::nullopt;
  auto payload = r.try_sized_view();
  if (!payload || !r.at_end()) return std::nullopt;
  d.version = *ver;
  d.page = *page;
  d.index = *index;
  d.payload = *payload;
  return d;
}

Bytes DataPacketView::hash_preimage() const {
  Writer w(12 + payload.size());  // 3 x u32
  w.u32(version);
  w.u32(page);
  w.u32(index);
  w.bytes(payload);
  return std::move(w).take();
}

Bytes SignedMeta::serialize() const {
  Writer w;
  w.u32(version);
  w.u32(content_pages);
  w.u32(image_size);
  return std::move(w).take();
}

std::optional<SignedMeta> SignedMeta::parse_from(lrs::Reader& r) {
  SignedMeta m;
  auto ver = r.try_u32();
  auto pages = r.try_u32();
  auto size = r.try_u32();
  if (!ver || !pages || !size) return std::nullopt;
  m.version = *ver;
  m.content_pages = *pages;
  m.image_size = *size;
  return m;
}

Bytes SignaturePacket::signed_message() const {
  Bytes msg = meta.serialize();
  msg.insert(msg.end(), root.begin(), root.end());
  return msg;
}

Bytes SignaturePacket::serialize() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(PacketType::kSignature));
  w.bytes(view(meta.serialize()));
  w.bytes(ByteView(root.data(), root.size()));
  w.bytes(view(puzzle.serialize()));
  w.sized_bytes(view(signature));
  return std::move(w).take();
}

std::optional<SignaturePacket> SignaturePacket::parse(ByteView frame) {
  Reader r(frame);
  SignaturePacket p;
  auto type = r.try_u8();
  if (!type || *type != static_cast<std::uint8_t>(PacketType::kSignature))
    return std::nullopt;
  auto meta = SignedMeta::parse_from(r);
  if (!meta) return std::nullopt;
  p.meta = *meta;
  auto root = r.try_view(p.root.size());
  if (!root) return std::nullopt;
  std::copy(root->begin(), root->end(), p.root.begin());
  auto puzzle_bytes = r.try_view(crypto::PuzzleSolution::kSerializedSize);
  if (!puzzle_bytes) return std::nullopt;
  auto puzzle = crypto::PuzzleSolution::deserialize(*puzzle_bytes);
  if (!puzzle) return std::nullopt;
  p.puzzle = *puzzle;
  auto sig = r.try_sized_bytes();
  if (!sig || !r.at_end()) return std::nullopt;
  p.signature = *std::move(sig);
  return p;
}

}  // namespace lrs::proto
