#include "sim/metrics.h"

#include <algorithm>

#include "util/check.h"

namespace lrs::sim {

const char* packet_class_name(PacketClass c) {
  switch (c) {
    case PacketClass::kData: return "data";
    case PacketClass::kSnack: return "snack";
    case PacketClass::kAdvertisement: return "adv";
    case PacketClass::kSignature: return "signature";
    case PacketClass::kCount: break;
  }
  return "?";
}

std::optional<PacketClass> packet_class_from_name(std::string_view name) {
  for (std::size_t c = 0; c < kPacketClassCount; ++c) {
    const auto cls = static_cast<PacketClass>(c);
    if (name == packet_class_name(cls)) return cls;
  }
  return std::nullopt;
}

void Metrics::record_send(NodeId id, PacketClass c, std::size_t frame_bytes) {
  LRS_CHECK(id < nodes_.size());
  auto& m = nodes_[id];
  m.sent[static_cast<std::size_t>(c)] += 1;
  m.sent_bytes[static_cast<std::size_t>(c)] += frame_bytes;
}

void Metrics::record_receive(NodeId id, PacketClass c,
                             std::size_t frame_bytes) {
  LRS_CHECK(id < nodes_.size());
  auto& m = nodes_[id];
  m.received[static_cast<std::size_t>(c)] += 1;
  m.received_bytes[static_cast<std::size_t>(c)] += frame_bytes;
}

std::uint64_t Metrics::total_sent(PacketClass c) const {
  std::uint64_t total = 0;
  for (const auto& m : nodes_) total += m.sent[static_cast<std::size_t>(c)];
  return total;
}

std::uint64_t Metrics::total_sent_bytes() const {
  std::uint64_t total = 0;
  for (const auto& m : nodes_)
    for (auto b : m.sent_bytes) total += b;
  return total;
}

std::uint64_t Metrics::total_sent_bytes(PacketClass c) const {
  std::uint64_t total = 0;
  for (const auto& m : nodes_)
    total += m.sent_bytes[static_cast<std::size_t>(c)];
  return total;
}

std::uint64_t Metrics::total_received_bytes() const {
  std::uint64_t total = 0;
  for (const auto& m : nodes_)
    for (auto b : m.received_bytes) total += b;
  return total;
}

std::uint64_t Metrics::total_auth_failures() const {
  std::uint64_t total = 0;
  for (const auto& m : nodes_) total += m.auth_failures;
  return total;
}

std::uint64_t Metrics::total_hash_verifications() const {
  std::uint64_t total = 0;
  for (const auto& m : nodes_) total += m.hash_verifications;
  return total;
}

std::uint64_t Metrics::total_signature_verifications() const {
  std::uint64_t total = 0;
  for (const auto& m : nodes_) total += m.signature_verifications;
  return total;
}

bool Metrics::record_completion(NodeId id, SimTime at) {
  LRS_CHECK(id < nodes_.size());
  auto& m = nodes_[id];
  if (m.completion_time >= 0) return false;
  m.completion_time = at;
  ++completions_;
  return true;
}

std::size_t Metrics::completed_count(NodeId excluding) const {
  std::size_t count = completions_;
  if (excluding < nodes_.size() && nodes_[excluding].completion_time >= 0) {
    --count;
  }
  return count;
}

SimTime Metrics::last_completion() const {
  SimTime last = -1;
  for (const auto& m : nodes_) last = std::max(last, m.completion_time);
  return last;
}

}  // namespace lrs::sim
