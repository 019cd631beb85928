// Measurement plumbing: everything the paper's figures and tables report.
//
// Frames are classified so the harnesses can print the paper's five metrics:
// data packets, SNACK packets, advertisement packets, total bytes, and
// dissemination latency (completion time of the last node). Security
// experiments additionally count per-node verification work and rejected
// packets.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"
#include "util/types.h"

namespace lrs::sim {

enum class PacketClass : std::uint8_t {
  kData = 0,
  kSnack,
  kAdvertisement,
  kSignature,
  kCount  // sentinel
};

const char* packet_class_name(PacketClass c);
/// Inverse of packet_class_name; nullopt for unknown names (and "?").
std::optional<PacketClass> packet_class_from_name(std::string_view name);

inline constexpr std::size_t kPacketClassCount =
    static_cast<std::size_t>(PacketClass::kCount);

struct NodeMetrics {
  std::array<std::uint64_t, kPacketClassCount> sent{};
  std::array<std::uint64_t, kPacketClassCount> sent_bytes{};
  std::array<std::uint64_t, kPacketClassCount> received{};
  std::array<std::uint64_t, kPacketClassCount> received_bytes{};

  std::uint64_t hash_verifications = 0;
  std::uint64_t signature_verifications = 0;
  std::uint64_t puzzle_rejections = 0;
  std::uint64_t auth_failures = 0;   // packets that failed authentication
  std::uint64_t decode_operations = 0;
  std::uint64_t snacks_ignored = 0;  // denial-of-receipt mitigation hits
  /// Data packets sent for the hash page (page 0) — lets harnesses report
  /// content-page transmissions separately (Fig. 3 compares one page).
  std::uint64_t page0_data_sent = 0;
  /// Whole pages thrown away because deferred (page-level) authentication
  /// failed after assembly — Sluice's buffer-pollution exposure.
  std::uint64_t page_discards = 0;

  /// Radio occupancy, microseconds: transmitting, and locked onto
  /// incoming frames (successful or not — the radio pays either way).
  std::uint64_t tx_airtime_us = 0;
  std::uint64_t rx_airtime_us = 0;

  /// Set when the node holds the complete, verified image; -1 = incomplete.
  /// Written through Metrics::record_completion so the network-wide
  /// completion counter stays exact.
  SimTime completion_time = -1;
};

class Metrics {
 public:
  explicit Metrics(std::size_t node_count) : nodes_(node_count) {}

  NodeMetrics& node(NodeId id) { return nodes_[id]; }
  const NodeMetrics& node(NodeId id) const { return nodes_[id]; }
  std::size_t node_count() const { return nodes_.size(); }

  void record_send(NodeId id, PacketClass c, std::size_t frame_bytes);
  void record_receive(NodeId id, PacketClass c, std::size_t frame_bytes);

  /// Network-wide totals.
  std::uint64_t total_sent(PacketClass c) const;
  std::uint64_t total_sent_bytes() const;
  std::uint64_t total_sent_bytes(PacketClass c) const;
  std::uint64_t total_received_bytes() const;
  std::uint64_t total_auth_failures() const;
  std::uint64_t total_hash_verifications() const;
  std::uint64_t total_signature_verifications() const;

  /// Marks `id` complete at time `at`. Returns true the first time for the
  /// node (repeat calls are no-ops), so callers can fire once-per-node
  /// hooks off it.
  bool record_completion(NodeId id, SimTime at);

  /// Nodes that have completed, O(1) — this is polled after every event in
  /// the simulator's done() check, so it must not scan.
  std::size_t completions() const { return completions_; }
  /// Number of nodes (excluding `excluding`, usually the base station) that
  /// have completed. O(1).
  std::size_t completed_count(NodeId excluding) const;
  /// Latest completion time over all completed nodes; -1 if none.
  SimTime last_completion() const;

 private:
  std::vector<NodeMetrics> nodes_;
  std::size_t completions_ = 0;
};

}  // namespace lrs::sim
