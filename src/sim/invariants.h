// Continuous protocol invariant checking (paper §III security goals, §IV
// greedy scheduling bound).
//
// An InvariantObserver attaches to the simulator's packet stream
// (SimObserver) plus per-node state probes and verifies, after every single
// delivery rather than only at the end of a run:
//
//   1. image integrity   — a node reporting image_complete holds exactly
//                          the disseminated image, bit for bit;
//   2. immediate auth    — no packet is buffered before the node is
//                          bootstrapped (signature verified): nothing
//                          unauthenticated ever occupies buffer space;
//   3. monotone progress — a node's completed-page frontier never moves
//                          backwards, not even across a crash/reboot;
//   4. tamper rejection  — a corrupted/forged frame never changes a node's
//                          buffers, page frontier or engine state, unless
//                          it is byte-identical to a data frame an attached
//                          node sent (then it is genuine);
//   5. greedy bound      — a server never transmits more data packets for a
//                          page than the sum of d = max(1, q + k' − n) over
//                          the SNACKs delivered to it (§IV-C).
//
// Checks 2 and 4 only hold for schemes with per-packet authentication
// (Seluge, LR-Seluge); check 5 only for the LR greedy scheduler — the
// caller enables exactly the subset its scheme promises. The observer is
// passive: it never mutates protocol state and a fault-free run with an
// observer attached is bit-identical to one without.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/simulator.h"
#include "util/types.h"

namespace lrs::sim {

/// Read-only views into one node's protocol state. Capture the node's
/// SchemeState through an indirection that survives scheme upgrades (e.g.
/// call through the owning DissemNode on every probe).
struct NodeProbe {
  std::function<bool()> bootstrapped;
  std::function<std::uint32_t()> pages_complete;
  std::function<std::size_t()> buffered_packets;
  std::function<bool()> image_complete;
  std::function<Bytes()> assemble_image;
  /// Engine NodeState as an int (kMaintain=0/kRx=1/kTx=2); may be null.
  std::function<int()> engine_state;
  /// Geometry of a page as served by THIS node (for the greedy bound).
  std::function<std::size_t(std::uint32_t)> packets_in_page;
  std::function<std::size_t(std::uint32_t)> decode_threshold;
};

/// What the observer needs to know about a SNACK on the wire.
struct SnackView {
  NodeId sender = 0;
  NodeId target = 0;
  std::uint32_t page = 0;
  std::size_t requested = 0;  // q: set bits in the request bitmap
  bool signature_request = false;
};

struct DataView {
  std::uint32_t page = 0;
  std::uint32_t index = 0;
};

struct InvariantConfig {
  /// The image being disseminated (invariant 1's ground truth).
  Bytes expected_image;
  /// Enable invariant 2 (immediate authentication) — authenticated schemes.
  bool check_immediate_auth = false;
  /// Enable invariant 4 (tampered frames change nothing) — schemes whose
  /// control traffic is MAC'd and data per-packet authenticated.
  bool check_tamper_rejection = false;
  /// Enable invariant 5 (greedy scheduler send bound).
  bool check_greedy_bound = false;
  /// Wire parsers, nullopt on failure. parse_snack must verify the same MAC
  /// the protocol under test verifies (so forged SNACKs earn no allowance).
  std::function<std::optional<SnackView>(ByteView)> parse_snack;
  std::function<std::optional<DataView>(ByteView)> parse_data;
  /// Stop recording (not checking) after this many violations.
  std::size_t max_violations = 16;
};

struct InvariantViolation {
  int invariant = 0;  // 1..5
  NodeId node = 0;
  SimTime at = 0;
  std::string detail;
  std::string to_string() const;
};

const char* invariant_name(int invariant);

class InvariantObserver final : public SimObserver {
 public:
  explicit InvariantObserver(InvariantConfig config);

  /// Registers a node's probes. Unattached nodes (e.g. attacker nodes) are
  /// simply not checked.
  void attach(NodeId id, NodeProbe probe);

  // SimObserver:
  void on_send(SimTime now, NodeId sender, PacketClass cls,
               ByteView frame) override;
  void before_deliver(SimTime now, NodeId from, NodeId to, PacketClass cls,
                      ByteView frame, bool tampered) override;
  void after_deliver(SimTime now, NodeId from, NodeId to, PacketClass cls,
                     ByteView frame, bool tampered) override;
  void on_reboot(SimTime now, NodeId node) override;

  /// End-of-run sweep: invariant 1 for every attached node that claims
  /// completion. Call once after Simulator::run.
  void finalize(SimTime now);

  bool ok() const { return violations_.empty(); }
  const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  /// Total individual assertions evaluated (a meaningful "checked
  /// something" signal for the stress runner's report).
  std::uint64_t checks_run() const { return checks_run_; }

 private:
  struct Snapshot {
    bool valid = false;
    std::uint32_t pages = 0;
    std::size_t buffered = 0;
    bool bootstrapped = false;
    bool complete = false;
    int engine_state = -1;
  };

  void record(int invariant, NodeId node, SimTime at, std::string detail);
  void check_image(NodeId node, SimTime at, const NodeProbe& probe);
  Snapshot snapshot(const NodeProbe& probe) const;

  InvariantConfig cfg_;
  std::map<NodeId, NodeProbe> probes_;
  std::map<NodeId, Snapshot> pre_;
  // Highest page frontier ever observed per node (invariant 3).
  std::map<NodeId, std::uint32_t> max_pages_;
  // Invariant 5 ledger, keyed by (server, page).
  std::map<std::pair<NodeId, std::uint32_t>, std::uint64_t> allowance_;
  std::map<std::pair<NodeId, std::uint32_t>, std::uint64_t> sent_;
  // Every distinct data frame an attached node sent (invariant 4).
  std::unordered_set<std::string> sent_data_;
  std::vector<InvariantViolation> violations_;
  std::uint64_t checks_run_ = 0;
};

}  // namespace lrs::sim
