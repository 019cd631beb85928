// The shared page-by-page dissemination engine (Deluge §II-A semantics).
//
// Every node is in one of three states at any time (paper §IV-D):
//   MAINTAIN — Trickle-paced advertisements of (version, pages complete);
//   RX       — actively SNACK-requesting the next incomplete page from a
//              chosen neighbor, with Deluge-style request suppression;
//   TX       — serving a requested page, packet order chosen by the
//              scheme's TxScheduler (union for Deluge/Seluge, greedy
//              round-robin for LR-Seluge).
//
// Scheme-specific behavior — authentication, decoding, request bitmaps,
// packet regeneration — lives behind SchemeState. The engine additionally
// implements: signature-packet bootstrap (initial flood from the base
// station plus on-demand rebroadcast to late neighbors), and the
// denial-of-receipt mitigation of §IV-E (per-neighbor SNACK budgets).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "proto/auth.h"
#include "proto/packet.h"
#include "proto/params.h"
#include "proto/scheme.h"
#include "sim/simulator.h"

namespace lrs::proto {

enum class NodeState { kMaintain, kRx, kTx };

/// One frame kind's slot: the outcome of the delivery `serial`.
template <class T>
struct FanoutSlot {
  std::uint64_t serial = 0;
  bool ok = false;
  T value{};
};

/// Receive-side verification memo, shared by every node of one simulator
/// (wired through EngineConfig by the experiment harness). A broadcast
/// frame reaches all its receivers under the same nonzero
/// Env::delivery_serial(); the first receiver records the parse/verify
/// outcome here and the rest reuse it instead of redoing the control MAC,
/// the body parse or the packet hash. Per-receiver accounting
/// (auth_failures, hash_verifications, …) is still charged by every
/// receiver — only the recomputation is elided — so metric columns are
/// byte-identical with and without the memo. Serial 0 (test doubles,
/// fault-mutated frames) disables sharing; nodes with differing keys or
/// versions stay correct because key schedules are sender-derived and
/// version checks remain per-receiver. The data slot's payload is a view
/// into the broadcast frame: every receiver of one serial is handed that
/// same frame, and the slot is never read under another serial.
struct RxFanoutMemo {
  FanoutSlot<Advertisement> adv;
  FanoutSlot<Snack> snack;
  FanoutSlot<DataPacketView> data;

  // Digest of the data packet's (version, page, index, payload) preimage,
  // filled by the first receiver that actually hashes it (receivers that
  // drop the packet as a duplicate never do).
  std::uint64_t digest_serial = 0;
  RxDigestMemo digest{};
};

class DissemNode : public sim::Node {
 public:
  DissemNode(sim::Env& env, std::unique_ptr<SchemeState> scheme,
             EngineConfig config, Bytes cluster_key);

  void on_start() override;
  void on_receive(ByteView frame) override;
  /// Crash/reboot fault: volatile protocol + scheme state resets, the
  /// scheme's persisted page frontier survives.
  void on_reboot() override;

  /// Replaces the node's image state (base-station side of an upgrade:
  /// the operator pushes a new, signed image into the network). Receivers
  /// upgrade automatically via EngineConfig::scheme_factory when the new
  /// version's signature packet verifies.
  void upgrade(std::unique_ptr<SchemeState> next);

  NodeState state() const { return state_; }
  SchemeState& scheme() { return *scheme_; }
  const SchemeState& scheme() const { return *scheme_; }
  bool image_complete() const { return scheme_->image_complete(); }

 private:
  struct NeighborInfo {
    std::uint32_t pages_complete = 0;
    bool bootstrapped = false;
    sim::SimTime last_heard = 0;
  };

  // --- advertisement / Trickle ---------------------------------------------
  void trickle_restart();
  void arm_adv_fire();
  void on_adv_fire();
  void on_adv_interval_end();
  void send_advertisement();

  // --- RX -------------------------------------------------------------------
  void consider_rx();
  std::optional<NodeId> pick_server() const;
  void enter_rx(NodeId target);
  void leave_rx();
  void arm_snack(sim::SimTime delay);
  void send_snack();
  void on_snack_retry();

  // --- TX -------------------------------------------------------------------
  void handle_snack(const Snack& snack);
  void begin_or_merge_tx(const Snack& snack);
  TxScheduler* tx_session(std::uint32_t page);
  void serve_next();
  void leave_tx();

  // --- signature bootstrap ---------------------------------------------------
  void maybe_request_signature();
  void request_signature_from(NodeId target, Version version);
  void adopt_scheme(std::unique_ptr<SchemeState> next);
  void reset_protocol_state();
  /// Broadcasts a SNACK under this node's own SNACK key.
  void broadcast_snack(const Snack& s);
  void maybe_broadcast_signature();

  // --- packet handlers -------------------------------------------------------
  void handle_advertisement(const Advertisement& adv);
  void handle_data(const DataPacketView& data, std::uint64_t serial);
  void handle_signature_frame(ByteView frame);

  void on_progress();  // page or image newly complete

  sim::SimTime rand_delay(sim::SimTime max);

  /// Moves the MAINTAIN/RX/TX state machine and reports the transition to
  /// the simulator's observer chain (trace recorders); no-op hook when no
  /// observer is attached.
  void set_state(NodeState next);
  /// Reports a received packet that failed authentication.
  void note_auth_failure(sim::PacketClass cls);

  /// Re-reads the mirrored scheme getters below. Called wherever the
  /// scheme can move: construction, adoption/upgrade, reboot, a verified
  /// signature, or a data packet that completed a page.
  void refresh_scheme_view();

  // --- hot state -------------------------------------------------------------
  // Everything the per-delivery path touches is packed together at the
  // front of the object: one broadcast fans out to ~radio-degree
  // receivers, and each receiver's dispatch should miss as few cache
  // lines as possible. In particular version/pages/bootstrapped/complete
  // mirror the scheme's constant-until-progress getters so the common
  // advertisement delivery never dereferences the scheme object at all.
  std::unique_ptr<SchemeState> scheme_;
  RxFanoutMemo* rx_memo_ = nullptr;  // == cfg_.rx_memo, hoisted
  NodeState state_ = NodeState::kMaintain;
  Version version_ = 0;                // scheme_->version()
  std::uint32_t pages_complete_ = 0;   // scheme_->pages_complete()
  bool bootstrapped_ = false;          // scheme_->bootstrapped()
  bool complete_ = false;              // scheme_->image_complete()

  // Neighbor table, flat and sorted by id. A node hears from its ~radio
  // degree of neighbors, so a contiguous array beats a node-based map on
  // the hottest protocol path (every advertisement updates it); iteration
  // order matches the std::map it replaced.
  struct NeighborEntry {
    NodeId id;
    NeighborInfo info;
  };
  std::vector<NeighborEntry> neighbors_;
  NeighborInfo& neighbor(NodeId id);
  void forget_neighbor(NodeId id);

  sim::Trickle trickle_;
  sim::EventToken adv_token_;

  // Cached serialized advertisement: the frame is a pure function of
  // (version, pages_complete, bootstrapped), and Trickle re-announces an
  // unchanged state many times per change, so the MAC is only recomputed
  // when the advertised state moves.
  Advertisement adv_cached_{};
  Bytes adv_frame_;

  // RX state.
  NodeId rx_target_ = 0;
  int rx_retries_ = 0;
  sim::EventToken rx_token_;
  // True while rx_token_ holds arm_snack's pending send_snack, false while
  // it holds send_snack's pending on_snack_retry: only a send may be moved
  // in place.
  bool rx_token_sends_ = false;
  // Latest time the next SNACK may be deferred to (anti-stall).
  sim::SimTime rx_deadline_ = 0;

  // --- cold state ------------------------------------------------------------
  EngineConfig cfg_;
  // Control-frame keys (cluster key, LEAP per-source keys) as precomputed
  // HMAC schedules; empty cluster key = insecure scheme, no MACs.
  ControlKeys keys_;

  // TX state: one service session per requested page, flat and sorted by
  // page, always draining the lowest page first (Deluge priority). Sessions
  // persist until idle so a request for an earlier page never discards
  // accumulated state.
  std::vector<std::pair<std::uint32_t, std::unique_ptr<TxScheduler>>>
      tx_sessions_;
  sim::EventToken tx_token_;
  bool rx_pending_resume_ = false;

  // Signature bootstrap. Requests address one bootstrapped neighbor; if
  // that target stays silent (its advertisement may have squeaked through
  // a near-silent gray-zone link, so neither requests nor replies get
  // across), rotate to the next bootstrapped neighbor every
  // kSigTargetRotate unanswered requests — pinning the first-heard
  // neighbor forever can strand an otherwise well-connected node, which
  // is a liveness bug, not a latency one (observed: 33k requests to a
  // 0.001-PRR target over 12 simulated hours, a dozen strong completed
  // neighbors never asked). The threshold is deliberately high: streaks
  // in the low thousands occur legitimately while the wavefront is still
  // far away (the measured worst case in the 10k-node ladder rung is
  // 2001), and rotating early reshapes bootstrap traffic everywhere.
  // 4096 sits above every observed benign streak with 2x margin while
  // still unsticking a pinned node in minutes of simulated time.
  static constexpr std::uint32_t kSigTargetRotate = 4096;
  bool sig_request_armed_ = false;
  sim::EventToken sig_token_;
  sim::SimTime last_sig_broadcast_ = -1;
  std::uint32_t sig_requests_unanswered_ = 0;

  // Denial-of-receipt mitigation: packets requested per (neighbor, page).
  // Flat, sorted by (neighbor, page) — a node serves a handful of
  // neighbors at a time.
  struct DorEntry {
    NodeId sender;
    std::uint32_t page;
    std::size_t used;
  };
  std::vector<DorEntry> dor_counters_;
  std::size_t& dor_counter(NodeId sender, std::uint32_t page);

  // Round-robin rotation position per page, persisted across TX sessions
  // so successive bursts cover fresh packet indices. Flat, sorted by page.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> serve_rotation_;
};

}  // namespace lrs::proto
