// The discrete-event network simulator: nodes, a CSMA broadcast radio with
// collisions and half-duplex receivers, channel loss models, and metrics.
//
// Protocol state machines are written against the narrow Env interface so
// they also run under scripted fake environments in unit tests. The
// simulator provides the real Env implementation: local broadcast with
// carrier sensing, exponential-backoff retries, per-receiver collision
// tracking, PRR sampling from the topology and an additional LossModel
// (the paper's application-layer drop probability p).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/channel.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/metrics.h"
#include "sim/time.h"
#include "sim/topology.h"
#include "util/rng.h"
#include "util/types.h"

namespace lrs::sim {

struct RadioParams {
  double bitrate_bps = 250'000.0;      // CC2420-class radio
  std::size_t phy_overhead_bytes = 15; // preamble/SFD/len/MAC/FCS per frame
  // Power draws for energy accounting (CC2420 at 3 V: 17.4 mA tx at 0 dBm,
  // 18.8 mA rx/listen).
  double tx_power_mw = 52.2;
  double rx_power_mw = 56.4;
  SimTime backoff_initial = 500 * kMicrosecond;
  SimTime backoff_window = 5 * kMillisecond;   // initial contention window
  SimTime backoff_window_max = 50 * kMillisecond;

  SimTime airtime(std::size_t frame_bytes) const {
    const double bits =
        static_cast<double>((frame_bytes + phy_overhead_bytes) * 8);
    return static_cast<SimTime>(bits / bitrate_bps *
                                static_cast<double>(kSecond));
  }
};

class Simulator;
class SimObserver;

/// What a protocol node sees of the world. Implemented by the simulator and
/// by test doubles.
class Env {
 public:
  virtual ~Env() = default;

  virtual SimTime now() const = 0;
  virtual NodeId id() const = 0;
  /// The simulator's observer chain, or nullptr when nothing is attached —
  /// the null-recorder fast path. Protocol engines use this to report
  /// state transitions and progress to tracers without paying anything
  /// (one branch) in untraced runs.
  virtual SimObserver* observer() const { return nullptr; }
  /// Local broadcast to all radio neighbors (queued behind CSMA).
  virtual void broadcast(PacketClass cls, Bytes frame) = 0;
  /// One-shot timer; the token cancels it. The closure is stored inline
  /// (EventFn) — captures beyond its capacity are a compile error, which
  /// keeps the per-event allocation count at zero.
  virtual EventToken schedule(SimTime delay, EventFn fn) = 0;
  /// Frames waiting in (or occupying) this node's MAC: lets senders pace
  /// themselves to the radio instead of flooding the queue.
  virtual std::size_t pending_tx() const = 0;
  /// Cancels a timer; null and stale (already fired/cancelled) tokens are
  /// ignored.
  virtual void cancel(EventToken token) = 0;
  /// Moves a pending timer to fire `delay` from now, keeping its token and
  /// closure; firing order is the same as cancel() followed by schedule().
  /// Returns false for null and stale tokens, and by default — an Env that
  /// cannot move timers leaves callers on cancel() + schedule().
  virtual bool reschedule(EventToken /*token*/, SimTime /*delay*/) {
    return false;
  }
  virtual Rng& rng() = 0;
  virtual NodeMetrics& metrics() = 0;
  /// The node holds the complete verified image (records completion time).
  virtual void notify_complete() = 0;
  /// Identifier of the broadcast delivery currently being dispatched, shared
  /// by every receiver of the same physical frame. 0 means "no sharing" —
  /// test doubles, and runs whose fault layer may mutate frames per
  /// receiver, stay at 0 so receive-side memoization is disabled there.
  /// Protocol engines use a nonzero serial to verify/parse each broadcast
  /// frame once per transmission instead of once per receiver.
  virtual std::uint64_t delivery_serial() const { return 0; }
};

/// Base class for everything attached to the simulator.
class Node {
 public:
  explicit Node(Env& env) : env_(env) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Called once when the simulation starts.
  virtual void on_start() = 0;
  /// Called for every frame that survives the channel.
  virtual void on_receive(ByteView frame) = 0;
  /// Called when a crash/reboot fault schedule restarts this node: volatile
  /// protocol state is gone, persisted storage (completed pages, bootstrap
  /// metadata) survives. Default: nothing to lose.
  virtual void on_reboot() {}

 protected:
  Env& env() { return env_; }
  const Env& env() const { return env_; }

 private:
  Env& env_;
};

/// Passive hook into the simulator's packet stream — invariant checkers and
/// protocol tracers attach one without perturbing the run. Every callback
/// defaults to a no-op. Deliveries are synchronous, so a before/after pair
/// brackets exactly one frame's effect on the receiving node.
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  virtual void on_send(SimTime now, NodeId sender, PacketClass cls,
                       ByteView frame) {
    (void)now;
    (void)sender;
    (void)cls;
    (void)frame;
  }
  virtual void before_deliver(SimTime now, NodeId from, NodeId to,
                              PacketClass cls, ByteView frame, bool tampered) {
    (void)now;
    (void)from;
    (void)to;
    (void)cls;
    (void)frame;
    (void)tampered;
  }
  virtual void after_deliver(SimTime now, NodeId from, NodeId to,
                             PacketClass cls, ByteView frame, bool tampered) {
    (void)now;
    (void)from;
    (void)to;
    (void)cls;
    (void)frame;
    (void)tampered;
  }
  virtual void on_reboot(SimTime now, NodeId node) {
    (void)now;
    (void)node;
  }

  // Protocol-level hooks, reported by the dissemination engine through
  // Env::observer() (the simulator fans them out to every attached
  // observer). `from`/`to`/`status` use the proto enums' integer values so
  // sim/ need not depend on proto/.

  /// Engine state machine moved between MAINTAIN / RX / TX.
  virtual void on_state_transition(SimTime now, NodeId node, int from,
                                   int to) {
    (void)now;
    (void)node;
    (void)from;
    (void)to;
  }
  /// A page decoded and verified; `pages_complete` is the new frontier.
  virtual void on_page_complete(SimTime now, NodeId node, std::uint32_t page,
                                std::uint32_t pages_complete) {
    (void)now;
    (void)node;
    (void)page;
    (void)pages_complete;
  }
  /// The node holds the complete verified image (fires once per node).
  virtual void on_node_complete(SimTime now, NodeId node) {
    (void)now;
    (void)node;
  }
  /// A received packet failed authentication (MAC, hash or signature).
  virtual void on_auth_failure(SimTime now, NodeId node, PacketClass cls) {
    (void)now;
    (void)node;
    (void)cls;
  }
  /// The serve loop chose data packet (page, index) for transmission.
  virtual void on_data_served(SimTime now, NodeId node, std::uint32_t page,
                              std::uint32_t index) {
    (void)now;
    (void)node;
    (void)page;
    (void)index;
  }
  /// A data packet was fed to the scheme; `status` is proto::DataStatus.
  virtual void on_data_packet(SimTime now, NodeId node, std::uint32_t page,
                              std::uint32_t index, int status) {
    (void)now;
    (void)node;
    (void)page;
    (void)index;
    (void)status;
  }
};

/// Fans every SimObserver callback out to a list of observers, in
/// attachment order. The simulator keeps one internally so invariant
/// checkers and trace recorders can watch the same run.
class ObserverFanout final : public SimObserver {
 public:
  void add(SimObserver* o) {
    if (o != nullptr) list_.push_back(o);
  }
  std::size_t size() const { return list_.size(); }
  SimObserver* sole() const { return list_.size() == 1 ? list_[0] : nullptr; }

  void on_send(SimTime now, NodeId sender, PacketClass cls,
               ByteView frame) override {
    for (auto* o : list_) o->on_send(now, sender, cls, frame);
  }
  void before_deliver(SimTime now, NodeId from, NodeId to, PacketClass cls,
                      ByteView frame, bool tampered) override {
    for (auto* o : list_) o->before_deliver(now, from, to, cls, frame,
                                            tampered);
  }
  void after_deliver(SimTime now, NodeId from, NodeId to, PacketClass cls,
                     ByteView frame, bool tampered) override {
    for (auto* o : list_) o->after_deliver(now, from, to, cls, frame,
                                           tampered);
  }
  void on_reboot(SimTime now, NodeId node) override {
    for (auto* o : list_) o->on_reboot(now, node);
  }
  void on_state_transition(SimTime now, NodeId node, int from,
                           int to) override {
    for (auto* o : list_) o->on_state_transition(now, node, from, to);
  }
  void on_page_complete(SimTime now, NodeId node, std::uint32_t page,
                        std::uint32_t pages_complete) override {
    for (auto* o : list_) o->on_page_complete(now, node, page,
                                              pages_complete);
  }
  void on_node_complete(SimTime now, NodeId node) override {
    for (auto* o : list_) o->on_node_complete(now, node);
  }
  void on_auth_failure(SimTime now, NodeId node, PacketClass cls) override {
    for (auto* o : list_) o->on_auth_failure(now, node, cls);
  }
  void on_data_served(SimTime now, NodeId node, std::uint32_t page,
                      std::uint32_t index) override {
    for (auto* o : list_) o->on_data_served(now, node, page, index);
  }
  void on_data_packet(SimTime now, NodeId node, std::uint32_t page,
                      std::uint32_t index, int status) override {
    for (auto* o : list_) o->on_data_packet(now, node, page, index, status);
  }

 private:
  std::vector<SimObserver*> list_;
};

class Simulator {
 public:
  Simulator(Topology topology, std::unique_ptr<LossModel> loss,
            RadioParams radio, std::uint64_t seed);

  /// Island mode: simulates only `members` (ascending NodeIds, closed under
  /// the radio graph — i.e. a union of connected components) of a shared
  /// topology. Node ids, metrics rows and per-node rng streams keep their
  /// global numbering: rng streams are forked for *all* topology positions
  /// in id order, so a member's stream is identical no matter how the
  /// topology was partitioned. An empty `members` list means all nodes.
  Simulator(std::shared_ptr<const Topology> topology,
            std::unique_ptr<LossModel> loss, RadioParams radio,
            std::uint64_t seed, std::vector<NodeId> members = {});
  ~Simulator();

  /// Installs the fault layer `plan` describes between the loss model and
  /// delivery; a plan without faults (!plan.any(), the default) installs
  /// none. Must be called before run(). Without a fault layer the
  /// per-receiver Rng streams see exactly the same draws as before this
  /// hook existed, so historical seeds replay unchanged.
  void set_faults(const FaultPlan& plan);

  /// Attaches a passive observer (not owned; nullptr is ignored). Multiple
  /// observers — e.g. an invariant checker plus a trace recorder — see
  /// every callback in attachment order. With none attached, observer()
  /// stays nullptr and the hot paths pay one branch (no fan-out object).
  void add_observer(SimObserver* observer);

  /// The active observer chain, or nullptr when none is attached: a single
  /// observer is exposed directly, several through an internal fan-out.
  SimObserver* observer() const { return observer_; }

  /// Creates a node of type T whose constructor receives (Env&, args...).
  /// Nodes must be added in NodeId order — 0..topology.size()-1, or the
  /// members list in ascending order under island mode — before run().
  template <typename T, typename... Args>
  T& add_node(Args&&... args) {
    const NodeId id = next_node_id();
    Env& env = make_env(id);
    auto node = std::make_unique<T>(env, std::forward<Args>(args)...);
    T& ref = *node;
    attach(id, std::move(node));
    return ref;
  }

  /// Runs until `done()` (checked after every event) or `limit`.
  /// Returns true when `done()` stopped the run.
  bool run(SimTime limit, const std::function<bool()>& done = {});

  SimTime now() const { return queue_.now(); }
  Metrics& metrics() { return *metrics_; }
  const Metrics& metrics() const { return *metrics_; }
  const Topology& topology() const { return *topology_; }
  std::size_t node_count() const { return topology_->size(); }
  /// The simulated members (ascending). Equals 0..size-1 outside island mode.
  const std::vector<NodeId>& members() const { return members_; }
  Node& node(NodeId id) { return *nodes_[id]; }
  const RadioParams& radio() const { return radio_; }

  /// Number of frames dropped due to collisions / half-duplex conflicts —
  /// exposed for radio-model tests and diagnostics.
  std::uint64_t collisions() const { return collisions_; }

  /// Total events the queue executed so far — the numerator of the
  /// events/sec throughput figure bench_scale tracks across PRs.
  std::uint64_t events_executed() const { return queue_.executed(); }

  /// Fault-layer accounting: frames whose bytes the fault model altered,
  /// frames it swallowed (sends from and deliveries to crashed nodes), and
  /// crash/reboot events fired.
  std::uint64_t tampered_frames() const { return tampered_frames_; }
  std::uint64_t fault_drops() const { return fault_drops_; }
  std::uint64_t reboots() const { return reboots_; }

 private:
  class SimEnv;
  struct Transmission;
  struct RadioCard;
  struct MacState;

  NodeId next_node_id() const;
  Env& make_env(NodeId id);
  void attach(NodeId id, std::unique_ptr<Node> node);
  void start_if_needed();

  void enqueue_frame(NodeId sender, PacketClass cls, Bytes frame);
  void schedule_attempt(NodeId sender, SimTime delay);
  void attempt_send(NodeId sender);
  bool carrier_busy(NodeId sender) const;
  void begin_transmission(NodeId sender);
  void end_transmission(std::uint32_t tx_index);
  std::uint32_t acquire_tx();
  void release_tx(std::uint32_t tx_index);
  void deliver(NodeId sender, NodeId receiver, PacketClass cls,
               const Bytes& frame);
  void deliver_now(NodeId sender, NodeId receiver, PacketClass cls,
                   const Bytes& frame, bool tampered);

  std::shared_ptr<const Topology> topology_;
  std::unique_ptr<LossModel> loss_;
  RadioParams radio_;
  Rng rng_;
  EventQueue queue_;
  std::unique_ptr<Metrics> metrics_;
  ObserverFanout fanout_;
  SimObserver* observer_ = nullptr;

  std::vector<std::unique_ptr<SimEnv>> envs_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Per-node simulation state, struct-of-arrays: the 16-byte radio card
  // (carrier count, rx lock, tx flags) is all the per-neighbor loops in
  // begin/end_transmission touch — four cards per cache line instead of one
  // ~96-byte node record — while the rng streams and the cold MAC queues
  // live in their own arrays.
  std::vector<RadioCard> cards_;
  std::vector<MacState> macs_;
  std::vector<Rng> rngs_;
  std::vector<NodeId> members_;
  std::vector<std::uint8_t> is_member_;  // empty unless island mode
  std::size_t added_ = 0;
  // Broadcast delivery serial: bumped once per physical frame delivery
  // fan-out, 0 forever when a fault model may mutate frames per receiver.
  std::uint64_t delivery_serial_ = 0;
  // In-flight transmissions, slab-pooled: a transmission's lifetime is
  // bounded by its own end event, so slots recycle through a free list and
  // the frame/flag buffers keep their capacity — broadcast to N neighbors
  // is N copy-free deliveries of the one pooled payload.
  std::vector<Transmission> tx_pool_;
  std::vector<std::uint32_t> tx_free_;
  bool started_ = false;
  std::uint64_t collisions_ = 0;
  std::uint64_t tampered_frames_ = 0;
  std::uint64_t fault_drops_ = 0;
  std::uint64_t reboots_ = 0;
  // Last: the model is large and cold, so it stays off the cache lines of
  // the per-delivery members above.
  std::optional<FaultModel> fault_;
};

}  // namespace lrs::sim
