#include "sim/simulator.h"

#include <algorithm>

#include "util/check.h"

namespace lrs::sim {

namespace {
/// "No transmission" sentinel for RadioCard::rx_tx pool indices.
constexpr std::uint32_t kNoTx = 0xffffffffu;
}  // namespace

/// One in-flight frame, slab-pooled (see tx_pool_). Per-receiver corruption
/// flags are tracked for every neighbor that started locked onto this frame.
struct Simulator::Transmission {
  NodeId sender = 0;
  PacketClass cls = PacketClass::kData;
  Bytes frame;
  // corrupted[i] corresponds to topology.neighbors(sender)[i].
  std::vector<std::uint8_t> corrupted;
};

/// The 16-byte hot radio state the carrier/collision loops walk — four
/// neighbors per cache line.
struct Simulator::RadioCard {
  // Frame this node's receiver is currently locked onto: pool index of the
  // transmission plus this node's slot in its corrupted vector. Always a
  // live transmission — every reference is cleared before the end event
  // releases the slot.
  std::uint32_t rx_tx = kNoTx;
  std::uint32_t rx_slot = 0;
  // Number of active transmissions whose carrier reaches this node.
  std::int32_t carrier_count = 0;
  std::uint8_t transmitting = 0;
  std::uint8_t attempt_scheduled = 0;
};

/// Cold per-node MAC state, touched only when this node itself queues or
/// sends frames.
struct Simulator::MacState {
  // MAC queue: frames waiting for the channel. A vector-backed FIFO (pop =
  // advance tx_head) whose storage is recycled once drained, so steady-
  // state queueing never reallocates.
  std::vector<std::pair<PacketClass, Bytes>> tx_queue;
  std::size_t tx_head = 0;
  SimTime backoff_window = 0;

  std::size_t queued() const { return tx_queue.size() - tx_head; }
};

class Simulator::SimEnv final : public Env {
 public:
  SimEnv(Simulator* sim, NodeId id) : sim_(sim), id_(id) {}

  SimTime now() const override { return sim_->queue_.now(); }
  NodeId id() const override { return id_; }
  SimObserver* observer() const override { return sim_->observer_; }

  void broadcast(PacketClass cls, Bytes frame) override {
    sim_->enqueue_frame(id_, cls, std::move(frame));
  }

  EventToken schedule(SimTime delay, EventFn fn) override {
    LRS_CHECK(delay >= 0);
    return sim_->queue_.schedule_at(now() + delay, std::move(fn));
  }

  void cancel(EventToken token) override { sim_->queue_.cancel(token); }

  bool reschedule(EventToken token, SimTime delay) override {
    LRS_CHECK(delay >= 0);
    return sim_->queue_.reschedule(token, now() + delay);
  }

  std::size_t pending_tx() const override {
    return sim_->macs_[id_].queued() +
           (sim_->cards_[id_].transmitting ? 1 : 0);
  }

  Rng& rng() override { return sim_->rngs_[id_]; }
  NodeMetrics& metrics() override { return sim_->metrics_->node(id_); }

  void notify_complete() override {
    if (sim_->metrics_->record_completion(id_, now()) && sim_->observer_) {
      sim_->observer_->on_node_complete(now(), id_);
    }
  }

  std::uint64_t delivery_serial() const override {
    return sim_->delivery_serial_;
  }

 private:
  Simulator* sim_;
  NodeId id_;
};

Simulator::Simulator(Topology topology, std::unique_ptr<LossModel> loss,
                     RadioParams radio, std::uint64_t seed)
    : Simulator(std::make_shared<const Topology>(std::move(topology)),
                std::move(loss), radio, seed) {}

Simulator::Simulator(std::shared_ptr<const Topology> topology,
                     std::unique_ptr<LossModel> loss, RadioParams radio,
                     std::uint64_t seed, std::vector<NodeId> members)
    : topology_(std::move(topology)),
      loss_(std::move(loss)),
      radio_(radio),
      rng_(seed),
      metrics_(std::make_unique<Metrics>(topology_->size())),
      members_(std::move(members)) {
  LRS_CHECK(loss_ != nullptr);
  const std::size_t n = topology_->size();
  cards_.resize(n);
  macs_.resize(n);
  // Rng streams are forked for every topology position in id order even in
  // island mode, so a member node's stream does not depend on how the
  // topology was partitioned.
  rngs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) rngs_.push_back(rng_.fork());
  envs_.resize(n);
  nodes_.resize(n);
  if (members_.empty()) {
    members_.resize(n);
    for (std::size_t i = 0; i < n; ++i) members_[i] = static_cast<NodeId>(i);
  } else {
    LRS_CHECK(std::is_sorted(members_.begin(), members_.end()));
    is_member_.assign(n, 0);
    for (NodeId m : members_) {
      LRS_CHECK(m < n);
      is_member_[m] = 1;
    }
  }
}

Simulator::~Simulator() = default;

void Simulator::set_faults(const FaultPlan& plan) {
  LRS_CHECK_MSG(!started_, "faults must be installed before run()");
  if (plan.any()) {
    fault_.emplace(plan);
  } else {
    fault_.reset();
  }
}

void Simulator::add_observer(SimObserver* observer) {
  if (observer == nullptr) return;
  fanout_.add(observer);
  // One observer dispatches directly; two or more go through the fan-out.
  observer_ = fanout_.sole() != nullptr ? fanout_.sole() : &fanout_;
}

NodeId Simulator::next_node_id() const {
  LRS_CHECK_MSG(added_ < members_.size(),
                "more nodes than simulated topology positions");
  return members_[added_];
}

Env& Simulator::make_env(NodeId id) {
  envs_[id] = std::make_unique<SimEnv>(this, id);
  return *envs_[id];
}

void Simulator::attach(NodeId id, std::unique_ptr<Node> node) {
  LRS_CHECK(!started_);
  nodes_[id] = std::move(node);
  ++added_;
}

void Simulator::start_if_needed() {
  if (started_) return;
  started_ = true;
  LRS_CHECK_MSG(added_ == members_.size(),
                "every simulated topology position needs a node before run()");
  for (NodeId id : members_) {
    queue_.schedule_at(0, [n = nodes_[id].get()] { n->on_start(); });
  }
  if (fault_) {
    for (const auto& e : fault_->crashes()) {
      LRS_CHECK(e.node < nodes_.size());
      if (!is_member_.empty() && !is_member_[e.node]) continue;
      queue_.schedule_at(e.at + e.downtime, [this, node = e.node] {
        ++reboots_;
        nodes_[node]->on_reboot();
        if (observer_) observer_->on_reboot(queue_.now(), node);
      });
    }
  }
}

bool Simulator::run(SimTime limit, const std::function<bool()>& done) {
  start_if_needed();
  if (done && done()) return true;
  while (queue_.run_next_before(limit)) {
    if (done && done()) return true;
  }
  return done ? done() : true;
}

std::uint32_t Simulator::acquire_tx() {
  if (!tx_free_.empty()) {
    const std::uint32_t t = tx_free_.back();
    tx_free_.pop_back();
    return t;
  }
  tx_pool_.emplace_back();
  return static_cast<std::uint32_t>(tx_pool_.size() - 1);
}

void Simulator::release_tx(std::uint32_t tx_index) {
  // Buffers keep their capacity for the next occupant; the frame bytes
  // themselves are freed when the slot is refilled (move-assignment).
  tx_free_.push_back(tx_index);
}

void Simulator::enqueue_frame(NodeId sender, PacketClass cls, Bytes frame) {
  if (fault_ && fault_->is_down(sender, queue_.now())) {
    // Radio is off during a crash window: the frame never reaches the MAC.
    ++fault_drops_;
    return;
  }
  auto& mac = macs_[sender];
  auto& card = cards_[sender];
  mac.tx_queue.emplace_back(cls, std::move(frame));
  if (!card.attempt_scheduled && !card.transmitting) {
    // Fresh contention: small random initial backoff for fairness.
    schedule_attempt(sender, radio_.backoff_initial +
                                 static_cast<SimTime>(rngs_[sender].uniform(
                                     static_cast<std::uint64_t>(
                                         radio_.backoff_window))));
    mac.backoff_window = radio_.backoff_window;
  }
}

void Simulator::schedule_attempt(NodeId sender, SimTime delay) {
  cards_[sender].attempt_scheduled = 1;
  queue_.schedule_at(queue_.now() + delay,
                     [this, sender] { attempt_send(sender); });
}

bool Simulator::carrier_busy(NodeId sender) const {
  const auto& card = cards_[sender];
  return card.carrier_count > 0 || card.rx_tx != kNoTx;
}

void Simulator::attempt_send(NodeId sender) {
  auto& mac = macs_[sender];
  auto& card = cards_[sender];
  card.attempt_scheduled = 0;
  if (mac.queued() == 0 || card.transmitting) return;
  if (fault_ && fault_->is_down(sender, queue_.now())) {
    // The node crashed with frames queued: the MAC queue dies with it.
    fault_drops_ += mac.queued();
    mac.tx_queue.clear();
    mac.tx_head = 0;
    return;
  }

  if (carrier_busy(sender)) {
    // Binary exponential backoff.
    mac.backoff_window =
        std::min(mac.backoff_window * 2, radio_.backoff_window_max);
    schedule_attempt(sender, static_cast<SimTime>(rngs_[sender].uniform(
                         static_cast<std::uint64_t>(mac.backoff_window))) +
                         radio_.backoff_initial);
    return;
  }
  mac.backoff_window = radio_.backoff_window;
  begin_transmission(sender);
}

void Simulator::begin_transmission(NodeId sender) {
  auto& mac = macs_[sender];
  auto& card = cards_[sender];
  const std::uint32_t ti = acquire_tx();
  Transmission& tx = tx_pool_[ti];
  auto& [cls, frame] = mac.tx_queue[mac.tx_head];
  tx.sender = sender;
  tx.cls = cls;
  tx.frame = std::move(frame);
  if (++mac.tx_head == mac.tx_queue.size()) {
    mac.tx_queue.clear();  // keeps capacity; the FIFO storage is recycled
    mac.tx_head = 0;
  }

  const SimTime duration = radio_.airtime(tx.frame.size());
  const SimTime end = queue_.now() + duration;

  const auto& neighbors = topology_->neighbors(sender);
  tx.corrupted.assign(neighbors.size(), 0);

  metrics_->record_send(sender, tx.cls, tx.frame.size());
  if (observer_) {
    observer_->on_send(queue_.now(), sender, tx.cls, view(tx.frame));
  }
  metrics_->node(sender).tx_airtime_us +=
      static_cast<std::uint64_t>(duration);
  card.transmitting = 1;

  // Half-duplex: starting to transmit aborts any in-progress reception.
  if (card.rx_tx != kNoTx) {
    tx_pool_[card.rx_tx].corrupted[card.rx_slot] = 1;
    card.rx_tx = kNoTx;
    ++collisions_;
  }

  for (std::size_t slot = 0; slot < neighbors.size(); ++slot) {
    const NodeId r = neighbors[slot];
    auto& rc = cards_[r];
    ++rc.carrier_count;
    if (rc.transmitting) {
      // Receiver is busy talking: it misses this frame entirely.
      tx.corrupted[slot] = 1;
      continue;
    }
    if (rc.rx_tx != kNoTx) {
      // Collision: both the in-progress frame and this one are lost at r.
      tx_pool_[rc.rx_tx].corrupted[rc.rx_slot] = 1;
      tx.corrupted[slot] = 1;
      ++collisions_;
      continue;
    }
    rc.rx_tx = ti;
    rc.rx_slot = static_cast<std::uint32_t>(slot);
  }

  queue_.schedule_at(end, [this, ti] { end_transmission(ti); });
}

void Simulator::end_transmission(std::uint32_t tx_index) {
  // Safe to hold the reference across the loop: nothing inside delivery
  // can start a transmission synchronously (sends always go through a
  // scheduled attempt), so the pool cannot grow under us.
  Transmission& tx = tx_pool_[tx_index];
  const NodeId sender = tx.sender;
  cards_[sender].transmitting = 0;

  // One serial per physical frame: every receiver the loop below delivers
  // to observes the same value, which is what lets the protocol layer
  // verify the frame once per transmission. Fault models may rewrite
  // frames per receiver, so the serial stays 0 (memo off) for them.
  if (!fault_) ++delivery_serial_;

  const SimTime air = radio_.airtime(tx.frame.size());
  const auto& neighbors = topology_->neighbors(sender);
  for (std::size_t slot = 0; slot < neighbors.size(); ++slot) {
    const NodeId r = neighbors[slot];
    auto& rc = cards_[r];
    --rc.carrier_count;
    const bool locked = rc.rx_tx == tx_index && rc.rx_slot == slot;
    if (locked) {
      rc.rx_tx = kNoTx;
      // The receiver's radio was occupied for the whole frame whether or
      // not the content survives (collisions/losses still cost energy).
      metrics_->node(r).rx_airtime_us += static_cast<std::uint64_t>(air);
    }

    if (!locked || tx.corrupted[slot] != 0) continue;
    // Channel quality: topology PRR sample, then the loss-model overlay
    // (application-layer drops in the paper's one-hop experiments).
    if (!rngs_[r].bernoulli(topology_->prr_by_slot(sender, slot))) continue;
    if (!loss_->delivered(sender, r, queue_.now(), rngs_[r])) continue;

    deliver(sender, r, tx.cls, tx.frame);
  }

  // Every receiver reference was cleared above (or earlier, on abort), so
  // the slot can recycle.
  release_tx(tx_index);

  // Node may have queued more frames while transmitting.
  if (macs_[sender].queued() != 0 && !cards_[sender].attempt_scheduled) {
    schedule_attempt(sender,
                     radio_.backoff_initial +
                         static_cast<SimTime>(rngs_[sender].uniform(
                             static_cast<std::uint64_t>(radio_.backoff_window))));
  }
}

void Simulator::deliver(NodeId sender, NodeId receiver, PacketClass cls,
                        const Bytes& frame) {
  if (!fault_) {
    // Fast path: no copy, no extra rng draws — historical seeds replay
    // byte-identically.
    deliver_now(sender, receiver, cls, frame, /*tampered=*/false);
    return;
  }
  if (fault_->is_down(receiver, queue_.now())) {
    ++fault_drops_;
    return;
  }
  Bytes mutated = frame;
  const FaultAction action = fault_->apply(mutated, rngs_[receiver]);
  if (action.tampered) ++tampered_frames_;
  LRS_CHECK(action.copies >= 1);
  LRS_CHECK(action.delay >= 0);
  if (action.delay == 0) {
    deliver_now(sender, receiver, cls, mutated, action.tampered);
  }
  // Duplicates (and delayed originals) go back through the event queue so
  // later frames can overtake them; a crash window is re-checked at the
  // rescheduled delivery time.
  const std::size_t deferred = action.copies - (action.delay == 0 ? 1 : 0);
  for (std::size_t c = 0; c < deferred; ++c) {
    queue_.schedule_at(
        queue_.now() + action.delay,
        [this, sender, receiver, cls, mutated, tampered = action.tampered] {
          if (fault_ && fault_->is_down(receiver, queue_.now())) {
            ++fault_drops_;
            return;
          }
          deliver_now(sender, receiver, cls, mutated, tampered);
        });
  }
}

void Simulator::deliver_now(NodeId sender, NodeId receiver, PacketClass cls,
                            const Bytes& frame, bool tampered) {
  metrics_->record_receive(receiver, cls, frame.size());
  if (observer_) {
    observer_->before_deliver(queue_.now(), sender, receiver, cls,
                              view(frame), tampered);
  }
  nodes_[receiver]->on_receive(view(frame));
  if (observer_) {
    observer_->after_deliver(queue_.now(), sender, receiver, cls,
                             view(frame), tampered);
  }
}

}  // namespace lrs::sim
