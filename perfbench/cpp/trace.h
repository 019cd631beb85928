// Outside-in layer tracing for the benchmark's traced run.
//
// Nothing here changes the program: every wrapper is a forwarder built from
// the library's public interfaces (sim::Node, sim::Env, sim::LossModel,
// proto::SchemeState) that times the call into the layer behind it.
//
//   Tracer       span stack; a layer's self time is its span minus its
//                child spans minus the registry scopes (crypto.*,
//                erasure.*) recorded inside it but outside any child span.
//                The registry is read at every span boundary.
//   TimerSlab    keeps engine timer closures on the benchmark side: EventFn
//                stores at most 64 bytes inline, so a wrapper closure
//                cannot hold the original one. Slots are freed on fire and
//                on cancel, so the slab stays bounded by the live timers.
//   TracingEnv   Env forwarder: engine timers run inside a timer span,
//                broadcasts are counted per packet class.
//   TracedNode   owns the real DissemNode and times on_start/on_receive.
//   TimedScheme  SchemeState decorator; forwards the RxDigestMemo overloads
//                to their counterparts, so the memo path stays in use.
//   TimedLoss    LossModel decorator (channel draws, drops, time).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "proto/engine.h"
#include "proto/scheme.h"
#include "sim/channel.h"
#include "sim/simulator.h"
#include "sim/stats/stats.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kTopology,    // sim::build_topology
  kSource,      // signer + make_lr_source / Publisher::prepare / clone_source
  kSimBuild,    // Simulator ctor + add_node (receiver states included)
  kSimRun,      // Simulator::run
  kCellOther,   // result extraction, image check, teardown
  kEngineRx,    // DissemNode::on_receive
  kEngineTimer, // DissemNode::on_start and every closure it scheduled
  kChannel,     // LossModel::delivered
  kSchemeOnData,
  kSchemeVerifyStored,
  kSchemeOnSignature,
  kSchemePacketPayload,
  kSchemeOther,  // request_bits, make_scheduler, signature_frame, ...
  kCount
};

struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t inclusive = 0;  // cycles between enter and exit
  std::int64_t self = 0;        // inclusive minus children minus registry
  std::uint64_t registry = 0;   // registry cycles directly inside
};

/// Counts taken at the same boundaries as the spans.
struct TraceCounts {
  std::array<std::uint64_t, static_cast<std::size_t>(
                                lrs::sim::PacketClass::kCount)>
      tx_frames{};
  std::uint64_t on_data_useful = 0;
  std::uint64_t channel_draws = 0;
  std::uint64_t channel_drops = 0;
};

class Tracer {
 public:
  using Clock = std::uint64_t (*)();

  /// `leaf_timers` are the registry scopes read at every boundary; they
  /// must not nest inside one another.
  explicit Tracer(std::vector<const lrs::stats::Timer*> leaf_timers,
                  Clock clock = &lrs::stats::now_cycles)
      : leaf_timers_(std::move(leaf_timers)), clock_(clock) {
    stack_.reserve(64);
  }

  void enter(Layer layer) {
    const std::uint64_t reg = registry_cycles();
    stack_.push_back({layer, clock_(), reg, 0, 0});
  }

  void exit() {
    const std::uint64_t end = clock_();
    const std::uint64_t reg = registry_cycles();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = end - f.start;
    const std::uint64_t reg_inside = reg - f.reg_start;
    const std::uint64_t reg_direct = reg_inside - f.child_reg;
    LayerTotals& t = totals_[static_cast<std::size_t>(f.layer)];
    ++t.calls;
    t.inclusive += dur;
    t.self += static_cast<std::int64_t>(dur) -
              static_cast<std::int64_t>(f.child) -
              static_cast<std::int64_t>(reg_direct);
    t.registry += reg_direct;
    if (!stack_.empty()) {
      stack_.back().child += dur;
      stack_.back().child_reg += reg_inside;
    }
  }

  std::uint64_t registry_cycles() const {
    std::uint64_t sum = 0;
    for (const lrs::stats::Timer* t : leaf_timers_) sum += t->cycles();
    return sum;
  }

  std::size_t depth() const { return stack_.size(); }
  const LayerTotals& operator[](Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }

  TraceCounts counts;

 private:
  struct Frame {
    Layer layer;
    std::uint64_t start;
    std::uint64_t reg_start;
    std::uint64_t child;      // cycles of child spans
    std::uint64_t child_reg;  // registry cycles inside child spans
  };

  std::vector<const lrs::stats::Timer*> leaf_timers_;
  Clock clock_;
  std::vector<Frame> stack_;
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> totals_{};
};

/// RAII span; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->enter(layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->exit();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

class TimerSlab {
 public:
  explicit TimerSlab(Tracer* tracer) : tracer_(tracer) {}
  TimerSlab(const TimerSlab&) = delete;
  TimerSlab& operator=(const TimerSlab&) = delete;

  lrs::sim::EventToken schedule(lrs::sim::Env& inner, lrs::sim::SimTime delay,
                                lrs::sim::EventFn fn) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot].fn = std::move(fn);
    const lrs::sim::EventToken token =
        inner.schedule(delay, [this, slot] { fire(slot); });
    slots_[slot].token = token.bits();
    by_token_.emplace(token.bits(), slot);
    return token;
  }

  void cancel(lrs::sim::Env& inner, lrs::sim::EventToken token) {
    inner.cancel(token);
    const auto it = by_token_.find(token.bits());
    if (it == by_token_.end()) return;  // null, fired or already cancelled
    release(it->second);
    by_token_.erase(it);
  }

  std::size_t capacity() const { return slots_.size(); }
  std::size_t live() const { return by_token_.size(); }

 private:
  struct Slot {
    lrs::sim::EventFn fn;
    std::uint64_t token = 0;
  };

  void fire(std::uint32_t slot) {
    // Take the closure out first: it may schedule, which can grow slots_.
    lrs::sim::EventFn fn = std::move(slots_[slot].fn);
    by_token_.erase(slots_[slot].token);
    release(slot);
    Span span(tracer_, Layer::kEngineTimer);
    fn();
  }

  void release(std::uint32_t slot) {
    slots_[slot].fn.reset();
    free_.push_back(slot);
  }

  Tracer* tracer_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::unordered_map<std::uint64_t, std::uint32_t> by_token_;
};

class TracingEnv final : public lrs::sim::Env {
 public:
  TracingEnv(lrs::sim::Env& inner, TimerSlab& slab, TraceCounts& counts)
      : inner_(inner), slab_(slab), counts_(counts) {}

  lrs::sim::SimTime now() const override { return inner_.now(); }
  lrs::NodeId id() const override { return inner_.id(); }
  lrs::sim::SimObserver* observer() const override { return inner_.observer(); }
  void broadcast(lrs::sim::PacketClass cls, lrs::Bytes frame) override {
    ++counts_.tx_frames[static_cast<std::size_t>(cls)];
    inner_.broadcast(cls, std::move(frame));
  }
  lrs::sim::EventToken schedule(lrs::sim::SimTime delay,
                                lrs::sim::EventFn fn) override {
    return slab_.schedule(inner_, delay, std::move(fn));
  }
  std::size_t pending_tx() const override { return inner_.pending_tx(); }
  void cancel(lrs::sim::EventToken token) override {
    slab_.cancel(inner_, token);
  }
  lrs::Rng& rng() override { return inner_.rng(); }
  lrs::sim::NodeMetrics& metrics() override { return inner_.metrics(); }
  void notify_complete() override { inner_.notify_complete(); }
  std::uint64_t delivery_serial() const override {
    return inner_.delivery_serial();
  }

 private:
  lrs::sim::Env& inner_;
  TimerSlab& slab_;
  TraceCounts& counts_;
};

class TimedScheme final : public lrs::proto::SchemeState {
 public:
  TimedScheme(std::unique_ptr<lrs::proto::SchemeState> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  lrs::Version version() const override { return inner_->version(); }
  std::unique_ptr<lrs::proto::SchemeState> clone_source() const override {
    Span span(&tracer_, Layer::kSchemeOther);
    return inner_->clone_source();
  }
  std::uint32_t num_pages() const override { return inner_->num_pages(); }
  std::size_t packets_in_page(std::uint32_t page) const override {
    return inner_->packets_in_page(page);
  }
  std::size_t decode_threshold(std::uint32_t page) const override {
    return inner_->decode_threshold(page);
  }
  std::uint32_t pages_complete() const override {
    return inner_->pages_complete();
  }
  bool image_complete() const override { return inner_->image_complete(); }
  lrs::Bytes assemble_image() const override {
    Span span(&tracer_, Layer::kSchemeOther);
    return inner_->assemble_image();
  }
  lrs::BitVec request_bits(std::uint32_t page) const override {
    Span span(&tracer_, Layer::kSchemeOther);
    return inner_->request_bits(page);
  }
  std::size_t buffered_packets() const override {
    return inner_->buffered_packets();
  }
  void on_reboot() override { inner_->on_reboot(); }

  lrs::proto::DataStatus on_data(std::uint32_t page, std::uint32_t index,
                                 lrs::ByteView payload,
                                 lrs::sim::NodeMetrics& m) override {
    Span span(&tracer_, Layer::kSchemeOnData);
    return count(inner_->on_data(page, index, payload, m));
  }
  lrs::proto::DataStatus on_data(std::uint32_t page, std::uint32_t index,
                                 lrs::ByteView payload,
                                 lrs::sim::NodeMetrics& m,
                                 lrs::proto::RxDigestMemo* digest) override {
    Span span(&tracer_, Layer::kSchemeOnData);
    return count(inner_->on_data(page, index, payload, m, digest));
  }
  bool verify_stored_packet(std::uint32_t page, std::uint32_t index,
                            lrs::ByteView payload,
                            lrs::sim::NodeMetrics& m) const override {
    Span span(&tracer_, Layer::kSchemeVerifyStored);
    return inner_->verify_stored_packet(page, index, payload, m);
  }
  bool verify_stored_packet(std::uint32_t page, std::uint32_t index,
                            lrs::ByteView payload, lrs::sim::NodeMetrics& m,
                            lrs::proto::RxDigestMemo* digest) const override {
    Span span(&tracer_, Layer::kSchemeVerifyStored);
    return inner_->verify_stored_packet(page, index, payload, m, digest);
  }

  bool needs_signature() const override { return inner_->needs_signature(); }
  bool bootstrapped() const override { return inner_->bootstrapped(); }
  bool on_signature(lrs::ByteView frame, lrs::sim::NodeMetrics& m) override {
    Span span(&tracer_, Layer::kSchemeOnSignature);
    return inner_->on_signature(frame, m);
  }
  std::optional<lrs::Bytes> signature_frame() const override {
    Span span(&tracer_, Layer::kSchemeOther);
    return inner_->signature_frame();
  }
  std::optional<lrs::Bytes> packet_payload(std::uint32_t page,
                                           std::uint32_t index) override {
    Span span(&tracer_, Layer::kSchemePacketPayload);
    return inner_->packet_payload(page, index);
  }
  std::unique_ptr<lrs::proto::TxScheduler> make_scheduler(
      std::uint32_t page) const override {
    Span span(&tracer_, Layer::kSchemeOther);
    return inner_->make_scheduler(page);
  }

 private:
  lrs::proto::DataStatus count(lrs::proto::DataStatus s) {
    if (s == lrs::proto::DataStatus::kStored ||
        s == lrs::proto::DataStatus::kPageComplete ||
        s == lrs::proto::DataStatus::kImageComplete) {
      ++tracer_.counts.on_data_useful;
    }
    return s;
  }

  std::unique_ptr<lrs::proto::SchemeState> inner_;
  Tracer& tracer_;
};

class TimedLoss final : public lrs::sim::LossModel {
 public:
  TimedLoss(std::unique_ptr<lrs::sim::LossModel> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool delivered(lrs::NodeId from, lrs::NodeId to, lrs::sim::SimTime now,
                 lrs::Rng& rng) override {
    Span span(&tracer_, Layer::kChannel);
    ++tracer_.counts.channel_draws;
    const bool ok = inner_->delivered(from, to, now, rng);
    if (!ok) ++tracer_.counts.channel_drops;
    return ok;
  }

 private:
  std::unique_ptr<lrs::sim::LossModel> inner_;
  Tracer& tracer_;
};

/// The node the simulator sees in a traced cell: it owns the Env forwarder
/// and the real DissemNode, whose scheme is wrapped in a TimedScheme.
class TracedNode final : public lrs::sim::Node {
 public:
  TracedNode(lrs::sim::Env& env, TimerSlab& slab, Tracer& tracer,
             std::unique_ptr<lrs::proto::SchemeState> scheme,
             lrs::proto::EngineConfig config, lrs::Bytes cluster_key)
      : Node(env),
        tracer_(tracer),
        forwarder_(env, slab, tracer.counts),
        engine_(forwarder_,
                std::make_unique<TimedScheme>(std::move(scheme), tracer),
                std::move(config), std::move(cluster_key)) {}

  void on_start() override {
    Span span(&tracer_, Layer::kEngineTimer);
    engine_.on_start();
  }
  void on_receive(lrs::ByteView frame) override {
    Span span(&tracer_, Layer::kEngineRx);
    engine_.on_receive(frame);
  }
  void on_reboot() override { engine_.on_reboot(); }

  lrs::proto::DissemNode& engine() { return engine_; }

 private:
  Tracer& tracer_;
  TracingEnv forwarder_;
  lrs::proto::DissemNode engine_;
};

}  // namespace perfbench
