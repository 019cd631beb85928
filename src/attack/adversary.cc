#include "attack/adversary.h"

#include "crypto/puzzle.h"
#include "crypto/wots.h"
#include "proto/auth.h"

namespace lrs::attack {

InjectorNode::InjectorNode(sim::Env& env, InjectorConfig config)
    : sim::Node(env), cfg_(config) {}

void InjectorNode::on_start() {
  schedule_next(cfg_.start_delay + cfg_.period);
}

void InjectorNode::schedule_next(sim::SimTime delay) {
  // Never arm an injection that would fire past the deadline: the event
  // queue only drains when no event is pending, so a stray no-op event
  // past stop_after would keep short simulations alive for nothing.
  if (cfg_.stop_after > 0 && env().now() + delay > cfg_.stop_after) return;
  env().schedule(delay, [this] { inject(); });
}

void InjectorNode::inject() {
  if (cfg_.forge_data) {
    proto::DataPacket d;
    d.version = cfg_.version;
    d.page = static_cast<std::uint32_t>(env().rng().uniform(cfg_.data_pages));
    d.index =
        static_cast<std::uint32_t>(env().rng().uniform(cfg_.data_indices));
    d.payload.resize(cfg_.data_payload_size);
    for (auto& b : d.payload)
      b = static_cast<std::uint8_t>(env().rng().uniform(256));
    env().broadcast(sim::PacketClass::kData, d.serialize());
    ++injected_;
  }

  if (cfg_.forge_signatures) {
    proto::SignaturePacket sig;
    sig.meta.version = cfg_.version;
    sig.meta.content_pages = 4;
    sig.meta.image_size = 1;
    for (auto& b : sig.root)
      b = static_cast<std::uint8_t>(env().rng().uniform(256));
    sig.signature.resize(crypto::WotsSignature::kSerializedSize + 64, 0);
    if (cfg_.solve_puzzles) {
      sig.puzzle =
          crypto::solve_puzzle(view(sig.signed_message()),
                               cfg_.puzzle_strength);
    } else {
      sig.puzzle.strength = cfg_.puzzle_strength;
      sig.puzzle.solution = env().rng().next();
    }
    env().broadcast(sim::PacketClass::kSignature, sig.serialize());
    ++injected_;
  }

  schedule_next(cfg_.period);
}

DenialOfReceiptNode::DenialOfReceiptNode(sim::Env& env,
                                         DenialOfReceiptConfig config)
    : sim::Node(env), cfg_(config) {}

void DenialOfReceiptNode::on_start() {
  env().schedule(cfg_.period, [this] { send_snack(); });
}

void DenialOfReceiptNode::send_snack() {
  proto::Snack s;
  s.version = cfg_.version;
  s.sender = cfg_.rotate_sender_ids
                 ? static_cast<NodeId>(1000 + snacks_sent_)
                 : env().id();
  s.target = cfg_.victim;
  s.page = cfg_.page;
  s.requested = BitVec(cfg_.packets_in_page, true);
  const proto::ControlKeys keys(view(cfg_.cluster_key), false, {});
  env().broadcast(sim::PacketClass::kSnack, s.serialize(keys.cluster()));
  ++snacks_sent_;
  env().schedule(cfg_.period, [this] { send_snack(); });
}

}  // namespace lrs::attack
