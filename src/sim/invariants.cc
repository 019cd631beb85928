#include "sim/invariants.h"

#include <sstream>
#include <utility>

namespace lrs::sim {

const char* invariant_name(int invariant) {
  switch (invariant) {
    case 1:
      return "image-integrity";
    case 2:
      return "immediate-auth";
    case 3:
      return "monotone-progress";
    case 4:
      return "tamper-rejection";
    case 5:
      return "greedy-bound";
    default:
      return "unknown";
  }
}

std::string InvariantViolation::to_string() const {
  std::ostringstream os;
  os << "invariant " << invariant << " (" << invariant_name(invariant)
     << ") node " << node << " t=" << to_seconds(at) << "s: " << detail;
  return os.str();
}

namespace {

std::string as_string(ByteView frame) {
  return {reinterpret_cast<const char*>(frame.data()), frame.size()};
}

}  // namespace

InvariantObserver::InvariantObserver(InvariantConfig config)
    : cfg_(std::move(config)) {}

void InvariantObserver::attach(NodeId id, NodeProbe probe) {
  probes_[id] = std::move(probe);
}

void InvariantObserver::record(int invariant, NodeId node, SimTime at,
                               std::string detail) {
  if (violations_.size() >= cfg_.max_violations) return;
  violations_.push_back({invariant, node, at, std::move(detail)});
}

InvariantObserver::Snapshot InvariantObserver::snapshot(
    const NodeProbe& probe) const {
  Snapshot s;
  s.valid = true;
  s.pages = probe.pages_complete ? probe.pages_complete() : 0;
  s.buffered = probe.buffered_packets ? probe.buffered_packets() : 0;
  s.bootstrapped = probe.bootstrapped ? probe.bootstrapped() : true;
  s.complete = probe.image_complete ? probe.image_complete() : false;
  s.engine_state = probe.engine_state ? probe.engine_state() : -1;
  return s;
}

void InvariantObserver::on_send(SimTime now, NodeId sender, PacketClass cls,
                                ByteView frame) {
  if (cls != PacketClass::kData) return;
  if (probes_.find(sender) == probes_.end()) return;
  if (cfg_.check_tamper_rejection) {
    sent_data_.insert(as_string(frame));
  }
  if (!cfg_.check_greedy_bound || !cfg_.parse_data) return;
  const auto data = cfg_.parse_data(frame);
  if (!data) return;
  const auto key = std::make_pair(sender, data->page);
  const std::uint64_t sent = ++sent_[key];
  const std::uint64_t allowed = allowance_[key];
  ++checks_run_;
  if (sent > allowed) {
    std::ostringstream os;
    os << "page " << data->page << ": sent " << sent
       << " data packets but delivered SNACKs only allow " << allowed;
    record(5, sender, now, os.str());
  }
}

void InvariantObserver::before_deliver(SimTime /*now*/, NodeId /*from*/,
                                       NodeId to, PacketClass /*cls*/,
                                       ByteView /*frame*/, bool /*tampered*/) {
  const auto it = probes_.find(to);
  if (it == probes_.end()) return;
  pre_[to] = snapshot(it->second);
}

void InvariantObserver::after_deliver(SimTime now, NodeId /*from*/, NodeId to,
                                      PacketClass cls, ByteView frame,
                                      bool tampered) {
  const auto it = probes_.find(to);
  if (it == probes_.end()) return;
  const NodeProbe& probe = it->second;
  const Snapshot post = snapshot(probe);
  Snapshot pre = pre_[to];
  pre_[to].valid = false;

  // Invariant 3: the page frontier only ever advances.
  auto& high = max_pages_[to];
  ++checks_run_;
  if (post.pages < high) {
    std::ostringstream os;
    os << "pages_complete went " << high << " -> " << post.pages;
    record(3, to, now, os.str());
  }
  if (post.pages > high) high = post.pages;

  // Invariant 2: nothing is buffered until the signature verified.
  if (cfg_.check_immediate_auth) {
    ++checks_run_;
    if (!post.bootstrapped && post.buffered > 0) {
      std::ostringstream os;
      os << post.buffered << " packets buffered before bootstrap";
      record(2, to, now, os.str());
    }
  }

  // Invariant 4: a tampered frame leaves the node exactly as it was —
  // unless the damage produced a data frame an attached node sent
  // (corruption can turn one index of the last page, whose payloads are
  // all-zero padding, into another): that frame is genuine and may count.
  if (cfg_.check_tamper_rejection && tampered && pre.valid) {
    ++checks_run_;
    const bool changed = post.buffered != pre.buffered ||
                         post.pages != pre.pages ||
                         post.bootstrapped != pre.bootstrapped ||
                         post.engine_state != pre.engine_state;
    if (changed && !sent_data_.contains(as_string(frame))) {
      std::ostringstream os;
      os << "tampered " << packet_class_name(cls) << " frame changed state:"
         << " buffered " << pre.buffered << "->" << post.buffered
         << " pages " << pre.pages << "->" << post.pages << " bootstrapped "
         << pre.bootstrapped << "->" << post.bootstrapped << " engine "
         << pre.engine_state << "->" << post.engine_state;
      record(4, to, now, os.str());
    }
  }

  // Invariant 1: the moment a node claims completion, its image must match.
  if (post.complete && !pre.complete) check_image(to, now, probe);

  // Invariant 5 bookkeeping: an authentic SNACK delivered to its addressee
  // grants the server d = max(1, q + k' − n) sends for that page. Forged
  // or tampered SNACKs grant nothing — serving one trips the bound.
  if (cfg_.check_greedy_bound && cls == PacketClass::kSnack && !tampered &&
      cfg_.parse_snack) {
    const auto snack = cfg_.parse_snack(frame);
    if (snack && snack->target == to && !snack->signature_request &&
        snack->requested > 0 && probe.decode_threshold &&
        probe.packets_in_page) {
      const std::size_t q = snack->requested;
      const std::size_t kprime = probe.decode_threshold(snack->page);
      const std::size_t npkts = probe.packets_in_page(snack->page);
      const std::size_t needed =
          q + kprime > npkts ? q + kprime - npkts : std::size_t{1};
      allowance_[{to, snack->page}] += needed;
    }
  }
}

void InvariantObserver::on_reboot(SimTime now, NodeId node) {
  const auto it = probes_.find(node);
  if (it == probes_.end()) return;
  const Snapshot post = snapshot(it->second);
  // Invariant 3 across reboots: the persisted frontier must survive.
  auto& high = max_pages_[node];
  ++checks_run_;
  if (post.pages < high) {
    std::ostringstream os;
    os << "reboot dropped pages_complete " << high << " -> " << post.pages;
    record(3, node, now, os.str());
  }
  if (post.pages > high) high = post.pages;
}

void InvariantObserver::check_image(NodeId node, SimTime at,
                                    const NodeProbe& probe) {
  if (!probe.assemble_image) return;
  ++checks_run_;
  const Bytes image = probe.assemble_image();
  if (image != cfg_.expected_image) {
    std::ostringstream os;
    os << "completed image differs from the disseminated one (" << image.size()
       << " vs " << cfg_.expected_image.size() << " bytes)";
    record(1, node, at, os.str());
  }
}

void InvariantObserver::finalize(SimTime now) {
  for (const auto& [id, probe] : probes_) {
    if (probe.image_complete && probe.image_complete()) {
      check_image(id, now, probe);
    }
  }
}

}  // namespace lrs::sim
