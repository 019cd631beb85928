#include "sim/faults.h"

#include <algorithm>
#include <sstream>

namespace lrs::sim {

namespace {

// Flips 1..max_flips distinct bits, or XORs a burst of up to burst_len
// bytes; either way the frame changes.
void corrupt(const FaultPlan& p, Bytes& frame, Rng& rng) {
  if (p.corrupt_burst) {
    const std::size_t len = static_cast<std::size_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(
               std::min(p.corrupt_burst_len, frame.size()))));
    const std::size_t start = static_cast<std::size_t>(
        rng.uniform(static_cast<std::uint64_t>(frame.size() - len + 1)));
    for (std::size_t i = 0; i < len; ++i) {
      // xor with 1..255 guarantees each byte in the burst changes
      frame[start + i] ^= static_cast<std::uint8_t>(rng.uniform(255) + 1);
    }
    return;
  }
  const std::uint64_t total_bits = static_cast<std::uint64_t>(frame.size()) * 8;
  const std::size_t flips = std::min<std::size_t>(
      static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(
                 std::max<std::size_t>(1, p.corrupt_max_flips)))),
      static_cast<std::size_t>(total_bits));
  // Distinct bit positions: an even number of flips landing on the same bit
  // would cancel out, silently breaking the "guaranteed to change the
  // frame" contract (and the tampered marking with it).
  std::vector<std::uint64_t> bits;
  bits.reserve(flips);
  while (bits.size() < flips) {
    const std::uint64_t bit = rng.uniform(total_bits);
    if (std::find(bits.begin(), bits.end(), bit) != bits.end()) continue;
    bits.push_back(bit);
    frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

}  // namespace

FaultAction FaultModel::apply(Bytes& frame, Rng& rng) const {
  const FaultPlan& p = plan_;
  FaultAction action;
  if (!frame.empty() && rng.bernoulli(p.corrupt_prob)) {
    corrupt(p, frame, rng);
    action.tampered = true;
  }
  if (!frame.empty() && rng.bernoulli(p.truncate_prob)) {
    frame.resize(static_cast<std::size_t>(
        rng.uniform(static_cast<std::uint64_t>(frame.size()))));
    action.tampered = true;
  }
  if (p.max_pad > 0 && rng.bernoulli(p.pad_prob)) {
    const std::size_t pad = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(p.max_pad)));
    for (std::size_t i = 0; i < pad; ++i) {
      frame.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
    }
    action.tampered = true;
  }
  if (p.max_copies >= 2 && rng.bernoulli(p.duplicate_prob)) {
    action.copies = static_cast<std::size_t>(
        rng.uniform_int(2, static_cast<std::int64_t>(p.max_copies)));
  }
  if (p.reorder_max_delay > 0 && rng.bernoulli(p.reorder_prob)) {
    action.delay = static_cast<SimTime>(
        rng.uniform_int(1, static_cast<std::int64_t>(p.reorder_max_delay)));
  }
  return action;
}

bool FaultModel::is_down(NodeId node, SimTime now) const {
  for (const auto& e : plan_.crashes) {
    if (e.node == node && now >= e.at && now < e.at + e.downtime) return true;
  }
  return false;
}

bool FaultPlan::any() const {
  return corrupt_prob > 0 || truncate_prob > 0 || pad_prob > 0 ||
         duplicate_prob > 0 || reorder_prob > 0 || !crashes.empty();
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  bool first = true;
  auto sep = [&] {
    if (!first) os << ' ';
    first = false;
  };
  if (corrupt_prob > 0) {
    sep();
    os << "corrupt(p=" << corrupt_prob;
    if (corrupt_burst) {
      os << ",burst=" << corrupt_burst_len;
    } else {
      os << ",flips=" << corrupt_max_flips;
    }
    os << ')';
  }
  if (truncate_prob > 0) {
    sep();
    os << "truncate(p=" << truncate_prob << ')';
  }
  if (pad_prob > 0) {
    sep();
    os << "pad(p=" << pad_prob << ",max=" << max_pad << ')';
  }
  if (duplicate_prob > 0) {
    sep();
    os << "dup(p=" << duplicate_prob << ",max=" << max_copies << ')';
  }
  if (reorder_prob > 0) {
    sep();
    os << "reorder(p=" << reorder_prob
       << ",max=" << to_seconds(reorder_max_delay) << "s)";
  }
  for (const auto& c : crashes) {
    sep();
    os << "crash(n" << c.node << '@' << to_seconds(c.at) << "s+"
       << to_seconds(c.downtime) << "s)";
  }
  if (first) os << "none";
  return os.str();
}

}  // namespace lrs::sim
