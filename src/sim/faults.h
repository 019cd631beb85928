// Fault injection for the event simulator (paper §III threat model plus the
// physical failure modes the loss models cannot express).
//
// A FaultModel sits between the LossModel and frame delivery: every
// reception that survived PRR, collisions and channel loss is handed to the
// model, which may mutate the frame bytes (bit-flip or burst corruption,
// truncation, garbage padding), duplicate it, delay it by a bounded jitter
// (reordering it past later frames), or declare the receiving node crashed
// so the frame vanishes entirely. Crash/reboot schedules additionally reset
// the node's volatile protocol state through Node::on_reboot() while its
// persisted page frontier survives — the sensor-node reality of a watchdog
// reset mid-transfer.
//
// Every decision draws from the receiving node's deterministic Rng stream
// (exactly like LossModel), so a (config, seed) pair replays bit-identically
// through core::run_trials — a failing stress-sweep combination is a
// one-line replay command, not a flake.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/rng.h"
#include "util/types.h"

namespace lrs::sim {

/// Per-reception verdict. The frame itself is mutated in place.
struct FaultAction {
  bool tampered = false;   // frame bytes were altered (observer hint)
  std::size_t copies = 1;  // total deliveries, >= 1 (duplication)
  SimTime delay = 0;       // extra delivery latency (bounded reorder)
};

/// One scheduled outage: `node` is down in [at, at + downtime); at the end
/// of the window it reboots (volatile state lost, persisted frontier kept).
struct CrashEvent {
  NodeId node = 0;
  SimTime at = 0;
  SimTime downtime = 0;
};

/// A flat, copyable description of the fault layer — what the stress sweep
/// matrices enumerate and what a replay command names. Zero probabilities
/// (and an empty crash list) mean "no such fault".
struct FaultPlan {
  // Corruption: flip 1..corrupt_max_flips distinct bits anywhere in the
  // frame, or (burst) XOR a contiguous run of up to corrupt_burst_len bytes
  // with nonzero garbage. Always changes the frame.
  double corrupt_prob = 0.0;
  std::size_t corrupt_max_flips = 4;
  bool corrupt_burst = false;
  std::size_t corrupt_burst_len = 8;

  // Truncation to a random shorter length (possibly zero); independently,
  // padding with 1..max_pad random bytes.
  double truncate_prob = 0.0;
  double pad_prob = 0.0;
  std::size_t max_pad = 16;

  // Duplication: the frame is delivered 2..max_copies times.
  double duplicate_prob = 0.0;
  std::size_t max_copies = 3;

  // Bounded reorder: the delivery is delayed by a uniform jitter in
  // (0, reorder_max_delay], letting later frames overtake it.
  double reorder_prob = 0.0;
  SimTime reorder_max_delay = 30 * kMillisecond;

  // Crash/reboot schedule: nodes are down during their windows and reboot
  // (Node::on_reboot) when the window ends. The `{}` lets a designated
  // initializer leave it out without -Wmissing-field-initializers.
  std::vector<CrashEvent> crashes{};

  bool any() const;
  /// One-line human-readable summary ("corrupt(p=0.25,flips=8) crash(n1)").
  std::string describe() const;
};

/// The fault layer a plan describes.
class FaultModel {
 public:
  explicit FaultModel(FaultPlan plan) : plan_(std::move(plan)) {}

  /// Applied once per (frame, receiver) reception that survived the channel:
  /// corruption, then truncation and padding, then duplication, then
  /// reorder. Mutates `frame` in place. `rng` is the receiver's stream; a
  /// fault whose probability is 0 draws nothing from it.
  FaultAction apply(Bytes& frame, Rng& rng) const;

  /// True while `node`'s radio is off (crashed). Down nodes neither
  /// transmit nor receive.
  bool is_down(NodeId node, SimTime now) const;

  /// Outage windows; the simulator arms the matching Node::on_reboot()
  /// callbacks before the run starts.
  const std::vector<CrashEvent>& crashes() const { return plan_.crashes; }

 private:
  FaultPlan plan_;
};

}  // namespace lrs::sim
