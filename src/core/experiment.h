// One-call experiment runner shared by the end-to-end tests and every
// benchmark harness: builds a network of DissemNodes running a chosen
// scheme, disseminates a pseudorandom image, and reports the paper's five
// metrics (data / SNACK / advertisement packets, total bytes, latency)
// plus integrity and verification-work counters.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/hash.h"
#include "proto/params.h"
#include "sim/channel.h"
#include "sim/faults.h"
#include "sim/scenario/generators.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace lrs::core {

enum class Scheme { kDeluge, kRatelessDeluge, kSluice, kSeluge, kLrSeluge };

const char* scheme_name(Scheme s);
/// Inverse of scheme_name ("lr-seluge" -> kLrSeluge); nullopt on unknown.
std::optional<Scheme> scheme_from_name(const std::string& name);

struct ExperimentConfig {
  Scheme scheme = Scheme::kLrSeluge;
  proto::CommonParams params{};
  proto::EngineTiming timing{};
  bool dor_mitigation = true;

  std::size_t image_size = 20 * 1024;  // the paper's 20 KB image
  std::uint64_t seed = 1;

  // Topology: a one-hop star of `receivers`, a rows x cols grid, or —
  // kSpec — any generator the scenario subsystem supports (random
  // geometric, clustered, corridor, ring, plus star/grid with per-link
  // PRR jitter); see sim/scenario/generators.h.
  enum class Topo { kStar, kGrid, kSpec } topo = Topo::kStar;
  std::size_t receivers = 20;
  std::size_t grid_rows = 15;
  std::size_t grid_cols = 15;
  double grid_spacing = 10.0;
  sim::LinkModel link{};
  sim::TopologySpec topo_spec{};  // used when topo == Topo::kSpec

  // Channel: uniform app-layer loss p (paper §VI-A), optionally replaced
  // by Gilbert-Elliott burst noise (multi-hop tables) or, when non-empty,
  // a heterogeneous per-node loss vector (p[i] applies to receptions at
  // node i; length must cover the node count).
  double loss_p = 0.0;
  bool gilbert_elliott = false;
  sim::GilbertElliottParams ge{};
  std::vector<double> per_node_loss;

  sim::RadioParams radio{};
  sim::SimTime time_limit = 4LL * 3600 * sim::kSecond;

  // Fault injection (corruption, truncation, duplication, reorder,
  // crash/reboot) layered behind the loss model; empty plan = none.
  sim::FaultPlan faults{};
  // Attach the invariant observer (sim/invariants.h); the checked subset
  // follows the scheme's guarantees. Off by default: probing every
  // delivery costs time and the benign harnesses don't need it.
  bool check_invariants = false;

  // Structured event tracing (sim/trace.h). Disabled (no paths set) by
  // default; when enabled a TraceRecorder rides the observer chain and the
  // requested exports are written after the run.
  sim::TraceExportConfig trace{};

  // Island-sharded execution (sim/partition.h): partition the topology
  // into radio-connected components, give each its own base station (the
  // island's smallest id) and simulate them independently on the worker
  // pool (core/parallel.h: default_jobs() threads, or the enclosing trial
  // worker's share of its jobs). Deterministic — serial and parallel runs
  // are byte-identical, and a connected topology (one island) runs as one
  // whole-network cell, exactly as without island mode. Requires no fault
  // plan and no tracing.
  bool islands = false;
};

struct ExperimentResult {
  bool all_complete = false;
  std::size_t completed = 0;
  std::size_t receivers = 0;

  std::uint64_t data_packets = 0;
  std::uint64_t page0_data_packets = 0;
  std::uint64_t snack_packets = 0;
  std::uint64_t adv_packets = 0;
  std::uint64_t sig_packets = 0;
  std::uint64_t total_bytes = 0;
  /// Bytes successfully delivered to (and accepted by the radio of) any
  /// node, summed over all nodes — the broadcast-fanout counterpart of
  /// total_bytes. received_bytes / total_bytes approximates the mean
  /// neighborhood size actually reached per transmission.
  std::uint64_t received_bytes = 0;
  double latency_s = 0.0;

  std::uint64_t collisions = 0;
  /// Discrete events the simulator core executed during the run — the
  /// workload denominator is wall-clock, so events/sec is the simulator
  /// throughput figure (bench_scale). Deterministic for a (config, seed).
  std::uint64_t events_executed = 0;
  /// Island-sharded load attribution. `islands` is the number of radio
  /// islands simulated (1 on the classic single-simulator path) and
  /// `max_island_events` the busiest island's events_executed, so
  /// max_island_events * islands / events_executed is the load-imbalance
  /// ratio (max/mean, 1.0 when perfectly balanced). Both are deterministic
  /// for a (config, seed); trial aggregation sums them alongside
  /// events_executed so the ratio stays meaningful after averaging.
  std::uint64_t islands = 1;
  std::uint64_t max_island_events = 0;
  std::uint64_t hash_verifications = 0;
  std::uint64_t signature_verifications = 0;
  std::uint64_t auth_failures = 0;

  /// Radio energy across all nodes, millijoules: time on the air
  /// transmitting, time locked onto incoming frames, and an always-on
  /// idle-listening upper bound (node-count x latency x rx power) — the
  /// quantity a duty-cycling MAC would shrink but whose ORDER tracks
  /// dissemination latency.
  double tx_energy_mj = 0.0;
  double rx_energy_mj = 0.0;
  double listen_energy_mj = 0.0;

  /// Every completed receiver reassembled exactly the published image.
  bool images_match = false;

  /// Fault-layer accounting (zero when no fault plan is configured).
  std::uint64_t tampered_frames = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t reboots = 0;

  /// Invariant observer outcome (zero/empty unless check_invariants).
  std::uint64_t invariant_checks = 0;
  std::uint64_t invariant_violations = 0;
  std::string first_violation;  // human-readable; empty when clean
};

/// Deterministic pseudorandom image of `size` bytes.
Bytes make_test_image(std::size_t size, std::uint64_t seed);

ExperimentResult run_experiment(const ExperimentConfig& config);

/// Simulates one closed radio system — a whole network, one island of it,
/// or one fleet cell — to completion and extracts its metrics. `members`
/// follows the Simulator contract: empty means every topology position;
/// otherwise an ascending list closed under the radio graph, whose smallest
/// id serves as the base station. `source` is the (pre-signed)
/// disseminating scheme; receivers verify against `root_pk` and must
/// reassemble `image`. The topology selector, image size and island fields
/// of `config` are not read here. Opens no top-level timer scope (callers
/// own one per cell); the event loop is timed by the nested "sim.run".
ExperimentResult run_cell(const ExperimentConfig& config, const Bytes& image,
                          const crypto::PacketHash& root_pk,
                          std::shared_ptr<const sim::Topology> topology,
                          std::vector<NodeId> members,
                          std::unique_ptr<proto::SchemeState> source);

}  // namespace lrs::core
