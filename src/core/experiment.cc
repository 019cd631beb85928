#include "core/experiment.h"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/lr_image.h"
#include "core/parallel.h"
#include "crypto/wots.h"
#include "proto/auth.h"
#include "proto/deluge.h"
#include "proto/engine.h"
#include "proto/rateless.h"
#include "proto/packet.h"
#include "proto/sluice.h"
#include "proto/seluge.h"
#include "sim/invariants.h"
#include "sim/partition.h"
#include "sim/stats/stats.h"
#include "util/check.h"
#include "util/rng.h"

namespace lrs::core {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kDeluge: return "deluge";
    case Scheme::kRatelessDeluge: return "rateless";
    case Scheme::kSluice: return "sluice";
    case Scheme::kSeluge: return "seluge";
    case Scheme::kLrSeluge: return "lr-seluge";
  }
  return "?";
}

std::optional<Scheme> scheme_from_name(const std::string& name) {
  for (Scheme s : {Scheme::kDeluge, Scheme::kRatelessDeluge, Scheme::kSluice,
                   Scheme::kSeluge, Scheme::kLrSeluge}) {
    if (name == scheme_name(s)) return s;
  }
  return std::nullopt;
}

Bytes make_test_image(std::size_t size, std::uint64_t seed) {
  const Rng seeded(seed ^ 0xabcdef1234ULL);
  // A copy whose address never escapes, so its state stays in registers
  // across the byte stores instead of being reloaded after each one.
  Rng rng = seeded;
  Bytes image(size);
  // Rng::uniform(256) as it inlines: one draw per byte, a draw among the
  // top 256 values (>= 2^64 - 256) is redrawn, and the byte is the low 8
  // bits of the rest.
  constexpr std::uint64_t kLimit = 0 - std::uint64_t{256};
  for (auto& b : image) {
    std::uint64_t v = rng.next();
    while (v >= kLimit) [[unlikely]] v = rng.next();
    b = static_cast<std::uint8_t>(v);
  }
  return image;
}

namespace {

/// The disseminating side consumes one of the signer's one-time keys per
/// call (secure schemes sign the image's hash-tree root).
std::unique_ptr<proto::SchemeState> make_source_scheme(
    const ExperimentConfig& config, const Bytes& image,
    crypto::MultiKeySigner& signer) {
  switch (config.scheme) {
    case Scheme::kDeluge:
      return proto::make_deluge_source(config.params, image);
    case Scheme::kRatelessDeluge:
      return proto::make_rateless_source(config.params, image);
    case Scheme::kSluice:
      return proto::make_sluice_source(config.params, image, signer);
    case Scheme::kSeluge:
      return proto::make_seluge_source(config.params, image, signer);
    case Scheme::kLrSeluge:
      return make_lr_source(config.params, image, signer);
  }
  return nullptr;
}

std::unique_ptr<proto::SchemeState> make_receiver_scheme(
    const ExperimentConfig& config, std::size_t image_size,
    const crypto::PacketHash& root_pk) {
  switch (config.scheme) {
    case Scheme::kDeluge:
      return proto::make_deluge_receiver(config.params, image_size);
    case Scheme::kRatelessDeluge:
      return proto::make_rateless_receiver(config.params, image_size);
    case Scheme::kSluice:
      return proto::make_sluice_receiver(config.params, root_pk);
    case Scheme::kSeluge:
      return proto::make_seluge_receiver(config.params, root_pk);
    case Scheme::kLrSeluge:
      return make_lr_receiver(config.params, root_pk);
  }
  return nullptr;
}

}  // namespace

ExperimentResult run_cell(const ExperimentConfig& config, const Bytes& image,
                          const crypto::PacketHash& root_pk,
                          std::shared_ptr<const sim::Topology> topology,
                          std::vector<NodeId> members,
                          std::unique_ptr<proto::SchemeState> source) {
  const std::size_t node_count = topology->size();

  std::unique_ptr<sim::LossModel> loss;
  if (!config.per_node_loss.empty()) {
    loss = sim::make_per_node_loss(config.per_node_loss, node_count);
  } else if (config.gilbert_elliott) {
    loss = sim::make_gilbert_elliott(config.ge, node_count,
                                     config.seed ^ 0x6e01);
  } else if (config.loss_p > 0.0) {
    loss = sim::make_uniform_loss(config.loss_p);
  } else {
    loss = sim::make_perfect_channel();
  }

  sim::Simulator simulator(std::move(topology), std::move(loss), config.radio,
                           config.seed, std::move(members));
  // The simulated ids (all of them outside island mode), base first.
  const std::vector<NodeId>& cell = simulator.members();
  const NodeId base = cell.front();
  const std::size_t receiver_count = cell.size() - 1;

  const bool insecure = config.scheme == Scheme::kDeluge ||
                        config.scheme == Scheme::kRatelessDeluge;
  const Bytes cluster_key = insecure ? Bytes{} : config.params.cluster_key;

  // One receive-side verification memo for the whole (single-threaded)
  // simulation: every node of this run shares keys and delivery serials,
  // so the ~radio-degree receivers of each broadcast verify it once.
  auto rx_memo = std::make_unique<proto::RxFanoutMemo>();

  proto::EngineConfig engine;
  engine.timing = config.timing;
  engine.dor_mitigation = config.dor_mitigation;
  engine.leap_snack_auth = config.params.leap_snack_auth && !insecure;
  engine.leap_master = config.params.leap_master;
  engine.rx_memo = rx_memo.get();

  std::vector<proto::DissemNode*> nodes;
  nodes.reserve(cell.size());
  for (const NodeId id : cell) {
    proto::EngineConfig cfg = engine;
    cfg.is_base_station = id == base;
    nodes.push_back(&simulator.add_node<proto::DissemNode>(
        id == base ? std::move(source)
                   : make_receiver_scheme(config, image.size(), root_pk),
        cfg, cluster_key));
  }

  simulator.set_faults(config.faults);

  std::unique_ptr<sim::InvariantObserver> observer;
  if (config.check_invariants) {
    sim::InvariantConfig ic;
    ic.expected_image = image;
    // The checked subset follows the scheme's promises: only Seluge and
    // LR-Seluge authenticate every packet before buffering, and only the
    // LR greedy scheduler is bound by d = q + k' - n.
    const bool authenticated = config.scheme == Scheme::kSeluge ||
                               config.scheme == Scheme::kLrSeluge;
    ic.check_immediate_auth = authenticated;
    ic.check_tamper_rejection = authenticated;
    ic.check_greedy_bound = config.scheme == Scheme::kLrSeluge &&
                            config.params.lr_greedy_scheduler;
    // Parse wire frames through the engine's own key selection, so forged
    // SNACKs earn a server no send allowance.
    ic.parse_snack = [keys = proto::ControlKeys(view(cluster_key),
                                                engine.leap_snack_auth,
                                                view(engine.leap_master))](
                         ByteView frame) mutable
        -> std::optional<sim::SnackView> {
      const auto s = keys.parse_snack(frame);
      if (!s) return std::nullopt;
      sim::SnackView v;
      v.sender = s->sender;
      v.target = s->target;
      v.page = s->page;
      v.signature_request = s->page == proto::kSignatureRequestPage;
      v.requested = v.signature_request ? 0 : s->requested.count();
      return v;
    };
    ic.parse_data = [](ByteView frame) -> std::optional<sim::DataView> {
      const auto d = proto::DataPacket::parse(frame);
      if (!d) return std::nullopt;
      return sim::DataView{d->page, d->index};
    };
    observer = std::make_unique<sim::InvariantObserver>(std::move(ic));
    for (std::size_t k = 0; k < cell.size(); ++k) {
      proto::DissemNode* n = nodes[k];
      sim::NodeProbe probe;
      // Probe through the DissemNode on every call: scheme upgrades swap
      // the SchemeState underneath.
      probe.bootstrapped = [n] { return n->scheme().bootstrapped(); };
      probe.pages_complete = [n] { return n->scheme().pages_complete(); };
      probe.buffered_packets = [n] { return n->scheme().buffered_packets(); };
      probe.image_complete = [n] { return n->scheme().image_complete(); };
      probe.assemble_image = [n] { return n->scheme().assemble_image(); };
      probe.engine_state = [n] { return static_cast<int>(n->state()); };
      probe.packets_in_page = [n](std::uint32_t p) {
        return n->scheme().packets_in_page(p);
      };
      probe.decode_threshold = [n](std::uint32_t p) {
        return n->scheme().decode_threshold(p);
      };
      observer->attach(cell[k], std::move(probe));
    }
    simulator.add_observer(observer.get());
  }

  std::unique_ptr<sim::TraceRecorder> tracer;
  if (config.trace.enabled()) {
    tracer = std::make_unique<sim::TraceRecorder>();
    simulator.add_observer(tracer.get());
  }

  auto& metrics = simulator.metrics();
  // completed_count is O(1) (Metrics keeps an exact counter) — this
  // predicate runs after every event, so it must not scan the node table.
  const auto done = [&] {
    return metrics.completed_count(base) == receiver_count;
  };
  {
    // Nested (inclusive) scope: the event loop proper, inside the caller's
    // per-cell top-level scope (core.run_cell or fleet.run_cell).
    static stats::Timer& run_timer =
        stats::Registry::instance().timer("sim.run");
    stats::TimerScope run_scope(run_timer);
    simulator.run(config.time_limit, done);
  }

  ExperimentResult r;
  r.receivers = receiver_count;
  r.completed = metrics.completed_count(base);
  r.all_complete = r.completed == receiver_count;

  r.data_packets = metrics.total_sent(sim::PacketClass::kData);
  for (const NodeId i : cell) r.page0_data_packets += metrics.node(i).page0_data_sent;
  r.snack_packets = metrics.total_sent(sim::PacketClass::kSnack);
  r.adv_packets = metrics.total_sent(sim::PacketClass::kAdvertisement);
  r.sig_packets = metrics.total_sent(sim::PacketClass::kSignature);
  r.total_bytes = metrics.total_sent_bytes();
  r.received_bytes = metrics.total_received_bytes();
  r.latency_s = r.all_complete
                    ? sim::to_seconds(metrics.last_completion())
                    : sim::to_seconds(config.time_limit);
  r.collisions = simulator.collisions();
  r.events_executed = simulator.events_executed();
  r.max_island_events = r.events_executed;  // one cell == one island here
  {
    static stats::Counter& events =
        stats::Registry::instance().counter("core.events_executed");
    static stats::Histogram& island_events =
        stats::Registry::instance().histogram("core.island.events");
    events.add(r.events_executed);
    island_events.record(r.events_executed);
  }
  r.hash_verifications = metrics.total_hash_verifications();
  r.signature_verifications = metrics.total_signature_verifications();
  r.auth_failures = metrics.total_auth_failures();

  double tx_us = 0, rx_us = 0;
  for (const NodeId i : cell) {
    tx_us += static_cast<double>(metrics.node(i).tx_airtime_us);
    rx_us += static_cast<double>(metrics.node(i).rx_airtime_us);
  }
  r.tx_energy_mj = tx_us * 1e-6 * config.radio.tx_power_mw;
  r.rx_energy_mj = rx_us * 1e-6 * config.radio.rx_power_mw;
  r.listen_energy_mj = static_cast<double>(cell.size()) * r.latency_s *
                       config.radio.rx_power_mw;

  r.images_match = true;
  for (std::size_t k = 1; k < cell.size(); ++k) {
    if (!nodes[k]->image_complete()) {
      if (metrics.node(cell[k]).completion_time >= 0)
        r.images_match = false;  // inconsistent bookkeeping
      continue;
    }
    if (nodes[k]->scheme().assemble_image() != image) r.images_match = false;
  }

  r.tampered_frames = simulator.tampered_frames();
  r.fault_drops = simulator.fault_drops();
  r.reboots = simulator.reboots();
  if (observer) {
    observer->finalize(simulator.now());
    r.invariant_checks = observer->checks_run();
    r.invariant_violations = observer->violations().size();
    if (!observer->ok()) {
      r.first_violation = observer->violations().front().to_string();
    }
  }
  if (tracer) {
    sim::export_trace(*tracer, config.trace, node_count);
  }
  return r;
}

namespace {

/// Folds per-island results (in island order) into one network-wide
/// result. Counters add; latency is the slowest island's (dissemination
/// runs everywhere concurrently); the idle-listening bound adds because
/// every island's radios switch off at their own island's completion.
ExperimentResult merge_islands(std::span<const ExperimentResult> parts) {
  static stats::Timer& timer = stats::Registry::instance().timer(
      "core.merge_islands", /*top_level=*/true);
  stats::TimerScope scope(timer);
  ExperimentResult m;
  m.all_complete = true;
  m.images_match = true;
  m.islands = parts.size();
  for (const ExperimentResult& r : parts) {
    m.max_island_events = std::max(m.max_island_events, r.events_executed);
    m.all_complete = m.all_complete && r.all_complete;
    m.images_match = m.images_match && r.images_match;
    m.completed += r.completed;
    m.receivers += r.receivers;
    m.data_packets += r.data_packets;
    m.page0_data_packets += r.page0_data_packets;
    m.snack_packets += r.snack_packets;
    m.adv_packets += r.adv_packets;
    m.sig_packets += r.sig_packets;
    m.total_bytes += r.total_bytes;
    m.received_bytes += r.received_bytes;
    m.latency_s = std::max(m.latency_s, r.latency_s);
    m.collisions += r.collisions;
    m.events_executed += r.events_executed;
    m.hash_verifications += r.hash_verifications;
    m.signature_verifications += r.signature_verifications;
    m.auth_failures += r.auth_failures;
    m.tx_energy_mj += r.tx_energy_mj;
    m.rx_energy_mj += r.rx_energy_mj;
    m.listen_energy_mj += r.listen_energy_mj;
    m.tampered_frames += r.tampered_frames;
    m.fault_drops += r.fault_drops;
    m.reboots += r.reboots;
    m.invariant_checks += r.invariant_checks;
    m.invariant_violations += r.invariant_violations;
    if (m.first_violation.empty() && !r.first_violation.empty()) {
      m.first_violation = r.first_violation;
    }
  }
  return m;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  const Bytes image = make_test_image(config.image_size, config.seed);
  const Bytes key_seed{0x11, 0x22, 0x33, 0x44};

  // One-hop cells are error-free at the link layer (paper §VI-A): the
  // only losses are the application-layer drops of the loss model.
  auto topology = std::make_shared<const sim::Topology>([&config] {
    switch (config.topo) {
      case ExperimentConfig::Topo::kStar:
        return sim::Topology::star(config.receivers);
      case ExperimentConfig::Topo::kGrid:
        return sim::Topology::grid(config.grid_rows, config.grid_cols,
                                   config.grid_spacing, config.link);
      case ExperimentConfig::Topo::kSpec:
        return sim::build_topology(config.topo_spec);
    }
    LRS_CHECK_MSG(false, "unknown topology selector");
  }());

  // The cells: one per radio island in island mode, otherwise the whole
  // network (an empty member list). A connected topology is one island and
  // takes the whole-network cell, so island mode cannot change its result.
  std::vector<std::vector<NodeId>> cells;
  if (config.islands) cells = sim::radio_islands(*topology);
  if (cells.size() > 1) {
    // Fault plans and trace exports are whole-network, single-stream
    // concepts; the scenario layer rejects the combination up front.
    LRS_CHECK_MSG(!config.faults.any(),
                  "island mode does not support fault plans");
    LRS_CHECK_MSG(!config.trace.enabled(),
                  "island mode does not support tracing");
  } else {
    cells.assign(1, {});
  }

  std::vector<std::unique_ptr<proto::SchemeState>> sources;
  crypto::PacketHash root_pk{};
  {
    // Top-level scope: all source-side key material and signing work.
    static stats::Timer& source_timer = stats::Registry::instance().timer(
        "core.source", /*top_level=*/true);
    stats::TimerScope source_scope(source_timer);

    // One signer (one preloaded root) for the whole deployment, but every
    // cell's base signs its own dissemination, so the one-time-key tree
    // must cover the cell count.
    std::size_t height = 2;
    while ((std::size_t{1} << height) < cells.size()) ++height;
    crypto::MultiKeySigner signer(view(key_seed), height);
    root_pk = signer.root_public_key();

    // Pre-sign serially in cell order: the signer hands out one-time keys
    // in sequence, so the leaf -> cell assignment must never depend on
    // worker scheduling.
    sources.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      sources.push_back(make_source_scheme(config, image, signer));
    }
  }

  // Each worker builds, runs and destroys its cell's simulator, so peak
  // memory is jobs x one-cell state, not cells x. Island sizes are
  // heterogeneous (a geometric deployment mixes 2-node islets with
  // 1000-node blobs); results land in cell-indexed slots, so they are
  // byte-identical for any worker count. Inside a trial runner's worker the
  // pool is capped at that worker's share of its jobs. A single cell runs
  // inline on the caller's thread.
  std::vector<ExperimentResult> parts(cells.size());
  parallel_for(cells.size(), 0, [&](std::size_t i) {
    // Top-level scope: one cell end to end (build, run, metric extraction).
    // Island cells run concurrently, so accumulated scope time is
    // CPU-time-like — it can exceed wall time under LRS_JOBS > 1.
    static stats::Timer& cell_timer = stats::Registry::instance().timer(
        "core.run_cell", /*top_level=*/true);
    stats::TimerScope cell_scope(cell_timer);
    parts[i] = run_cell(config, image, root_pk, topology,
                        std::move(cells[i]), std::move(sources[i]));
  });
  return parts.size() == 1 ? std::move(parts.front()) : merge_islands(parts);
}

}  // namespace lrs::core
