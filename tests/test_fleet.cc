// Fleet subsystem: delta images (round-trip, tamper and replay rejection,
// end-to-end through the upgrade machinery), clone_source sharing, the
// worker pool's contract, and the engine's serial-vs-parallel byte-identity
// discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/lr_seluge.h"
#include "core/parallel.h"
#include "fleet/delta.h"
#include "fleet/engine.h"
#include "fleet/tenant.h"
#include "proto/engine.h"
#include "proto/packet.h"
#include "sim/simulator.h"

namespace lrs {
namespace {

using core::make_lr_receiver;
using core::make_lr_source;

// ---------------------------------------------------------------------------
// Delta blobs
// ---------------------------------------------------------------------------

Bytes patched_copy(const Bytes& base, std::size_t at, std::uint8_t x) {
  Bytes b = base;
  b[at] ^= x;
  return b;
}

TEST(Delta, RoundTripReconstructsNewImage) {
  const Bytes v1 = core::make_test_image(2048, 7);
  Bytes v2 = v1;
  v2[100] ^= 0xff;       // page 0 (page size 256)
  v2[1500] ^= 0x01;      // page 5
  v2.resize(2300, 0xee); // grows: pages 8 and (new) 8.x changed

  const Bytes blob = fleet::make_delta(v1, v2, 1, 2, 256);
  const auto m = fleet::parse_delta(view(blob));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->base_version, 1u);
  EXPECT_EQ(m->new_version, 2u);
  EXPECT_EQ(m->image_size, v2.size());
  EXPECT_EQ(m->page_size, 256u);
  // Pages 0 and 5 changed; page 7 grew from 2048 to 2300 fills, page 8 new.
  EXPECT_FALSE(m->changed_pages.empty());
  // The blob must be smaller than the full image (only changed pages ride).
  EXPECT_LT(blob.size(), v2.size());

  const auto applied = fleet::apply_delta(v1, view(blob));
  ASSERT_TRUE(applied.has_value());
  EXPECT_EQ(*applied, v2);
}

TEST(Delta, IdenticalImagesYieldEmptyPageSet) {
  const Bytes v1 = core::make_test_image(1024, 3);
  const Bytes blob = fleet::make_delta(v1, v1, 1, 2, 128);
  const auto m = fleet::parse_delta(view(blob));
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->changed_pages.empty());
  const auto applied = fleet::apply_delta(v1, view(blob));
  ASSERT_TRUE(applied.has_value());
  EXPECT_EQ(*applied, v1);
}

TEST(Delta, WrongBaseRejected) {
  const Bytes v1 = core::make_test_image(1024, 3);
  const Bytes v2 = patched_copy(v1, 10, 0x55);
  const Bytes blob = fleet::make_delta(v1, v2, 1, 2, 128);

  // A node whose installed image is NOT v1 (replayed delta after it already
  // moved on, or a misrouted artifact) must refuse to patch.
  const Bytes other = patched_copy(v1, 700, 0x11);
  EXPECT_FALSE(fleet::apply_delta(other, view(blob)).has_value());
  EXPECT_TRUE(fleet::apply_delta(v1, view(blob)).has_value());
}

TEST(Delta, TamperedBlobRejected) {
  const Bytes v1 = core::make_test_image(1024, 3);
  const Bytes v2 = patched_copy(v1, 10, 0x55);
  const Bytes blob = fleet::make_delta(v1, v2, 1, 2, 128);

  // Flip one byte anywhere: header corruption fails parse, payload
  // corruption fails the new_hash end-point check. No offset may slip
  // through as a "successful" apply of wrong bytes.
  for (std::size_t at = 0; at < blob.size(); ++at) {
    const Bytes bad = patched_copy(blob, at, 0x80);
    const auto applied = fleet::apply_delta(v1, view(bad));
    if (applied.has_value()) {
      EXPECT_EQ(*applied, v2) << "tampered byte " << at;
    }
  }
  // Truncation fails loudly too.
  Bytes shorter(blob.begin(), blob.end() - 1);
  EXPECT_FALSE(fleet::apply_delta(v1, view(shorter)).has_value());
}

TEST(Delta, VersionMustMoveForward) {
  Bytes blob = fleet::make_delta(core::make_test_image(256, 1),
                                 core::make_test_image(256, 2), 3, 4, 64);
  // Rewriting the header to base 4 -> new 4 (replay shape) must fail parse.
  blob[4] = 4;  // base_version low byte
  EXPECT_FALSE(fleet::parse_delta(view(blob)).has_value());
}

// ---------------------------------------------------------------------------
// Delta end-to-end through the upgrade machinery (test_upgrade.cc pattern):
// a node running v1 adopts a SIGNED v2 whose payload is the delta blob,
// authenticates every packet in transit, and patches its installed image.
// ---------------------------------------------------------------------------

proto::CommonParams small_params(Version v = 1) {
  proto::CommonParams p;
  p.version = v;
  p.payload_size = 32;
  p.k = 8;
  p.n = 12;
  p.k0 = 4;
  p.n0 = 8;
  p.puzzle_strength = 4;
  return p;
}

class StaticEnv final : public sim::Env {
 public:
  sim::SimTime now() const override { return 0; }
  NodeId id() const override { return 5; }
  void broadcast(sim::PacketClass, Bytes) override {}
  sim::EventToken schedule(sim::SimTime, sim::EventFn) override {
    return sim::EventToken::from_bits(++token_bits_);
  }
  std::size_t pending_tx() const override { return 0; }
  void cancel(sim::EventToken) override {}
  Rng& rng() override { return rng_; }
  sim::NodeMetrics& metrics() override { return metrics_; }
  void notify_complete() override {}

 private:
  Rng rng_{1};
  sim::NodeMetrics metrics_;
  std::uint64_t token_bits_ = 0;
};

void pump(proto::SchemeState& src, proto::DissemNode& node) {
  for (std::uint32_t p = 0; p < src.num_pages(); ++p) {
    for (std::uint32_t j = 0; j < src.packets_in_page(p); ++j) {
      if (node.scheme().pages_complete() > p) break;
      proto::DataPacket d;
      d.version = src.version();
      d.page = p;
      d.index = j;
      d.payload = src.packet_payload(p, j).value();
      node.on_receive(view(d.serialize()));
    }
  }
}

TEST(DeltaUpgrade, NodeAdoptsSignedDeltaAndPatchesInstalledImage) {
  // One signer chain covers v1 (full image) and v2 (the delta blob).
  crypto::MultiKeySigner signer(view(Bytes{0x77}), 2);
  const Bytes image_v1 = core::make_test_image(1024, 11);
  Bytes image_v2 = image_v1;
  image_v2[50] ^= 0x0f;
  image_v2[900] ^= 0xf0;
  const Bytes blob = fleet::make_delta(image_v1, image_v2, 1, 2, 128);

  auto v1 = make_lr_source(small_params(1), image_v1, signer);
  auto v2 = make_lr_source(small_params(2), blob, signer);

  StaticEnv env;
  proto::EngineConfig cfg;
  cfg.scheme_factory =
      core::lr_scheme_factory(small_params(), signer.root_public_key());
  proto::DissemNode node(
      env, make_lr_receiver(small_params(), signer.root_public_key()), cfg,
      small_params().cluster_key);
  node.on_start();

  // Install v1 the ordinary way.
  node.on_receive(view(v1->signature_frame().value()));
  pump(*v1, node);
  ASSERT_TRUE(node.image_complete());
  ASSERT_EQ(node.scheme().assemble_image(), image_v1);

  // The v2 delta arrives: signed, so the node re-bootstraps onto it; every
  // data packet is hash-chain authenticated exactly like a full image.
  node.on_receive(view(v2->signature_frame().value()));
  EXPECT_EQ(node.scheme().version(), 2u);
  pump(*v2, node);
  ASSERT_TRUE(node.image_complete());
  const Bytes received_blob = node.scheme().assemble_image();
  EXPECT_EQ(received_blob, blob);

  // Patch the installed image with the authenticated blob.
  const auto patched = fleet::apply_delta(image_v1, view(received_blob));
  ASSERT_TRUE(patched.has_value());
  EXPECT_EQ(*patched, image_v2);

  // Replaying the (genuine) v1 signature must not roll the node back.
  node.on_receive(view(v1->signature_frame().value()));
  EXPECT_EQ(node.scheme().version(), 2u);
  EXPECT_TRUE(node.image_complete());
}

TEST(DeltaUpgrade, TamperedDeltaPacketRejectedInTransit) {
  crypto::MultiKeySigner signer(view(Bytes{0x77}), 2);
  const Bytes image_v1 = core::make_test_image(1024, 11);
  const Bytes image_v2 = patched_copy(image_v1, 50, 0x0f);
  const Bytes blob = fleet::make_delta(image_v1, image_v2, 1, 2, 128);
  auto src = make_lr_source(small_params(2), blob, signer);

  core::Receiver rx(small_params(2), signer.root_public_key());
  ASSERT_TRUE(rx.feed_signature(view(src->signature_frame().value())));

  // A forged packet (payload bit flipped) must be rejected before buffering
  // — immediate per-packet authentication applies to delta blobs unchanged.
  Bytes payload = src->packet_payload(0, 0).value();
  payload[0] ^= 0x01;
  EXPECT_EQ(rx.feed_data(0, 0, view(payload)),
            proto::DataStatus::kRejected);
  // The genuine packet is accepted.
  EXPECT_EQ(rx.feed_data(0, 0, view(src->packet_payload(0, 0).value())),
            proto::DataStatus::kStored);
}

// ---------------------------------------------------------------------------
// clone_source: shared preprocessing, no re-signing
// ---------------------------------------------------------------------------

TEST(CloneSource, ClonesServeIdenticalPacketsWithoutConsumingKeys) {
  core::Publisher publisher(small_params(1), view(Bytes{0x42}), 2);
  const Bytes image = core::make_test_image(1024, 5);
  auto master = publisher.prepare(image);
  const std::size_t left = publisher.signatures_left();

  auto clone = master->clone_source();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(publisher.signatures_left(), left);  // no key consumed

  ASSERT_TRUE(clone->image_complete());
  EXPECT_EQ(clone->assemble_image(), image);
  EXPECT_EQ(clone->signature_frame(), master->signature_frame());
  for (std::uint32_t p = 0; p < master->num_pages(); ++p) {
    for (std::uint32_t j = 0; j < master->packets_in_page(p); ++j) {
      EXPECT_EQ(clone->packet_payload(p, j), master->packet_payload(p, j));
    }
  }
}

TEST(CloneSource, IncompleteReceiverDoesNotClone) {
  const auto rx = make_lr_receiver(small_params(), crypto::PacketHash{});
  EXPECT_EQ(rx->clone_source(), nullptr);
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  // jobs = 65 exceeds every count but 1000 and starts at most 64 threads
  // (the caller's thread is the 65th worker).
  for (const std::size_t count : {0u, 1u, 7u, 64u, 1000u}) {
    for (const std::size_t jobs : {1u, 2u, 8u, 65u}) {
      std::vector<std::atomic<int>> hits(count);
      core::parallel_for(count, jobs, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "count=" << count << " jobs=" << jobs;
      }
    }
  }
}

TEST(ParallelFor, FirstExceptionPropagatesAndWorkCompletes) {
  std::vector<std::atomic<int>> hits(100);
  EXPECT_THROW(core::parallel_for(100, 8,
                                  [&](std::size_t i) {
                                    if (i == 13) {
                                      throw std::runtime_error("boom");
                                    }
                                    hits[i].fetch_add(
                                        1, std::memory_order_relaxed);
                                  }),
               std::runtime_error);
  // Every other task still ran exactly once.
  for (std::size_t i = 0; i < 100; ++i) {
    if (i == 13) continue;
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, NestedPoolsStayWithinTheOuterJobs) {
  // Leaf tasks of a two-level fan-out, counted while they run. Whether the
  // inner call asks for the default or for the outer job count again, the
  // whole tree may never run more than `jobs` of them at once.
  for (const std::size_t jobs : {1u, 2u, 3u, 4u}) {
    for (const std::size_t outer : {1u, 3u, 8u}) {
      for (const std::size_t inner_jobs : {std::size_t{0}, jobs}) {
        std::atomic<std::size_t> in_flight{0};
        std::atomic<std::size_t> peak{0};
        std::vector<std::atomic<int>> hits(outer * 8);
        core::parallel_for(outer, jobs, [&](std::size_t o) {
          core::parallel_for(8, inner_jobs, [&](std::size_t i) {
            const std::size_t now = in_flight.fetch_add(1) + 1;
            std::size_t seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            hits[o * 8 + i].fetch_add(1, std::memory_order_relaxed);
            in_flight.fetch_sub(1);
          });
        });
        EXPECT_LE(peak.load(), jobs) << "outer=" << outer << " jobs=" << jobs
                                     << " inner_jobs=" << inner_jobs;
        for (std::size_t t = 0; t < hits.size(); ++t) {
          ASSERT_EQ(hits[t].load(), 1) << t;
        }
      }
    }
  }
}

TEST(ParallelFor, WorkerBudgetIsItsShareOfJobs) {
  // One task gets the whole budget; four tasks on four workers get one
  // each; five jobs over two workers split 3 + 2.
  std::atomic<std::size_t> seen{0};
  core::parallel_for(1, 4, [&](std::size_t) { seen = core::default_jobs(); });
  EXPECT_EQ(seen.load(), 4u);
  std::vector<std::size_t> budgets(4);
  core::parallel_for(4, 4,
                     [&](std::size_t i) { budgets[i] = core::default_jobs(); });
  EXPECT_EQ(budgets, std::vector<std::size_t>(4, 1));
  // Each task waits for the other, so each worker runs exactly one.
  std::vector<std::size_t> split(2);
  std::atomic<int> arrived{0};
  core::parallel_for(2, 5, [&](std::size_t i) {
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
    split[i] = core::default_jobs();
  });
  std::sort(split.begin(), split.end());
  EXPECT_EQ(split, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(core::detail::worker_budget, 0u);  // restored on the caller
}

// ---------------------------------------------------------------------------
// FleetEngine: lifecycle, convergence, serial-vs-parallel byte identity
// ---------------------------------------------------------------------------

fleet::TenantSpec small_tenant(const std::string& name, std::uint64_t seed,
                               erasure::CodecKind codec, Version version,
                               bool delta) {
  fleet::TenantSpec spec;
  spec.name = name;
  spec.params = small_params(version);
  spec.params.codec = codec;
  spec.delta = delta;
  spec.image_size = 768;
  spec.seed = seed;
  spec.cells = 4;
  spec.receivers_min = 2;
  spec.receivers_max = 6;
  spec.loss_p = 0.05;
  spec.timing.trickle.tau_low = 250 * sim::kMillisecond;
  spec.timing.trickle.tau_high = 4 * sim::kSecond;
  spec.time_limit = 600LL * sim::kSecond;
  return spec;
}

fleet::FleetEngine make_small_fleet() {
  fleet::FleetEngine engine;
  engine.add_tenant(small_tenant("alpha", 10,
                                 erasure::CodecKind::kReedSolomon, 1,
                                 false));
  engine.add_tenant(small_tenant("bravo", 20, erasure::CodecKind::kLrc, 3,
                                 false));
  engine.add_tenant(small_tenant("delta", 30,
                                 erasure::CodecKind::kReedSolomon, 2,
                                 true));
  return engine;
}

TEST(FleetEngine, LifecycleAndConvergence) {
  fleet::FleetEngine engine = make_small_fleet();
  ASSERT_EQ(engine.tenant_count(), 3u);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(engine.phase(t), fleet::TenantPhase::kRegistered);
  }

  engine.prepare();
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(engine.phase(t), fleet::TenantPhase::kPrepared);
  }
  // The delta tenant disseminates the blob, not the image — and the blob
  // patches the previous version's image into the new one.
  EXPECT_NE(engine.payload(2), engine.image(2));
  const auto patched =
      fleet::apply_delta(engine.base_image(2), view(engine.payload(2)));
  ASSERT_TRUE(patched.has_value());
  EXPECT_EQ(*patched, engine.image(2));

  const fleet::FleetReport report = engine.run(2);
  ASSERT_EQ(report.tenants.size(), 3u);
  EXPECT_EQ(report.cells, 12u);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(engine.phase(t), fleet::TenantPhase::kConverged)
        << report.tenants[t].name << ": " << report.tenants[t].converged_cells
        << "/" << report.tenants[t].cells;
    EXPECT_EQ(report.tenants[t].phase, fleet::TenantPhase::kConverged);
    EXPECT_TRUE(report.tenants[t].images_ok);
    EXPECT_GT(report.tenants[t].events, 0u);
    EXPECT_GE(report.tenants[t].imbalance(), 1.0);
  }
}

/// The deterministic core of a TenantResult, comparable across runs.
std::string deterministic_key(const fleet::TenantResult& t) {
  return t.name + "|" + std::to_string(t.cells) + "|" +
         std::to_string(t.converged_cells) + "|" +
         std::to_string(t.receivers) + "|" + std::to_string(t.events) + "|" +
         std::to_string(t.max_cell_events) + "|" +
         std::to_string(t.data_packets) + "|" +
         std::to_string(t.snack_packets) + "|" +
         std::to_string(t.total_bytes) + "|" +
         std::to_string(t.latency_max_s) + "|" +
         (t.images_ok ? "ok" : "bad");
}

TEST(FleetEngine, SerialAndParallelRunsAreByteIdentical) {
  fleet::FleetEngine serial = make_small_fleet();
  serial.prepare();
  const fleet::FleetReport a = serial.run(1);

  fleet::FleetEngine parallel = make_small_fleet();
  parallel.prepare();
  const fleet::FleetReport b = parallel.run(8);

  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(deterministic_key(a.tenants[t]), deterministic_key(b.tenants[t]));
  }
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.max_cell_events, b.max_cell_events);
}

TEST(FleetEngine, SmallFleetOutputsArePinned) {
  // Golden per-tenant outputs of make_small_fleet(). Serial == parallel
  // alone cannot see a change in how a cell is wired (node order, engine
  // config, loss model, seeds); these values can.
  struct Pinned {
    const char* name;
    std::uint64_t events;
    std::uint64_t data_packets;
    std::uint64_t snack_packets;
    std::uint64_t total_bytes;
    double latency_max_s;
  };
  const Pinned kPinned[] = {
      {"alpha", 1849, 324, 124, 24080, 3.073405},
      {"bravo", 2038, 401, 108, 26873, 2.333588},
      {"delta", 1011, 150, 74, 13318, 1.973713},
  };

  fleet::FleetEngine engine = make_small_fleet();
  engine.prepare();
  const fleet::FleetReport report = engine.run(2);
  ASSERT_EQ(report.tenants.size(), std::size(kPinned));
  for (std::size_t t = 0; t < std::size(kPinned); ++t) {
    const fleet::TenantResult& got = report.tenants[t];
    const Pinned& want = kPinned[t];
    SCOPED_TRACE(want.name);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.data_packets, want.data_packets);
    EXPECT_EQ(got.snack_packets, want.snack_packets);
    EXPECT_EQ(got.total_bytes, want.total_bytes);
    EXPECT_DOUBLE_EQ(got.latency_max_s, want.latency_max_s);
  }
}

TEST(FleetEngine, CellDerivationsAreDeterministicAndInRange) {
  const fleet::TenantSpec spec =
      small_tenant("x", 99, erasure::CodecKind::kReedSolomon, 1, false);
  for (std::size_t c = 0; c < 100; ++c) {
    const std::size_t r1 = fleet::cell_receivers(spec, c);
    const std::size_t r2 = fleet::cell_receivers(spec, c);
    EXPECT_EQ(r1, r2);
    EXPECT_GE(r1, spec.receivers_min);
    EXPECT_LE(r1, spec.receivers_max);
    EXPECT_EQ(fleet::cell_seed(spec, c), fleet::cell_seed(spec, c));
  }
  // Adjacent cells decorrelate.
  EXPECT_NE(fleet::cell_seed(spec, 0), fleet::cell_seed(spec, 1));
}

}  // namespace
}  // namespace lrs
