// End-to-end dissemination through the simulator: all three schemes, one-hop
// and multi-hop, lossless and lossy channels, byte-exact image recovery and
// scheme-vs-scheme behavioral properties from the paper's evaluation.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/run_trials.h"

namespace lrs::core {
namespace {

ExperimentConfig base_config(Scheme scheme) {
  ExperimentConfig c;
  c.scheme = scheme;
  c.params.payload_size = 32;
  c.params.k = 8;
  c.params.n = 12;
  c.params.k0 = 4;
  c.params.n0 = 8;
  c.params.puzzle_strength = 4;
  c.image_size = 2048;
  c.receivers = 5;
  c.seed = 1;
  // Faster Trickle for small test scenarios.
  c.timing.trickle.tau_low = 250 * sim::kMillisecond;
  c.timing.trickle.tau_high = 8 * sim::kSecond;
  return c;
}

class AllSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(AllSchemes, LosslessOneHopCompletes) {
  auto cfg = base_config(GetParam());
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete) << r.completed << "/" << r.receivers;
  EXPECT_TRUE(r.images_match);
  EXPECT_GT(r.data_packets, 0u);
  EXPECT_GT(r.latency_s, 0.0);
}

TEST_P(AllSchemes, ModerateLossOneHopCompletes) {
  auto cfg = base_config(GetParam());
  cfg.loss_p = 0.15;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete);
  EXPECT_TRUE(r.images_match);
}

TEST_P(AllSchemes, HeavyLossOneHopCompletes) {
  auto cfg = base_config(GetParam());
  cfg.loss_p = 0.4;
  cfg.receivers = 3;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete);
  EXPECT_TRUE(r.images_match);
}

TEST_P(AllSchemes, SmallMultihopGridCompletes) {
  auto cfg = base_config(GetParam());
  cfg.topo = ExperimentConfig::Topo::kGrid;
  cfg.grid_rows = 3;
  cfg.grid_cols = 3;
  cfg.grid_spacing = 30.0;  // forces multi-hop (outer radius 45)
  cfg.image_size = 1024;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete) << r.completed << "/" << r.receivers;
  EXPECT_TRUE(r.images_match);
}

TEST_P(AllSchemes, DeterministicForFixedSeed) {
  auto cfg = base_config(GetParam());
  cfg.loss_p = 0.1;
  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);
  EXPECT_EQ(a.data_packets, b.data_packets);
  EXPECT_EQ(a.snack_packets, b.snack_packets);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_DOUBLE_EQ(a.latency_s, b.latency_s);
}

INSTANTIATE_TEST_SUITE_P(Schemes, AllSchemes,
                         ::testing::Values(Scheme::kDeluge, Scheme::kSeluge,
                                           Scheme::kLrSeluge),
                         [](const auto& info) {
                           return std::string(scheme_name(info.param)) ==
                                          "lr-seluge"
                                      ? "LrSeluge"
                                      : (info.param == Scheme::kDeluge
                                             ? "Deluge"
                                             : "Seluge");
                         });

// Loss sweep as a property: completion and integrity hold across p.
class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, LrSelugeCompletesAndVerifies) {
  auto cfg = base_config(Scheme::kLrSeluge);
  cfg.loss_p = GetParam();
  cfg.receivers = 4;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete) << "p=" << GetParam();
  EXPECT_TRUE(r.images_match);
  EXPECT_EQ(r.auth_failures, 0u);  // honest channel: nothing to reject
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossSweep,
                         ::testing::Values(0.0, 0.05, 0.1, 0.2, 0.3, 0.45));

// ---------------------------------------------------------------------------
// Paper-shape properties
// ---------------------------------------------------------------------------

TEST(PaperShape, LrBeatsSelugeDataPacketsUnderLoss) {
  // Paper-like geometry: the 8-byte hash overhead must be small relative
  // to the payload (the paper uses 64+ byte packets), otherwise LR's
  // per-page hash block eats the redundancy gains.
  auto lr = base_config(Scheme::kLrSeluge);
  auto seluge = base_config(Scheme::kSeluge);
  for (auto* cfg : {&lr, &seluge}) {
    cfg->params.payload_size = 64;
    cfg->params.k = 16;
    cfg->params.n = 24;
    cfg->image_size = 6 * 1024;
    cfg->loss_p = 0.3;
    cfg->receivers = 8;
  }
  const auto r_lr = aggregate_trials(run_trials(lr, 5));
  const auto r_seluge = aggregate_trials(run_trials(seluge, 5));
  ASSERT_TRUE(r_lr.all_complete);
  ASSERT_TRUE(r_seluge.all_complete);
  EXPECT_LT(r_lr.data_packets, r_seluge.data_packets);
  // Latency is noisier at this small geometry; allow a modest margin
  // (paper-scale sweeps in bench/ show clear latency wins).
  EXPECT_LT(r_lr.latency_s, r_seluge.latency_s * 1.15);
}

TEST(PaperShape, EverySchemeSendsMoreUnderLoss) {
  for (Scheme s : {Scheme::kSeluge, Scheme::kLrSeluge}) {
    auto clean = base_config(s);
    auto lossy = base_config(s);
    lossy.loss_p = 0.35;
    const auto r_clean = run_experiment(clean);
    const auto r_lossy = run_experiment(lossy);
    ASSERT_TRUE(r_clean.all_complete && r_lossy.all_complete);
    EXPECT_GT(r_lossy.data_packets, r_clean.data_packets)
        << scheme_name(s);
  }
}

TEST(PaperShape, SignatureVerifiedOncePerReceiver) {
  auto cfg = base_config(Scheme::kLrSeluge);
  cfg.receivers = 6;
  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.all_complete);
  // Every receiver verifies the root signature exactly once; no forgeries
  // in an honest run.
  EXPECT_EQ(r.signature_verifications, 6u);
  EXPECT_EQ(r.auth_failures, 0u);
}

TEST(PaperShape, GilbertElliottChannelStillCompletes) {
  auto cfg = base_config(Scheme::kLrSeluge);
  cfg.gilbert_elliott = true;
  cfg.ge.p_good = 0.05;
  cfg.ge.p_bad = 0.5;
  cfg.receivers = 4;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete);
  EXPECT_TRUE(r.images_match);
}

TEST(PaperShape, LargerImageMeansMoreTraffic) {
  auto small = base_config(Scheme::kLrSeluge);
  auto large = base_config(Scheme::kLrSeluge);
  large.image_size = 4 * small.image_size;
  const auto r_small = run_experiment(small);
  const auto r_large = run_experiment(large);
  ASSERT_TRUE(r_small.all_complete && r_large.all_complete);
  EXPECT_GT(r_large.data_packets, r_small.data_packets * 2);
}

TEST(PaperShape, RlcCodecEndToEnd) {
  auto cfg = base_config(Scheme::kLrSeluge);
  cfg.params.codec = erasure::CodecKind::kRlcGf256;
  cfg.params.delta = 1;
  cfg.loss_p = 0.2;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete);
  EXPECT_TRUE(r.images_match);
}

}  // namespace
}  // namespace lrs::core

// Appended: energy accounting surfaces through the experiment runner.
namespace lrs::core {
namespace {

TEST(Energy, ReportedAndInternallyConsistent) {
  auto cfg = base_config(Scheme::kLrSeluge);
  cfg.loss_p = 0.2;
  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.all_complete);
  EXPECT_GT(r.tx_energy_mj, 0.0);
  // Broadcast: every frame is heard by ~N radios, so aggregate rx energy
  // dwarfs tx energy, and always-on listening dwarfs both.
  EXPECT_GT(r.rx_energy_mj, r.tx_energy_mj);
  EXPECT_GT(r.listen_energy_mj, r.rx_energy_mj);
  // listen = nodes x latency x rx power (56.4 mW default).
  const double expect =
      static_cast<double>(cfg.receivers + 1) * r.latency_s * 56.4;
  EXPECT_NEAR(r.listen_energy_mj, expect, expect * 0.01);
}

}  // namespace
}  // namespace lrs::core

// Appended: relay and determinism properties.
namespace lrs::core {
namespace {

TEST(Relay, LineTopologyForcesMultiHopRelay) {
  // 1x5 line with spacing beyond radio range between non-adjacent nodes:
  // the far end can only be served by intermediate nodes re-encoding and
  // forwarding pages they decoded themselves.
  auto cfg = base_config(Scheme::kLrSeluge);
  cfg.topo = ExperimentConfig::Topo::kGrid;
  cfg.grid_rows = 1;
  cfg.grid_cols = 5;
  cfg.grid_spacing = 30.0;  // outer radius 45: only adjacent nodes hear
  cfg.image_size = 1024;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete);
  EXPECT_TRUE(r.images_match);
}

TEST(Relay, RelaysServeFromReencodedPages) {
  // Same line, but verify intermediate nodes actually transmitted data
  // (the base station cannot reach the tail directly).
  auto cfg = base_config(Scheme::kLrSeluge);
  cfg.topo = ExperimentConfig::Topo::kGrid;
  cfg.grid_rows = 1;
  cfg.grid_cols = 4;
  cfg.grid_spacing = 30.0;
  cfg.image_size = 1024;
  // run_experiment aggregates; per-node breakdown needs a manual check via
  // data packets: with 3 receivers in a line, total data sent must exceed
  // what one server alone would send for one neighborhood.
  const auto single_hop = [&] {
    auto c2 = cfg;
    c2.topo = ExperimentConfig::Topo::kStar;
    c2.receivers = 3;
    return run_experiment(c2);
  }();
  const auto line = run_experiment(cfg);
  ASSERT_TRUE(line.all_complete && single_hop.all_complete);
  EXPECT_GT(line.data_packets, single_hop.data_packets);
}

}  // namespace
}  // namespace lrs::core
