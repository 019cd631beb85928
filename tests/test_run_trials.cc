// The parallel trial runner must be a drop-in replacement for the
// historical serial loop: identical per-trial results, identical
// aggregates, regardless of thread count or scheduling order.
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/run_trials.h"
#include "crypto/sha256.h"
#include "util/hex.h"

namespace lrs::core {
namespace {

ExperimentConfig small_config(Scheme scheme, double loss, std::uint64_t seed) {
  ExperimentConfig c;
  c.scheme = scheme;
  c.image_size = 4 * 1024;  // small image keeps the test fast
  c.receivers = 5;
  c.loss_p = loss;
  c.seed = seed;
  return c;
}

void expect_equal(const ExperimentResult& a, const ExperimentResult& b,
                  const char* what) {
  EXPECT_EQ(a.all_complete, b.all_complete) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  EXPECT_EQ(a.receivers, b.receivers) << what;
  EXPECT_EQ(a.data_packets, b.data_packets) << what;
  EXPECT_EQ(a.page0_data_packets, b.page0_data_packets) << what;
  EXPECT_EQ(a.snack_packets, b.snack_packets) << what;
  EXPECT_EQ(a.adv_packets, b.adv_packets) << what;
  EXPECT_EQ(a.sig_packets, b.sig_packets) << what;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << what;
  EXPECT_EQ(a.latency_s, b.latency_s) << what;  // bitwise: same arithmetic
  EXPECT_EQ(a.collisions, b.collisions) << what;
  EXPECT_EQ(a.hash_verifications, b.hash_verifications) << what;
  EXPECT_EQ(a.signature_verifications, b.signature_verifications) << what;
  EXPECT_EQ(a.auth_failures, b.auth_failures) << what;
  EXPECT_EQ(a.tx_energy_mj, b.tx_energy_mj) << what;
  EXPECT_EQ(a.rx_energy_mj, b.rx_energy_mj) << what;
  EXPECT_EQ(a.listen_energy_mj, b.listen_energy_mj) << what;
  EXPECT_EQ(a.received_bytes, b.received_bytes) << what;
  EXPECT_EQ(a.events_executed, b.events_executed) << what;
  EXPECT_EQ(a.images_match, b.images_match) << what;
}

TEST(RunTrials, TrialIUsesSeedPlusI) {
  const auto cfg = small_config(Scheme::kLrSeluge, 0.2, 77);
  const auto trials = run_trials(cfg, 3, 1);
  ASSERT_EQ(trials.size(), 3u);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    auto c = cfg;
    c.seed = cfg.seed + i;
    expect_equal(trials[i], run_experiment(c), "derived seed");
  }
}

TEST(RunTrials, ParallelMatchesSerialPerTrial) {
  const auto cfg = small_config(Scheme::kLrSeluge, 0.3, 42);
  const auto serial = run_trials(cfg, 4, 1);
  const auto parallel = run_trials(cfg, 4, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_equal(serial[i], parallel[i], "jobs=1 vs jobs=4");
  }
  expect_equal(aggregate_trials(serial), aggregate_trials(parallel),
               "aggregate");
}

TEST(RunTrials, AggregateMatchesRunExperimentAvg) {
  // The public averaging entry point over one config is run_experiments_avg
  // on a one-element grid; pin that it equals an explicit serial run folded
  // through aggregate_trials, whatever jobs the grid runner is given.
  const auto cfg = small_config(Scheme::kSeluge, 0.1, 9);
  const std::vector<ExperimentConfig> one = {cfg};
  const auto avg = run_experiments_avg(one, 3, 2);
  ASSERT_EQ(avg.size(), 1u);
  expect_equal(aggregate_trials(run_trials(cfg, 3, 1)), avg.front(), "avg");
}

TEST(RunTrials, GridRunnerMatchesPerConfigAveraging) {
  std::vector<ExperimentConfig> configs = {
      small_config(Scheme::kLrSeluge, 0.0, 5),
      small_config(Scheme::kSeluge, 0.2, 5),
      small_config(Scheme::kLrSeluge, 0.4, 11),
  };
  const auto grid = run_experiments_avg(configs, 2, 3);
  ASSERT_EQ(grid.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_equal(grid[i], aggregate_trials(run_trials(configs[i], 2, 1)),
                 "grid");
  }
}

TEST(RunTrials, DefaultJobsHonorsEnvOverride) {
  ::setenv("LRS_JOBS", "3", 1);
  EXPECT_EQ(default_jobs(), 3u);
  ::setenv("LRS_JOBS", "0", 1);  // invalid: must fall back, stay >= 1
  EXPECT_GE(default_jobs(), 1u);
  ::setenv("LRS_JOBS", "junk", 1);
  EXPECT_GE(default_jobs(), 1u);
  ::unsetenv("LRS_JOBS");
  EXPECT_GE(default_jobs(), 1u);
}

TEST(RunTrials, ZeroRepeatsIsRejected) {
  const auto cfg = small_config(Scheme::kLrSeluge, 0.0, 1);
  EXPECT_THROW(run_trials(cfg, 0, 2), std::logic_error);
}

// Every trial's image comes from make_test_image, so its bytes are part of
// every deterministic result. Digests recorded from the Rng::uniform(256)
// fill it replaced.
TEST(MakeTestImage, BytesPinnedPerSeed) {
  const std::pair<std::uint64_t, const char*> pinned[] = {
      {1, "36a1ffb7ba9d7c8341d20d0c47ea598066a37fd19d591fa568ed16b55406e7b9"},
      {2, "9b1b3286d8f425a4c761f6a9bd7685deb1d57a0e8ffeda54c5663f9d7fb36ed3"},
      {7, "809d18031f76a3f7e78ae253a1beb7152423f6ad7f27291cd394dc0ee239fca3"},
      {42, "59b0aa5cab978fa719da8db4534228d99395873a1eea34077a07ff5a8891f3be"},
      {12345,
       "fd4c7241b220ff3912c526bf7073d0b04c1ae2b9eb0a6b4f73dd97870f1e56f2"}};
  for (const auto& [seed, digest] : pinned) {
    const Bytes image = make_test_image(20480, seed);
    ASSERT_EQ(image.size(), 20480u);
    const auto d = crypto::Sha256::hash(view(image));
    EXPECT_EQ(to_hex(ByteView(d.data(), d.size())), digest) << seed;
  }
  EXPECT_TRUE(make_test_image(0, 1).empty());
}

// ---------------------------------------------------------------------------
// Island-sharded execution (core/experiment.cc + sim/partition.h)
// ---------------------------------------------------------------------------

/// 2x3 lattice of radio-isolated cells, 4 nodes each: six islands, six
/// bases, every receiver two radio hops at most from its island's base.
ExperimentConfig cells_config(std::uint64_t seed) {
  ExperimentConfig c;
  c.scheme = Scheme::kLrSeluge;
  c.image_size = 4 * 1024;
  c.topo = ExperimentConfig::Topo::kSpec;
  c.topo_spec.kind = sim::TopologyKind::kCells;
  c.topo_spec.rows = 2;
  c.topo_spec.cols = 3;
  c.topo_spec.nodes = 24;
  c.topo_spec.width = 30.0;   // 30x30 box, diagonal < outer radius: every
  c.topo_spec.height = 30.0;  // cell placement is connected on the first try
  c.topo_spec.seed = 7;
  c.loss_p = 0.1;
  c.seed = seed;
  c.islands = true;
  c.check_invariants = true;  // per-island observers must merge cleanly
  return c;
}

TEST(IslandExecutor, WorkerCountNeverChangesTheResult) {
  // One trial: the run's island fan-out gets the runner's whole budget.
  const auto cfg = cells_config(5);
  const auto serial = run_trials(cfg, 1, 1).front();
  const auto parallel = run_trials(cfg, 1, 4).front();
  expect_equal(serial, parallel, "island jobs=1 vs jobs=4");
  EXPECT_TRUE(serial.all_complete);
  EXPECT_TRUE(serial.images_match);
  // Six islands, six bases: 24 - 6 receivers.
  EXPECT_EQ(serial.receivers, 18u);
  EXPECT_EQ(serial.completed, 18u);
  EXPECT_EQ(serial.invariant_violations, 0u);
  EXPECT_GT(serial.invariant_checks, 0u);
}

TEST(IslandExecutor, ConnectedTopologyTakesTheClassicPath) {
  auto cfg = small_config(Scheme::kLrSeluge, 0.2, 3);
  const auto classic = run_experiment(cfg);
  cfg.islands = true;  // a star is one island: must match classic exactly
  const auto island = run_trials(cfg, 1, 4).front();
  expect_equal(classic, island, "classic vs islands on connected topology");
}

TEST(IslandExecutor, RepeatedTrialsMatchSerial) {
  // Three trials on four workers: one trial's islands get two threads, the
  // others run theirs serially. Every trial must match the serial run.
  const auto cfg = cells_config(8);
  const auto serial = run_trials(cfg, 3, 1);
  const auto parallel = run_trials(cfg, 3, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_equal(serial[i], parallel[i], "islands, 3 trials, jobs=1 vs 4");
    EXPECT_TRUE(serial[i].all_complete);
  }
}

TEST(IslandExecutor, SecureSchemesShareOneRootAcrossIslands) {
  // Seluge receivers verify the per-island signature against the single
  // preloaded root; >4 islands also exercises the taller one-time-key tree.
  auto cfg = cells_config(11);
  cfg.scheme = Scheme::kSeluge;
  cfg.check_invariants = false;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete);
  EXPECT_TRUE(r.images_match);
  EXPECT_GT(r.signature_verifications, 0u);
  EXPECT_EQ(r.auth_failures, 0u);
}

}  // namespace
}  // namespace lrs::core
