// Scenario subsystem: topology generators (determinism, connectivity,
// geometry), per-link PRR jitter, the .scn parser (golden round-trips of
// the checked-in library, strict rejection), canonical serialization, and
// the Scenario -> ExperimentConfig compiler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "sim/partition.h"
#include "sim/scenario/generators.h"
#include "sim/scenario/scenario.h"
#include "sim/time.h"

namespace lrs {
namespace {

namespace fs = std::filesystem;
using scenario::ChannelSpec;
using scenario::Scenario;
using sim::TopologyKind;
using sim::TopologySpec;

// ---------------------------------------------------------------------------
// Topology generators
// ---------------------------------------------------------------------------

TEST(GeneratorTest, KindNamesRoundTrip) {
  for (const TopologyKind k :
       {TopologyKind::kStar, TopologyKind::kGrid,
        TopologyKind::kRandomGeometric, TopologyKind::kClustered,
        TopologyKind::kLine, TopologyKind::kRing, TopologyKind::kCells}) {
    TopologyKind back{};
    ASSERT_TRUE(sim::topology_kind_from_name(sim::topology_kind_name(k),
                                             &back));
    EXPECT_EQ(back, k);
  }
  TopologyKind out{};
  EXPECT_FALSE(sim::topology_kind_from_name("torus", &out));
}

TEST(GeneratorTest, NodeCountMatchesBuiltTopology) {
  std::vector<TopologySpec> specs(6);
  specs[0].kind = TopologyKind::kStar;
  specs[0].receivers = 7;
  specs[1].kind = TopologyKind::kGrid;
  specs[1].rows = 4;
  specs[1].cols = 5;
  specs[2].kind = TopologyKind::kRandomGeometric;
  specs[2].nodes = 20;
  specs[3].kind = TopologyKind::kClustered;
  specs[3].nodes = 18;
  specs[3].clusters = 3;
  specs[4].kind = TopologyKind::kLine;
  specs[4].nodes = 9;
  specs[5].kind = TopologyKind::kRing;
  specs[5].nodes = 11;
  specs[5].radius = 30.0;
  for (const auto& spec : specs) {
    const auto topo = sim::build_topology(spec);
    EXPECT_EQ(topo.size(), spec.node_count());
    EXPECT_TRUE(topo.connected());
  }
}

TEST(GeneratorTest, GeometricIsDeterministicPerSeed) {
  TopologySpec spec;
  spec.kind = TopologyKind::kRandomGeometric;
  spec.nodes = 30;
  spec.width = 140.0;
  spec.height = 140.0;
  spec.seed = 42;
  const auto a = sim::build_topology(spec);
  const auto b = sim::build_topology(spec);
  ASSERT_EQ(a.size(), b.size());
  for (NodeId i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.position(i).x, b.position(i).x);
    EXPECT_EQ(a.position(i).y, b.position(i).y);
  }
  // A different seed yields a different placement.
  spec.seed = 43;
  const auto c = sim::build_topology(spec);
  bool any_differ = false;
  for (NodeId i = 0; i < a.size(); ++i) {
    any_differ |= a.position(i).x != c.position(i).x;
  }
  EXPECT_TRUE(any_differ);
}

TEST(GeneratorTest, GeometricPlacementsStayInAreaAndConnected) {
  TopologySpec spec;
  spec.kind = TopologyKind::kRandomGeometric;
  spec.nodes = 25;
  spec.width = 120.0;
  spec.height = 90.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    spec.seed = seed;
    const auto topo = sim::build_topology(spec);
    EXPECT_TRUE(topo.connected()) << "seed " << seed;
    for (NodeId i = 0; i < topo.size(); ++i) {
      EXPECT_GE(topo.position(i).x, 0.0);
      EXPECT_LE(topo.position(i).x, spec.width);
      EXPECT_GE(topo.position(i).y, 0.0);
      EXPECT_LE(topo.position(i).y, spec.height);
    }
  }
}

TEST(GeneratorTest, ClusteredNodesScatterAroundHotspots) {
  TopologySpec spec;
  spec.kind = TopologyKind::kClustered;
  spec.nodes = 24;
  spec.clusters = 4;
  spec.cluster_radius = 8.0;
  spec.width = 100.0;
  spec.height = 100.0;
  spec.seed = 5;
  const auto topo = sim::build_topology(spec);
  EXPECT_TRUE(topo.connected());
  // Every node must be within cluster_radius of SOME other node's position
  // cloud — weak but placement-independent: nodes of one hotspot are
  // pairwise within 2 * cluster_radius.
  std::size_t close_pairs = 0;
  for (NodeId i = 0; i < topo.size(); ++i) {
    for (NodeId j = i + 1; j < topo.size(); ++j) {
      if (topo.distance(i, j) <= 2.0 * spec.cluster_radius) ++close_pairs;
    }
  }
  // Round-robin assignment puts ~nodes/clusters nodes per hotspot; each
  // hotspot contributes ~C(6,2) close pairs.
  EXPECT_GE(close_pairs, spec.nodes);
}

TEST(GeneratorTest, LineAndRingGeometry) {
  TopologySpec line;
  line.kind = TopologyKind::kLine;
  line.nodes = 6;
  line.spacing = 12.5;
  const auto lt = sim::build_topology(line);
  for (NodeId i = 0; i + 1 < lt.size(); ++i) {
    EXPECT_DOUBLE_EQ(lt.distance(i, i + 1), 12.5);
  }
  EXPECT_DOUBLE_EQ(lt.distance(0, 5), 5 * 12.5);

  TopologySpec ring;
  ring.kind = TopologyKind::kRing;
  ring.nodes = 8;
  ring.radius = 25.0;
  const auto rt = sim::build_topology(ring);
  for (NodeId i = 0; i < rt.size(); ++i) {
    const double r = std::hypot(rt.position(i).x, rt.position(i).y);
    EXPECT_NEAR(r, 25.0, 1e-9);
  }
  // All adjacent chords are equal.
  const double chord = rt.distance(0, 1);
  for (NodeId i = 0; i + 1 < rt.size(); ++i) {
    EXPECT_NEAR(rt.distance(i, i + 1), chord, 1e-9);
  }
}

TEST(GeneratorTest, RejectsDegenerateSpecs) {
  TopologySpec spec;
  spec.kind = TopologyKind::kLine;
  spec.nodes = 5;
  spec.spacing = 0.0;
  EXPECT_THROW(sim::build_topology(spec), std::logic_error);

  TopologySpec sparse;
  sparse.kind = TopologyKind::kRandomGeometric;
  sparse.nodes = 3;
  sparse.width = 5000.0;
  sparse.height = 5000.0;
  // Three nodes in a 5 km square essentially never connect: the rejection
  // loop must give up loudly instead of looping forever.
  EXPECT_THROW(sim::build_topology(sparse), std::logic_error);
}

// ---------------------------------------------------------------------------
// Per-link PRR jitter
// ---------------------------------------------------------------------------

TEST(GeneratorTest, CellsLatticeIsRadioIsolatedAndCellMajor) {
  TopologySpec spec;
  spec.kind = TopologyKind::kCells;
  spec.rows = 2;
  spec.cols = 2;
  spec.nodes = 24;  // 6 per cell
  spec.width = 40.0;
  spec.height = 40.0;
  spec.seed = 3;
  const auto topo = sim::build_topology(spec);
  ASSERT_EQ(topo.size(), 24u);
  EXPECT_FALSE(topo.connected());

  // Exactly one island per cell, ids cell-major: cell c owns [6c, 6c+6).
  const auto islands = sim::radio_islands(topo);
  ASSERT_EQ(islands.size(), 4u);
  for (std::size_t c = 0; c < islands.size(); ++c) {
    ASSERT_EQ(islands[c].size(), 6u);
    for (std::size_t k = 0; k < 6; ++k) {
      EXPECT_EQ(islands[c][k], static_cast<NodeId>(6 * c + k));
    }
  }

  // Deterministic in the seed.
  const auto again = sim::build_topology(spec);
  for (NodeId i = 0; i < topo.size(); ++i) {
    EXPECT_EQ(topo.position(i).x, again.position(i).x);
    EXPECT_EQ(topo.position(i).y, again.position(i).y);
  }
}

TEST(GeneratorTest, ConnectedTopologyIsOneIsland) {
  TopologySpec spec;
  spec.kind = TopologyKind::kRandomGeometric;
  spec.nodes = 20;
  const auto topo = sim::build_topology(spec);
  const auto islands = sim::radio_islands(topo);
  ASSERT_EQ(islands.size(), 1u);
  ASSERT_EQ(islands[0].size(), 20u);
  for (NodeId i = 0; i < 20; ++i) EXPECT_EQ(islands[0][i], i);
}

TEST(JitterTest, ScalesPrrWithinBandDeterministically) {
  TopologySpec spec;
  spec.kind = TopologyKind::kGrid;
  spec.rows = 4;
  spec.cols = 4;
  spec.spacing = 10.0;
  const auto base = sim::build_topology(spec);
  spec.prr_jitter = 0.3;
  spec.jitter_seed = 99;
  const auto jittered = sim::build_topology(spec);
  const auto jittered2 = sim::build_topology(spec);

  bool any_scaled = false;
  for (NodeId a = 0; a < base.size(); ++a) {
    for (NodeId b = 0; b < base.size(); ++b) {
      if (a == b) continue;
      const double p0 = base.prr(a, b);
      const double p1 = jittered.prr(a, b);
      EXPECT_EQ(p1, jittered2.prr(a, b));  // deterministic
      if (p0 == 0.0) {
        EXPECT_EQ(p1, 0.0);  // out-of-range links stay dead
      } else {
        EXPECT_LE(p1, p0);
        EXPECT_GE(p1, p0 * (1.0 - spec.prr_jitter) - 1e-12);
        if (p1 != p0) any_scaled = true;
      }
    }
  }
  EXPECT_TRUE(any_scaled);
}

TEST(JitterTest, PreservesNeighborSets) {
  TopologySpec spec;
  spec.kind = TopologyKind::kGrid;
  spec.rows = 3;
  spec.cols = 3;
  spec.spacing = 15.0;
  const auto base = sim::build_topology(spec);
  spec.prr_jitter = 0.5;
  const auto jittered = sim::build_topology(spec);
  for (NodeId i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base.neighbors(i), jittered.neighbors(i));
  }
}

// ---------------------------------------------------------------------------
// Parser: golden round-trips of the checked-in library
// ---------------------------------------------------------------------------

std::vector<std::string> library_paths() {
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(LRS_SCENARIO_DIR)) {
    if (entry.path().extension() == ".scn") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(ScenarioGoldenTest, EveryCheckedInScenarioRoundTrips) {
  const auto paths = library_paths();
  ASSERT_GE(paths.size(), 10u) << "scenario library went missing";
  for (const auto& path : paths) {
    std::string error;
    const auto s = scenario::load_scenario_file(path, &error);
    ASSERT_TRUE(s.has_value()) << error;
    const std::string canon = scenario::canonical_scenario(*s);
    const auto reparsed = scenario::parse_scenario(canon, &error);
    ASSERT_TRUE(reparsed.has_value()) << path << ": " << error << "\n"
                                      << canon;
    // Canonicalization is idempotent: the canonical form of the reparsed
    // scenario is byte-identical, i.e. parse . canonical is the identity
    // on canonical text.
    EXPECT_EQ(scenario::canonical_scenario(*reparsed), canon) << path;
  }
}

TEST(ScenarioGoldenTest, EveryCheckedInScenarioCompiles) {
  for (const auto& path : library_paths()) {
    std::string error;
    const auto s = scenario::load_scenario_file(path, &error);
    ASSERT_TRUE(s.has_value()) << error;
    const auto config = scenario::scenario_config(*s);
    // The topology must actually build (connected placement found, valid
    // parameters) for every shipped scenario.
    const auto topo = sim::build_topology(config.topo_spec);
    EXPECT_EQ(topo.size(), s->topo.node_count()) << path;
    EXPECT_GE(s->expected_complete(), 1u) << path;
  }
}

// ---------------------------------------------------------------------------
// Parser: acceptance and strict rejection
// ---------------------------------------------------------------------------

constexpr const char* kMinimal = "[scenario]\nname = minimal\n";

TEST(ScenarioParseTest, MinimalFileGetsDefaults) {
  std::string error;
  const auto s = scenario::parse_scenario(kMinimal, &error);
  ASSERT_TRUE(s.has_value()) << error;
  EXPECT_EQ(s->name, "minimal");
  EXPECT_EQ(s->scheme, core::Scheme::kLrSeluge);
  EXPECT_EQ(s->topo.kind, TopologyKind::kStar);
  EXPECT_EQ(s->channel.model, ChannelSpec::Model::kPerfect);
  EXPECT_EQ(s->repeats, 3u);
  EXPECT_TRUE(s->check_invariants);
}

TEST(ScenarioParseTest, CommentsAndWhitespaceIgnored) {
  std::string error;
  const auto s = scenario::parse_scenario(
      "# full-line comment\n"
      "  [scenario]  \n"
      "  name = commented   # trailing comment\n"
      "\n"
      "[trial]\n"
      "repeats = 5\n",
      &error);
  ASSERT_TRUE(s.has_value()) << error;
  EXPECT_EQ(s->name, "commented");
  EXPECT_EQ(s->repeats, 5u);
}

void expect_rejected(const std::string& text, const std::string& fragment) {
  std::string error;
  const auto s = scenario::parse_scenario(text, &error);
  EXPECT_FALSE(s.has_value()) << "accepted: " << text;
  EXPECT_NE(error.find(fragment), std::string::npos)
      << "error '" << error << "' does not mention '" << fragment << "'";
}

TEST(ScenarioParseTest, RejectsMalformedInput) {
  expect_rejected("[scenario\nname = x\n", "line 1");
  expect_rejected("[nonsense]\n", "unknown section");
  expect_rejected("name = orphan\n", "outside any section");
  expect_rejected("[scenario]\nname = x\nbogus_key = 1\n", "unknown key");
  expect_rejected("[scenario]\nname = x\nk\n", "expected key = value");
  expect_rejected("[scenario]\nname = x\nk = banana\n", "invalid value");
  expect_rejected("[scenario]\nname = x\nk = 4\nk = 5\n", "duplicate key");
  expect_rejected("[scenario]\nname = x\nscheme = bittorrent\n",
                  "unknown scheme");
  expect_rejected("[scenario]\nname = x\ncodec = turbo\n", "unknown codec");
  expect_rejected("[scenario]\nname = x\ncodec = xorsched\n",
                  "unknown codec 'xorsched'");
  expect_rejected("[scenario]\nname = x\n[topology]\nkind = torus\n",
                  "unknown topology kind");
  expect_rejected("[scenario]\nname = x\n[channel]\nmodel = quantum\n",
                  "unknown channel model");
}

TEST(ScenarioParseTest, RejectsOutOfRangeValues) {
  expect_rejected("[scenario]\nname = Bad Name\n", "name");
  expect_rejected("[scenario]\nname = x\nk = 8\nn = 4\n", "k <= n");
  expect_rejected("[scenario]\nname = x\nn0 = 12\nk0 = 5\n", "power of two");
  expect_rejected("[scenario]\nname = x\n[channel]\nmodel = uniform\n"
                  "loss = 1.5\n",
                  "[0, 1]");
  expect_rejected("[scenario]\nname = x\n[topology]\nprr_jitter = 1\n",
                  "prr_jitter");
  expect_rejected("[scenario]\nname = x\n[topology]\nouter_radius = 10\n",
                  "outer_radius");
  expect_rejected(
      "[scenario]\nname = x\n[channel]\nmodel = gilbert_elliott\n"
      "good_dwell_ms = 0\n",
      "dwell");
}

TEST(ScenarioParseTest, RejectsInconsistentCrossFieldCombinations) {
  // per_node vector shorter than the topology.
  expect_rejected(
      "[scenario]\nname = x\n[topology]\nkind = star\nreceivers = 4\n"
      "[channel]\nmodel = per_node\nper_node = 0.1,0.2\n",
      "5-node topology");
  // Schedule events must name real receivers (not the base, not beyond).
  expect_rejected(
      "[scenario]\nname = x\n[topology]\nreceivers = 3\n[faults]\n"
      "crash = 9@1000+500\n",
      "crash node 9");
  expect_rejected(
      "[scenario]\nname = x\n[faults]\nlate_joiner = 0@1000\n",
      "late_joiner node 0");
  expect_rejected("[scenario]\nname = x\n[faults]\ncrash = 1@1000+0\n",
                  "downtime");
  expect_rejected(
      "[scenario]\nname = x\n[faults]\nduplicate_prob = 0.5\n"
      "max_copies = 1\n",
      "max_copies");
  // Cells: node count must split evenly into non-trivial cells.
  expect_rejected(
      "[scenario]\nname = x\n[topology]\nkind = cells\nnodes = 25\n"
      "rows = 2\ncols = 3\n",
      "divisible");
  expect_rejected(
      "[scenario]\nname = x\n[topology]\nkind = cells\nnodes = 6\n"
      "rows = 2\ncols = 3\n",
      "two nodes per cell");
  // Island execution cannot honor whole-network fault schedules.
  expect_rejected(
      "[scenario]\nname = x\n[faults]\ncrash = 1@1000+500\n"
      "[trial]\nislands = true\n",
      "islands");
  expect_rejected(
      "[scenario]\nname = x\n[faults]\nearly_sleeper = 2@0\n"
      "[trial]\nislands = true\n",
      "islands");
}

// ---------------------------------------------------------------------------
// Canonical serialization
// ---------------------------------------------------------------------------

TEST(ScenarioCanonicalTest, EmitsOnlyRelevantKeys) {
  std::string error;
  const auto s = scenario::parse_scenario(kMinimal, &error);
  ASSERT_TRUE(s.has_value()) << error;
  const std::string canon = scenario::canonical_scenario(*s);
  // Star topology on a perfect channel with no faults: no grid keys, no
  // loss keys, no [faults] section.
  EXPECT_NE(canon.find("kind = star"), std::string::npos);
  EXPECT_NE(canon.find("receivers = 20"), std::string::npos);
  EXPECT_EQ(canon.find("rows ="), std::string::npos);
  EXPECT_EQ(canon.find("loss ="), std::string::npos);
  EXPECT_EQ(canon.find("[faults]"), std::string::npos);
  EXPECT_EQ(canon.find("description ="), std::string::npos);
}

TEST(ScenarioCanonicalTest, CellsAndIslandsRoundTrip) {
  std::string error;
  const auto s = scenario::parse_scenario(
      "[scenario]\nname = fleet\n[topology]\nkind = cells\nnodes = 24\n"
      "rows = 2\ncols = 3\nwidth = 35\nheight = 35\n"
      "[trial]\nislands = true\n",
      &error);
  ASSERT_TRUE(s.has_value()) << error;
  EXPECT_TRUE(s->islands);
  const std::string canon = scenario::canonical_scenario(*s);
  EXPECT_NE(canon.find("kind = cells"), std::string::npos);
  EXPECT_NE(canon.find("rows = 2"), std::string::npos);
  EXPECT_NE(canon.find("cols = 3"), std::string::npos);
  EXPECT_NE(canon.find("islands = true"), std::string::npos);
  const auto back = scenario::parse_scenario(canon, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(scenario::canonical_scenario(*back), canon);

  // islands defaults to false and is then omitted from canonical form.
  const auto plain = scenario::parse_scenario(kMinimal, &error);
  ASSERT_TRUE(plain.has_value()) << error;
  EXPECT_FALSE(plain->islands);
  EXPECT_EQ(scenario::canonical_scenario(*plain).find("islands"),
            std::string::npos);
}

TEST(ScenarioConfigTest, IslandsMapToConfigAndExpectedComplete) {
  std::string error;
  const auto s = scenario::parse_scenario(
      "[scenario]\nname = fleet\n[topology]\nkind = cells\nnodes = 24\n"
      "rows = 2\ncols = 3\n[trial]\nislands = true\n",
      &error);
  ASSERT_TRUE(s.has_value()) << error;
  const auto cfg = scenario::scenario_config(*s);
  EXPECT_TRUE(cfg.islands);
  // Six cells = six bases: only 18 of 24 nodes are receivers.
  EXPECT_EQ(s->expected_complete(), 18u);

  // Without island execution a cells topology keeps the single base.
  auto classic = *s;
  classic.islands = false;
  EXPECT_EQ(classic.expected_complete(), 23u);
  EXPECT_FALSE(scenario::scenario_config(classic).islands);
}

TEST(ScenarioCanonicalTest, ShortestRoundTripDoubles) {
  std::string error;
  auto s = scenario::parse_scenario(
      "[scenario]\nname = x\n[topology]\nkind = grid\nrows = 2\ncols = 2\n"
      "spacing = 0.1\n",
      &error);
  ASSERT_TRUE(s.has_value()) << error;
  const std::string canon = scenario::canonical_scenario(*s);
  EXPECT_NE(canon.find("spacing = 0.1\n"), std::string::npos) << canon;
  const auto back = scenario::parse_scenario(canon, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->topo.spacing, 0.1);
}

TEST(ScenarioCanonicalTest, NormalizesEventOrder) {
  std::string error;
  const auto s = scenario::parse_scenario(
      "[scenario]\nname = x\n[topology]\nreceivers = 6\n[faults]\n"
      "crash = 5@9000+100\ncrash = 2@1000+100\nearly_sleeper = 4@7000\n"
      "early_sleeper = 1@3000\n",
      &error);
  ASSERT_TRUE(s.has_value()) << error;
  ASSERT_EQ(s->faults.crashes.size(), 2u);
  EXPECT_EQ(s->faults.crashes[0].node, 2u);  // sorted by time
  ASSERT_EQ(s->early_sleepers.size(), 2u);
  EXPECT_EQ(s->early_sleepers[0].node, 1u);
  const std::string canon = scenario::canonical_scenario(*s);
  EXPECT_LT(canon.find("crash = 2@"), canon.find("crash = 5@"));
}

// ---------------------------------------------------------------------------
// Scenario -> ExperimentConfig
// ---------------------------------------------------------------------------

TEST(ScenarioConfigTest, MapsSchemeGeometryAndTrialBlock) {
  std::string error;
  const auto s = scenario::parse_scenario(
      "[scenario]\nname = x\nscheme = seluge\nimage_size = 4096\n"
      "payload_size = 48\nk = 16\nn = 24\nk0 = 4\nn0 = 8\n"
      "codec = rlc256\ndelta = 2\npuzzle_strength = 6\n"
      "greedy_scheduler = false\n"
      "[trial]\nseed = 77\ntime_limit_s = 120.5\ncheck_invariants = false\n",
      &error);
  ASSERT_TRUE(s.has_value()) << error;
  const auto c = scenario::scenario_config(*s);
  EXPECT_EQ(c.scheme, core::Scheme::kSeluge);
  EXPECT_EQ(c.image_size, 4096u);
  EXPECT_EQ(c.params.payload_size, 48u);
  EXPECT_EQ(c.params.k, 16u);
  EXPECT_EQ(c.params.n, 24u);
  EXPECT_EQ(c.params.k0, 4u);
  EXPECT_EQ(c.params.n0, 8u);
  EXPECT_EQ(c.params.codec, erasure::CodecKind::kRlcGf256);
  EXPECT_EQ(c.params.delta, 2u);
  EXPECT_EQ(c.params.puzzle_strength, 6);
  EXPECT_FALSE(c.params.lr_greedy_scheduler);
  EXPECT_EQ(c.seed, 77u);
  EXPECT_EQ(c.time_limit, sim::from_seconds(120.5));
  EXPECT_FALSE(c.check_invariants);
  EXPECT_EQ(c.topo, core::ExperimentConfig::Topo::kSpec);
}

TEST(ScenarioConfigTest, SchedulesCompileToCrashEvents) {
  std::string error;
  const auto s = scenario::parse_scenario(
      "[scenario]\nname = x\n[topology]\nreceivers = 5\n[faults]\n"
      "late_joiner = 2@4000\nearly_sleeper = 3@2500\n",
      &error);
  ASSERT_TRUE(s.has_value()) << error;
  const auto c = scenario::scenario_config(*s);
  ASSERT_EQ(c.faults.crashes.size(), 2u);
  // Late joiner: down from t=0 until the join time.
  EXPECT_EQ(c.faults.crashes[0].node, 2u);
  EXPECT_EQ(c.faults.crashes[0].at, 0);
  EXPECT_EQ(c.faults.crashes[0].downtime, 4000 * sim::kMillisecond);
  // Early sleeper: powers off at its time and never returns (the window
  // end must stay far below the SimTime ceiling to avoid overflow).
  EXPECT_EQ(c.faults.crashes[1].node, 3u);
  EXPECT_EQ(c.faults.crashes[1].at, 2500 * sim::kMillisecond);
  EXPECT_GT(c.faults.crashes[1].downtime, 1000LL * 3600 * sim::kSecond);
  EXPECT_GT(c.faults.crashes[1].at + c.faults.crashes[1].downtime, 0);

  // The sleeper is excluded from the completion expectation.
  EXPECT_EQ(s->expected_complete(), 4u);
}

TEST(ScenarioConfigTest, DerivesPerNodeLossDeterministically) {
  const std::string text =
      "[scenario]\nname = x\n[topology]\nreceivers = 9\n[channel]\n"
      "model = per_node\nloss = 0.2\nloss_jitter = 0.1\nloss_seed = 5\n";
  std::string error;
  const auto s = scenario::parse_scenario(text, &error);
  ASSERT_TRUE(s.has_value()) << error;
  const auto c1 = scenario::scenario_config(*s);
  const auto c2 = scenario::scenario_config(*s);
  ASSERT_EQ(c1.per_node_loss.size(), 10u);  // base + 9 receivers
  EXPECT_EQ(c1.per_node_loss, c2.per_node_loss);
  std::set<double> distinct;
  for (const double p : c1.per_node_loss) {
    EXPECT_GE(p, 0.1 - 1e-12);
    EXPECT_LE(p, 0.3 + 1e-12);
    distinct.insert(p);
  }
  EXPECT_GT(distinct.size(), 1u);  // actually heterogeneous
}

TEST(ScenarioConfigTest, EndToEndSmallScenarioCompletes) {
  // Tiny star so the whole dissemination runs in well under a second.
  std::string error;
  const auto s = scenario::parse_scenario(
      "[scenario]\nname = smoke\nimage_size = 512\npayload_size = 32\n"
      "k = 4\nn = 6\nk0 = 2\nn0 = 4\npuzzle_strength = 2\n"
      "[topology]\nkind = star\nreceivers = 2\nmax_prr = 1\n"
      "[channel]\nmodel = uniform\nloss = 0.02\n"
      "[trial]\nrepeats = 1\nseed = 3\ntime_limit_s = 600\n",
      &error);
  ASSERT_TRUE(s.has_value()) << error;
  const auto r = core::run_experiment(scenario::scenario_config(*s));
  EXPECT_GE(r.completed, s->expected_complete());
  EXPECT_TRUE(r.images_match);
  EXPECT_EQ(r.invariant_violations, 0u);
}

}  // namespace
}  // namespace lrs
