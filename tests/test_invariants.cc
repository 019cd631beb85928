// InvariantObserver unit tests: each of the five protocol invariants gets a
// dedicated negative test (a synthetic probe deliberately violates it and
// the observer must flag exactly that invariant) plus positive coverage
// showing conforming behaviour stays clean.
#include <gtest/gtest.h>

#include "sim/invariants.h"
#include "util/types.h"

namespace lrs {
namespace {

using sim::InvariantConfig;
using sim::InvariantObserver;
using sim::NodeProbe;
using sim::PacketClass;

/// Mutable stand-in for one node's protocol state; the probe reads it live.
struct FakeNode {
  bool bootstrapped = true;
  std::uint32_t pages = 0;
  std::size_t buffered = 0;
  bool complete = false;
  Bytes image;
  int engine = 0;
  std::size_t kprime = 10;  // decode threshold k'
  std::size_t npkts = 12;   // packets per page n
};

NodeProbe make_probe(FakeNode& n) {
  NodeProbe p;
  p.bootstrapped = [&n] { return n.bootstrapped; };
  p.pages_complete = [&n] { return n.pages; };
  p.buffered_packets = [&n] { return n.buffered; };
  p.image_complete = [&n] { return n.complete; };
  p.assemble_image = [&n] { return n.image; };
  p.engine_state = [&n] { return n.engine; };
  p.packets_in_page = [&n](std::uint32_t) { return n.npkts; };
  p.decode_threshold = [&n](std::uint32_t) { return n.kprime; };
  return p;
}

const Bytes kFrame{0x01, 0x02, 0x03};

InvariantConfig strict_config(const Bytes& expected) {
  InvariantConfig c;
  c.expected_image = expected;
  c.check_immediate_auth = true;
  c.check_tamper_rejection = true;
  c.check_greedy_bound = true;
  // Synthetic parsers: the tests drive the observer directly, so the wire
  // format is irrelevant — every data frame is (page 0, index 0) and every
  // snack requests `q` packets of page 0 for the addressed target.
  c.parse_data = [](ByteView) {
    return std::optional<sim::DataView>({0, 0});
  };
  c.parse_snack = [](ByteView) {
    sim::SnackView v;
    v.sender = 9;
    v.target = 1;
    v.page = 0;
    v.requested = 4;  // q
    return std::optional<sim::SnackView>(v);
  };
  return c;
}

void deliver(InvariantObserver& obs, FakeNode&, NodeId to, PacketClass cls,
             bool tampered = false) {
  obs.before_deliver(0, 0, to, cls, view(kFrame), tampered);
  obs.after_deliver(0, 0, to, cls, view(kFrame), tampered);
}

TEST(Invariant1, WrongImageAtCompletionTransitionIsFlagged) {
  const Bytes expected{1, 2, 3, 4};
  FakeNode n;
  n.image = {9, 9, 9, 9};
  InvariantObserver obs(strict_config(expected));
  obs.attach(1, make_probe(n));

  obs.before_deliver(0, 0, 1, PacketClass::kData, view(kFrame), false);
  n.complete = true;  // the delivery "completed" the node — with a bad image
  obs.after_deliver(0, 0, 1, PacketClass::kData, view(kFrame), false);

  ASSERT_FALSE(obs.ok());
  EXPECT_EQ(obs.violations().front().invariant, 1);
  EXPECT_EQ(obs.violations().front().node, 1u);
}

TEST(Invariant1, WrongImageAtFinalizeIsFlagged) {
  const Bytes expected{1, 2, 3, 4};
  FakeNode n;
  n.complete = true;
  n.image = expected;
  n.image[2] ^= 0xff;  // one corrupted byte
  InvariantObserver obs(strict_config(expected));
  obs.attach(1, make_probe(n));
  obs.finalize(100);
  ASSERT_FALSE(obs.ok());
  EXPECT_EQ(obs.violations().front().invariant, 1);
}

TEST(Invariant1, MatchingImageIsClean) {
  const Bytes expected{1, 2, 3, 4};
  FakeNode n;
  n.complete = true;
  n.image = expected;
  InvariantObserver obs(strict_config(expected));
  obs.attach(1, make_probe(n));
  obs.finalize(100);
  EXPECT_TRUE(obs.ok());
  EXPECT_GT(obs.checks_run(), 0u);
}

TEST(Invariant2, BufferingBeforeBootstrapIsFlagged) {
  FakeNode n;
  n.bootstrapped = false;
  InvariantObserver obs(strict_config({}));
  obs.attach(1, make_probe(n));

  deliver(obs, n, 1, PacketClass::kData);  // nothing buffered yet: clean
  EXPECT_TRUE(obs.ok());

  n.buffered = 3;  // node stored packets without a verified signature
  deliver(obs, n, 1, PacketClass::kData);
  ASSERT_FALSE(obs.ok());
  EXPECT_EQ(obs.violations().front().invariant, 2);
}

TEST(Invariant2, BufferingAfterBootstrapIsClean) {
  FakeNode n;
  n.bootstrapped = true;
  n.buffered = 5;
  InvariantObserver obs(strict_config({}));
  obs.attach(1, make_probe(n));
  deliver(obs, n, 1, PacketClass::kData);
  EXPECT_TRUE(obs.ok());
}

TEST(Invariant3, PageFrontierRegressionIsFlagged) {
  FakeNode n;
  n.pages = 3;
  InvariantObserver obs(strict_config({}));
  obs.attach(1, make_probe(n));

  deliver(obs, n, 1, PacketClass::kData);  // frontier observed at 3
  EXPECT_TRUE(obs.ok());

  n.pages = 1;  // volatile-state bug: frontier went backwards
  deliver(obs, n, 1, PacketClass::kData);
  ASSERT_FALSE(obs.ok());
  EXPECT_EQ(obs.violations().front().invariant, 3);
}

TEST(Invariant3, RebootDroppingFrontierIsFlagged) {
  FakeNode n;
  n.pages = 4;
  InvariantObserver obs(strict_config({}));
  obs.attach(1, make_probe(n));

  deliver(obs, n, 1, PacketClass::kData);
  n.pages = 0;  // reboot lost the persisted frontier
  obs.on_reboot(50, 1);
  ASSERT_FALSE(obs.ok());
  EXPECT_EQ(obs.violations().front().invariant, 3);
}

TEST(Invariant3, AdvancingFrontierIsClean) {
  FakeNode n;
  InvariantObserver obs(strict_config({}));
  obs.attach(1, make_probe(n));
  for (std::uint32_t p = 0; p < 5; ++p) {
    n.pages = p;
    deliver(obs, n, 1, PacketClass::kData);
  }
  obs.on_reboot(50, 1);  // frontier intact across reboot
  EXPECT_TRUE(obs.ok());
}

TEST(Invariant4, TamperedFrameChangingStateIsFlagged) {
  FakeNode n;
  n.buffered = 2;
  InvariantObserver obs(strict_config({}));
  obs.attach(1, make_probe(n));

  obs.before_deliver(0, 0, 1, PacketClass::kData, view(kFrame), true);
  n.buffered = 3;  // the node accepted a corrupted packet
  obs.after_deliver(0, 0, 1, PacketClass::kData, view(kFrame), true);

  ASSERT_FALSE(obs.ok());
  EXPECT_EQ(obs.violations().front().invariant, 4);
}

TEST(Invariant4, TamperedFrameLeavingStateAloneIsClean) {
  FakeNode n;
  n.buffered = 2;
  n.pages = 1;
  InvariantObserver obs(strict_config({}));
  obs.attach(1, make_probe(n));
  deliver(obs, n, 1, PacketClass::kData, /*tampered=*/true);
  deliver(obs, n, 1, PacketClass::kSnack, /*tampered=*/true);
  EXPECT_TRUE(obs.ok());
}

TEST(Invariant4, TamperedFrameEqualToASentDataFrameMayChangeState) {
  // Corruption can land exactly on a genuine packet; storing it is correct.
  // Only a data frame an attached node sent counts as genuine, and the
  // check still runs either way.
  FakeNode sender, n;
  InvariantConfig cfg = strict_config({});
  cfg.check_greedy_bound = false;
  InvariantObserver obs(std::move(cfg));
  obs.attach(1, make_probe(n));
  obs.attach(2, make_probe(sender));
  const Bytes other{0x09, 0x09};
  obs.on_send(0, 3, PacketClass::kData, view(other));  // unattached sender
  obs.on_send(0, 2, PacketClass::kData, view(kFrame));

  const std::uint64_t before = obs.checks_run();
  obs.before_deliver(0, 2, 1, PacketClass::kData, view(kFrame), true);
  n.buffered = 1;
  obs.after_deliver(0, 2, 1, PacketClass::kData, view(kFrame), true);
  EXPECT_TRUE(obs.ok());
  const std::uint64_t genuine_checks = obs.checks_run() - before;

  obs.before_deliver(0, 3, 1, PacketClass::kData, view(other), true);
  n.buffered = 2;
  obs.after_deliver(0, 3, 1, PacketClass::kData, view(other), true);
  ASSERT_FALSE(obs.ok());
  EXPECT_EQ(obs.violations().front().invariant, 4);
  EXPECT_EQ(obs.checks_run() - before, 2 * genuine_checks);
}

TEST(Invariant5, DataSendWithoutSnackAllowanceIsFlagged) {
  FakeNode server;
  InvariantObserver obs(strict_config({}));
  obs.attach(1, make_probe(server));

  obs.on_send(0, 1, PacketClass::kData, view(kFrame));
  ASSERT_FALSE(obs.ok());
  EXPECT_EQ(obs.violations().front().invariant, 5);
}

TEST(Invariant5, SendsWithinGreedyBoundAreClean) {
  FakeNode server;  // q=4, k'=10, n=12 -> d = q + k' - n = 2 per snack
  InvariantObserver obs(strict_config({}));
  obs.attach(1, make_probe(server));

  deliver(obs, server, 1, PacketClass::kSnack);  // authentic: +2 allowance
  obs.on_send(0, 1, PacketClass::kData, view(kFrame));
  obs.on_send(0, 1, PacketClass::kData, view(kFrame));
  EXPECT_TRUE(obs.ok());

  obs.on_send(0, 1, PacketClass::kData, view(kFrame));  // 3rd exceeds d
  ASSERT_FALSE(obs.ok());
  EXPECT_EQ(obs.violations().front().invariant, 5);
}

TEST(Invariant5, TamperedSnackEarnsNoAllowance) {
  FakeNode server;
  InvariantObserver obs(strict_config({}));
  obs.attach(1, make_probe(server));

  deliver(obs, server, 1, PacketClass::kSnack, /*tampered=*/true);
  obs.on_send(0, 1, PacketClass::kData, view(kFrame));
  ASSERT_FALSE(obs.ok());
  EXPECT_EQ(obs.violations().front().invariant, 5);
}

TEST(ObserverLimits, UnattachedNodesAreIgnored) {
  InvariantObserver obs(strict_config({}));
  // Node 7 was never attached (e.g. an attacker node): nothing to probe.
  obs.before_deliver(0, 0, 7, PacketClass::kData, view(kFrame), true);
  obs.after_deliver(0, 0, 7, PacketClass::kData, view(kFrame), true);
  obs.on_send(0, 7, PacketClass::kData, view(kFrame));
  obs.on_reboot(0, 7);
  obs.finalize(1);
  EXPECT_TRUE(obs.ok());
}

TEST(ObserverLimits, ViolationRecordingIsCapped) {
  FakeNode server;
  auto cfg = strict_config({});
  cfg.max_violations = 2;
  InvariantObserver obs(std::move(cfg));
  obs.attach(1, make_probe(server));
  for (int i = 0; i < 10; ++i) {
    obs.on_send(0, 1, PacketClass::kData, view(kFrame));
  }
  EXPECT_EQ(obs.violations().size(), 2u);
}

TEST(ViolationFormatting, NamesAndToString) {
  EXPECT_STREQ(sim::invariant_name(1), "image-integrity");
  EXPECT_STREQ(sim::invariant_name(2), "immediate-auth");
  EXPECT_STREQ(sim::invariant_name(3), "monotone-progress");
  EXPECT_STREQ(sim::invariant_name(4), "tamper-rejection");
  EXPECT_STREQ(sim::invariant_name(5), "greedy-bound");

  sim::InvariantViolation v{4, 3, 2 * sim::kSecond, "details here"};
  const std::string s = v.to_string();
  EXPECT_NE(s.find("tamper-rejection"), std::string::npos);
  EXPECT_NE(s.find("node 3"), std::string::npos);
  EXPECT_NE(s.find("details here"), std::string::npos);
}

}  // namespace
}  // namespace lrs
