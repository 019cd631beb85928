// DissemNode state-machine tests against a scripted fake environment —
// no simulator, fully deterministic: Trickle advertising and suppression,
// RX entry and SNACK emission, TX service bursts, signature bootstrap and
// rebroadcast, denial-of-receipt budgets, lockstep hold-back and its
// anti-stall deadline, and hostile-input handling. RX-side scenarios run
// twice — timers re-armed by cancel + schedule, then moved in place — and
// must broadcast identical frames at identical times.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

#include "core/experiment.h"
#include "core/lr_image.h"
#include "crypto/wots.h"
#include "proto/deluge.h"
#include "proto/engine.h"
#include "proto/packet.h"

namespace lrs {
namespace {

using proto::Advertisement;
using proto::CommonParams;
using proto::DataPacket;
using proto::DissemNode;
using proto::EngineConfig;
using proto::NodeState;
using proto::Snack;
using sim::PacketClass;
using sim::SimTime;

/// Env double: timers run on manual advance; broadcasts are captured.
/// With `moves_timers` it also implements reschedule() (erase + insert
/// under a fresh seq, token and closure kept); without it reschedule()
/// keeps the Env default, so callers fall back to cancel + schedule.
class FakeEnv final : public sim::Env {
 public:
  explicit FakeEnv(NodeId id, bool moves_timers = false)
      : id_(id), moves_timers_(moves_timers) {}

  SimTime now() const override { return now_; }
  NodeId id() const override { return id_; }

  void broadcast(PacketClass cls, Bytes frame) override {
    history.push_back({now_, cls, frame});
    sent.push_back({cls, std::move(frame)});
  }

  sim::EventToken schedule(SimTime delay, sim::EventFn fn) override {
    const auto token = sim::EventToken::from_bits(++token_bits_);
    timers_.insert({{now_ + delay, seq_++}, {std::move(fn), token}});
    scheduled.push_back({history.size(), token});
    return token;
  }

  bool reschedule(sim::EventToken token, SimTime delay) override {
    if (!moves_timers_ || !token || cancelled(token)) return false;
    for (auto it = timers_.begin(); it != timers_.end(); ++it) {
      if (it->second.second != token) continue;
      auto timer = std::move(it->second);
      timers_.erase(it);
      timers_.insert({{now_ + delay, seq_++}, std::move(timer)});
      moved.push_back(token);
      return true;
    }
    return false;  // already fired
  }

  std::size_t pending_tx() const override { return 0; }  // radio always free

  void cancel(sim::EventToken token) override {
    if (token) cancelled_.insert(token.bits());
  }
  bool cancelled(sim::EventToken token) const {
    return cancelled_.count(token.bits()) != 0;
  }

  Rng& rng() override { return rng_; }
  sim::NodeMetrics& metrics() override { return metrics_; }
  void notify_complete() override { completed = true; }

  /// Runs every timer due up to and including `t`.
  void advance_to(SimTime t) {
    while (!timers_.empty()) {
      auto it = timers_.begin();
      if (it->first.first > t) break;
      auto [fn, token] = it->second;
      now_ = it->first.first;
      timers_.erase(it);
      if (cancelled_.count(token.bits()) == 0) fn();
    }
    now_ = t;
  }
  void advance(SimTime dt) { advance_to(now_ + dt); }

  /// Frames of a class captured so far (and clears the log).
  std::vector<Bytes> take(PacketClass cls) {
    std::vector<Bytes> out;
    std::vector<std::pair<PacketClass, Bytes>> keep;
    for (auto& [c, f] : sent) {
      if (c == cls)
        out.push_back(std::move(f));
      else
        keep.push_back({c, std::move(f)});
    }
    sent = std::move(keep);
    return out;
  }
  std::size_t count(PacketClass cls) const {
    std::size_t n = 0;
    for (const auto& [c, f] : sent) n += c == cls;
    return n;
  }
  void clear() { sent.clear(); }

  struct Frame {
    SimTime at;
    PacketClass cls;
    Bytes bytes;
    friend bool operator==(const Frame&, const Frame&) = default;
  };

  std::vector<std::pair<PacketClass, Bytes>> sent;
  std::vector<Frame> history;  // every broadcast; take()/clear() keep it
  // Every timer armed, with the number of frames broadcast before it.
  std::vector<std::pair<std::size_t, sim::EventToken>> scheduled;
  std::vector<sim::EventToken> moved;  // successful reschedules
  bool completed = false;

 private:
  NodeId id_;
  bool moves_timers_;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t token_bits_ = 0;
  Rng rng_{42};
  sim::NodeMetrics metrics_;
  std::map<std::pair<SimTime, std::uint64_t>,
           std::pair<sim::EventFn, sim::EventToken>>
      timers_;
  std::set<std::uint64_t> cancelled_;
};

CommonParams small_params() {
  CommonParams p;
  p.payload_size = 32;
  p.k = 8;
  p.n = 12;
  p.k0 = 4;
  p.n0 = 8;
  p.puzzle_strength = 4;
  return p;
}

/// A complete LR-Seluge test rig: a receiver-under-test plus a prepared
/// source whose packets can be injected as frames.
struct Rig {
  explicit Rig(bool base_station = false, bool dor = true,
               bool moves_timers = false)
      : params(small_params()),
        image(core::make_test_image(1024, 3)),
        signer(view(Bytes{1}), 1),
        source(core::make_lr_source(params, image, signer)),
        env(base_station ? 0 : 5, moves_timers) {
    EngineConfig cfg;
    cfg.is_base_station = base_station;
    cfg.dor_mitigation = dor;
    cfg.dor_limit_factor = 2;
    cfg.timing.trickle.tau_low = 500 * sim::kMillisecond;
    cfg.timing.trickle.tau_high = 8 * sim::kSecond;
    timing = cfg.timing;
    node = std::make_unique<DissemNode>(
        env,
        base_station
            ? core::make_lr_source(params, image, signer2())
            : core::make_lr_receiver(params, signer.root_public_key()),
        cfg, params.cluster_key);
    node->on_start();
  }

  crypto::MultiKeySigner& signer2() {
    static crypto::MultiKeySigner s(view(Bytes{1}), 1);
    // Fresh instance per rig to avoid one-time key exhaustion.
    signer2_ = std::make_unique<crypto::MultiKeySigner>(view(Bytes{1}), 1);
    return *signer2_;
  }

  void deliver_adv(NodeId from, std::uint32_t pages, bool bootstrapped) {
    Advertisement a;
    a.version = params.version;
    a.sender = from;
    a.pages_complete = pages;
    a.bootstrapped = bootstrapped;
    node->on_receive(view(a.serialize(&mac)));
  }

  void deliver_signature() {
    node->on_receive(view(source->signature_frame().value()));
  }

  void deliver_data(std::uint32_t page, std::uint32_t index) {
    DataPacket d;
    d.version = params.version;
    d.page = page;
    d.index = index;
    d.payload = source->packet_payload(page, index).value();
    node->on_receive(view(d.serialize()));
  }

  void deliver_snack(NodeId from, NodeId target, std::uint32_t page,
                     const BitVec& bits) {
    Snack s;
    s.version = params.version;
    s.sender = from;
    s.target = target;
    s.page = page;
    s.requested = bits;
    node->on_receive(view(s.serialize(&mac)));
  }

  /// Feeds pages 0..`through` completely.
  void complete_pages_through(std::uint32_t through) {
    for (std::uint32_t p = 0; p <= through; ++p) {
      const auto count = source->packets_in_page(p);
      for (std::uint32_t j = 0; j < count; ++j) {
        if (node->scheme().pages_complete() > p) break;
        deliver_data(p, j);
      }
      ASSERT_EQ(node->scheme().pages_complete(), p + 1);
    }
  }

  CommonParams params;
  const crypto::HmacKey mac{view(params.cluster_key)};
  proto::EngineTiming timing;
  Bytes image;
  crypto::MultiKeySigner signer;
  std::unique_ptr<proto::SchemeState> source;
  std::unique_ptr<crypto::MultiKeySigner> signer2_;
  FakeEnv env;
  std::unique_ptr<DissemNode> node;
};

/// Runs a receiver scenario (which makes its own assertions) once with
/// timers re-armed by cancel + schedule and once with them moved in place;
/// both runs must broadcast the same frames at the same times.
template <typename Scenario>
void in_both_timer_modes(Scenario scenario) {
  std::vector<FakeEnv::Frame> frames[2];
  for (const bool moves : {false, true}) {
    SCOPED_TRACE(moves ? "timers moved in place"
                       : "timers cancelled and rescheduled");
    Rig rig(/*base_station=*/false, /*dor=*/true, moves);
    scenario(rig);
    frames[moves] = rig.env.history;
  }
  EXPECT_EQ(frames[0], frames[1]);
}

// ---------------------------------------------------------------------------
// Advertising
// ---------------------------------------------------------------------------

TEST(EngineAdvertising, BroadcastsWithinFirstTrickleInterval) {
  Rig rig;
  rig.env.advance(rig.timing.trickle.tau_low);
  EXPECT_GE(rig.env.count(PacketClass::kAdvertisement), 1u);
}

TEST(EngineAdvertising, SuppressedAfterRedundantConsistentAdvs) {
  Rig rig;
  // Two consistent neighbors advertise before our fire point: kappa = 2
  // suppresses our own broadcast for this interval.
  rig.deliver_adv(7, 0, false);
  rig.deliver_adv(8, 0, false);
  rig.env.advance(rig.timing.trickle.tau_low - 1);
  EXPECT_EQ(rig.env.count(PacketClass::kAdvertisement), 0u);
}

TEST(EngineAdvertising, InconsistentAdvResetsAndAdvertisesSoon) {
  Rig rig;
  rig.env.advance(30 * sim::kSecond);  // interval has grown
  rig.env.clear();
  rig.deliver_adv(7, 3, true);  // neighbor ahead: inconsistency
  rig.env.advance(rig.timing.trickle.tau_low);
  // Reset to tau_low means our own adv (or a signature request) goes out
  // within one short interval.
  EXPECT_GE(rig.env.sent.size(), 1u);
}

TEST(EngineAdvertising, AdvertisementCarriesProgress) {
  Rig rig;
  rig.deliver_signature();
  rig.complete_pages_through(0);
  rig.env.advance(rig.timing.trickle.tau_low * 2);
  const auto advs = rig.env.take(PacketClass::kAdvertisement);
  ASSERT_FALSE(advs.empty());
  const auto parsed = Advertisement::parse(view(advs.back()),
                                           &rig.mac);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->pages_complete, 1u);
  EXPECT_TRUE(parsed->bootstrapped);
}

// ---------------------------------------------------------------------------
// Signature bootstrap
// ---------------------------------------------------------------------------

TEST(EngineBootstrap, RequestsSignatureFromBootstrappedNeighbor) {
  Rig rig;
  rig.deliver_adv(7, 2, true);
  rig.env.advance(200 * sim::kMillisecond);
  const auto snacks = rig.env.take(PacketClass::kSnack);
  ASSERT_FALSE(snacks.empty());
  const auto s = Snack::parse(view(snacks[0]), &rig.mac);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->page, proto::kSignatureRequestPage);
  EXPECT_EQ(s->target, 7u);
}

TEST(EngineBootstrap, NoSignatureRequestWithoutBootstrappedNeighbor) {
  Rig rig;
  rig.deliver_adv(7, 0, false);
  rig.env.advance(200 * sim::kMillisecond);
  EXPECT_EQ(rig.env.count(PacketClass::kSnack), 0u);
}

TEST(EngineBootstrap, ServesSignatureOnRequestWithRateLimit) {
  Rig rig;
  rig.deliver_signature();
  rig.env.clear();
  rig.deliver_snack(9, rig.env.id(), proto::kSignatureRequestPage, BitVec{});
  EXPECT_EQ(rig.env.count(PacketClass::kSignature), 1u);
  // A second request right away is rate-limited.
  rig.deliver_snack(9, rig.env.id(), proto::kSignatureRequestPage, BitVec{});
  EXPECT_EQ(rig.env.count(PacketClass::kSignature), 1u);
  // After the minimum gap it is served again.
  rig.env.advance(rig.timing.signature_rebroadcast_min_gap + 1);
  rig.deliver_snack(9, rig.env.id(), proto::kSignatureRequestPage, BitVec{});
  EXPECT_EQ(rig.env.count(PacketClass::kSignature), 2u);
}

TEST(EngineBootstrap, SignatureEnablesRx) {
  Rig rig;
  rig.deliver_adv(7, 99, true);
  rig.deliver_signature();
  EXPECT_TRUE(rig.node->scheme().bootstrapped());
  rig.env.advance(rig.timing.snack_delay_max + 1);
  // Now in RX: a SNACK for page 0 goes to node 7.
  const auto snacks = rig.env.take(PacketClass::kSnack);
  bool found_page0 = false;
  for (const auto& f : snacks) {
    const auto s = Snack::parse(view(f), &rig.mac);
    if (s && s->page == 0 && s->target == 7) found_page0 = true;
  }
  EXPECT_TRUE(found_page0);
  EXPECT_EQ(rig.node->state(), NodeState::kRx);
}

// ---------------------------------------------------------------------------
// RX / retry
// ---------------------------------------------------------------------------

TEST(EngineRx, RetriesSnackWhileStalled) {
  in_both_timer_modes([](Rig& rig) {
    rig.deliver_adv(7, 99, true);
    rig.deliver_signature();
    rig.env.advance(5 * sim::kSecond);  // several retry periods, no data
    const auto snacks = rig.env.take(PacketClass::kSnack);
    std::size_t page0_requests = 0;
    for (const auto& f : snacks) {
      const auto s = Snack::parse(view(f), &rig.mac);
      if (s && s->page == 0) ++page0_requests;
    }
    EXPECT_GE(page0_requests, 3u);
  });
}

TEST(EngineRx, SnackBitsReflectReceivedPackets) {
  in_both_timer_modes([](Rig& rig) {
    rig.deliver_adv(7, 99, true);
    rig.deliver_signature();
    rig.deliver_data(0, 2);
    rig.deliver_data(0, 5);
    rig.env.advance(2 * sim::kSecond);
    const auto snacks = rig.env.take(PacketClass::kSnack);
    ASSERT_FALSE(snacks.empty());
    const auto s =
        Snack::parse(view(snacks.back()), &rig.mac);
    ASSERT_TRUE(s.has_value());
    EXPECT_FALSE(s->requested.get(2));
    EXPECT_FALSE(s->requested.get(5));
    EXPECT_TRUE(s->requested.get(0));
  });
}

TEST(EngineRx, CompletionNotifiesAndStopsRequesting) {
  in_both_timer_modes([](Rig& rig) {
    rig.deliver_adv(7, 99, true);
    rig.deliver_signature();
    const std::uint32_t pages = rig.source->num_pages();
    rig.complete_pages_through(pages - 1);
    EXPECT_TRUE(rig.env.completed);
    rig.env.clear();
    rig.env.advance(5 * sim::kSecond);
    EXPECT_EQ(rig.env.count(PacketClass::kSnack), 0u);
  });
}

// A silent server is asked once plus max_snack_retries more times, then
// dropped; with no other server the node falls back to MAINTAIN.
TEST(EngineRx, GivesUpOnSilentServerAfterMaxRetries) {
  in_both_timer_modes([](Rig& rig) {
    rig.deliver_adv(7, 99, true);
    rig.deliver_signature();
    rig.env.advance(20 * sim::kSecond);
    EXPECT_EQ(rig.env.count(PacketClass::kSnack),
              static_cast<std::size_t>(rig.timing.max_snack_retries + 1));
    EXPECT_EQ(rig.node->state(), NodeState::kMaintain);
  });
}

// Data for the page being collected replaces a pending retry with a fresh
// SNACK deadline, so a flowing (if useless) stream never uses up the
// retries — a retry moved instead of replaced would count each one.
TEST(EngineRx, FlowingStreamNeverExhaustsRetries) {
  in_both_timer_modes([](Rig& rig) {
    rig.deliver_adv(7, 99, true);
    rig.deliver_signature();
    for (int i = 0; i < 100; ++i) {
      rig.deliver_data(0, 1);  // a duplicate after the first: kStale
      rig.env.advance(200 * sim::kMillisecond);
    }
    EXPECT_GT(rig.env.count(PacketClass::kSnack),
              static_cast<std::size_t>(rig.timing.max_snack_retries + 1));
    EXPECT_EQ(rig.node->state(), NodeState::kRx);
  });
}

// rx_token_ carries either a pending send (arm_snack) or a pending retry
// (send_snack). Only the send may be moved in place; the retry is
// cancelled and replaced, so on_snack_retry never turns into a send.
TEST(EngineRx, PendingRetryIsReplacedNeverMoved) {
  Rig rig(/*base_station=*/false, /*dor=*/true, /*moves_timers=*/true);
  rig.deliver_adv(7, 99, true);
  rig.deliver_signature();
  while (rig.env.count(PacketClass::kSnack) == 0) {
    rig.env.advance(sim::kMillisecond);
  }
  // send_snack broadcasts, then arms the retry: the first timer armed
  // after the SNACK frame.
  std::size_t snack_frames = 0;
  while (rig.env.history[snack_frames].cls != PacketClass::kSnack) {
    ++snack_frames;
  }
  ++snack_frames;
  sim::EventToken retry;
  for (const auto& [frames_before, token] : rig.env.scheduled) {
    if (frames_before == snack_frames) {
      retry = token;
      break;
    }
  }
  ASSERT_TRUE(retry);
  ASSERT_FALSE(rig.env.cancelled(retry));
  const std::size_t moved_before = rig.env.moved.size();

  rig.deliver_data(0, 2);  // stream flowing: re-arm the SNACK
  EXPECT_TRUE(rig.env.cancelled(retry));
  EXPECT_EQ(rig.env.moved.size(), moved_before);

  rig.deliver_data(0, 5);  // now a pending send: moved in place
  ASSERT_EQ(rig.env.moved.size(), moved_before + 1);
  EXPECT_NE(rig.env.moved.back(), retry);
  EXPECT_FALSE(rig.env.cancelled(rig.env.moved.back()));
}

// ---------------------------------------------------------------------------
// TX / service
// ---------------------------------------------------------------------------

TEST(EngineTx, ServesGreedyDistanceNotFullRequest) {
  Rig rig(/*base_station=*/true);
  rig.env.clear();
  // One neighbor requests everything: q = n = 12, k' = 8 -> distance 8.
  rig.deliver_snack(3, rig.env.id(), 1, BitVec(rig.params.n, true));
  rig.env.advance(2 * sim::kSecond);
  EXPECT_EQ(rig.env.count(PacketClass::kData), 8u);
}

TEST(EngineTx, ConcurrentRequestsShareOneBurst) {
  Rig rig(/*base_station=*/true);
  rig.env.clear();
  rig.deliver_snack(3, rig.env.id(), 1, BitVec(rig.params.n, true));
  rig.deliver_snack(4, rig.env.id(), 1, BitVec(rig.params.n, true));
  rig.env.advance(2 * sim::kSecond);
  // Both need 8; the same 8 broadcasts serve them.
  EXPECT_EQ(rig.env.count(PacketClass::kData), 8u);
}

TEST(EngineTx, LowerPageServedBeforeHigher) {
  Rig rig(/*base_station=*/true);
  rig.env.clear();
  rig.deliver_snack(3, rig.env.id(), 2, BitVec(rig.params.n, true));
  rig.deliver_snack(4, rig.env.id(), 1, BitVec(rig.params.n, true));
  rig.env.advance(2 * sim::kSecond);
  const auto frames = rig.env.take(PacketClass::kData);
  ASSERT_EQ(frames.size(), 16u);
  // First 8 frames must be page 1 (Deluge priority), then page 2.
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto d = DataPacket::parse(view(frames[i]));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->page, i < 8 ? 1u : 2u) << i;
  }
}

TEST(EngineTx, RotationServesFreshPacketsAcrossBursts) {
  Rig rig(/*base_station=*/true);
  rig.env.clear();
  rig.deliver_snack(3, rig.env.id(), 1, BitVec(rig.params.n, true));
  rig.env.advance(2 * sim::kSecond);
  auto first = rig.env.take(PacketClass::kData);
  // The requester lost everything; it asks again.
  rig.deliver_snack(3, rig.env.id(), 1, BitVec(rig.params.n, true));
  rig.env.advance(2 * sim::kSecond);
  auto second = rig.env.take(PacketClass::kData);
  ASSERT_EQ(first.size(), 8u);
  ASSERT_EQ(second.size(), 8u);
  // Burst 2 continues the cyclic sweep: indices 8..11 then wrap 0..3.
  const auto d0 = DataPacket::parse(view(second[0]));
  ASSERT_TRUE(d0.has_value());
  EXPECT_EQ(d0->index, 8u);
}

TEST(EngineTx, IgnoresSnackForPageItLacks) {
  Rig rig;  // plain receiver: has nothing
  rig.deliver_signature();
  rig.env.clear();
  rig.deliver_snack(3, rig.env.id(), 1, BitVec(rig.params.n, true));
  rig.env.advance(1 * sim::kSecond);
  EXPECT_EQ(rig.env.count(PacketClass::kData), 0u);
}

TEST(EngineTx, SnacksForOthersDoNotTriggerService) {
  Rig rig(/*base_station=*/true);
  rig.env.clear();
  rig.deliver_snack(3, /*target=*/99, 1, BitVec(rig.params.n, true));
  rig.env.advance(1 * sim::kSecond);
  EXPECT_EQ(rig.env.count(PacketClass::kData), 0u);
}

// ---------------------------------------------------------------------------
// Denial-of-receipt budget
// ---------------------------------------------------------------------------

TEST(EngineDor, BudgetCapsPerNeighborService) {
  Rig rig(/*base_station=*/true);  // dor_limit_factor = 2 -> 16 packets
  rig.env.clear();
  for (int i = 0; i < 10; ++i) {
    rig.deliver_snack(3, rig.env.id(), 1, BitVec(rig.params.n, true));
    rig.env.advance(2 * sim::kSecond);
  }
  EXPECT_LE(rig.env.count(PacketClass::kData), 16u);
  EXPECT_GT(rig.env.metrics().snacks_ignored, 0u);
}

TEST(EngineDor, BudgetIsPerNeighbor) {
  Rig rig(/*base_station=*/true);
  rig.env.clear();
  for (NodeId v = 10; v < 14; ++v) {
    rig.deliver_snack(v, rig.env.id(), 1, BitVec(rig.params.n, true));
    rig.env.advance(2 * sim::kSecond);
  }
  // Four distinct neighbors each get served (shared bursts aside, far more
  // than one neighbor's cap would allow being denied).
  EXPECT_EQ(rig.env.metrics().snacks_ignored, 0u);
}

TEST(EngineDor, DisabledMitigationServesForever) {
  Rig rig(/*base_station=*/true, /*dor=*/false);
  rig.env.clear();
  for (int i = 0; i < 6; ++i) {
    rig.deliver_snack(3, rig.env.id(), 1, BitVec(rig.params.n, true));
    rig.env.advance(2 * sim::kSecond);
  }
  EXPECT_EQ(rig.env.count(PacketClass::kData), 6u * 8u);
  EXPECT_EQ(rig.env.metrics().snacks_ignored, 0u);
}

// ---------------------------------------------------------------------------
// Hostile input
// ---------------------------------------------------------------------------

TEST(EngineHostile, GarbageFramesIgnored) {
  Rig rig;
  rig.deliver_signature();
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    Bytes junk(rng.uniform(40));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform(256));
    rig.node->on_receive(view(junk));  // must not crash or change state
  }
  EXPECT_EQ(rig.node->scheme().pages_complete(), 0u);
}

TEST(EngineHostile, WrongVersionFramesIgnored) {
  Rig rig(/*base_station=*/true);
  rig.env.clear();
  Snack s;
  s.version = rig.params.version + 1;
  s.sender = 3;
  s.target = rig.env.id();
  s.page = 1;
  s.requested = BitVec(rig.params.n, true);
  rig.node->on_receive(view(s.serialize(&rig.mac)));
  rig.env.advance(1 * sim::kSecond);
  EXPECT_EQ(rig.env.count(PacketClass::kData), 0u);
}

TEST(EngineHostile, UnMacdSnackRejected) {
  Rig rig(/*base_station=*/true);
  rig.env.clear();
  Snack s;
  s.version = rig.params.version;
  s.sender = 3;
  s.target = rig.env.id();
  s.page = 1;
  s.requested = BitVec(rig.params.n, true);
  const crypto::HmacKey wrong_key(view(Bytes{0xde, 0xad}));
  rig.node->on_receive(view(s.serialize(&wrong_key)));
  rig.env.advance(1 * sim::kSecond);
  EXPECT_EQ(rig.env.count(PacketClass::kData), 0u);
  EXPECT_GE(rig.env.metrics().auth_failures, 1u);
}

TEST(EngineHostile, WrongSizeSnackBitmapIgnored) {
  Rig rig(/*base_station=*/true);
  rig.env.clear();
  rig.deliver_snack(3, rig.env.id(), 1, BitVec(5, true));  // wrong length
  rig.env.advance(1 * sim::kSecond);
  EXPECT_EQ(rig.env.count(PacketClass::kData), 0u);
}

// ---------------------------------------------------------------------------
// Lockstep hold-back and anti-stall deadline
// ---------------------------------------------------------------------------

TEST(EngineLockstep, VerifiedLowerPageDataDefersNextRequest) {
  in_both_timer_modes([](Rig& rig) {
    rig.deliver_adv(7, 99, true);
    rig.deliver_signature();
    rig.complete_pages_through(0);
    rig.env.clear();
    // Keep replaying authentic page-0 traffic (a straggler being served):
    // our page-1 SNACK must stay deferred well past the stream gap.
    for (int i = 0; i < 8; ++i) {
      rig.deliver_data(0, static_cast<std::uint32_t>(i % 4));
      rig.env.advance(100 * sim::kMillisecond);
    }
    EXPECT_EQ(rig.env.count(PacketClass::kSnack), 0u);
  });
}

TEST(EngineLockstep, DeadlineBreaksEndlessReplayStall) {
  in_both_timer_modes([](Rig& rig) {
    rig.deliver_adv(7, 99, true);
    rig.deliver_signature();
    rig.complete_pages_through(0);
    rig.env.clear();
    // An adversary replays one captured authentic packet forever; the
    // deferral ceiling must still let our request out.
    for (int i = 0; i < 200; ++i) {
      rig.deliver_data(0, 1);
      rig.env.advance(100 * sim::kMillisecond);
    }
    EXPECT_GE(rig.env.count(PacketClass::kSnack), 2u);
  });
}

TEST(EngineLockstep, ForgedLowerPageDataDoesNotDefer) {
  in_both_timer_modes([](Rig& rig) {
    rig.deliver_adv(7, 99, true);
    rig.deliver_signature();
    rig.complete_pages_through(0);
    rig.env.clear();
    // Forged page-0 packets (bad content) must not hold our request back:
    // SNACKs flow at the normal cadence.
    DataPacket junk;
    junk.version = rig.params.version;
    junk.page = 0;
    junk.index = 2;
    junk.payload = Bytes(rig.source->packet_payload(0, 2)->size(), 0xee);
    for (int i = 0; i < 20; ++i) {
      rig.node->on_receive(view(junk.serialize()));
      rig.env.advance(100 * sim::kMillisecond);
    }
    EXPECT_GE(rig.env.count(PacketClass::kSnack), 2u);
  });
}

}  // namespace
}  // namespace lrs
