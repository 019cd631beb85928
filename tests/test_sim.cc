// Simulator substrate: event queue ordering/cancellation, Trickle timer,
// topologies, channel models, and the CSMA radio (delivery, loss,
// collisions, half-duplex).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/channel.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "sim/trickle.h"
#include "util/rng.h"

namespace lrs::sim {
namespace {

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueueTest, TiesRunInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule_at(7, [&order, i] { order.push_back(i); });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelledEventSkipped) {
  EventQueue q;
  bool ran = false;
  auto token = q.schedule_at(5, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(token));
  while (q.run_next()) {
  }
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelReturnsFalseForNullAndStaleTokens) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventToken{}));
  auto token = q.schedule_at(5, [] {});
  EXPECT_TRUE(q.run_next());
  EXPECT_FALSE(q.cancel(token));  // already fired
  auto token2 = q.schedule_at(7, [] {});
  EXPECT_TRUE(q.cancel(token2));
  EXPECT_FALSE(q.cancel(token2));  // already cancelled
}

TEST(EventQueueTest, RunUntilStopsAtLimit) {
  EventQueue q;
  int count = 0;
  q.schedule_at(10, [&] { ++count; });
  q.schedule_at(20, [&] { ++count; });
  q.schedule_at(30, [&] { ++count; });
  EXPECT_EQ(q.run_until(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), 20);
}

TEST(EventQueueTest, SchedulingInPastThrows) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.run_next();
  EXPECT_THROW(q.schedule_at(5, [] {}), std::logic_error);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1, [&] {
    ++fired;
    q.schedule_at(q.now() + 1, [&] { ++fired; });
  });
  while (q.run_next()) {
  }
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, PeekSkipsCancelled) {
  EventQueue q;
  auto token = q.schedule_at(5, [] {});
  q.schedule_at(9, [] {});
  q.cancel(token);
  EXPECT_EQ(q.peek_time().value(), 9);
}

// pending() and empty() report exact live counts: scheduling increments,
// firing and cancelling decrement immediately — lazily discarded queue
// entries are never visible.
TEST(EventQueueTest, PendingAndEmptyAreExact) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);

  auto a = q.schedule_at(5, [] {});
  auto b = q.schedule_at(10, [] {});
  q.schedule_at(15, [] {});
  EXPECT_EQ(q.pending(), 3u);

  EXPECT_TRUE(q.cancel(b));
  EXPECT_EQ(q.pending(), 2u);  // exact despite the stale entry still queued
  EXPECT_FALSE(q.empty());

  EXPECT_TRUE(q.run_next());
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.cancel(a));  // fired already; count unchanged
  EXPECT_EQ(q.pending(), 1u);

  EXPECT_TRUE(q.run_next());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.run_next());
}

// The peek/cancel/run contract: an event cancelled after peek_time()
// reported it — but before run_next() — never fires; run_next() falls
// through to the next live event, and run_until() never resurrects it.
TEST(EventQueueTest, CancelBetweenPeekAndRunSuppressesTheEvent) {
  EventQueue q;
  std::vector<int> fired;
  auto first = q.schedule_at(5, [&] { fired.push_back(5); });
  q.schedule_at(9, [&] { fired.push_back(9); });

  EXPECT_EQ(q.peek_time().value(), 5);  // reports the soon-to-be-cancelled
  EXPECT_TRUE(q.cancel(first));
  EXPECT_EQ(q.peek_time().value(), 9);

  EXPECT_TRUE(q.run_next());  // skips the stale entry, fires 9
  EXPECT_EQ(fired, (std::vector<int>{9}));
  EXPECT_EQ(q.now(), 9);
  EXPECT_FALSE(q.run_next());
}

TEST(EventQueueTest, RunUntilWithInterleavedCancels) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventToken> tokens;
  for (int t = 1; t <= 8; ++t) {
    tokens.push_back(q.schedule_at(t * 10, [&fired, t] { fired.push_back(t); }));
  }
  // Event 2 cancels 3 (later, same run window), event 4 cancels 7 (beyond
  // the window), 1 is cancelled up front after a peek reported it.
  EXPECT_EQ(q.peek_time().value(), 10);
  q.cancel(tokens[0]);
  q.schedule_at(20, [&] { q.cancel(tokens[2]); });
  q.schedule_at(40, [&] { q.cancel(tokens[6]); });

  EXPECT_EQ(q.run_until(50), 5u);  // events 2, 4, 5 + the two cancellers
  EXPECT_EQ(fired, (std::vector<int>{2, 4, 5}));
  EXPECT_EQ(q.now(), 50);
  EXPECT_EQ(q.pending(), 2u);  // 6 and 8 remain; 7 is gone for good

  EXPECT_EQ(q.run_until(100), 2u);
  EXPECT_EQ(fired, (std::vector<int>{2, 4, 5, 6, 8}));
  // Queue drained: now() advances to the limit.
  EXPECT_EQ(q.now(), 100);
  EXPECT_TRUE(q.empty());
}

// Far-future events ride the overflow heap past the calendar's horizon and
// still fire in exact (time, seq) order after the wheel re-anchors.
TEST(EventQueueTest, FarFutureEventsPreserveOrderAcrossReanchor) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3600 * kSecond, [&] { order.push_back(4); });
  q.schedule_at(2 * kSecond, [&] { order.push_back(1); });
  q.schedule_at(3600 * kSecond, [&] { order.push_back(5); });  // same-time tie
  q.schedule_at(60 * kSecond, [&] { order.push_back(2); });
  q.schedule_at(600 * kSecond, [&] { order.push_back(3); });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(q.now(), 3600 * kSecond);
}

TEST(EventQueueTest, SlotReuseDoesNotConfuseOldTokens) {
  EventQueue q;
  int fired = 0;
  auto stale = q.schedule_at(1, [&] { ++fired; });
  EXPECT_TRUE(q.run_next());  // slot is recycled...
  auto fresh = q.schedule_at(2, [&] { ++fired; });
  EXPECT_FALSE(q.cancel(stale));  // ...but the old token cannot touch it
  EXPECT_TRUE(q.run_next());
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.cancel(fresh) == false);
}

// The wheel covers ~4.19 s of lookahead; everything later waits in the
// overflow heap for a re-anchor sweep. Schedule in an order hostile to
// both structures — far windows first, near fill-ins later, a tie deep in
// overflow, one event just past the first horizon — and demand exact
// global (time, seq) order across every sweep.
TEST(EventQueueTest, OverflowHorizonCrossingsFireInGlobalOrder) {
  EventQueue q;
  std::vector<int> order;
  struct Ev {
    SimTime at;
    int id;
  };
  const std::vector<Ev> evs = {
      {9 * kSecond, 6},  {18 * kSecond, 8},
      {1 * kSecond, 1},  {4 * kSecond + kSecond / 2, 4},
      {2 * kSecond, 2},  {9 * kSecond, 7},  // tie with id 6: seq decides
      {4 * kSecond, 3},  {5 * kSecond, 5},
  };
  for (const auto& e : evs) {
    q.schedule_at(e.at, [&order, id = e.id] { order.push_back(id); });
  }
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(q.now(), 18 * kSecond);
}

// Events scheduled from inside a running event can target times past the
// wheel's current horizon; they must land in overflow and still fire in
// time order once the wheel re-anchors onto them.
TEST(EventQueueTest, MidRunSchedulingPastTheHorizonSweepsIn) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(kSecond, [&] {
    order.push_back(1);
    q.schedule_at(q.now() + 10 * kSecond, [&] { order.push_back(3); });
    q.schedule_at(q.now() + 5 * kSecond, [&] { order.push_back(2); });
  });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 11 * kSecond);
}

// Recycling one slot through many schedule/cancel cycles bumps its
// generation each time; every historical token must stay stale — only the
// newest generation may cancel.
TEST(EventQueueTest, RecycledSlotGenerationsInvalidateEveryOldToken) {
  EventQueue q;
  std::vector<EventToken> history;
  for (int i = 0; i < 1000; ++i) {
    auto t = q.schedule_at(5, [] {});
    history.push_back(t);
    EXPECT_TRUE(q.cancel(t));
  }
  auto live = q.schedule_at(5, [] {});
  for (const auto& t : history) EXPECT_FALSE(q.cancel(t));
  EXPECT_TRUE(q.cancel(live));
  EXPECT_TRUE(q.empty());
}

// Tokens minted through from_bits with a mismatched generation (the
// wraparound shape: same slot, different gen) or an out-of-range slot are
// rejected without touching the live event.
TEST(EventQueueTest, ForgedTokensCannotTouchLiveEvents) {
  EventQueue q;
  bool ran = false;
  auto live = q.schedule_at(3, [&] { ran = true; });
  const auto forged_gen = EventToken::from_bits(live.bits() + 1);
  const auto forged_slot =
      EventToken::from_bits(live.bits() + (std::uint64_t{1} << 32));
  const auto huge_slot = EventToken::from_bits(~std::uint64_t{0});
  EXPECT_FALSE(q.cancel(forged_gen));
  EXPECT_FALSE(q.cancel(forged_slot));
  EXPECT_FALSE(q.cancel(huge_slot));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.run_next());
  EXPECT_TRUE(ran);
}

// EventFn relocates closures that only hold plain values by copying their
// bytes, and runs the real copy, move and destructor for owning ones.
TEST(EventFnTest, CopiesMovesAndDestroysTrivialAndOwningClosures) {
  int calls = 0;
  EventFn plain = [&calls, step = 2] { calls += step; };
  EventFn plain_copy = plain;
  EventFn plain_moved = std::move(plain);
  EXPECT_FALSE(plain);  // NOLINT(bugprone-use-after-move)
  plain_copy();
  plain_moved();
  EXPECT_EQ(calls, 4);

  auto owned = std::make_shared<int>(7);
  {
    EventFn owning = [owned, &calls] { calls += *owned; };
    EXPECT_EQ(owned.use_count(), 2);
    EventFn owning_copy = owning;
    EXPECT_EQ(owned.use_count(), 3);
    EventFn owning_moved = std::move(owning);
    EXPECT_FALSE(owning);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(owned.use_count(), 3);
    owning_moved();
    owning_copy = plain_copy;  // the owning closure is destroyed
    EXPECT_EQ(owned.use_count(), 2);
    owning_copy();
  }
  EXPECT_EQ(owned.use_count(), 1);
  EXPECT_EQ(calls, 4 + 7 + 2);
}

// A rescheduled event keeps its token and its closure, and takes a fresh
// seq exactly like cancel + schedule_at: moved to a time it shares with
// another event, it now fires after that one.
TEST(EventQueueTest, RescheduleKeepsTokenAndClosure) {
  EventQueue q;
  std::vector<int> order;
  const auto a = q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(30, [&] { order.push_back(2); });
  q.schedule_at(5 * kSecond, [&] { order.push_back(3); });
  EXPECT_TRUE(q.reschedule(a, 30));  // later, tying with 2: fires after it
  EXPECT_EQ(q.peek_time().value(), 30);
  EXPECT_TRUE(q.run_next());
  EXPECT_TRUE(q.run_next());
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_FALSE(q.reschedule(a, 40));  // fired: the token is stale now

  // Out past the wheel horizon and back, then earlier than everything.
  const auto b = q.schedule_at(40, [&] { order.push_back(4); });
  EXPECT_TRUE(q.reschedule(b, 60 * kSecond));
  EXPECT_TRUE(q.reschedule(b, 2 * kSecond));
  EXPECT_TRUE(q.reschedule(b, 35));
  EXPECT_EQ(q.pending(), 2u);
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{2, 1, 4, 3}));
  EXPECT_EQ(q.executed(), 4u);
}

TEST(EventQueueTest, RescheduleRefusesNullStaleAndPast) {
  EventQueue q;
  EXPECT_FALSE(q.reschedule(EventToken{}, 5));
  const auto t = q.schedule_at(5, [] {});
  EXPECT_TRUE(q.cancel(t));
  EXPECT_FALSE(q.reschedule(t, 7));
  const auto live = q.schedule_at(10, [] {});
  EXPECT_FALSE(q.reschedule(EventToken::from_bits(live.bits() + 1), 20));
  q.schedule_at(8, [] {});
  EXPECT_TRUE(q.run_next());  // now() == 8
  EXPECT_THROW(q.reschedule(live, 7), std::logic_error);
  EXPECT_EQ(q.peek_time().value(), 10);
}

// A cancel after any number of moves kills every queued copy: neither the
// deferred ref (later move) nor the superseded one (earlier move) fires.
TEST(EventQueueTest, CancelAfterRescheduleNeverFires) {
  EventQueue q;
  int fired = 0;
  const auto later = q.schedule_at(10, [&] { ++fired; });
  const auto earlier = q.schedule_at(50, [&] { ++fired; });
  EXPECT_TRUE(q.reschedule(later, 20));
  EXPECT_TRUE(q.reschedule(earlier, 15));
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_TRUE(q.cancel(later));
  EXPECT_TRUE(q.cancel(earlier));
  EXPECT_FALSE(q.cancel(later));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.run_next());
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.executed(), 0u);
}

// A firing event's own token is stale inside its callback, so it cannot
// move itself; it fires exactly once.
TEST(EventQueueTest, EventCannotRescheduleItselfFromItsCallback) {
  EventQueue q;
  EventToken self;
  int fired = 0;
  bool moved = true;
  self = q.schedule_at(5, [&] {
    ++fired;
    moved = q.reschedule(self, q.now() + 5);
  });
  while (q.run_next()) {
  }
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(moved);
}

// pending() counts events, not queued refs: moves in either direction
// leave it unchanged even while stale and deferred refs sit in the queue.
TEST(EventQueueTest, PendingStaysExactAcrossReschedules) {
  EventQueue q;
  std::vector<EventToken> tokens;
  for (int i = 1; i <= 4; ++i) {
    tokens.push_back(q.schedule_at(i * 100, [] {}));
  }
  for (int round = 0; round < 10; ++round) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const SimTime at = (round % 2 == 1 ? 5000 : 50) + 10 * i;
      EXPECT_TRUE(q.reschedule(tokens[i], at));
      EXPECT_EQ(q.pending(), 4u);
    }
  }
  EXPECT_TRUE(q.cancel(tokens[1]));
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_TRUE(q.run_next());
  EXPECT_EQ(q.now(), 5000);  // the last round moved everything later
  EXPECT_EQ(q.pending(), 2u);
  while (q.run_next()) {
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.executed(), 3u);
}

// Differential test: the calendar queue against a reference ordered set
// of (time, seq) keys. Every event, when it fires, checks that it is the
// reference's earliest key and removes it; some fired events schedule a
// child, so mid-run pushes are covered too. The random operation mix
// includes same-time ties, pushes into a bucket earlier than the one a
// peek loaded (the spill path), cancels between a peek and the run that
// would fire the peeked event, and far-future events that force several
// re-anchors. Reschedules move events later, earlier, to the same time,
// out past the horizon and back, and are tried on stale and null tokens;
// the reference models each as erase + insert under a fresh seq.
class QueueDifferential {
 public:
  explicit QueueDifferential(std::uint64_t seed) : rng_(seed) {}
  // Scheduled closures hold `this`.
  QueueDifferential(const QueueDifferential&) = delete;
  QueueDifferential& operator=(const QueueDifferential&) = delete;

  void run(int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFatalFailure(); ++i) {
      step();
      ASSERT_EQ(q_.pending(), ref_.size());
      ASSERT_EQ(q_.empty(), ref_.empty());
    }
    // Drain whatever is left, far-future events included.
    while (q_.run_next()) {
    }
    EXPECT_TRUE(ref_.empty());
    EXPECT_EQ(q_.executed(), fired_);
  }

  std::uint64_t fired() const { return fired_; }
  std::uint64_t moved() const { return moved_; }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;  // (time, seq)
  struct Live {
    EventToken token;
    std::size_t id;  // index into keys_
  };
  using Iter = std::map<Key, Live>::iterator;

  // Delays mixing every structure the queue has: ties, the current ~1 ms
  // bucket, nearby buckets, the whole ~4.2 s wheel and the overflow heap.
  SimTime draw_delay() {
    switch (rng_.uniform(6)) {
      case 0: return 0;
      case 1: return static_cast<SimTime>(rng_.uniform(1024));
      case 2: return static_cast<SimTime>(rng_.uniform(50 * kMillisecond));
      case 3: return static_cast<SimTime>(rng_.uniform(5 * kSecond));
      case 4: return static_cast<SimTime>(rng_.uniform(30 * kSecond));
      default: return static_cast<SimTime>(rng_.uniform(4)) * 1024;
    }
  }

  // An event is identified by its index in keys_, which tracks its
  // current key: a rescheduled event keeps the closure it was born with.
  void schedule(SimTime at) {
    const Key key{at, seq_++};
    const std::size_t id = keys_.size();
    keys_.push_back(key);
    ref_[key] = Live{q_.schedule_at(at, [this, id] { fire(id); }), id};
  }

  void retire(EventToken token) {
    if (stale_.size() < 64) {
      stale_.push_back(token);
    } else {
      stale_[rng_.uniform(stale_.size())] = token;
    }
  }

  void fire(std::size_t id) {
    const Key key = keys_[id];
    ASSERT_FALSE(ref_.empty());
    ASSERT_EQ(ref_.begin()->first, key) << "fired out of (time, seq) order";
    ASSERT_EQ(ref_.begin()->second.id, id);
    ASSERT_EQ(q_.now(), key.first);
    const EventToken self = ref_.begin()->second.token;
    // A firing event is already stale: it cannot move itself.
    ASSERT_FALSE(q_.reschedule(self, q_.now() + 1));
    retire(self);
    ref_.erase(ref_.begin());
    ++fired_;
    last_fired_ = key.first;
    if (rng_.uniform(4) == 0) schedule(q_.now() + draw_delay());
  }

  void cancel(Iter it) {
    ASSERT_TRUE(q_.cancel(it->second.token));
    retire(it->second.token);
    ref_.erase(it);
  }

  void reschedule(Iter it, SimTime at) {
    const Live live = it->second;
    ASSERT_TRUE(q_.reschedule(live.token, at));
    ++moved_;
    ref_.erase(it);
    const Key key{at, seq_++};
    keys_[live.id] = key;
    ref_[key] = live;
  }

  // Roughly uniform over live events: the first at or after a random time
  // up to the wheel span and a bit beyond.
  Iter pick_live() {
    const Key probe{q_.now() + static_cast<SimTime>(rng_.uniform(6 * kSecond)),
                    0};
    auto it = ref_.lower_bound(probe);
    if (it == ref_.end()) it = ref_.begin();
    return it;
  }

  void cancel_one() {
    if (!stale_.empty() && rng_.uniform(2) == 0) {
      ASSERT_FALSE(q_.cancel(stale_[rng_.uniform(stale_.size())]));
      return;
    }
    const auto it = pick_live();
    if (it != ref_.end()) cancel(it);
  }

  void reschedule_one() {
    const SimTime now = q_.now();
    switch (rng_.uniform(6)) {
      case 0:  // stale or null tokens change nothing
        ASSERT_FALSE(q_.reschedule(EventToken{}, now));
        if (!stale_.empty()) {
          ASSERT_FALSE(q_.reschedule(stale_[rng_.uniform(stale_.size())],
                                     now + draw_delay()));
        }
        return;
      case 1: {  // the peeked front, later: the loaded heap defers it
        ASSERT_EQ(q_.peek_time(), ref_earliest());
        if (!ref_.empty()) {
          const SimTime at = ref_.begin()->first.first;
          reschedule(ref_.begin(), at + draw_delay());
        }
        return;
      }
      default:
        break;
    }
    const auto it = pick_live();
    if (it == ref_.end()) return;
    const SimTime old = it->first.first;
    switch (rng_.uniform(4)) {
      case 0:  // later
        reschedule(it, old + draw_delay());
        break;
      case 1:  // earlier (or the same time)
        reschedule(it, now + static_cast<SimTime>(rng_.uniform(
                                 static_cast<std::uint64_t>(old - now) + 1)));
        break;
      case 2:  // the same time: only the seq moves
        reschedule(it, old);
        break;
      default: {  // out past the horizon, then back near now
        const auto moved = it->second.id;
        reschedule(it, now + 5 * kSecond +
                           static_cast<SimTime>(rng_.uniform(20 * kSecond)));
        if (rng_.uniform(2) == 0) {
          const SimTime back = now + draw_delay() % (2 * kSecond);
          reschedule(ref_.find(keys_[moved]), back);
        }
        break;
      }
    }
  }

  std::optional<SimTime> ref_earliest() const {
    if (ref_.empty()) return std::nullopt;
    return ref_.begin()->first.first;
  }

  void step() {
    const SimTime now = q_.now();
    switch (rng_.uniform(10)) {
      case 0:
      case 1:
        schedule(now + draw_delay());
        break;
      case 2:
        cancel_one();
        break;
      case 8:
      case 9:
        reschedule_one();
        break;
      case 3:
        ASSERT_EQ(q_.peek_time(), ref_earliest());
        break;
      case 4: {  // peek loads a bucket; push ahead of it (spill path)
        const auto t = q_.peek_time();
        ASSERT_EQ(t, ref_earliest());
        if (t && *t > now) {
          schedule(now + static_cast<SimTime>(rng_.uniform(*t - now)));
        }
        break;
      }
      case 5: {  // cancel the peeked event before running
        const auto t = q_.peek_time();
        ASSERT_EQ(t, ref_earliest());
        if (!t) break;
        cancel(ref_.begin());
        const bool expected = !ref_.empty();
        ASSERT_EQ(q_.run_next(), expected);
        break;
      }
      case 6: {  // run_next_before
        const SimTime limit = now + draw_delay();
        const auto t = ref_earliest();
        const bool should_run = t && *t <= limit;
        ASSERT_EQ(q_.run_next_before(limit), should_run);
        if (!should_run) {
          ASSERT_EQ(q_.now(), now);
        }
        break;
      }
      case 7: {  // run_until
        const SimTime limit = now + draw_delay();
        const std::uint64_t before = fired_;
        const std::uint64_t ran = q_.run_until(limit);
        ASSERT_EQ(ran, fired_ - before);
        if (!ref_.empty()) {
          ASSERT_GT(*ref_earliest(), limit);
          ASSERT_EQ(q_.now(), ran > 0 ? last_fired_ : now);
        } else {
          ASSERT_EQ(q_.now(), limit);  // drained: now() advances to limit
        }
        break;
      }
    }
  }

  EventQueue q_;
  Rng rng_;
  std::map<Key, Live> ref_;        // live events, ordered as they must fire
  std::vector<Key> keys_;          // current key of every event ever made
  std::vector<EventToken> stale_;  // fired or cancelled: cancel must refuse
  std::uint64_t seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t moved_ = 0;
  SimTime last_fired_ = 0;
};

TEST(EventQueueTest, DifferentialAgainstReferenceOrderedSet) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    QueueDifferential d(seed);
    d.run(20000);
    if (HasFatalFailure()) return;
    EXPECT_GT(d.fired(), 1000u);
    EXPECT_GT(d.moved(), 1000u);
  }
}

// ---------------------------------------------------------------------------
// Trickle
// ---------------------------------------------------------------------------

TEST(TrickleTest, FirePointInSecondHalfOfInterval) {
  Rng rng(1);
  Trickle t({1 * kSecond, 60 * kSecond, 2}, &rng);
  for (int i = 0; i < 50; ++i) {
    t.reset(0);
    EXPECT_GE(t.fire_time(), kSecond / 2);
    EXPECT_LT(t.fire_time(), kSecond);
  }
}

TEST(TrickleTest, IntervalDoublesUpToCap) {
  Rng rng(2);
  Trickle t({1 * kSecond, 8 * kSecond, 2}, &rng);
  t.reset(0);
  EXPECT_EQ(t.tau(), 1 * kSecond);
  SimTime now = 0;
  for (int i = 0; i < 6; ++i) {
    now = t.interval_end();
    t.next_interval(now);
  }
  EXPECT_EQ(t.tau(), 8 * kSecond);
}

TEST(TrickleTest, SuppressionAfterRedundantHears) {
  Rng rng(3);
  Trickle t({1 * kSecond, 60 * kSecond, 2}, &rng);
  t.reset(0);
  EXPECT_TRUE(t.should_broadcast());
  t.heard_consistent();
  EXPECT_TRUE(t.should_broadcast());
  t.heard_consistent();
  EXPECT_FALSE(t.should_broadcast());
  t.next_interval(t.interval_end());
  EXPECT_TRUE(t.should_broadcast());  // counter resets each interval
}

TEST(TrickleTest, ResetReturnsToTauLow) {
  Rng rng(4);
  Trickle t({1 * kSecond, 60 * kSecond, 2}, &rng);
  t.reset(0);
  t.next_interval(t.interval_end());
  t.next_interval(t.interval_end());
  EXPECT_GT(t.tau(), 1 * kSecond);
  t.reset(t.interval_end());
  EXPECT_EQ(t.tau(), 1 * kSecond);
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

TEST(TopologyTest, StarIsFullyConnected) {
  const auto topo = Topology::star(10);
  EXPECT_EQ(topo.size(), 11u);
  for (NodeId a = 0; a < 11; ++a) {
    EXPECT_EQ(topo.neighbors(a).size(), 10u);
    for (NodeId b = 0; b < 11; ++b) {
      if (a != b) {
        EXPECT_GT(topo.prr(a, b), 0.9);
      }
    }
  }
}

TEST(TopologyTest, GridShapeAndSpacing) {
  const auto topo = Topology::grid(3, 4, 10.0);
  EXPECT_EQ(topo.size(), 12u);
  EXPECT_DOUBLE_EQ(topo.distance(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(topo.distance(0, 4), 10.0);  // next row
  EXPECT_DOUBLE_EQ(topo.distance(0, 5), std::sqrt(200.0));
}

TEST(TopologyTest, PrrFallsWithDistance) {
  LinkModel link;
  EXPECT_DOUBLE_EQ(link.prr(0), link.max_prr);
  EXPECT_DOUBLE_EQ(link.prr(link.connected_radius), link.max_prr);
  const double mid =
      link.prr((link.connected_radius + link.outer_radius) / 2);
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, link.max_prr);
  EXPECT_DOUBLE_EQ(link.prr(link.outer_radius), 0.0);
  EXPECT_DOUBLE_EQ(link.prr(link.outer_radius + 100), 0.0);
}

TEST(TopologyTest, TightGridDenserThanMedium) {
  const auto tight = Topology::grid(15, 15, 10.0);
  const auto medium = Topology::grid(15, 15, 20.0);
  EXPECT_GT(tight.mean_degree(), medium.mean_degree());
  EXPECT_GT(medium.mean_degree(), 2.0);  // still connected
}

// ---------------------------------------------------------------------------
// Channel models
// ---------------------------------------------------------------------------

TEST(ChannelTest, UniformLossMatchesP) {
  auto model = make_uniform_loss(0.3);
  Rng rng(5);
  int delivered = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i)
    delivered += model->delivered(0, 1, 0, rng);
  EXPECT_NEAR(static_cast<double>(delivered) / trials, 0.7, 0.01);
}

TEST(ChannelTest, PerNodeLossIsPerReceiver) {
  auto model = make_per_node_loss({0.0, 0.9});
  Rng rng(6);
  int d0 = 0, d1 = 0;
  for (int i = 0; i < 20000; ++i) {
    d0 += model->delivered(1, 0, 0, rng);
    d1 += model->delivered(0, 1, 0, rng);
  }
  EXPECT_EQ(d0, 20000);
  EXPECT_NEAR(d1 / 20000.0, 0.1, 0.02);
}

TEST(ChannelTest, PerNodeLossRejectsOutOfRangeProbability) {
  EXPECT_THROW(make_per_node_loss({0.5, 1.2}), std::logic_error);
  EXPECT_THROW(make_per_node_loss({-0.1}), std::logic_error);
}

TEST(ChannelTest, PerNodeLossShortVectorFailsLoudly) {
  // A reception at a node past the end of the vector must throw with a
  // clear message, not index out of bounds.
  auto model = make_per_node_loss({0.0, 0.1});
  Rng rng(3);
  EXPECT_THROW(model->delivered(0, 2, 0, rng), std::logic_error);
  // The node-count overload rejects the short vector up front.
  EXPECT_THROW(make_per_node_loss({0.0, 0.1}, 4), std::logic_error);
  EXPECT_NO_THROW(make_per_node_loss({0.0, 0.1, 0.2}, 3));
}

TEST(ChannelTest, GilbertElliottValidatesParams) {
  GilbertElliottParams zero_dwell;
  zero_dwell.mean_good_dwell = 0;
  EXPECT_THROW(zero_dwell.validate(), std::logic_error);
  EXPECT_THROW(make_gilbert_elliott(zero_dwell, 2, 1), std::logic_error);

  GilbertElliottParams negative_dwell;
  negative_dwell.mean_bad_dwell = -1;
  EXPECT_THROW(negative_dwell.validate(), std::logic_error);

  GilbertElliottParams bad_prob;
  bad_prob.p_bad = 1.5;
  EXPECT_THROW(bad_prob.validate(), std::logic_error);

  EXPECT_NO_THROW(GilbertElliottParams{}.validate());
}

TEST(ChannelTest, GilbertElliottLossBetweenGoodAndBad) {
  GilbertElliottParams params;
  params.p_good = 0.05;
  params.p_bad = 0.6;
  auto model = make_gilbert_elliott(params, 2, 7);
  Rng rng(8);
  int delivered = 0;
  const int trials = 200000;
  SimTime t = 0;
  for (int i = 0; i < trials; ++i) {
    t += 5 * kMillisecond;
    delivered += model->delivered(0, 1, t, rng);
  }
  const double loss = 1.0 - static_cast<double>(delivered) / trials;
  EXPECT_GT(loss, params.p_good);
  EXPECT_LT(loss, params.p_bad);
}

TEST(ChannelTest, GilbertElliottIsBursty) {
  // Consecutive drops should correlate more than i.i.d. loss of equal mean.
  GilbertElliottParams params;
  params.p_good = 0.02;
  params.p_bad = 0.9;
  auto model = make_gilbert_elliott(params, 1, 9);
  Rng rng(10);
  std::vector<bool> dropped;
  SimTime t = 0;
  for (int i = 0; i < 100000; ++i) {
    t += 2 * kMillisecond;
    dropped.push_back(!model->delivered(0, 0, t, rng));
  }
  double p = 0, pp = 0;
  int pairs = 0;
  for (std::size_t i = 0; i + 1 < dropped.size(); ++i) {
    p += dropped[i];
    if (dropped[i]) {
      pp += dropped[i + 1];
      ++pairs;
    }
  }
  p /= static_cast<double>(dropped.size());
  const double cond = pp / std::max(1, pairs);
  EXPECT_GT(cond, p * 1.5);  // burstiness: P(drop | drop) >> P(drop)
}

// ---------------------------------------------------------------------------
// Simulator radio
// ---------------------------------------------------------------------------

/// Test node: broadcasts scripted frames, records receptions.
class ProbeNode final : public Node {
 public:
  explicit ProbeNode(Env& env) : Node(env) {}

  void on_start() override {}
  void on_receive(ByteView frame) override {
    received.emplace_back(frame.begin(), frame.end());
    rx_times.push_back(env().now());
  }

  void send_at(SimTime at, Bytes frame) {
    env().schedule(at - env().now(), [this, f = std::move(frame)]() mutable {
      env().broadcast(PacketClass::kData, std::move(f));
    });
  }

  Env& environment() { return env(); }

  std::vector<Bytes> received;
  std::vector<SimTime> rx_times;
};

TEST(SimulatorTest, BroadcastReachesAllNeighbors) {
  Simulator sim(Topology::star(3), make_perfect_channel(), RadioParams{}, 1);
  auto& a = sim.add_node<ProbeNode>();
  auto& b = sim.add_node<ProbeNode>();
  auto& c = sim.add_node<ProbeNode>();
  auto& d = sim.add_node<ProbeNode>();
  sim.run(0);  // deliver on_start
  a.send_at(sim.now() + 1, Bytes{42});
  sim.run(1 * kSecond);
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(c.received.size(), 1u);
  EXPECT_EQ(d.received.size(), 1u);
  EXPECT_EQ(b.received[0], Bytes{42});
  EXPECT_EQ(sim.metrics().node(0).sent[0], 1u);
  EXPECT_EQ(sim.metrics().node(1).received[0], 1u);
}

TEST(SimulatorTest, AirtimeDelaysDelivery) {
  RadioParams radio;
  Simulator sim(Topology::star(1), make_perfect_channel(), radio, 2);
  auto& a = sim.add_node<ProbeNode>();
  auto& b = sim.add_node<ProbeNode>();
  sim.run(0);
  a.send_at(sim.now() + 1, Bytes(85, 0));  // 100 bytes with PHY overhead
  sim.run(1 * kSecond);
  ASSERT_EQ(b.received.size(), 1u);
  // 100 bytes at 250 kbps = 3.2 ms of airtime (plus backoff).
  EXPECT_GE(b.rx_times[0], 3200 * kMicrosecond);
  EXPECT_LT(b.rx_times[0], 20 * kMillisecond);
}

TEST(SimulatorTest, UniformLossDropsFraction) {
  Simulator sim(Topology::star(1), make_uniform_loss(0.5), RadioParams{}, 3);
  auto& a = sim.add_node<ProbeNode>();
  auto& b = sim.add_node<ProbeNode>();
  sim.run(0);
  const int sends = 400;
  for (int i = 0; i < sends; ++i) {
    a.send_at(sim.now() + 1 + i * 10 * kMillisecond, Bytes{1});
  }
  sim.run(100 * kSecond);
  EXPECT_GT(b.received.size(), 120u);
  EXPECT_LT(b.received.size(), 280u);
}

TEST(SimulatorTest, OutOfRangeNodesDoNotHearEachOther) {
  // Two nodes 1000 apart with default link model (outer radius 45).
  auto topo = Topology::grid(1, 2, 1000.0);
  Simulator sim(std::move(topo), make_perfect_channel(), RadioParams{}, 4);
  auto& a = sim.add_node<ProbeNode>();
  auto& b = sim.add_node<ProbeNode>();
  sim.run(0);
  a.send_at(sim.now() + 1, Bytes{1});
  sim.run(1 * kSecond);
  EXPECT_TRUE(b.received.empty());
}

LinkModel perfect_link() {
  LinkModel link;
  link.max_prr = 1.0;  // no stochastic PRR loss in deterministic tests
  return link;
}

TEST(SimulatorTest, CarrierSenseDefersSecondSender) {
  // b wants to send while a's long frame is in the air: CSMA must defer b,
  // and both frames reach c intact.
  Simulator sim(Topology::star(2, perfect_link()), make_perfect_channel(),
                RadioParams{}, 5);
  auto& a = sim.add_node<ProbeNode>();
  auto& b = sim.add_node<ProbeNode>();
  auto& c = sim.add_node<ProbeNode>();
  sim.run(0);
  a.send_at(sim.now() + 1, Bytes(500, 1));  // ~16 ms of airtime
  b.send_at(sim.now() + 8 * kMillisecond, Bytes{2});
  sim.run(1 * kSecond);
  ASSERT_EQ(c.received.size(), 2u);
  EXPECT_EQ(c.received[0].size(), 500u);
  EXPECT_EQ(c.received[1], Bytes{2});
  EXPECT_EQ(sim.collisions(), 0u);
}

TEST(SimulatorTest, HiddenTerminalCollisionDestroysBothFrames) {
  // Line topology a — c — b where a and b cannot hear each other: carrier
  // sensing cannot prevent their frames overlapping at c, so both are lost
  // and the collision counter records it.
  LinkModel link;
  link.max_prr = 1.0;
  link.connected_radius = 45.0;
  link.outer_radius = 46.0;  // sharp cutoff: 40 connected, 80 silent
  RadioParams radio;
  radio.backoff_initial = 0;
  radio.backoff_window = 1;  // ~deterministic start
  Simulator sim(Topology::grid(1, 3, 40.0, link), make_perfect_channel(),
                radio, 5);
  auto& a = sim.add_node<ProbeNode>();
  auto& c = sim.add_node<ProbeNode>();  // middle node (id 1)
  auto& b = sim.add_node<ProbeNode>();
  sim.run(0);
  a.send_at(sim.now() + 1, Bytes(100, 1));
  b.send_at(sim.now() + 1, Bytes(100, 2));
  sim.run(1 * kSecond);
  EXPECT_TRUE(c.received.empty());
  EXPECT_GT(sim.collisions(), 0u);
}

TEST(SimulatorTest, CompletionTimeRecordedOnce) {
  Simulator sim(Topology::star(1), make_perfect_channel(), RadioParams{}, 6);
  auto& a = sim.add_node<ProbeNode>();
  sim.add_node<ProbeNode>();
  sim.run(0);
  a.environment().notify_complete();
  const SimTime first = sim.metrics().node(0).completion_time;
  a.environment().notify_complete();
  EXPECT_EQ(sim.metrics().node(0).completion_time, first);
  EXPECT_EQ(sim.metrics().completed_count(1), 1u);
}

TEST(SimulatorTest, RunStopsWhenPredicateHolds) {
  Simulator sim(Topology::star(1), make_perfect_channel(), RadioParams{}, 7);
  auto& a = sim.add_node<ProbeNode>();
  auto& b = sim.add_node<ProbeNode>();
  sim.run(0);
  for (int i = 0; i < 100; ++i) a.send_at(sim.now() + 1 + i * kMillisecond, Bytes{1});
  const bool stopped = sim.run(
      10 * kSecond, [&] { return b.received.size() >= 3; });
  EXPECT_TRUE(stopped);
  EXPECT_LT(b.received.size(), 100u);
}

TEST(MetricsTest, AggregatesAcrossNodesAndClasses) {
  Metrics m(3);
  m.record_send(0, PacketClass::kData, 100);
  m.record_send(1, PacketClass::kData, 50);
  m.record_send(1, PacketClass::kSnack, 20);
  EXPECT_EQ(m.total_sent(PacketClass::kData), 2u);
  EXPECT_EQ(m.total_sent(PacketClass::kSnack), 1u);
  EXPECT_EQ(m.total_sent_bytes(), 170u);
  EXPECT_EQ(m.total_sent_bytes(PacketClass::kData), 150u);
}

}  // namespace
}  // namespace lrs::sim

// Appended: radio-energy accounting (tx/rx airtime).
namespace lrs::sim {
namespace {

class EnergyProbe final : public Node {
 public:
  explicit EnergyProbe(Env& env) : Node(env) {}
  void on_start() override {}
  void on_receive(ByteView) override {}
  void send(Bytes frame) {
    env().schedule(1, [this, f = std::move(frame)]() mutable {
      env().broadcast(PacketClass::kData, std::move(f));
    });
  }
};

TEST(EnergyAccounting, AirtimeChargedToSenderAndReceivers) {
  RadioParams radio;
  Simulator sim(Topology::star(2, LinkModel::perfect()),
                make_perfect_channel(), radio, 1);
  auto& a = sim.add_node<EnergyProbe>();
  sim.add_node<EnergyProbe>();
  sim.add_node<EnergyProbe>();
  sim.run(0);
  a.send(Bytes(100, 1));
  sim.run(1 * kSecond);

  const auto expected =
      static_cast<std::uint64_t>(radio.airtime(100));
  EXPECT_EQ(sim.metrics().node(0).tx_airtime_us, expected);
  EXPECT_EQ(sim.metrics().node(0).rx_airtime_us, 0u);
  EXPECT_EQ(sim.metrics().node(1).rx_airtime_us, expected);
  EXPECT_EQ(sim.metrics().node(2).rx_airtime_us, expected);
}

TEST(EnergyAccounting, LossyReceptionStillCostsEnergy) {
  // The radio pays for the whole frame even when the app-layer loss model
  // discards it afterwards.
  RadioParams radio;
  Simulator sim(Topology::star(1, LinkModel::perfect()),
                make_uniform_loss(1.0), radio, 2);
  auto& a = sim.add_node<EnergyProbe>();
  sim.add_node<EnergyProbe>();
  sim.run(0);
  a.send(Bytes(50, 1));
  sim.run(1 * kSecond);
  EXPECT_EQ(sim.metrics().node(1).received[0], 0u);  // dropped
  EXPECT_GT(sim.metrics().node(1).rx_airtime_us, 0u);  // but paid for
}

}  // namespace
}  // namespace lrs::sim
