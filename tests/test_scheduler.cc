// TX schedulers: the union scheduler (Deluge/Seluge) and LR-Seluge's greedy
// round-robin tracking table, including a worked example mirroring the
// paper's Table I walk-through (first pick = most popular with lowest
// index; next picks sweep cyclically right; entries leave as soon as their
// distance reaches zero, before their full request is served).
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "core/greedy_scheduler.h"
#include "proto/scheduler.h"
#include "util/rng.h"

namespace lrs {
namespace {

using core::GreedyRoundRobinScheduler;
using proto::make_union_scheduler;

BitVec bits(std::size_t n, std::initializer_list<std::size_t> set) {
  BitVec v(n);
  for (auto i : set) v.set(i);
  return v;
}

// ---------------------------------------------------------------------------
// UnionScheduler
// ---------------------------------------------------------------------------

TEST(UnionScheduler, ServesUnionInIndexOrder) {
  auto s = make_union_scheduler(6);
  s->on_snack(1, bits(6, {0, 3}), 2);
  s->on_snack(2, bits(6, {3, 5}), 2);
  EXPECT_EQ(s->next_packet().value(), 0u);
  EXPECT_EQ(s->next_packet().value(), 3u);
  EXPECT_EQ(s->next_packet().value(), 5u);
  EXPECT_FALSE(s->next_packet().has_value());
  EXPECT_TRUE(s->idle());
}

TEST(UnionScheduler, SendsEveryRequestedPacketRegardlessOfDistance) {
  // The union scheduler must ignore `needed`: ARQ receivers need exactly
  // the packets they asked for.
  auto s = make_union_scheduler(4);
  s->on_snack(1, bits(4, {0, 1, 2, 3}), 1);
  std::size_t count = 0;
  while (s->next_packet()) ++count;
  EXPECT_EQ(count, 4u);
}

TEST(UnionScheduler, LaterSnackMergesMidService) {
  auto s = make_union_scheduler(4);
  s->on_snack(1, bits(4, {1}), 1);
  EXPECT_EQ(s->next_packet().value(), 1u);
  s->on_snack(2, bits(4, {0, 2}), 2);
  EXPECT_EQ(s->next_packet().value(), 2u);  // cyclic from last+1
  EXPECT_EQ(s->next_packet().value(), 0u);
  EXPECT_TRUE(s->idle());
}

TEST(UnionScheduler, OverheardDataClearsPending) {
  auto s = make_union_scheduler(4);
  s->on_snack(1, bits(4, {1, 2}), 2);
  s->on_overheard_data(2);
  EXPECT_EQ(s->next_packet().value(), 1u);
  EXPECT_FALSE(s->next_packet().has_value());
}

// ---------------------------------------------------------------------------
// GreedyRoundRobinScheduler — paper Table I style walk-through
// ---------------------------------------------------------------------------

TEST(GreedyScheduler, TableIWalkThrough) {
  // n = 4, k' = 3. Distances d = q + k' - n = q - 1.
  //   v1 wants {P2, P4}        -> d = 1
  //   v2 wants {P1, P2, P4}    -> d = 2
  //   v3 wants {P1, P2}        -> d = 1
  // Popularity: P1:2  P2:3  P3:0  P4:2.
  GreedyRoundRobinScheduler s(4);
  s.on_snack(1, bits(4, {1, 3}), 1);
  s.on_snack(2, bits(4, {0, 1, 3}), 2);
  s.on_snack(3, bits(4, {0, 1}), 1);
  EXPECT_EQ(s.popularity(1), 3u);

  // Highest popularity: P2 (0-based index 1).
  EXPECT_EQ(s.next_packet().value(), 1u);
  // v1 and v3 reach distance 0 and leave although P4/P1 were never sent.
  EXPECT_EQ(s.tracked(), 1u);
  EXPECT_EQ(s.distance(2), 1u);

  // First packet to the right of P2 with max popularity: P4.
  EXPECT_EQ(s.next_packet().value(), 3u);
  EXPECT_TRUE(s.idle());
  EXPECT_FALSE(s.next_packet().has_value());

  // Total: 2 transmissions versus 3 for the union {P1, P2, P4}.
}

TEST(GreedyScheduler, ThreeTransmissionSequenceSweepsRight) {
  // v1 wants everything (d = 3), v2 wants {P2, P3} (d = 1).
  GreedyRoundRobinScheduler s(4);
  s.on_snack(1, bits(4, {0, 1, 2, 3}), 3);
  s.on_snack(2, bits(4, {1, 2}), 1);
  EXPECT_EQ(s.next_packet().value(), 1u);  // P2: pop 2, lowest index
  EXPECT_EQ(s.next_packet().value(), 2u);  // sweep right
  EXPECT_EQ(s.next_packet().value(), 3u);
  EXPECT_TRUE(s.idle());                   // v1's d hit 0; P1 never sent
}

TEST(GreedyScheduler, FirstPickPrefersLowestIndexOnTies) {
  GreedyRoundRobinScheduler s(5);
  s.on_snack(1, bits(5, {2, 4}), 2);
  EXPECT_EQ(s.next_packet().value(), 2u);
}

TEST(GreedyScheduler, WrapsAroundCyclically) {
  GreedyRoundRobinScheduler s(4);
  s.on_snack(1, bits(4, {0, 3}), 2);
  EXPECT_EQ(s.next_packet().value(), 0u);
  EXPECT_EQ(s.next_packet().value(), 3u);
}

TEST(GreedyScheduler, StopsExactlyAtDistance) {
  // One receiver missing everything of an n=6, k'=4 page: q=6, d=4.
  GreedyRoundRobinScheduler s(6);
  s.on_snack(1, bits(6, {0, 1, 2, 3, 4, 5}), 4);
  std::size_t sent = 0;
  while (s.next_packet()) ++sent;
  EXPECT_EQ(sent, 4u);  // not 6: the receiver can decode after k' = 4
}

TEST(GreedyScheduler, FreshSnackUpdatesExistingEntry) {
  GreedyRoundRobinScheduler s(4);
  s.on_snack(1, bits(4, {0, 1, 2, 3}), 3);
  EXPECT_EQ(s.next_packet().value(), 0u);
  // The receiver lost packet 0 and re-requests: entry is replaced.
  s.on_snack(1, bits(4, {0, 1, 2, 3}), 3);
  EXPECT_EQ(s.distance(1), 3u);
  std::size_t sent = 0;
  while (s.next_packet()) ++sent;
  EXPECT_EQ(sent, 3u);
}

TEST(GreedyScheduler, ZeroNeededOrEmptyRequestClearsEntry) {
  GreedyRoundRobinScheduler s(4);
  s.on_snack(1, bits(4, {0}), 1);
  s.on_snack(1, bits(4, {}), 1);
  EXPECT_TRUE(s.idle());
  s.on_snack(2, bits(4, {1}), 0);
  EXPECT_TRUE(s.idle());
}

TEST(GreedyScheduler, OverheardDataCountsTowardDistances) {
  GreedyRoundRobinScheduler s(4);
  s.on_snack(1, bits(4, {0, 1}), 1);
  s.on_overheard_data(1);  // another server sent P2
  EXPECT_TRUE(s.idle());   // v1's distance hit zero
}

TEST(GreedyScheduler, PopularityDrivesOrderAcrossManyNodes) {
  GreedyRoundRobinScheduler s(8);
  for (NodeId v = 0; v < 10; ++v) {
    // Everyone wants packet 6; only some want others.
    BitVec b(8);
    b.set(6);
    b.set(v % 8);
    s.on_snack(v, b, 1);
  }
  EXPECT_EQ(s.next_packet().value(), 6u);
  EXPECT_TRUE(s.idle());  // one packet satisfied every distance-1 neighbor
}

TEST(GreedyScheduler, BacklogReflectsWorstDistance) {
  GreedyRoundRobinScheduler s(6);
  EXPECT_EQ(s.backlog(), 0u);
  s.on_snack(1, bits(6, {0, 1, 2, 3}), 2);
  s.on_snack(2, bits(6, {0, 1, 2, 3, 4}), 3);
  EXPECT_EQ(s.backlog(), 3u);
}

TEST(GreedyScheduler, NeverExceedsUnionScheduler) {
  // Property: for random request patterns, greedy transmissions <= union.
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 8 + rng.uniform(8);
    const std::size_t kprime = n - 2 - rng.uniform(3);
    GreedyRoundRobinScheduler greedy(n);
    auto union_sched = make_union_scheduler(n);
    const std::size_t receivers = 1 + rng.uniform(6);
    for (NodeId v = 0; v < receivers; ++v) {
      BitVec b(n);
      for (std::size_t j = 0; j < n; ++j) b.set(j, rng.bernoulli(0.5));
      if (b.none()) b.set(0);
      const std::size_t q = b.count();
      const std::size_t d = q + kprime > n ? q + kprime - n : 1;
      greedy.on_snack(v, b, d);
      union_sched->on_snack(v, b, d);
    }
    std::size_t greedy_sent = 0, union_sent = 0;
    while (greedy.next_packet()) ++greedy_sent;
    while (union_sched->next_packet()) ++union_sent;
    EXPECT_LE(greedy_sent, union_sent) << "trial " << trial;
  }
}

/// Brute-force oracle with the paper's rules written the slow, obvious way:
/// popularity recounted over the whole table for every index of every pick.
class ReferenceGreedy {
 public:
  explicit ReferenceGreedy(std::size_t n) : n_(n) {}

  void on_snack(NodeId node, const BitVec& requested, std::size_t needed) {
    if (needed == 0 || requested.none()) {
      table_.erase(node);
      return;
    }
    table_[node] = {requested, needed};
  }

  std::size_t popularity(std::size_t index) const {
    std::size_t pop = 0;
    for (const auto& [id, e] : table_) pop += e.wanted.get(index) ? 1 : 0;
    return pop;
  }

  std::optional<std::uint32_t> next_packet() {
    if (table_.empty()) return std::nullopt;
    const std::size_t start = sent_any_ ? (last_ + 1) % n_ : 0;
    std::size_t best = n_, best_pop = 0;
    for (std::size_t step = 0; step < n_; ++step) {
      const std::size_t j = (start + step) % n_;
      if (popularity(j) > best_pop) {
        best_pop = popularity(j);
        best = j;
      }
    }
    if (best_pop == 0) {
      table_.clear();
      return std::nullopt;
    }
    account(best);
    sent_any_ = true;
    last_ = best;
    return static_cast<std::uint32_t>(best);
  }

  void on_overheard_data(std::uint32_t index) {
    if (index < n_) account(index);
  }

  void set_start(std::uint32_t index) {
    sent_any_ = true;
    last_ = (index + n_ - 1) % n_;
  }

  bool idle() const { return table_.empty(); }
  std::size_t tracked() const { return table_.size(); }
  std::size_t distance(NodeId node) const {
    auto it = table_.find(node);
    return it == table_.end() ? 0 : it->second.distance;
  }

 private:
  struct Entry {
    BitVec wanted;
    std::size_t distance;
  };

  void account(std::size_t index) {
    for (auto it = table_.begin(); it != table_.end();) {
      if (it->second.wanted.get(index)) {
        it->second.wanted.clear(index);
        if (it->second.distance > 0) --it->second.distance;
      }
      if (it->second.distance == 0 || it->second.wanted.none()) {
        it = table_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::size_t n_;
  bool sent_any_ = false;
  std::size_t last_ = 0;
  std::map<NodeId, Entry> table_;
};

TEST(GreedyScheduler, TallyMatchesBruteForceReferenceOnRandomSequences) {
  // Random interleavings of SNACKs (fresh, replacing, zero-needed and
  // empty), overheard data (in and out of range), set_start and picks must
  // produce the same picks, table and per-index popularity as recounting
  // the whole table for every index.
  Rng rng(0x7a11);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.uniform(48);
    const NodeId nodes = static_cast<NodeId>(1 + rng.uniform(12));
    GreedyRoundRobinScheduler fast(n);
    ReferenceGreedy ref(n);
    for (int op = 0; op < 150; ++op) {
      switch (rng.uniform(8)) {
        case 0:
        case 1:
        case 2: {
          const NodeId v = static_cast<NodeId>(rng.uniform(nodes));
          BitVec b(n);
          const double density = rng.uniform01();
          for (std::size_t j = 0; j < n; ++j) b.set(j, rng.bernoulli(density));
          const std::size_t needed = rng.uniform(n + 2);
          fast.on_snack(v, b, needed);
          ref.on_snack(v, b, needed);
          break;
        }
        case 3: {
          const auto index = static_cast<std::uint32_t>(rng.uniform(n + 2));
          fast.on_overheard_data(index);
          ref.on_overheard_data(index);
          break;
        }
        case 4: {
          const auto index = static_cast<std::uint32_t>(rng.uniform(n));
          fast.set_start(index);
          ref.set_start(index);
          break;
        }
        default:
          ASSERT_EQ(fast.next_packet(), ref.next_packet())
              << "trial " << trial << " op " << op;
      }
      ASSERT_EQ(fast.idle(), ref.idle());
      ASSERT_EQ(fast.tracked(), ref.tracked());
      for (NodeId v = 0; v < nodes; ++v) {
        ASSERT_EQ(fast.distance(v), ref.distance(v))
            << "trial " << trial << " op " << op << " node " << v;
      }
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(fast.popularity(static_cast<std::uint32_t>(j)),
                  ref.popularity(j))
            << "trial " << trial << " op " << op << " index " << j;
      }
    }
    // Drain: the remaining picks agree too.
    for (;;) {
      const auto pick = fast.next_packet();
      ASSERT_EQ(pick, ref.next_packet()) << "trial " << trial << " drain";
      if (!pick) break;
    }
  }
}

}  // namespace
}  // namespace lrs
