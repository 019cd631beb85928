// Allocation-count guards for the simulator hot path (ISSUE 6 satellite).
//
// The calendar queue's contract is that schedule / cancel / pop are
// allocation-free in steady state, and that a fresh queue allocates only
// O(log pending) times: events live in a recycled slab, closures are
// stored inline (EventFn), and every bucket list threads through one
// pooled node array, with one reusable heap for the bucket at the cursor.
// This file enforces that contract with a global operator-new hook:
//
//  - a synthetic self-rescheduling event loop must perform ZERO heap
//    allocations once warmed up, also while it moves a live event with
//    EventQueue::reschedule,
//  - a fresh queue filled across the whole wheel and drained must
//    allocate a few dozen times, not once per bucket it touches, and
//  - a full star-scenario experiment must stay under a per-event
//    allocation budget, so protocol-layer regressions (per-packet copies,
//    per-MAC key material, per-verify preimage buffers) show up as a test
//    failure rather than a silent throughput loss, and
//  - a warmed dissemination of the paper's one-hop cell (star20-paper) must
//    stay under a whole-trial allocation budget, set-up included.
//
// The hook counts every allocation in the process, so measurements are
// deltas around single-threaded regions only.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/experiment.h"
#include "erasure/code.h"
#include "sim/event_queue.h"
#include "sim/scenario/scenario.h"
#include "sim/stats/stats.h"
#include "sim/time.h"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? align : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

// Replaceable global allocation functions ([new.delete]); the nothrow and
// placement forms funnel through these.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lrs {
namespace {

// A self-rescheduling closure: fires, counts, and schedules its own copy
// `period` later. Small enough for EventFn's inline storage by
// construction (static_assert in EventFn enforces it).
struct PeriodicLoop {
  sim::EventQueue* q;
  std::uint64_t* fired;
  sim::SimTime period;

  void operator()() const {
    ++*fired;
    q->schedule_at(q->now() + period, *this);
  }
};

// Like PeriodicLoop, but additionally exercises the cancel path every
// firing: schedules a victim event and immediately cancels it, so slot
// acquire/release and stale-ref discard run inside the measured region.
struct CancellingLoop {
  sim::EventQueue* q;
  std::uint64_t* fired;
  sim::SimTime period;

  void operator()() const {
    ++*fired;
    std::uint64_t* count = fired;
    sim::EventToken victim = q->schedule_at(
        q->now() + 10 * sim::kMillisecond, [count] { ++*count; });
    ASSERT_TRUE(q->cancel(victim));
    q->schedule_at(q->now() + period, *this);
  }
};

// Like PeriodicLoop, but every firing also moves a long-lived victim 10 ms
// or 5 ms ahead (by the parity of the shared fire count). A move past its
// current key is deferred in place; a move before it pushes a new ref and
// leaves the old one stale. The victim never fires: it is the receiver's
// SNACK deadline being pushed back packet after packet.
struct ReschedulingLoop {
  sim::EventQueue* q;
  std::uint64_t* fired;
  sim::EventToken victim;
  sim::SimTime period;

  void operator()() const {
    ++*fired;
    const sim::SimTime ahead =
        (*fired % 2 == 1 ? 10 : 5) * sim::kMillisecond;
    ASSERT_TRUE(q->reschedule(victim, q->now() + ahead));
    q->schedule_at(q->now() + period, *this);
  }
};

TEST(AllocGuard, WarmedRescheduleLoopAllocatesNothing) {
  sim::EventQueue q;
  std::uint64_t fired = 0;
  std::uint64_t victim_fired = 0;
  constexpr sim::SimTime kWidth = 1 << 10;
  const sim::EventToken victim =
      q.schedule_at(kWidth, [&victim_fired] { ++victim_fired; });
  q.schedule_at(0, ReschedulingLoop{&q, &fired, victim, kWidth / 2});
  q.schedule_at(0, PeriodicLoop{&q, &fired, kWidth});

  for (int i = 0; i < 200000; ++i) ASSERT_TRUE(q.run_next());

  const std::uint64_t fired_before = fired;
  const std::uint64_t allocs_before = alloc_count();
  for (int i = 0; i < 200000; ++i) ASSERT_TRUE(q.run_next());
  const std::uint64_t allocs = alloc_count() - allocs_before;

  EXPECT_EQ(fired - fired_before, 200000u);
  EXPECT_EQ(victim_fired, 0u);
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_EQ(allocs, 0u) << "a warmed reschedule loop must not touch the "
                           "heap";
}

TEST(AllocGuard, SteadyStateEventLoopAllocatesNothing) {
  sim::EventQueue q;
  std::uint64_t fired = 0;

  // Periods sweep the wheel but divide the 2^10 us bucket width (or the
  // whole 2^22 us span), so the bucket-occupancy pattern is periodic with
  // the wheel wrap and every vector's high-water mark is reached during
  // warm-up. (Unaligned periods — say 0.7 ms — drift phase against the
  // buckets for the ~hour-long lcm of period and span, sporadically
  // setting new per-bucket high-water marks; that growth is amortized
  // zero but not zero in any finite window.) The half-width loop touches
  // every bucket twice per wrap; the span-length loop always lands past
  // the horizon, so the overflow heap and the re-anchor sweep both run.
  constexpr sim::SimTime kWidth = 1 << 10;
  constexpr sim::SimTime kSpan = kWidth << 12;
  q.schedule_at(0, PeriodicLoop{&q, &fired, kWidth / 2});
  q.schedule_at(0, PeriodicLoop{&q, &fired, kWidth});
  q.schedule_at(0, PeriodicLoop{&q, &fired, kSpan});
  q.schedule_at(0, CancellingLoop{&q, &fired, kWidth});

  // Warm-up: several full wheel wraps (~4 events/ms means 200k events
  // cover ~50 s of simulated time against the ~4.2 s span), so every
  // vector reaches its steady-state capacity.
  for (int i = 0; i < 200000; ++i) ASSERT_TRUE(q.run_next());

  const std::uint64_t fired_before = fired;
  const std::uint64_t allocs_before = alloc_count();
  for (int i = 0; i < 200000; ++i) ASSERT_TRUE(q.run_next());
  const std::uint64_t allocs = alloc_count() - allocs_before;

  EXPECT_EQ(fired - fired_before, 200000u);
  EXPECT_EQ(allocs, 0u) << "steady-state schedule/cancel/pop must not "
                           "touch the heap";
}

TEST(AllocGuard, OverflowBurstsReuseHeapCapacityOnceWarmed) {
  // A burst of far-future events lands entirely in the overflow heap
  // (every target is past the ~4.2 s wheel horizon), then the drain
  // re-anchors the wheel several times to sweep them in. The first burst
  // may grow the heap's backing store and the per-bucket vectors; a
  // second, identical burst-and-drain cycle must find all of that
  // capacity recycled and allocate nothing.
  constexpr sim::SimTime kWidth = 1 << 10;
  constexpr sim::SimTime kSpan = kWidth << 12;
  constexpr int kBurst = 4096;

  sim::EventQueue q;
  std::uint64_t fired = 0;
  const auto burst_and_drain = [&] {
    // Span-align the burst so both cycles hit the same bucket phase;
    // otherwise the second cycle can set a new per-bucket high-water
    // mark and legitimately allocate once.
    const sim::SimTime base = (q.now() / kSpan + 2) * kSpan;
    for (int i = 0; i < kBurst; ++i) {
      // Hostile order: stride the targets across three span windows so
      // consecutive pushes alternate between heap regions.
      const sim::SimTime at = base + (i % 3) * kSpan + i * kWidth / 4;
      q.schedule_at(at, [&fired] { ++fired; });
    }
    while (q.run_next()) {
    }
  };

  burst_and_drain();  // warm-up: establishes high-water capacity
  const std::uint64_t fired_before = fired;
  const std::uint64_t allocs_before = alloc_count();
  burst_and_drain();
  const std::uint64_t allocs = alloc_count() - allocs_before;

  EXPECT_EQ(fired - fired_before, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(allocs, 0u) << "a warmed overflow heap must absorb repeat "
                           "bursts without touching the allocator";
}

TEST(AllocGuard, FreshQueueAllocatesLogarithmicallyAcrossTheWheel) {
  // Every run of an experiment builds a fresh Simulator, so the cost of a
  // cold queue is paid per trial and per fleet cell. Scheduling ~100k
  // events spread over the whole ~4.2 s wheel touches all 4096 buckets;
  // the pooled design grows a handful of vectors by doubling (slots, list
  // cells, the loaded-bucket heap): 44 allocations measured. One container
  // per bucket would allocate at least once per bucket (24,649 measured).
  constexpr sim::SimTime kSpan = sim::SimTime{1} << 22;
  constexpr int kEvents = 100000;
  {
    // Resolve the process-wide metrics slots outside the measurement.
    sim::EventQueue warm;
    warm.schedule_at(0, [] {});
    ASSERT_TRUE(warm.run_next());
  }

  std::uint64_t fired = 0;
  const std::uint64_t allocs_before = alloc_count();
  {
    sim::EventQueue q;
    std::uint64_t x = 88172645463325252ull;  // xorshift64: any spread works
    for (int i = 0; i < kEvents; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      q.schedule_at(static_cast<sim::SimTime>(x % kSpan),
                    [&fired] { ++fired; });
    }
    while (q.run_next()) {
    }
  }
  const std::uint64_t allocs = alloc_count() - allocs_before;

  EXPECT_EQ(fired, static_cast<std::uint64_t>(kEvents));
  EXPECT_LE(allocs, 64u) << "a fresh queue must not allocate per bucket";
}

TEST(AllocGuard, StarScenarioStaysUnderPerEventBudget) {
  core::ExperimentConfig cfg;
  cfg.scheme = core::Scheme::kLrSeluge;
  cfg.params.payload_size = 32;
  cfg.params.k = 8;
  cfg.params.n = 12;
  cfg.params.k0 = 4;
  cfg.params.n0 = 8;
  cfg.params.puzzle_strength = 4;
  cfg.image_size = 4096;
  cfg.receivers = 20;
  cfg.seed = 1;
  cfg.timing.trickle.tau_low = 250 * sim::kMillisecond;
  cfg.timing.trickle.tau_high = 8 * sim::kSecond;

  // One-shot setup work (topology, hash tree, key schedules, node
  // construction) swamps a short run, so measure the MARGINAL rate: run
  // the same scenario at two image sizes and divide the allocation delta
  // by the event delta. Setup costs cancel; what remains is the
  // per-event steady-state rate.
  const std::uint64_t allocs0 = alloc_count();
  const core::ExperimentResult small = core::run_experiment(cfg);
  const std::uint64_t allocs_small = alloc_count() - allocs0;

  cfg.image_size = 16384;
  const std::uint64_t allocs1 = alloc_count();
  const core::ExperimentResult large = core::run_experiment(cfg);
  const std::uint64_t allocs_large = alloc_count() - allocs1;

  ASSERT_TRUE(small.all_complete);
  ASSERT_TRUE(large.all_complete);
  ASSERT_GT(large.events_executed, small.events_executed);
  const double per_event =
      static_cast<double>(allocs_large - allocs_small) /
      static_cast<double>(large.events_executed - small.events_executed);

  // Measured 2.1 marginal allocations/event for this scenario (6.8 before
  // decode wrote into each receiver's contiguous page buffer instead of
  // returning per-block vectors that page assembly concatenated again;
  // 11.4 before the queue's bucket lists were pooled and stored shares,
  // frame writers and Merkle preimages stopped allocating per packet). The
  // rate is star-specific: a one-hop star delivers every transmission to
  // all 20 receivers in a single end-of-TX event, and what remains is
  // mostly each receiver's frame copy. The 3.5/event ceiling still
  // catches a return of per-block decode output, per-event queue,
  // per-MAC key-prep, per-share or per-verify preimage allocations, each
  // of which adds at least one allocation to every one of those 20
  // deliveries.
  EXPECT_LT(per_event, 3.5)
      << "marginal allocations/event=" << per_event
      << " (allocs " << allocs_small << " -> " << allocs_large
      << ", events " << small.events_executed << " -> "
      << large.events_executed << ")";
}

TEST(AllocGuard, Star20PaperTrialStaysUnderWholeTrialBudget) {
  // The benchmark's star20-paper cell (20 receivers, k=32, n=48, 64-byte
  // packets, 10% loss), configured as the throughput benches run it: no
  // invariant probes, no trace export. Each trial is a whole
  // run_experiment: image, topology, signer, source preprocessing, node
  // construction and the dissemination itself.
  std::string error;
  const auto scenario = scenario::load_scenario_file(
      std::string(LRS_SCENARIO_DIR) + "/star20-paper.scn", &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  core::ExperimentConfig cfg = scenario::scenario_config(*scenario);
  cfg.check_invariants = false;
  cfg.trace = sim::TraceExportConfig{};

  // Warm-up: process-wide caches (codec instances, WOTS public keys,
  // metrics slots) and thread-local codec scratch reach their steady size.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    cfg.seed = seed;
    ASSERT_TRUE(core::run_experiment(cfg).all_complete);
  }

  constexpr std::uint64_t kFirstSeed = 100, kTrials = 20;
  std::uint64_t allocs = 0;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kTrials; ++seed) {
    cfg.seed = seed;
    const std::uint64_t before = alloc_count();
    const core::ExperimentResult r = core::run_experiment(cfg);
    allocs += alloc_count() - before;
    ASSERT_TRUE(r.all_complete) << "seed " << seed;
  }
  const double per_trial =
      static_cast<double>(allocs) / static_cast<double>(kTrials);

  // Measured 3.7k allocations per trial (6.3k before data frames parsed
  // as views, SNACK bitmaps kept their bits inline and data shares were
  // stored straight into their page; 6.8k before batch hashing kept its
  // scratch per thread; 28.0k before decode wrote into contiguous page
  // buffers and the serve cache became one buffer). What remains, roughly:
  // the packet_payload copy and the data frame per transmission (~0.7k
  // each), share buffers and share lists before they warm (~0.45k),
  // signature bootstrap (~0.45k), page buffers (~0.3k), node and cell
  // construction (~0.3k), SNACK frames (~0.25k), TX schedulers (~0.2k)
  // and the topology (~0.15k). The 5.5k ceiling is the measurement plus
  // about a half.
  EXPECT_LE(per_trial, 5500.0) << "allocations per warmed star20-paper "
                                  "trial, seeds 100-119";
}

TEST(AllocGuard, WarmCodecDecodeAllocatesNothing) {
  // code.h: a codec's per-call scratch is thread-local, so once warm a
  // decode touches no heap. Every kind at the paper geometry decodes a
  // fixed share set, parity first, with three data blocks missing.
  constexpr std::size_t k = 32, n = 48, len = 64;
  for (const auto kind :
       {erasure::CodecKind::kReedSolomon, erasure::CodecKind::kRlcGf2,
        erasure::CodecKind::kRlcGf256, erasure::CodecKind::kLt,
        erasure::CodecKind::kLrc}) {
    const auto code = erasure::make_code(kind, k, n, 8, 7);
    Bytes data(k * len), encoded(n * len), out(k * len);
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<std::uint8_t>(i * 131 + 7);
    code->encode(data, encoded);
    std::vector<erasure::Share> shares;
    for (std::size_t i = n; i-- > 0;) {
      if (i == 1 || i == 6 || i == 11) continue;
      shares.push_back({i, ByteView(encoded).subspan(i * len, len)});
    }
    ASSERT_TRUE(code->decode(shares, out)) << code->name();
    ASSERT_TRUE(code->decode(shares, out)) << code->name();

    const std::uint64_t allocs_before = alloc_count();
    const bool ok = code->decode(shares, out);
    const std::uint64_t allocs = alloc_count() - allocs_before;
    EXPECT_TRUE(ok) << code->name();
    EXPECT_EQ(out, data) << code->name();
    EXPECT_EQ(allocs, 0u) << "warm " << code->name() << " decode allocated";
  }
}

TEST(AllocGuard, EnabledMetricsRecordingAllocatesNothing) {
  // The metrics hot path (sim/stats): registry lookup may allocate ONCE
  // per name; recording through the returned references must never touch
  // the heap, enabled or not.
  auto& reg = lrs::stats::Registry::instance();
  lrs::stats::Counter& c = reg.counter("allocguard.counter");
  lrs::stats::Histogram& h = reg.histogram("allocguard.hist");
  lrs::stats::Timer& t = reg.timer("allocguard.timer");
  lrs::stats::set_enabled(true);
  c.add();  // warm-up: first records touch every atomic once
  h.record(1);
  { lrs::stats::TimerScope scope(t); }

  const std::uint64_t allocs_before = alloc_count();
  for (int i = 0; i < 100000; ++i) {
    c.add();
    h.record(static_cast<std::uint64_t>(i) * 2654435761u);
    lrs::stats::TimerScope scope(t);
  }
  const std::uint64_t allocs = alloc_count() - allocs_before;
  lrs::stats::set_enabled(false);

  EXPECT_EQ(c.value(), 100001u);
  EXPECT_EQ(allocs, 0u) << "enabled metrics recording must not allocate";
}

TEST(AllocGuard, MetricsEnabledEventLoopAllocatesNothing) {
  // The SteadyStateEventLoop contract must survive metrics collection: the
  // queue's counter/histogram instrumentation runs on every schedule /
  // cancel / pop when the registry is enabled, and must stay heap-free.
  lrs::stats::set_enabled(true);
  sim::EventQueue q;
  std::uint64_t fired = 0;
  constexpr sim::SimTime kWidth = 1 << 10;
  constexpr sim::SimTime kSpan = kWidth << 12;
  q.schedule_at(0, PeriodicLoop{&q, &fired, kWidth / 2});
  q.schedule_at(0, PeriodicLoop{&q, &fired, kWidth});
  q.schedule_at(0, PeriodicLoop{&q, &fired, kSpan});
  q.schedule_at(0, CancellingLoop{&q, &fired, kWidth});

  for (int i = 0; i < 200000; ++i) ASSERT_TRUE(q.run_next());

  const std::uint64_t fired_before = fired;
  const std::uint64_t allocs_before = alloc_count();
  for (int i = 0; i < 200000; ++i) ASSERT_TRUE(q.run_next());
  const std::uint64_t allocs = alloc_count() - allocs_before;
  lrs::stats::set_enabled(false);

  EXPECT_EQ(fired - fired_before, 200000u);
  EXPECT_EQ(allocs, 0u) << "metrics-enabled schedule/cancel/pop must not "
                           "touch the heap";
}

}  // namespace
}  // namespace lrs
