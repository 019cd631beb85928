// Metrics/profiling registry (sim/stats, ISSUE 9 tentpole): HDR-style
// histogram bucket math pinned by goldens, concurrent-recording exactness
// (the StatsHammer.* tests run under TSan in CI), the determinism contract
// (deterministic export byte-identical serial vs LRS_JOBS-parallel), and
// the disabled-path cost guard.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/provenance.h"
#include "core/run_trials.h"
#include "sim/stats/stats.h"
#include "util/csv.h"

namespace lrs {
namespace {

using stats::Counter;
using stats::Histogram;
using stats::Registry;
using stats::Timer;
using stats::TimerScope;

// ---------------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------------

TEST(StatsHistogram, BucketIndexGoldens) {
  // 16 sub-buckets (kSubBucketBits = 4): values below 16 map 1:1, then each
  // power-of-two span splits into 16 sub-buckets. Pinned so a layout change
  // is a deliberate schema break, not an accident.
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(15), 15u);
  EXPECT_EQ(Histogram::bucket_index(16), 16u);
  EXPECT_EQ(Histogram::bucket_index(17), 17u);  // still 1:1 through 31
  EXPECT_EQ(Histogram::bucket_index(31), 31u);
  EXPECT_EQ(Histogram::bucket_index(32), 32u);  // first 2-wide bucket
  EXPECT_EQ(Histogram::bucket_index(33), 32u);
  EXPECT_EQ(Histogram::bucket_index(63), 47u);
  EXPECT_EQ(Histogram::bucket_index(64), 48u);
  EXPECT_EQ(Histogram::bucket_index(std::uint64_t{1} << 63), 960u);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), 975u);
  static_assert(Histogram::kBucketCount == 976);
}

TEST(StatsHistogram, BucketLowerBoundGoldens) {
  EXPECT_EQ(Histogram::bucket_lower_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_lower_bound(15), 15u);
  EXPECT_EQ(Histogram::bucket_lower_bound(16), 16u);
  EXPECT_EQ(Histogram::bucket_lower_bound(32), 32u);
  EXPECT_EQ(Histogram::bucket_lower_bound(47), 62u);  // covers [62, 63]
  EXPECT_EQ(Histogram::bucket_lower_bound(48), 64u);
  EXPECT_EQ(Histogram::bucket_lower_bound(960), std::uint64_t{1} << 63);
}

TEST(StatsHistogram, BoundsBracketEveryProbedValue) {
  // lower_bound(index(v)) <= v < lower_bound(index(v) + 1), probed at every
  // power of two and its neighbors across the full u64 range.
  std::vector<std::uint64_t> probes = {0, 1, 2, 3};
  for (int bit = 2; bit < 64; ++bit) {
    const std::uint64_t p = std::uint64_t{1} << bit;
    probes.push_back(p - 1);
    probes.push_back(p);
    probes.push_back(p + 1);
  }
  probes.push_back(~std::uint64_t{0});
  for (const std::uint64_t v : probes) {
    const std::size_t idx = Histogram::bucket_index(v);
    ASSERT_LT(idx, Histogram::kBucketCount) << "v=" << v;
    EXPECT_LE(Histogram::bucket_lower_bound(idx), v) << "v=" << v;
    if (idx + 1 < Histogram::kBucketCount) {
      EXPECT_LT(v, Histogram::bucket_lower_bound(idx + 1)) << "v=" << v;
    }
    // Boundaries are canonical: a lower bound indexes into its own bucket.
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower_bound(idx)),
              idx)
        << "v=" << v;
  }
}

TEST(StatsHistogram, RecordAccumulatesAndResets) {
  stats::set_enabled(true);
  Histogram& h = Registry::instance().histogram("test.hist.accumulate");
  h.reset();
  for (const std::uint64_t v : {std::uint64_t{3}, std::uint64_t{3},
                                std::uint64_t{100}, std::uint64_t{5000}}) {
    h.record(v);
  }
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 5106u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 5000u);
  EXPECT_EQ(h.bucket_count_at(Histogram::bucket_index(3)), 2u);
  EXPECT_EQ(h.bucket_count_at(Histogram::bucket_index(100)), 1u);
  EXPECT_EQ(h.bucket_count_at(Histogram::bucket_index(5000)), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);  // empty histogram reports 0
  EXPECT_EQ(h.max(), 0u);
  stats::set_enabled(false);
}

// ---------------------------------------------------------------------------
// Enable gate
// ---------------------------------------------------------------------------

TEST(StatsRegistry, DisabledRecordingIsANoop) {
  stats::set_enabled(false);
  Counter& c = Registry::instance().counter("test.disabled.counter");
  Histogram& h = Registry::instance().histogram("test.disabled.hist");
  Timer& t = Registry::instance().timer("test.disabled.timer");
  c.reset();
  h.reset();
  t.reset();
  c.add(7);
  h.record(42);
  { TimerScope scope(t); }
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(t.calls(), 0u);
}

TEST(StatsRegistry, NamedLookupIsStable) {
  Counter& a = Registry::instance().counter("test.lookup.same");
  Counter& b = Registry::instance().counter("test.lookup.same");
  EXPECT_EQ(&a, &b);
  Timer& t1 = Registry::instance().timer("test.lookup.timer", true);
  Timer& t2 = Registry::instance().timer("test.lookup.timer");
  EXPECT_EQ(&t1, &t2);  // top_level sticks from first registration
}

// ---------------------------------------------------------------------------
// Prefix scopes
// ---------------------------------------------------------------------------

TEST(StatsScope, ResolvesAgainstTheGlobalRegistry) {
  const stats::Scope scope("test.scope.t03");
  EXPECT_EQ(scope.prefix(), "test.scope.t03.");
  Counter& via_scope = scope.counter("cells");
  Counter& via_registry = Registry::instance().counter("test.scope.t03.cells");
  EXPECT_EQ(&via_scope, &via_registry);
  EXPECT_EQ(&scope.histogram("h"),
            &Registry::instance().histogram("test.scope.t03.h"));
  EXPECT_EQ(&scope.timer("t"), &Registry::instance().timer("test.scope.t03.t"));
}

TEST(StatsScope, SubScopeEqualsSpelledOutPrefix) {
  const stats::Scope nested = stats::Scope("test.scope").sub("tenant");
  const stats::Scope flat("test.scope.tenant");
  EXPECT_EQ(nested.prefix(), flat.prefix());
  EXPECT_EQ(&nested.counter("x"), &flat.counter("x"));
}

TEST(StatsScope, DistinctTenantPrefixesGetDisjointSlots) {
  stats::set_enabled(true);
  const stats::Scope a("test.scope.a");
  const stats::Scope b("test.scope.b");
  a.counter("events").reset();
  b.counter("events").reset();
  a.counter("events").add(3);
  b.counter("events").add(5);
  EXPECT_EQ(a.counter("events").value(), 3u);
  EXPECT_EQ(b.counter("events").value(), 5u);
  stats::set_enabled(false);
}

// Generous absolute guard on the disabled path: a disabled record is one
// relaxed atomic load plus a branch. The bound is far above any realistic
// cost (tens of ns even on a loaded CI box would need ~100 cycles/op) but
// low enough to catch the disabled path growing real work — a registry
// lookup, a mutex, a time read.
TEST(StatsRegistry, DisabledPathStaysCheap) {
  stats::set_enabled(false);
  Counter& c = Registry::instance().counter("test.overhead.counter");
  Histogram& h = Registry::instance().histogram("test.overhead.hist");
  Timer& t = Registry::instance().timer("test.overhead.timer");
  constexpr int kIters = 2'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    c.add();
    h.record(static_cast<std::uint64_t>(i));
    TimerScope scope(t);
  }
  const double ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - t0)
          .count() /
      kIters;
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(t.calls(), 0u);
  EXPECT_LT(ns, 200.0) << "disabled counter+histogram+timer record cost "
                       << ns << " ns per iteration";
}

// ---------------------------------------------------------------------------
// JSON string escaping (shared by the metrics and provenance exports)
// ---------------------------------------------------------------------------

TEST(StatsJsonEscape, QuoteBackslashAndControlCharacters) {
  EXPECT_EQ(stats::json_escape("plain"), "plain");
  EXPECT_EQ(stats::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(stats::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(stats::json_escape(std::string("a\nb\x01", 4)),
            "a\\u000ab\\u0001");
}

// The BENCH_*.json writer escapes column names and string cells through
// json_escape (a scenario named `a"b` must not break the artifact) and
// emits only JSON number and boolean tokens bare.
TEST(StatsJsonEscape, BenchJsonEscapesColumnNamesAndCells) {
  Table t({"a\"b", "c\\d", std::string("e\x01", 2), "n", "flag", "id"});
  t.add_row({"x\"y", "z\\w", std::string("tab\t", 4), "-1.5e+06", "true",
             "007"});
  const std::string doc = core::bench_json("esc\"ape", t);
  EXPECT_EQ(
      doc.rfind("{\n  \"bench\": \"esc\\\"ape\",\n  \"provenance\": {", 0),
      0u);
  const auto at = doc.find("  \"columns\"");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(doc.substr(at),
            "  \"columns\": [\"a\\\"b\", \"c\\\\d\", \"e\\u0001\", \"n\", "
            "\"flag\", \"id\"],\n"
            "  \"rows\": [\n"
            "    [\"x\\\"y\", \"z\\\\w\", \"tab\\u0009\", -1.5e+06, true, "
            "\"007\"]\n"
            "  ]\n}\n");
}

// The manifest names the revision the build was made from (re-read at build
// time) and whether the working tree differed from it, as a bare boolean
// right after git_sha. Outside a git checkout the revision is "unknown".
TEST(Provenance, RecordsBuildRevisionAndDirtyFlag) {
  const core::Provenance p = core::collect_provenance();
  if (p.git_sha == "unknown") {
    EXPECT_FALSE(p.git_dirty);
  } else {
    EXPECT_EQ(p.git_sha.size(), 12u);
    EXPECT_EQ(p.git_sha.find_first_not_of("0123456789abcdef"),
              std::string::npos)
        << p.git_sha;
  }
  const std::string json = core::provenance_json("");
  const std::string want = "  \"git_sha\": \"" + p.git_sha +
                           "\",\n  \"git_dirty\": " +
                           (p.git_dirty ? "true" : "false") + ",\n";
  EXPECT_NE(json.find(want), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Concurrency (run under TSan in CI: --gtest_filter='StatsHammer.*')
// ---------------------------------------------------------------------------

TEST(StatsHammer, ConcurrentRecordsKeepExactTotals) {
  stats::set_enabled(true);
  Registry& reg = Registry::instance();
  Counter& c = reg.counter("test.hammer.counter");
  Histogram& h = reg.histogram("test.hammer.hist");
  Timer& t = reg.timer("test.hammer.timer");
  c.reset();
  h.reset();
  t.reset();

  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&c, &h, &t, &reg] {
      for (int i = 0; i < kIters; ++i) {
        c.add();
        h.record(static_cast<std::uint64_t>(i % 1000 + 1));
        TimerScope scope(t);
        if (i % 4096 == 0) {
          // Registry lookups race against recording threads — the find-or-
          // create path must be safe while other threads record.
          reg.counter("test.hammer.lookup").add();
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kIters;
  EXPECT_EQ(c.value(), kTotal);
  EXPECT_EQ(h.count(), kTotal);
  // Per thread: 20 full cycles of 1..1000, each summing 500500.
  EXPECT_EQ(h.sum(), static_cast<std::uint64_t>(kThreads) * 20u * 500500u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(t.calls(), kTotal);
  stats::set_enabled(false);
}

// ---------------------------------------------------------------------------
// Determinism contract: the deterministic export is byte-identical for any
// worker count. All deterministic metrics are commutative aggregates
// (counters add, histogram merges commute), so trial scheduling order must
// not leak into the export.
// ---------------------------------------------------------------------------

core::ExperimentConfig small_star_config(std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.scheme = core::Scheme::kLrSeluge;
  cfg.params.payload_size = 32;
  cfg.params.k = 8;
  cfg.params.n = 12;
  cfg.params.k0 = 4;
  cfg.params.n0 = 8;
  cfg.params.puzzle_strength = 4;
  cfg.image_size = 2048;
  cfg.receivers = 6;
  cfg.seed = seed;
  cfg.loss_p = 0.1;
  cfg.timing.trickle.tau_low = 250 * sim::kMillisecond;
  cfg.timing.trickle.tau_high = 8 * sim::kSecond;
  return cfg;
}

TEST(StatsDeterminism, SerialAndParallelExportsAreByteIdentical) {
  stats::set_enabled(true);
  Registry& reg = Registry::instance();
  const std::vector<core::ExperimentConfig> configs = {
      small_star_config(1), small_star_config(17)};

  reg.reset_values();
  const auto serial =
      core::run_experiments_avg(configs, /*repeats=*/3, /*jobs=*/1);
  const std::string serial_json = reg.deterministic_json("  ");

  reg.reset_values();
  const auto parallel =
      core::run_experiments_avg(configs, /*repeats=*/3, /*jobs=*/8);
  const std::string parallel_json = reg.deterministic_json("  ");

  EXPECT_EQ(serial_json, parallel_json);
  // The signature-verification memo (crypto/wots.cc) makes one-shot SHA
  // call counts scheduling-dependent; that timer opts out of the
  // deterministic section rather than breaking the byte-identity contract.
  EXPECT_EQ(serial_json.find("crypto.sha.oneshot.calls"), std::string::npos);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].events_executed, parallel[i].events_executed);
    EXPECT_EQ(serial[i].max_island_events, parallel[i].max_island_events);
    EXPECT_EQ(serial[i].islands, parallel[i].islands);
  }
  stats::set_enabled(false);
}

TEST(StatsDeterminism, ResultsIdenticalWithMetricsOnAndOff) {
  // Recording must never perturb simulation outcomes: the same config and
  // seed produce identical protocol metrics whether the registry is
  // enabled or not.
  stats::set_enabled(false);
  const auto off = core::run_experiment(small_star_config(5));
  stats::set_enabled(true);
  const auto on = core::run_experiment(small_star_config(5));
  stats::set_enabled(false);
  EXPECT_EQ(off.events_executed, on.events_executed);
  EXPECT_EQ(off.data_packets, on.data_packets);
  EXPECT_EQ(off.snack_packets, on.snack_packets);
  EXPECT_EQ(off.adv_packets, on.adv_packets);
  EXPECT_EQ(off.total_bytes, on.total_bytes);
  EXPECT_EQ(off.latency_s, on.latency_s);
  EXPECT_EQ(off.completed, on.completed);
}

}  // namespace
}  // namespace lrs
