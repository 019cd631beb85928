// Process-wide metrics & profiling registry: named monotonic counters,
// HDR-style log-bucketed histograms and TSC cycle-timer scopes,
// attributing hot-path work to subsystems (event queue, crypto, erasure,
// protocol engine, island executor).
//
// Contract (mirrors the trace layer's, docs/observability.md):
//   * Disabled (the default) every record call is a relaxed flag load and
//     a predicted-not-taken branch — no stores, no locks, no allocation.
//   * Enabled, the hot path is allocation-free: metrics live in
//     registry-owned fixed-size slots created on first use
//     (tests/test_alloc_guard.cc guards both properties).
//   * Deterministic quantities (counters, histogram contents, timer call
//     counts) are commutative aggregates of per-trial work, so their JSON
//     export is byte-identical for any LRS_JOBS worker count. Timing
//     quantities (cycle totals, wall clock) are nondeterministic
//     and live in a strictly separate "timing" section of the export.
//     A timer registered deterministic=false opts its call count out of
//     that guarantee (its scope sits beneath a schedule-dependent cache).
//
// Naming: dot-separated "<subsystem>.<unit>[.<detail>]", e.g.
// "sim.queue.schedule", "crypto.sha.batch", "erasure.lrc.local_repairs",
// "core.run_cell". Timer scopes registered top-level must not nest inside
// one another: their summed time is the export's attributed_ns.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace lrs::stats {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Global metrics switch. Off by default; harnesses enable it when
/// --metrics/--metrics-heartbeat is given. Enabling (re-)anchors the
/// cycle-counter calibration used to convert timer cycles to ns.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Monotonic cycle counter: raw TSC on x86-64 (invariant-TSC assumed, as
/// on every deployment target), steady_clock ns elsewhere. Calibrated to
/// ns at export time via the anchor taken by set_enabled().
inline std::uint64_t now_cycles() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Monotonic event counter (deterministic section). Cache-line sized so
/// hot counters hammered from the island worker pool do not false-share.
class alignas(64) Counter {
 public:
  void add(std::uint64_t delta = 1) {
    if (!enabled()) return;
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// HDR-style log-bucketed histogram over the full u64 range: values below
/// 16 are exact, every power-of-two span above is split into 16
/// sub-buckets (kSubBucketBits = 4), giving <= 6.25% relative bucket width
/// in 976 fixed slots. Records are relaxed atomics into pre-sized arrays —
/// no allocation, merge-commutative, hence deterministic under LRS_JOBS.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr std::size_t kSubBuckets = 1u << kSubBucketBits;  // 16
  // Exact buckets [0,16) + 60 coarse spans (msb 4..63) x 16 sub-buckets.
  static constexpr std::size_t kBucketCount =
      kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;  // 976

  /// 0 -> 0, 1 -> 1, ..., 15 -> 15, 16..31 map 1:1, then 16 sub-buckets
  /// per power of two; the u64 maximum lands in bucket 975.
  static constexpr std::size_t bucket_index(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);  // >= kSubBucketBits
    const int shift = msb - kSubBucketBits;
    return static_cast<std::size_t>(msb - kSubBucketBits + 1) * kSubBuckets +
           static_cast<std::size_t>((v >> shift) & (kSubBuckets - 1));
  }

  /// Smallest value mapping to bucket `index` (inverse of bucket_index on
  /// bucket boundaries); values v in [lower(i), lower(i+1)) share bucket i.
  static constexpr std::uint64_t bucket_lower_bound(std::size_t index) {
    if (index < kSubBuckets) return index;
    const std::size_t span = index / kSubBuckets;  // >= 1
    const std::size_t sub = index % kSubBuckets;
    return static_cast<std::uint64_t>(kSubBuckets + sub) << (span - 1);
  }

  void record(std::uint64_t v) {
    if (!enabled()) return;
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    atomic_min(min_, v);
    atomic_max(max_, v);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// 0 when empty.
  std::uint64_t min() const {
    return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
  }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count_at(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  static void atomic_min(std::atomic<std::uint64_t>& a, std::uint64_t v) {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void atomic_max(std::atomic<std::uint64_t>& a, std::uint64_t v) {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (v > cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> buckets_[kBucketCount]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// Accumulated cycle time of a named scope. Call counts are deterministic
/// (exported with the counters); cycle totals are timing-only.
class alignas(64) Timer {
 public:
  void record(std::uint64_t cycles) {
    calls_.fetch_add(1, std::memory_order_relaxed);
    cycles_.fetch_add(cycles, std::memory_order_relaxed);
  }
  std::uint64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }
  std::uint64_t cycles() const {
    return cycles_.load(std::memory_order_relaxed);
  }
  void reset() {
    calls_.store(0, std::memory_order_relaxed);
    cycles_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> cycles_{0};
};

/// RAII scope attributing elapsed cycles to a Timer. The enabled check
/// happens once at construction; a scope started enabled records even if
/// the flag flips mid-scope (harness enable/disable is not mid-run).
class TimerScope {
 public:
  explicit TimerScope(Timer& t)
      : timer_(enabled() ? &t : nullptr),
        start_(timer_ != nullptr ? now_cycles() : 0) {}
  ~TimerScope() {
    if (timer_ != nullptr) timer_->record(now_cycles() - start_);
  }
  TimerScope(const TimerScope&) = delete;
  TimerScope& operator=(const TimerScope&) = delete;

 private:
  Timer* timer_;
  std::uint64_t start_;
};

/// Process-wide find-or-create registry. Lookup takes a mutex and may
/// allocate (do it once, outside the hot loop, caching the reference —
/// metric slots never move or disappear); recording through the returned
/// references is lock- and allocation-free.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);
  /// `top_level` marks a scope whose time counts toward the export's
  /// attributed_ns (top-level scopes must not nest). `deterministic=false`
  /// keeps the timer's call count out of the deterministic section: use it
  /// for scopes beneath schedule-dependent caches (e.g. the signature
  /// verification memo in crypto/wots.cc absorbs a worker-interleaving-
  /// dependent share of Sha256::hash calls). Both flags stick from the
  /// first registration.
  Timer& timer(std::string_view name, bool top_level = false,
               bool deterministic = true);

  /// Zeroes every registered metric and re-anchors the cycle calibration;
  /// registrations (names, addresses) survive.
  void reset_values();

  /// The deterministic section: counters (including "<timer>.calls") and
  /// histograms, keys sorted, byte-identical for any LRS_JOBS.
  std::string deterministic_json(const std::string& indent) const;
  /// The timing section: wall clock since the calibration anchor, derived
  /// TSC frequency, per-scope ns (attributed_ns/attributed_frac over the
  /// top-level scopes). Nondeterministic by nature.
  std::string timing_json(const std::string& indent) const;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Prefix-scope handle over the registry: every metric created through a
/// Scope("fleet.t03") is named "fleet.t03.<name>", so concurrent components
/// of one process — fleet tenants above all — get disjoint registry slots
/// instead of aliasing each other's counters, with zero export changes:
/// the deterministic section sorts by full name, so one scope's metrics
/// group into an adjacent block per tenant. Scopes are cheap name builders;
/// the usual discipline still applies (look metrics up once, cache the
/// returned references, record through them lock-free).
class Scope {
 public:
  /// `prefix` without the trailing dot ("fleet.t03").
  explicit Scope(std::string_view prefix)
      : prefix_(std::string(prefix) + ".") {}

  Counter& counter(std::string_view name) const {
    return Registry::instance().counter(full(name));
  }
  Histogram& histogram(std::string_view name) const {
    return Registry::instance().histogram(full(name));
  }
  Timer& timer(std::string_view name, bool top_level = false,
               bool deterministic = true) const {
    return Registry::instance().timer(full(name), top_level, deterministic);
  }

  /// Nested scope: Scope("fleet").sub("t03") == Scope("fleet.t03").
  Scope sub(std::string_view name) const { return Scope(full(name)); }

  /// The full prefix including the trailing dot ("fleet.t03.").
  const std::string& prefix() const { return prefix_; }

 private:
  std::string full(std::string_view name) const {
    std::string s;
    s.reserve(prefix_.size() + name.size());
    s += prefix_;
    s += name;
    return s;
  }
  std::string prefix_;  // always ends with '.'
};

/// `s` escaped for use inside a JSON string literal: quote and backslash
/// get a backslash, control characters become \u00XX escapes.
std::string json_escape(const std::string& s);

/// Full export document (schema "lrs-metrics-v1"): schema tag, caller
/// provenance (pass "null" when absent), deterministic + timing sections.
std::string metrics_json(const std::string& provenance_json);

/// Writes metrics_json to `path` ("-" = stdout). Returns false (with a
/// stderr warning) when the file cannot be written.
bool write_metrics_json(const std::string& path,
                        const std::string& provenance_json);

/// Background heartbeat for long runs: every `period_s` seconds prints
/// one stderr line with wall time, executed-event count and delta rate
/// (counter "sim.queue.pop") and current RSS. Idempotent start; export
/// and process exit stop it.
void start_heartbeat(double period_s);
void stop_heartbeat();

}  // namespace lrs::stats
