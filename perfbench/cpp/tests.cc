// Self-tests of the benchmark's own arithmetic: percentile selection,
// self-time subtraction across nested spans (registry time read at span
// boundaries), the timer slab's bound, the scheme decorator's memo
// forwarding, and the reference kernel doing the same work on every call.
// Run with `python3 perfbench/run.py --self-test`.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "reference.h"
#include "sim/event_queue.h"
#include "stats_math.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

int g_failures = 0;
int g_checks = 0;

#define CHECK_EQ(a, b)                                                    \
  do {                                                                    \
    ++g_checks;                                                           \
    if (!((a) == (b))) {                                                  \
      ++g_failures;                                                       \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK_EQ(" #a ", " #b \
                << ") got " << (a) << " vs " << (b) << "\n";              \
    }                                                                     \
  } while (0)

#define CHECK(c) CHECK_EQ(static_cast<bool>(c), true)

void test_percentiles() {
  const std::vector<double> v = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  CHECK_EQ(percentile(v, 50), 5.0);
  CHECK_EQ(percentile(v, 90), 9.0);
  CHECK_EQ(percentile(v, 100), 10.0);
  CHECK_EQ(percentile({}, 90), 0.0);
  CHECK_EQ(median({4, 1, 3, 2}), 2.5);
  CHECK_EQ(median({3, 1, 2}), 2.0);

  // p90 needs ten samples beyond its rank: 100 samples is the least.
  CHECK_EQ(supported_percentile(100, 90), 90.0);
  CHECK_EQ(supported_percentile(1000, 90), 90.0);
  CHECK_EQ(supported_percentile(99, 90), 75.0);
  CHECK_EQ(supported_percentile(40, 90), 75.0);
  CHECK_EQ(supported_percentile(39, 90), 50.0);
  CHECK_EQ(supported_percentile(20, 90), 50.0);
  // Too few for any tail: the median is still reported.
  CHECK_EQ(supported_percentile(4, 90), 50.0);
  CHECK_EQ(supported_percentile(0, 90), 50.0);
}

// The host-speed factor is only sound if a round is the same work every
// time: two kernels that ran the same rounds, in any split, end in the same
// state, and one more round changes it.
void test_reference_kernel() {
  ReferenceKernel a, b;
  CHECK(a.time_rounds(3) > 0.0);
  b.time_rounds(1);
  b.time_rounds(2);
  CHECK_EQ(a.checksum(), b.checksum());
  b.time_rounds(1);
  CHECK(a.checksum() != b.checksum());
}

std::uint64_t g_now = 0;
std::uint64_t fake_clock() { return g_now; }

void test_self_time() {
  auto& reg = lrs::stats::Registry::instance();
  lrs::stats::Timer& leaf_a = reg.timer("perfbench.selftest.leaf_a");
  lrs::stats::Timer& leaf_b = reg.timer("perfbench.selftest.leaf_b");
  leaf_a.reset();
  leaf_b.reset();
  leaf_a.record(1000);  // before the tracer: never attributed
  Tracer tr({&leaf_a, &leaf_b}, &fake_clock);

  g_now = 0;
  tr.enter(Layer::kSimRun);
  g_now = 10;
  tr.enter(Layer::kEngineRx);
  leaf_a.record(4);  // crypto directly inside engine rx
  g_now = 15;
  tr.enter(Layer::kSchemeOnData);
  leaf_b.record(6);  // erasure inside the scheme call
  g_now = 27;
  tr.exit();  // on_data: 12 long, 6 registry -> self 6
  g_now = 30;
  tr.exit();  // rx: 20 long, child 12, registry 4 direct -> self 4
  leaf_a.record(3);  // registry directly inside sim.run
  g_now = 50;
  tr.enter(Layer::kChannel);
  g_now = 55;
  tr.exit();  // channel: 5
  g_now = 100;
  tr.exit();  // sim.run: 100 long, children 25, registry 3 direct -> 72

  CHECK_EQ(tr.depth(), std::size_t{0});
  CHECK_EQ(tr[Layer::kSchemeOnData].self, std::int64_t{6});
  CHECK_EQ(tr[Layer::kSchemeOnData].registry, std::uint64_t{6});
  CHECK_EQ(tr[Layer::kEngineRx].inclusive, std::uint64_t{20});
  CHECK_EQ(tr[Layer::kEngineRx].self, std::int64_t{4});
  CHECK_EQ(tr[Layer::kEngineRx].registry, std::uint64_t{4});
  CHECK_EQ(tr[Layer::kChannel].self, std::int64_t{5});
  CHECK_EQ(tr[Layer::kSimRun].self, std::int64_t{72});
  CHECK_EQ(tr[Layer::kSimRun].registry, std::uint64_t{3});
  CHECK_EQ(tr[Layer::kSimRun].calls, std::uint64_t{1});

  // Self times plus registry time inside the spans partition the outer span.
  std::int64_t self_sum = 0;
  for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::kCount); ++l) {
    self_sum += tr[static_cast<Layer>(l)].self;
  }
  CHECK_EQ(self_sum + 4 + 6 + 3, std::int64_t{100});
  CHECK_EQ(tr.registry_cycles(), std::uint64_t{1000 + 4 + 6 + 3});
}

/// The smallest Env that runs timers: a bare event queue.
class QueueEnv final : public lrs::sim::Env {
 public:
  lrs::sim::SimTime now() const override { return queue.now(); }
  lrs::NodeId id() const override { return 0; }
  void broadcast(lrs::sim::PacketClass, lrs::Bytes) override {}
  lrs::sim::EventToken schedule(lrs::sim::SimTime delay,
                                lrs::sim::EventFn fn) override {
    return queue.schedule_at(queue.now() + delay, std::move(fn));
  }
  std::size_t pending_tx() const override { return 0; }
  void cancel(lrs::sim::EventToken token) override { queue.cancel(token); }
  lrs::Rng& rng() override { return rng_; }
  lrs::sim::NodeMetrics& metrics() override { return metrics_; }
  void notify_complete() override {}

  lrs::sim::EventQueue queue;

 private:
  lrs::Rng rng_{1};
  lrs::sim::NodeMetrics metrics_{};
};

void test_slab_bounded() {
  QueueEnv env;
  Tracer tr({}, &fake_clock);
  TimerSlab slab(&tr);
  std::uint64_t fired = 0;
  std::uint64_t cancelled_fired = 0;
  std::size_t max_capacity = 0;
  for (int i = 0; i < 100000; ++i) {
    const auto keep = slab.schedule(env, 5, [&fired] { ++fired; });
    const auto drop = slab.schedule(env, 3, [&cancelled_fired] {
      ++cancelled_fired;
    });
    const auto late = slab.schedule(env, 7, [&cancelled_fired] {
      ++cancelled_fired;
    });
    slab.cancel(env, drop);
    slab.cancel(env, late);
    slab.cancel(env, drop);                  // twice: a no-op
    slab.cancel(env, lrs::sim::EventToken());  // null: a no-op
    env.queue.run_until(env.queue.now() + 10);
    slab.cancel(env, keep);  // already fired: a no-op
    max_capacity = std::max(max_capacity, slab.capacity());
  }
  CHECK_EQ(fired, std::uint64_t{100000});
  CHECK_EQ(cancelled_fired, std::uint64_t{0});
  CHECK_EQ(slab.live(), std::size_t{0});
  CHECK(max_capacity <= 3);
  CHECK_EQ(tr[Layer::kEngineTimer].calls, std::uint64_t{100000});

  // Closures that schedule from inside a fired timer reuse slots too.
  int chain = 0;
  std::function<void()> again = [&] {
    if (++chain < 1000) slab.schedule(env, 1, [&again] { again(); });
  };
  slab.schedule(env, 1, [&again] { again(); });
  env.queue.run_until(env.queue.now() + 5000);
  CHECK_EQ(chain, 1000);
  CHECK(slab.capacity() <= 3);
}

/// Records which on_data / verify_stored_packet overloads ran.
class RecordingScheme final : public lrs::proto::SchemeState {
 public:
  int plain = 0, memo = 0;
  lrs::Version version() const override { return 1; }
  std::uint32_t num_pages() const override { return 1; }
  std::size_t packets_in_page(std::uint32_t) const override { return 1; }
  std::size_t decode_threshold(std::uint32_t) const override { return 1; }
  std::uint32_t pages_complete() const override { return 0; }
  bool image_complete() const override { return false; }
  lrs::Bytes assemble_image() const override { return {}; }
  lrs::BitVec request_bits(std::uint32_t) const override { return {}; }
  lrs::proto::DataStatus on_data(std::uint32_t, std::uint32_t, lrs::ByteView,
                                 lrs::sim::NodeMetrics&) override {
    ++plain;
    return lrs::proto::DataStatus::kStale;
  }
  lrs::proto::DataStatus on_data(std::uint32_t, std::uint32_t, lrs::ByteView,
                                 lrs::sim::NodeMetrics&,
                                 lrs::proto::RxDigestMemo*) override {
    ++memo;
    return lrs::proto::DataStatus::kStored;
  }
  bool verify_stored_packet(std::uint32_t, std::uint32_t, lrs::ByteView,
                            lrs::sim::NodeMetrics&) const override {
    ++const_cast<RecordingScheme*>(this)->plain;
    return true;
  }
  bool verify_stored_packet(std::uint32_t, std::uint32_t, lrs::ByteView,
                            lrs::sim::NodeMetrics&,
                            lrs::proto::RxDigestMemo*) const override {
    ++const_cast<RecordingScheme*>(this)->memo;
    return true;
  }
  bool needs_signature() const override { return false; }
  bool bootstrapped() const override { return true; }
  bool on_signature(lrs::ByteView, lrs::sim::NodeMetrics&) override {
    return false;
  }
  std::optional<lrs::Bytes> signature_frame() const override {
    return std::nullopt;
  }
  std::optional<lrs::Bytes> packet_payload(std::uint32_t,
                                           std::uint32_t) override {
    return std::nullopt;
  }
  std::unique_ptr<lrs::proto::TxScheduler> make_scheduler(
      std::uint32_t) const override {
    return nullptr;
  }
};

void test_scheme_memo_forwarding() {
  Tracer tr({}, &fake_clock);
  auto inner = std::make_unique<RecordingScheme>();
  RecordingScheme* rec = inner.get();
  TimedScheme scheme(std::move(inner), tr);
  lrs::sim::NodeMetrics m{};
  lrs::proto::RxDigestMemo memo;
  lrs::proto::SchemeState& s = scheme;
  s.on_data(0, 0, {}, m, &memo);
  s.verify_stored_packet(0, 0, {}, m, &memo);
  CHECK_EQ(rec->memo, 2);
  CHECK_EQ(rec->plain, 0);
  s.on_data(0, 0, {}, m);
  CHECK_EQ(rec->plain, 1);
  CHECK_EQ(tr[Layer::kSchemeOnData].calls, std::uint64_t{2});
  CHECK_EQ(tr[Layer::kSchemeVerifyStored].calls, std::uint64_t{1});
  CHECK_EQ(tr.counts.on_data_useful, std::uint64_t{1});  // kStored only
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::test_reference_kernel();
  perfbench::test_percentiles();
  perfbench::test_self_time();
  perfbench::test_slab_bounded();
  perfbench::test_scheme_memo_forwarding();
  std::cout << perfbench::g_checks - perfbench::g_failures << "/"
            << perfbench::g_checks << " checks passed\n";
  return perfbench::g_failures == 0 ? 0 : 1;
}
