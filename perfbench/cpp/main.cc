// The repository benchmark program: one workload per process.
//
//   perfbench --workload geo-10k|star20-paper|fleet-16x64 --seed N
//             --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with the stats registry off;
// --trace 1 makes one untraced reference pass and one traced pass through
// the benchmark-side wrappers of trace.h, and reports the per-layer
// metrics. Both modes check every output. The last stdout line is the
// result object; the line before it records the hardware and build
// context. Workloads and metrics are described in ../BENCHMARK.md.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cell.h"
#include "core/experiment.h"
#include "core/lr_image.h"
#include "core/lr_seluge.h"
#include "core/provenance.h"
#include "crypto/wots.h"
#include "fleet/engine.h"
#include "reference.h"
#include "sim/scenario/scenario.h"
#include "sim/stats/stats.h"
#include "stats_math.h"
#include "trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Result document

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> context;  // raw JSON values

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& json_value) {
    context.emplace_back(key, json_value);
  }
  void fail(const std::string& why) {
    correct = false;
    std::cerr << "perfbench: CHECK FAILED: " << why << "\n";
  }
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Hardware and build context

std::string cgroup_cpu_quota() {
  std::ifstream v2("/sys/fs/cgroup/cpu.max");
  std::string quota, period;
  if (v2 >> quota >> period) return quota + "/" + period;
  std::ifstream q("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  std::ifstream p("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  if (q >> quota && p >> period) {
    return (quota == "-1" ? std::string("max") : quota) + "/" + period;
  }
  return "unknown";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

void note_context(Report& rep, const std::string& workload, long seed,
                  int trace) {
  const lrs::core::Provenance p = lrs::core::collect_provenance();
  rep.note("workload", json_string(workload));
  rep.note("seed", std::to_string(seed));
  rep.note("trace", std::to_string(trace));
  rep.note("jobs", "1");
  rep.note("build_type", json_string(PERFBENCH_BUILD_TYPE));
  rep.note("cxx_flags", json_string(PERFBENCH_CXX_FLAGS));
  rep.note("compiler", json_string(p.compiler));
  rep.note("hardware_concurrency",
           std::to_string(std::thread::hardware_concurrency()));
  rep.note("cgroup_cpu_quota", json_string(cgroup_cpu_quota()));
  rep.note("gf256_kernel", json_string(p.gf256_kernel));
  rep.note("sha256_kernel", json_string(p.sha256_kernel));
  rep.note("sha256_batch_kernel", json_string(p.sha256_batch_kernel));
}

// ---------------------------------------------------------------------------
// Deterministic outputs and their checks

/// The paper's five metrics plus the event count, summed over the
/// disseminations of one pass.
struct Outputs {
  std::size_t disseminations = 0;
  std::uint64_t receivers = 0;
  std::uint64_t failed = 0;  // receivers (cells on fleet) not byte-exact
  std::uint64_t data = 0, snack = 0, adv = 0, bytes = 0;
  double latency_sum = 0.0;
  std::uint64_t events = 0;

  bool same_as(const Outputs& o) const {
    return disseminations == o.disseminations && receivers == o.receivers &&
           failed == o.failed && data == o.data && snack == o.snack &&
           adv == o.adv && bytes == o.bytes && latency_sum == o.latency_sum &&
           events == o.events;
  }
};

void add_paper_metrics(Report& rep, const Outputs& o) {
  const double n = static_cast<double>(std::max<std::size_t>(1, o.disseminations));
  rep.add("latency_s", o.latency_sum / n, "s");
  rep.add("data_pkts", static_cast<double>(o.data) / n, "count");
  rep.add("snack_pkts", static_cast<double>(o.snack) / n, "count");
  rep.add("adv_pkts", static_cast<double>(o.adv) / n, "count");
  rep.add("total_bytes", static_cast<double>(o.bytes) / n, "bytes");
}

// ---------------------------------------------------------------------------
// Host speed (BENCHMARK.md, "Host speed")

/// Seconds one reference-kernel round takes on the nominal host. Every
/// reported time is the time the work would have taken there: host seconds
/// times nominal ÷ measured seconds of the rounds run next to the work.
constexpr double kNominalRoundS = 200e-6;

/// Reference rounds run between two timed pieces (~10% of a star20 trial).
constexpr int kRoundsPerGap = 8;

/// Times the pieces of one main-phase repetition in order, running the
/// reference kernel before the first piece and after every piece. A piece
/// is scaled by the speed the rounds just before and just after it
/// measured.
class RepClock {
 public:
  explicit RepClock(ReferenceKernel& kernel) : kernel_(kernel) { sample(); }

  template <class Work>
  void time(Work&& work) {
    const auto t0 = Clock::now();
    work();
    host_s_.push_back(seconds_since(t0));
    sample();
  }

  std::size_t pieces() const { return host_s_.size(); }
  double host_s(std::size_t i) const { return host_s_[i]; }

  /// Piece `i` in nominal-host seconds.
  double nominal_s(std::size_t i) const {
    return host_s_[i] * 2.0 * kRoundsPerGap * kNominalRoundS /
           (ref_s_[i] + ref_s_[i + 1]);
  }

  /// Nominal ÷ measured seconds of all the repetition's rounds.
  double factor() const {
    double ref_s = 0.0;
    for (const double s : ref_s_) ref_s += s;
    return static_cast<double>(ref_s_.size()) * kRoundsPerGap *
           kNominalRoundS / ref_s;
  }

 private:
  void sample() { ref_s_.push_back(kernel_.time_rounds(kRoundsPerGap)); }

  ReferenceKernel& kernel_;
  std::vector<double> host_s_;
  std::vector<double> ref_s_;  // rounds before piece i are ref_s_[i]
};

/// Timing samples of the untraced passes, in nominal-host seconds.
struct Timings {
  std::vector<double> setup_s;
  std::vector<double> wall_s;       // one per main-phase repetition
  std::vector<double> host_wall_s;  // the same, in host seconds
  std::vector<double> speed;        // each repetition's RepClock::factor()
  // Ms of each distinct dissemination, one sample per repetition: every
  // repetition replays the same disseminations (BENCHMARK.md).
  std::vector<std::vector<double>> dissem_ms;
  std::uint64_t events_per_rep = 0;
  double peak_rss_mb = 0.0;  // read after the warm-up pass
};

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + json_number(v[i]);
  }
  return out + "]";
}

void add_end_to_end(Report& rep, const Timings& t, const Outputs& o,
                    std::uint64_t attempted) {
  const double wall = median(t.wall_s);
  rep.add("wall_s", wall, "s");
  rep.add("setup_s", median(t.setup_s), "s");
  rep.add("events_per_sec", static_cast<double>(t.events_per_rep) / wall,
          "1/s");
  rep.add("peak_rss_mb", t.peak_rss_mb, "MB");
  // A dissemination's time is its median over the repetitions, so a burst
  // of host noise in one repetition cannot reach the percentiles.
  std::vector<double> per_dissem;
  for (const std::vector<double>& reps : t.dissem_ms) {
    per_dissem.push_back(median(reps));
  }
  const double tail = supported_percentile(per_dissem.size(), 90.0);
  rep.add("dissem_ms_p50", percentile(per_dissem, 50.0), "ms");
  rep.add("dissem_ms_p90", percentile(per_dissem, tail), "ms");
  add_paper_metrics(rep, o);
  rep.add("complete_frac",
          1.0 - static_cast<double>(o.failed) /
                    static_cast<double>(std::max<std::uint64_t>(1, attempted)),
          "frac");
  rep.note("dissem_samples", std::to_string(per_dissem.size()));
  rep.note("dissem_p90_reports_percentile", json_number(tail));
  rep.note("main_reps", std::to_string(t.wall_s.size()));
  rep.note("wall_s_samples", json_array(t.wall_s));
  rep.note("host_wall_s_samples", json_array(t.host_wall_s));
  rep.note("host_wall_s", json_number(median(t.host_wall_s)));
  rep.note("host_speed_samples", json_array(t.speed));
  rep.note("setup_reps", std::to_string(t.setup_s.size()));
  rep.note("events_per_rep", std::to_string(t.events_per_rep));
}

// ---------------------------------------------------------------------------
// Per-layer metrics of a traced pass

/// Registry handles read by the traced pass. The leaf timers never nest in
/// one another except crypto.sha.oneshot under crypto.sha.batch's scalar
/// fallback, whose message count is reported alongside.
struct RegistryView {
  lrs::stats::Timer* hmac;
  lrs::stats::Timer* sha_batch;
  lrs::stats::Timer* sha_oneshot;
  std::vector<lrs::stats::Timer*> encode;
  std::vector<lrs::stats::Timer*> decode;
  lrs::stats::Counter* sha_batch_msgs;
  lrs::stats::Counter* sha_batch_simd_msgs;
  lrs::stats::Counter* queue_schedule;
  lrs::stats::Counter* queue_cancel;
  lrs::stats::Counter* queue_overflow;
  lrs::stats::Timer* fleet_run_cell;
  lrs::stats::Timer* sim_run;

  RegistryView() {
    auto& reg = lrs::stats::Registry::instance();
    hmac = &reg.timer("crypto.hmac");
    sha_batch = &reg.timer("crypto.sha.batch");
    sha_oneshot = &reg.timer("crypto.sha.oneshot", /*top_level=*/false,
                             /*deterministic=*/false);
    for (const char* codec : {"rs", "lrc", "rlc2", "rlc256", "lt", "xorsched"}) {
      encode.push_back(&reg.timer(std::string("erasure.") + codec + ".encode"));
      decode.push_back(&reg.timer(std::string("erasure.") + codec + ".decode"));
    }
    sha_batch_msgs = &reg.counter("crypto.sha.batch_msgs");
    sha_batch_simd_msgs = &reg.counter("crypto.sha.batch_simd_msgs");
    queue_schedule = &reg.counter("sim.queue.schedule");
    queue_cancel = &reg.counter("sim.queue.cancel");
    queue_overflow = &reg.counter("sim.queue.overflow_push");
    fleet_run_cell = &reg.timer("fleet.run_cell", /*top_level=*/true);
    sim_run = &reg.timer("sim.run");
  }

  std::vector<const lrs::stats::Timer*> leaves() const {
    std::vector<const lrs::stats::Timer*> out = {hmac, sha_batch, sha_oneshot};
    out.insert(out.end(), encode.begin(), encode.end());
    out.insert(out.end(), decode.begin(), decode.end());
    return out;
  }

  static std::uint64_t sum_cycles(const std::vector<lrs::stats::Timer*>& ts) {
    std::uint64_t s = 0;
    for (const auto* t : ts) s += t->cycles();
    return s;
  }
  static std::uint64_t sum_calls(const std::vector<lrs::stats::Timer*>& ts) {
    std::uint64_t s = 0;
    for (const auto* t : ts) s += t->calls();
    return s;
  }
};

/// A traced pass: registry on and zeroed, the tracer, and the TSC rate
/// measured against the steady clock over the pass.
class TracedPass {
 public:
  TracedPass() {
    lrs::stats::Registry::instance().reset_values();
    lrs::stats::set_enabled(true);
    tracer_ = std::make_unique<Tracer>(view_.leaves());
    t0_ = Clock::now();
    c0_ = lrs::stats::now_cycles();
  }

  Tracer* tracer() { return tracer_.get(); }
  const Tracer& trace() const { return *tracer_; }
  const RegistryView& registry() const { return view_; }

  void finish() {
    const std::uint64_t c1 = lrs::stats::now_cycles();
    wall_s_ = seconds_since(t0_);
    lrs::stats::set_enabled(false);
    hz_ = static_cast<double>(c1 - c0_) / wall_s_;
  }

  double wall_s() const { return wall_s_; }
  double s(std::uint64_t cycles) const { return static_cast<double>(cycles) / hz_; }
  double s(std::int64_t cycles) const { return static_cast<double>(cycles) / hz_; }
  const LayerTotals& operator[](Layer l) const { return (*tracer_)[l]; }

 private:
  RegistryView view_;
  std::unique_ptr<Tracer> tracer_;
  Clock::time_point t0_;
  std::uint64_t c0_ = 0;
  double wall_s_ = 0.0, hz_ = 1.0;
};

struct FleetLayer {
  double prepare_s = 0.0;
  double cell_us = 0.0;
  double cell_overhead_s = 0.0;
};

void add_per_layer(Report& rep, const TracedPass& p, const Outputs& sent,
                   std::uint64_t collisions, double untraced_wall_s,
                   const FleetLayer& fleet) {
  const std::uint64_t events = sent.events;
  const Tracer& tr = p.trace();
  const RegistryView& reg = p.registry();
  const TraceCounts& c = tr.counts;
  auto frac = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  const double sim_self = p.s(p[Layer::kSimRun].self);
  rep.add("sim.self_s", sim_self, "s");
  rep.add("sim.ns_per_event", frac(sim_self * 1e9, static_cast<double>(events)),
          "ns");
  rep.add("sim.events", static_cast<double>(events), "count");
  rep.add("sim.collisions", static_cast<double>(collisions), "count");
  const double schedules = static_cast<double>(reg.queue_schedule->value());
  rep.add("sim.queue.overflow_frac",
          frac(static_cast<double>(reg.queue_overflow->value()), schedules),
          "frac");
  rep.add("sim.queue.cancel_frac",
          frac(static_cast<double>(reg.queue_cancel->value()), schedules),
          "frac");
  rep.add("sim.build_s", p.s(p[Layer::kSimBuild].self), "s");

  rep.add("channel.draws", static_cast<double>(c.channel_draws), "count");
  rep.add("channel.drop_frac",
          frac(static_cast<double>(c.channel_drops),
               static_cast<double>(c.channel_draws)),
          "frac");
  rep.add("channel.s", p.s(p[Layer::kChannel].self), "s");
  rep.add("topology.build_s", p.s(p[Layer::kTopology].self), "s");
  rep.add("source.prepare_s", p.s(p[Layer::kSource].self), "s");

  const LayerTotals& rx = p[Layer::kEngineRx];
  rep.add("engine.rx_calls", static_cast<double>(rx.calls), "count");
  rep.add("engine.rx_self_s", p.s(rx.self), "s");
  rep.add("engine.rx_ns_per_call",
          frac(p.s(rx.self) * 1e9, static_cast<double>(rx.calls)), "ns");
  const LayerTotals& timer = p[Layer::kEngineTimer];
  rep.add("engine.timer_calls", static_cast<double>(timer.calls), "count");
  rep.add("engine.timer_self_s", p.s(timer.self), "s");
  using lrs::sim::PacketClass;
  auto tx = [&](PacketClass k) {
    return static_cast<double>(c.tx_frames[static_cast<std::size_t>(k)]);
  };
  rep.add("engine.tx_frames.data", tx(PacketClass::kData), "count");
  rep.add("engine.tx_frames.snack", tx(PacketClass::kSnack), "count");
  rep.add("engine.tx_frames.adv", tx(PacketClass::kAdvertisement), "count");
  rep.add("engine.tx_frames.sig", tx(PacketClass::kSignature), "count");
  // Broadcasts still queued in a MAC when the last receiver completes are
  // never sent, so the engine's counts may exceed the sent-packet metrics.
  if (tx(PacketClass::kData) < static_cast<double>(sent.data) ||
      tx(PacketClass::kSnack) < static_cast<double>(sent.snack) ||
      tx(PacketClass::kAdvertisement) < static_cast<double>(sent.adv)) {
    rep.fail("the simulator sent frames the engine never broadcast");
  }

  const LayerTotals& on_data = p[Layer::kSchemeOnData];
  rep.add("scheme.on_data_calls", static_cast<double>(on_data.calls), "count");
  rep.add("scheme.on_data_s", p.s(on_data.self), "s");
  rep.add("scheme.useful_frac",
          frac(static_cast<double>(c.on_data_useful),
               static_cast<double>(on_data.calls)),
          "frac");
  const struct {
    const char* name;
    Layer layer;
  } scheme_calls[] = {{"scheme.verify_stored", Layer::kSchemeVerifyStored},
                      {"scheme.on_signature", Layer::kSchemeOnSignature},
                      {"scheme.packet_payload", Layer::kSchemePacketPayload}};
  for (const auto& sc : scheme_calls) {
    rep.add(std::string(sc.name) + "_calls",
            static_cast<double>(p[sc.layer].calls), "count");
    rep.add(std::string(sc.name) + "_s", p.s(p[sc.layer].self), "s");
  }
  std::int64_t scheme_self = 0;
  for (const Layer l : {Layer::kSchemeOnData, Layer::kSchemeVerifyStored,
                        Layer::kSchemeOnSignature, Layer::kSchemePacketPayload,
                        Layer::kSchemeOther}) {
    scheme_self += p[l].self;
  }
  rep.add("scheme.self_s", p.s(scheme_self), "s");

  rep.add("crypto.hmac_calls", static_cast<double>(reg.hmac->calls()), "count");
  rep.add("crypto.hmac_s", p.s(reg.hmac->cycles()), "s");
  rep.add("crypto.sha_calls",
          static_cast<double>(reg.sha_batch->calls() + reg.sha_oneshot->calls()),
          "count");
  rep.add("crypto.sha_s",
          p.s(reg.sha_batch->cycles() + reg.sha_oneshot->cycles()), "s");
  rep.add("erasure.decode_calls",
          static_cast<double>(RegistryView::sum_calls(reg.decode)), "count");
  rep.add("erasure.decode_s", p.s(RegistryView::sum_cycles(reg.decode)), "s");
  rep.add("erasure.encode_calls",
          static_cast<double>(RegistryView::sum_calls(reg.encode)), "count");
  rep.add("erasure.encode_s", p.s(RegistryView::sum_cycles(reg.encode)), "s");

  rep.add("fleet.prepare_s", fleet.prepare_s, "s");
  rep.add("fleet.cell_us", fleet.cell_us, "us");
  rep.add("fleet.cell_overhead_s", fleet.cell_overhead_s, "s");

  // Every layer's self time plus the registry leaves, over the pass wall.
  std::int64_t attributed = 0;
  for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::kCount); ++l) {
    attributed += tr[static_cast<Layer>(l)].self;
  }
  const double attributed_s = p.s(attributed) + p.s(tr.registry_cycles());
  rep.add("trace.attributed_frac", frac(attributed_s, p.wall_s()), "frac");
  rep.add("trace.overhead_frac", frac(p.wall_s(), untraced_wall_s) - 1.0,
          "frac");
  rep.note("trace_wall_s", json_number(p.wall_s()));
  rep.note("untraced_wall_s", json_number(untraced_wall_s));
  rep.note("sha_batch_scalar_fallback_msgs",
           std::to_string(reg.sha_batch_msgs->value() -
                          reg.sha_batch_simd_msgs->value()));
}

// ---------------------------------------------------------------------------
// geo-10k and star20-paper: run_experiment on a scenario file

struct ScenarioWorkload {
  const char* scenario;         // path from the repository root
  std::size_t trials_per_rep;   // disseminations in one main-phase repetition
  std::uint64_t seed_stride;    // trial seed base = scenario seed + stride * seed
  std::size_t setups_per_rep;   // set-up samples taken before each repetition
};

lrs::core::ExperimentConfig load_config(const ScenarioWorkload& w) {
  std::string error;
  auto s = lrs::scenario::load_scenario_file(w.scenario, &error);
  if (!s) throw std::runtime_error(error);
  lrs::core::ExperimentConfig config = lrs::scenario::scenario_config(*s);
  // Throughput configuration, as bench_scale runs it: no invariant
  // probes, no trace export.
  config.check_invariants = false;
  config.trace = lrs::sim::TraceExportConfig{};
  return config;
}

/// The wiring this file reproduces in traced runs: LR-Seluge on one island,
/// uniform loss, no faults.
void require_replicable(const lrs::core::ExperimentConfig& c) {
  if (c.scheme != lrs::core::Scheme::kLrSeluge ||
      c.topo != lrs::core::ExperimentConfig::Topo::kSpec || c.islands ||
      c.faults.any() || c.gilbert_elliott || !c.per_node_loss.empty()) {
    throw std::runtime_error(
        "scenario outside the traced replica's wiring (lr-seluge, one "
        "island, uniform loss, no faults)");
  }
}

const lrs::Bytes kKeySeed{0x11, 0x22, 0x33, 0x44};  // run_experiment's signer

Outputs outputs_of(const lrs::core::ExperimentResult& r) {
  Outputs o;
  o.disseminations = 1;
  o.receivers = r.receivers;
  // run_experiment only says whether every completed image matched, so a
  // mismatch fails every receiver.
  o.failed = r.images_match ? r.receivers - r.completed : r.receivers;
  o.data = r.data_packets;
  o.snack = r.snack_packets;
  o.adv = r.adv_packets;
  o.bytes = r.total_bytes;
  o.latency_sum = r.latency_s;
  o.events = r.events_executed;
  return o;
}

Outputs outputs_of(const CellResult& r) {
  Outputs o;
  o.disseminations = 1;
  o.receivers = r.receivers;
  o.failed = r.receivers - r.exact;
  o.data = r.data_packets;
  o.snack = r.snack_packets;
  o.adv = r.adv_packets;
  o.bytes = r.total_bytes;
  o.latency_sum = r.latency_s;
  o.events = r.events;
  return o;
}

void accumulate(Outputs& sum, const Outputs& o) {
  sum.disseminations += o.disseminations;
  sum.receivers += o.receivers;
  sum.failed += o.failed;
  sum.data += o.data;
  sum.snack += o.snack;
  sum.adv += o.adv;
  sum.bytes += o.bytes;
  sum.latency_sum += o.latency_sum;
  sum.events += o.events;
}

/// One untraced pass over the trial block: per-trial outputs, and with a
/// `clock` one timed piece per trial.
std::vector<Outputs> run_trial_block(const lrs::core::ExperimentConfig& base,
                                     std::size_t trials, RepClock* clock) {
  std::vector<Outputs> out;
  out.reserve(trials);
  for (std::size_t i = 0; i < trials; ++i) {
    lrs::core::ExperimentConfig cfg = base;
    cfg.seed = base.seed + i;
    Outputs o;
    const auto trial = [&] { o = outputs_of(lrs::core::run_experiment(cfg)); };
    if (clock != nullptr) {
      clock->time(trial);
    } else {
      trial();
    }
    out.push_back(o);
  }
  return out;
}

void check_outputs(Report& rep, const std::vector<Outputs>& got,
                   const std::vector<Outputs>& want, const char* what) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!got[i].same_as(want[i])) {
      rep.fail(std::string(what) + ": dissemination " + std::to_string(i) +
               " differs from the first untraced pass");
      return;
    }
  }
}

Outputs total(const std::vector<Outputs>& v) {
  Outputs s;
  for (const Outputs& o : v) accumulate(s, o);
  return s;
}

void require_exact(Report& rep, const Outputs& o) {
  rep.attempted += o.receivers;
  rep.failed += o.failed;
  if (o.failed != 0) {
    rep.fail(std::to_string(o.failed) + " of " + std::to_string(o.receivers) +
             " receivers did not finish with a byte-exact image");
  }
}

/// Set-up: the per-trial calls run_experiment makes before the first
/// simulated event, from the scenario load on.
void set_up(const ScenarioWorkload& w, std::uint64_t trial_seed) {
  const lrs::core::ExperimentConfig cfg = load_config(w);
  const lrs::Bytes image = lrs::core::make_test_image(cfg.image_size, trial_seed);
  const lrs::sim::Topology topology = lrs::sim::build_topology(cfg.topo_spec);
  lrs::crypto::MultiKeySigner signer(lrs::view(kKeySeed), /*height=*/2);
  const auto source = lrs::core::make_lr_source(cfg.params, image, signer);
}

void run_scenario_untraced(const ScenarioWorkload& w, long seed,
                           double seconds, Report& rep) {
  lrs::core::ExperimentConfig config = load_config(w);
  require_replicable(config);
  config.seed += w.seed_stride * static_cast<std::uint64_t>(seed);

  Timings t;
  const auto start = Clock::now();
  // An untimed warm-up pass: its outputs are the reference for every timed
  // pass, and the peak RSS is read before the reference kernel exists.
  const std::vector<Outputs> first =
      run_trial_block(config, w.trials_per_rep, nullptr);
  t.peak_rss_mb = peak_rss_mb();
  t.dissem_ms.resize(w.trials_per_rep);
  ReferenceKernel kernel;
  while (t.wall_s.empty() || seconds_since(start) < seconds) {
    // Pieces in order: the set-up samples, then one per trial. Set-up
    // samples interleave with the repetitions, so a burst of host noise
    // cannot land on all of them at once.
    RepClock clock(kernel);
    for (std::size_t i = 0; i < w.setups_per_rep; ++i) {
      clock.time([&] { set_up(w, config.seed); });
    }
    const std::vector<Outputs> block =
        run_trial_block(config, w.trials_per_rep, &clock);
    double wall = 0.0, host = 0.0;
    for (std::size_t i = 0; i < clock.pieces(); ++i) {
      if (i < w.setups_per_rep) {
        t.setup_s.push_back(clock.nominal_s(i));
        continue;
      }
      t.dissem_ms[i - w.setups_per_rep].push_back(clock.nominal_s(i) * 1e3);
      wall += clock.nominal_s(i);
      host += clock.host_s(i);
    }
    t.wall_s.push_back(wall);
    t.host_wall_s.push_back(host);
    t.speed.push_back(clock.factor());
    check_outputs(rep, block, first, "repeat pass");
  }
  rep.note("reference_checksum", std::to_string(kernel.checksum()));
  const Outputs sum = total(first);
  t.events_per_rep = sum.events;
  require_exact(rep, sum);
  add_end_to_end(rep, t, sum, sum.receivers);
}

void run_scenario_traced(const ScenarioWorkload& w, long seed, Report& rep) {
  lrs::core::ExperimentConfig config = load_config(w);
  require_replicable(config);
  config.seed += w.seed_stride * static_cast<std::uint64_t>(seed);

  const auto t0 = Clock::now();
  const std::vector<Outputs> reference =
      run_trial_block(config, w.trials_per_rep, nullptr);
  const double untraced_wall = seconds_since(t0);

  TracedPass pass;
  Tracer* tracer = pass.tracer();
  std::vector<Outputs> traced;
  std::uint64_t collisions = 0;
  double cell_s = 0.0;
  for (std::size_t i = 0; i < w.trials_per_rep; ++i) {
    const std::uint64_t trial_seed = config.seed + i;
    const lrs::Bytes image =
        lrs::core::make_test_image(config.image_size, trial_seed);
    CellSetup setup;
    {
      Span span(tracer, Layer::kTopology);
      setup.topology = std::make_shared<const lrs::sim::Topology>(
          lrs::sim::build_topology(config.topo_spec));
    }
    lrs::crypto::PacketHash root_pk{};
    {
      Span span(tracer, Layer::kSource);
      lrs::crypto::MultiKeySigner signer(lrs::view(kKeySeed), /*height=*/2);
      root_pk = signer.root_public_key();
      setup.source = lrs::core::make_lr_source(config.params, image, signer);
    }
    setup.loss = config.loss_p > 0.0 ? lrs::sim::make_uniform_loss(config.loss_p)
                                     : lrs::sim::make_perfect_channel();
    setup.radio = config.radio;
    setup.seed = trial_seed;
    setup.make_receiver = [&] {
      return lrs::core::make_lr_receiver(config.params, root_pk);
    };
    setup.engine.timing = config.timing;
    setup.engine.dor_mitigation = config.dor_mitigation;
    setup.engine.leap_snack_auth = config.params.leap_snack_auth;
    setup.engine.leap_master = config.params.leap_master;
    setup.cluster_key = config.params.cluster_key;
    setup.time_limit = config.time_limit;
    const auto c0 = Clock::now();
    const CellResult r = run_cell(std::move(setup), image, tracer);
    cell_s += seconds_since(c0);
    collisions += r.collisions;
    traced.push_back(outputs_of(r));
  }
  pass.finish();

  check_outputs(rep, traced, reference, "traced pass");
  const Outputs sum = total(traced);
  require_exact(rep, sum);

  FleetLayer cells;  // the core cell runner in fleet terms (BENCHMARK.md)
  cells.cell_us = cell_s * 1e6 / static_cast<double>(w.trials_per_rep);
  cells.cell_overhead_s =
      pass.s(pass[Layer::kSimBuild].inclusive + pass[Layer::kCellOther].inclusive);
  add_per_layer(rep, pass, sum, collisions, untraced_wall, cells);
}

// ---------------------------------------------------------------------------
// fleet-16x64: FleetEngine, 16 tenants x 64 one-hop cells

constexpr std::size_t kTenants = 16;
constexpr std::size_t kCellsPerTenant = 64;

/// bench_fleet's small geometry, Trickle constants, loss rates and delta
/// cadence (every fifth tenant), codecs alternating rs / lrc.
lrs::fleet::TenantSpec tenant_spec(std::size_t t, long seed) {
  lrs::fleet::TenantSpec spec;
  spec.name = std::string(t < 10 ? "t0" : "t") + std::to_string(t);
  spec.params.payload_size = 32;
  spec.params.k = 8;
  spec.params.n = 12;
  spec.params.k0 = 4;
  spec.params.n0 = 8;
  spec.params.puzzle_strength = 4;
  spec.delta = (t % 5) == 4;
  spec.params.version = spec.delta ? 2 : static_cast<lrs::Version>(1 + t % 3);
  spec.params.codec = t % 2 == 0 ? lrs::erasure::CodecKind::kReedSolomon
                                 : lrs::erasure::CodecKind::kLrc;
  spec.image_size = 1024 + 512 * (t % 4);
  spec.seed = 2001 + kTenants * static_cast<std::uint64_t>(seed) + t;
  spec.cells = kCellsPerTenant;
  spec.receivers_min = 4;
  spec.receivers_max = 12;
  spec.loss_p = 0.01 + 0.02 * static_cast<double>(t % 3);
  spec.delta_page_size = 256;
  spec.timing.trickle.tau_low = 250 * lrs::sim::kMillisecond;
  spec.timing.trickle.tau_high = 4 * lrs::sim::kSecond;
  spec.time_limit = 600LL * lrs::sim::kSecond;
  return spec;
}

/// Whether two runs of one tenant gave the same deterministic result.
bool same_tenant(const lrs::fleet::TenantResult& a,
                 const lrs::fleet::TenantResult& b) {
  return a.phase == b.phase && a.cells == b.cells &&
         a.converged_cells == b.converged_cells && a.events == b.events &&
         a.data_packets == b.data_packets &&
         a.snack_packets == b.snack_packets && a.total_bytes == b.total_bytes &&
         a.latency_max_s == b.latency_max_s && a.images_ok == b.images_ok;
}

std::unique_ptr<lrs::fleet::FleetEngine> make_fleet(long seed) {
  auto engine = std::make_unique<lrs::fleet::FleetEngine>();
  for (std::size_t t = 0; t < kTenants; ++t) engine->add_tenant(tenant_spec(t, seed));
  return engine;
}

/// Deterministic fleet outputs. A dissemination is one tenant's campaign
/// over its cells, so its latency is the tenant's slowest cell. adv stays 0:
/// the FleetReport has no advertisement count.
Outputs outputs_of(const lrs::fleet::FleetReport& report) {
  Outputs o;
  o.disseminations = report.tenants.size();
  for (const auto& tr : report.tenants) {
    o.receivers += tr.cells;
    o.failed += tr.cells - tr.converged_cells;
    if (!tr.images_ok || tr.phase != lrs::fleet::TenantPhase::kConverged) {
      o.failed += tr.converged_cells;  // the tenant as a whole failed
    }
    o.data += tr.data_packets;
    o.snack += tr.snack_packets;
    o.bytes += tr.total_bytes;
    o.latency_sum += tr.latency_max_s;
  }
  o.events = report.events;
  return o;
}

/// The fleet's per-tenant signing seed (fleet/engine.cc), so replica cells
/// serve byte-identical signatures.
lrs::Bytes tenant_key_seed(const lrs::fleet::TenantSpec& spec) {
  lrs::Bytes seed;
  const std::uint64_t x = spec.seed ^ 0xf1ee7ULL;
  for (int i = 0; i < 8; ++i) seed.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
  for (const char c : spec.name) seed.push_back(static_cast<std::uint8_t>(c));
  return seed;
}

/// Runs every fleet cell again as a replica cell (cell.h), which is where
/// the advertisement count and — traced — the layer split come from.
/// Checks each tenant's replica aggregate against the FleetReport.
Outputs replay_fleet(const lrs::fleet::FleetEngine& engine, long seed,
                     const lrs::fleet::FleetReport& report, Tracer* tracer,
                     Report& rep, std::uint64_t* collisions) {
  struct Master {
    std::unique_ptr<lrs::core::Publisher> publisher;
    std::unique_ptr<lrs::proto::SchemeState> state;
  };
  std::vector<Master> masters;
  {
    Span span(tracer, Layer::kSource);
    for (std::size_t t = 0; t < kTenants; ++t) {
      const lrs::fleet::TenantSpec spec = tenant_spec(t, seed);
      const lrs::Bytes key = tenant_key_seed(spec);
      Master m;
      m.publisher = std::make_unique<lrs::core::Publisher>(
          spec.params, lrs::view(key), /*key_height=*/2);
      m.state = m.publisher->prepare(engine.payload(t));
      masters.push_back(std::move(m));
    }
  }

  Outputs sum;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const lrs::fleet::TenantSpec spec = tenant_spec(t, seed);
    const lrs::crypto::PacketHash root = masters[t].publisher->root_public_key();
    Outputs tenant;
    double tenant_latency = 0.0;
    for (std::size_t c = 0; c < spec.cells; ++c) {
      CellSetup setup;
      {
        Span span(tracer, Layer::kSource);
        setup.source = masters[t].state->clone_source();
      }
      {
        Span span(tracer, Layer::kTopology);
        setup.topology = std::make_shared<const lrs::sim::Topology>(
            lrs::sim::Topology::star(lrs::fleet::cell_receivers(spec, c)));
      }
      setup.loss = spec.loss_p > 0.0 ? lrs::sim::make_uniform_loss(spec.loss_p)
                                     : lrs::sim::make_perfect_channel();
      setup.seed = lrs::fleet::cell_seed(spec, c);
      setup.make_receiver = [&] {
        return lrs::core::make_lr_receiver(spec.params, root);
      };
      setup.engine.timing = spec.timing;
      setup.engine.leap_snack_auth = spec.params.leap_snack_auth;
      setup.engine.leap_master = spec.params.leap_master;
      setup.cluster_key = spec.params.cluster_key;
      setup.time_limit = spec.time_limit;
      const CellResult r = run_cell(std::move(setup), engine.payload(t), tracer);
      if (collisions != nullptr) *collisions += r.collisions;
      tenant.receivers += 1;
      tenant.failed += r.exact == r.receivers ? 0 : 1;
      tenant.data += r.data_packets;
      tenant.snack += r.snack_packets;
      tenant.adv += r.adv_packets;
      tenant.bytes += r.total_bytes;
      tenant.events += r.events;
      tenant_latency = std::max(tenant_latency, r.latency_s);
    }
    const lrs::fleet::TenantResult& want = report.tenants[t];
    if (tenant.data != want.data_packets || tenant.snack != want.snack_packets ||
        tenant.bytes != want.total_bytes || tenant.events != want.events ||
        tenant_latency != want.latency_max_s) {
      rep.fail("replica cells of tenant " + want.name +
               " differ from the FleetEngine run");
    }
    tenant.disseminations = 1;
    tenant.latency_sum = tenant_latency;
    accumulate(sum, tenant);
  }
  return sum;
}

void require_fleet_exact(Report& rep, const Outputs& o) {
  rep.attempted += o.receivers;
  rep.failed += o.failed;
  if (o.failed != 0) {
    rep.fail(std::to_string(o.failed) + " of " + std::to_string(o.receivers) +
             " fleet cells did not converge byte-exact (images_ok)");
  }
}

void run_fleet_untraced(long seed, double seconds, Report& rep) {
  Timings t;
  const auto start = Clock::now();
  // An untimed warm-up run of the whole fleet in one engine: its report is
  // the reference for every timed repetition, and the peak RSS is read
  // before the reference kernel exists.
  const std::unique_ptr<lrs::fleet::FleetEngine> engine = make_fleet(seed);
  engine->prepare();
  const lrs::fleet::FleetReport first = engine->run(/*jobs=*/1);
  t.peak_rss_mb = peak_rss_mb();
  t.dissem_ms.resize(kTenants);
  ReferenceKernel kernel;
  while (t.wall_s.empty() || seconds_since(start) < seconds) {
    // A timed repetition runs each tenant in an engine of its own, so the
    // reference kernel can run between tenants. Cell seeds and keys depend
    // on the tenant's spec alone, so each tenant's result must equal its
    // result in the one-engine run.
    // Pieces in order: tenant i's prepare() is piece 2i, its run(1) 2i+1.
    RepClock clock(kernel);
    for (std::size_t i = 0; i < kTenants; ++i) {
      lrs::fleet::FleetEngine one;
      one.add_tenant(tenant_spec(i, seed));
      clock.time([&] { one.prepare(); });
      lrs::fleet::FleetReport report;
      clock.time([&] { report = one.run(/*jobs=*/1); });
      if (!same_tenant(report.tenants.at(0), first.tenants.at(i))) {
        rep.fail("tenant " + first.tenants[i].name +
                 " in an engine of its own differs from the one-engine run");
      }
    }
    double setup = 0.0, wall = 0.0, host = 0.0;
    for (std::size_t i = 0; i < kTenants; ++i) {
      setup += clock.nominal_s(2 * i);
      t.dissem_ms[i].push_back(clock.nominal_s(2 * i + 1) * 1e3);
      wall += clock.nominal_s(2 * i + 1);
      host += clock.host_s(2 * i + 1);
    }
    t.setup_s.push_back(setup);
    t.wall_s.push_back(wall);
    t.host_wall_s.push_back(host);
    t.speed.push_back(clock.factor());
  }
  rep.note("reference_checksum", std::to_string(kernel.checksum()));
  Outputs o = outputs_of(first);
  t.events_per_rep = o.events;
  require_fleet_exact(rep, o);
  add_end_to_end(rep, t, o, o.receivers);

  // adv_pkts: the FleetReport has no advertisement count, the replica does.
  const Outputs replica = replay_fleet(*engine, seed, first, nullptr, rep,
                                       nullptr);
  for (Metric& m : rep.metrics) {
    if (m.name == "adv_pkts") {
      m.value = static_cast<double>(replica.adv) /
                static_cast<double>(replica.disseminations);
    }
  }
}

void run_fleet_traced(long seed, Report& rep) {
  // Untraced reference run; like the traced pass it prepares every tenant.
  auto engine = make_fleet(seed);
  const auto t0 = Clock::now();
  engine->prepare();
  const lrs::fleet::FleetReport reference = engine->run(/*jobs=*/1);
  const double untraced_wall = seconds_since(t0);
  require_fleet_exact(rep, outputs_of(reference));

  // The fleet layer timed from outside and by its own registry scopes.
  FleetLayer fleet;
  {
    RegistryView view;
    lrs::stats::Registry::instance().reset_values();
    lrs::stats::set_enabled(true);
    auto timed = make_fleet(seed);
    const auto p0 = Clock::now();
    timed->prepare();
    fleet.prepare_s = seconds_since(p0);
    const auto r0 = Clock::now();
    const std::uint64_t c0 = lrs::stats::now_cycles();
    const lrs::fleet::FleetReport report = timed->run(/*jobs=*/1);
    const double hz = static_cast<double>(lrs::stats::now_cycles() - c0) /
                      seconds_since(r0);
    lrs::stats::set_enabled(false);
    if (!outputs_of(report).same_as(outputs_of(reference))) {
      rep.fail("registry-enabled FleetEngine run differs from the reference");
    }
    fleet.cell_us = static_cast<double>(view.fleet_run_cell->cycles()) / hz *
                    1e6 / static_cast<double>(report.cells);
    fleet.cell_overhead_s =
        static_cast<double>(view.fleet_run_cell->cycles() -
                            view.sim_run->cycles()) /
        hz;
  }

  // Every cell again as a traced replica: the layer split.
  TracedPass pass;
  std::uint64_t collisions = 0;
  const Outputs traced = replay_fleet(*engine, seed, reference, pass.tracer(),
                                      rep, &collisions);
  pass.finish();
  add_per_layer(rep, pass, traced, collisions, untraced_wall, fleet);
}

// ---------------------------------------------------------------------------

// geo-10k keeps the scenario's own trial seed for every --seed: shifted
// trial seeds leave a receiver unfinished at the 4-hour limit on about half
// of them, and its one dissemination's latency moves by a third between
// seeds that do finish (BENCHMARK.md).
const ScenarioWorkload kGeo10k{"scenarios/geo-10k.scn", 1, 0, 3};
const ScenarioWorkload kStar20{"scenarios/star20-paper.scn", 100, 1, 2};

struct Args {
  std::string workload;
  long seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") a->workload = v;
      else if (k == "--seed") a->seed = std::stol(v);
      else if (k == "--seconds") a->seconds = std::stod(v);
      else if (k == "--trace") a->trace = std::stoi(v);
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         a->seed >= 0 && (a->trace == 0 || a->trace == 1);
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload geo-10k|star20-paper|fleet-16x64"
                 " --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  Report rep;
  note_context(rep, args.workload, args.seed, args.trace);
  if (args.workload == "geo-10k" || args.workload == "star20-paper") {
    const ScenarioWorkload& w = args.workload == "geo-10k" ? kGeo10k : kStar20;
    if (args.trace == 1) {
      run_scenario_traced(w, args.seed, rep);
    } else {
      run_scenario_untraced(w, args.seed, args.seconds, rep);
    }
  } else if (args.workload == "fleet-16x64") {
    if (args.trace == 1) {
      run_fleet_traced(args.seed, rep);
    } else {
      run_fleet_untraced(args.seed, args.seconds, rep);
    }
  } else {
    std::cerr << "perfbench: unknown workload " << args.workload << "\n";
    return 2;
  }

  std::ostringstream ctx;
  ctx << "{\"context\": {";
  for (std::size_t i = 0; i < rep.context.size(); ++i) {
    ctx << (i ? ", " : "") << json_string(rep.context[i].first) << ": "
        << rep.context[i].second;
  }
  ctx << "}}";
  std::cout << ctx.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\": " << (rep.correct ? "true" : "false")
      << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    out << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
        << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return rep.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
