// Shared plumbing for the figure/table harnesses: each binary regenerates
// one table or figure of the paper's evaluation (§V-§VI), printing an
// aligned human-readable table plus machine-readable CSV, and writing a
// provenance-stamped BENCH_<name>.json artifact for cross-PR comparison.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/provenance.h"
#include "core/run_trials.h"
#include "sim/scenario/scenario.h"
#include "sim/stats/stats.h"
#include "util/args.h"
#include "util/csv.h"

namespace lrs::bench {

/// Flags shared by every figure/table harness:
///   --repeats=R    seeds averaged per sweep point (default: the harness's
///                  historical seed count; --quick forces 1 unless given)
///   --jobs=J       worker threads for the trial runner (default: LRS_JOBS
///                  env or hardware concurrency)
///   --quick        shrink the sweep to a smoke-test subset — used by CI
///   --trace=P      record the structured event trace of the first trial
///                  to P (JSONL) plus a Chrome-trace twin at
///                  P-with-extension-.chrome.json
///   --timeseries=P write the sampled progress counters of the first trial
///                  to P (JSON)
///   --trace-all    trace every (config, trial) cell of the sweep to
///                  derived ".cN.tM" paths instead of only the first
///   --scenario=F   replace every sweep point's deployment environment
///                  (topology, channel, fault plan and node schedules) with
///                  the one declared in scenario file F (scenarios/*.scn,
///                  docs/scenarios.md) — the harness keeps sweeping its own
///                  scheme/parameter axis on the scenario's network
///   --metrics=M    enable the runtime metrics registry (sim/stats) and
///                  write its JSON export to M at exit ("-" = stdout);
///                  deterministic counters stay byte-identical across
///                  LRS_JOBS settings, timing columns do not
///   --metrics-heartbeat=S  with --metrics: print a progress line to
///                  stderr every S seconds (long-run liveness signal)
struct BenchOptions {
  std::size_t repeats = 3;
  std::size_t jobs = 0;  // 0 = core::default_jobs()
  bool quick = false;
  std::string trace;       // JSONL event-log path; empty = no trace
  std::string timeseries;  // progress time-series path; empty = none
  bool trace_all = false;
  std::string scenario;    // .scn file overriding the deployment; empty = none
};

/// "t.jsonl" -> "t.chrome.json" (tag appended when there is no extension).
inline std::string chrome_trace_path(const std::string& events_path) {
  const auto slash = events_path.find_last_of('/');
  const auto dot = events_path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return events_path + ".chrome.json";
  }
  return events_path.substr(0, dot) + ".chrome.json";
}

/// The sim-layer export destinations encoded by the --trace/--timeseries
/// (and --trace-all) flags. Empty (disabled — the null-recorder fast path)
/// when neither path was given.
inline sim::TraceExportConfig trace_config(const std::string& trace,
                                           const std::string& timeseries,
                                           bool all_trials = false) {
  sim::TraceExportConfig t;
  t.events_path = trace;
  if (!trace.empty()) t.chrome_path = chrome_trace_path(trace);
  t.timeseries_path = timeseries;
  t.all_trials = all_trials;
  return t;
}

inline sim::TraceExportConfig trace_config(const BenchOptions& opt) {
  return trace_config(opt.trace, opt.timeseries, opt.trace_all);
}

/// Arms the metrics registry per --metrics/--metrics-heartbeat: enables
/// recording, zeroes any registration-time residue, optionally starts the
/// heartbeat thread, and registers an atexit export so every exit path
/// (including std::exit from a later usage error) writes the file. Safe to
/// call with an empty path (no-op) and from raw-Args harnesses.
inline void arm_metrics_export(const std::string& path,
                               double heartbeat_period_s) {
  if (path.empty()) return;
  static std::string g_path;  // handler state: atexit takes no capture
  g_path = path;
  stats::Registry::instance().reset_values();
  stats::set_enabled(true);
  if (heartbeat_period_s > 0) stats::start_heartbeat(heartbeat_period_s);
  std::atexit([] {
    stats::write_metrics_json(g_path, core::provenance_json("  "));
  });
}

/// The flag checks every harness ends with. Reads --metrics and
/// --metrics-heartbeat, then rejects a heartbeat without a metrics file,
/// every parse error and every unknown flag. When any of those, or the
/// harness's own checks (`bad`), failed, prints
/// "usage: <argv0> <flags>" and exits 2; otherwise arms the metrics
/// export.
inline void finish_flags(Args& args, bool bad, const char* argv0,
                         const std::string& flags) {
  const std::string metrics = args.get("metrics", "");
  const double heartbeat = args.get_double("metrics-heartbeat", 0.0);
  if (heartbeat < 0 || (heartbeat > 0 && metrics.empty())) {
    std::cerr << "error: --metrics-heartbeat needs --metrics=FILE and a"
                 " positive period\n";
    bad = true;
  }
  for (const auto& e : args.errors()) {
    std::cerr << "error: " << e << "\n";
    bad = true;
  }
  for (const auto& u : args.unknown()) {
    std::cerr << "error: unknown flag " << u << "\n";
    bad = true;
  }
  if (bad) {
    std::cerr << "usage: " << argv0 << " " << flags << "\n";
    std::exit(2);
  }
  arm_metrics_export(metrics, heartbeat);
}

/// True (after printing the error) when --trace-all was given without a
/// trace or time-series path to apply it to.
inline bool trace_all_without_paths(const sim::TraceExportConfig& t) {
  if (!t.all_trials || !t.events_path.empty() || !t.timeseries_path.empty())
    return false;
  std::cerr << "error: --trace-all needs --trace and/or --timeseries\n";
  return true;
}

inline BenchOptions parse_bench_options(int argc, const char* const* argv,
                                        std::size_t default_repeats) {
  Args args(argc, argv);
  BenchOptions opt;
  opt.quick = args.get_bool("quick", false);
  const long repeats =
      args.get_int("repeats",
                   static_cast<long>(opt.quick ? 1 : default_repeats));
  const long jobs = args.get_int("jobs", 0);
  opt.trace = args.get("trace", "");
  opt.timeseries = args.get("timeseries", "");
  opt.trace_all = args.get_bool("trace-all", false);
  opt.scenario = args.get("scenario", "");
  const bool bad = repeats < 1 || jobs < 0 ||
                   trace_all_without_paths(trace_config(opt));
  finish_flags(args, bad, argv[0],
               "[--repeats=R] [--jobs=J] [--quick] [--trace=T.jsonl]"
               " [--timeseries=TS.json] [--trace-all]"
               " [--scenario=F.scn] [--metrics=M.json]"
               " [--metrics-heartbeat=S]");
  opt.repeats = static_cast<std::size_t>(repeats);
  opt.jobs = static_cast<std::size_t>(jobs);
  return opt;
}

/// Transplants the scenario's deployment environment — topology spec,
/// channel/loss model, fault plan and node schedules — into `config`,
/// leaving the harness's scheme, coding geometry and timing untouched.
inline void apply_scenario_environment(core::ExperimentConfig& config,
                                       const scenario::Scenario& s) {
  const core::ExperimentConfig env = scenario::scenario_config(s);
  config.topo = env.topo;
  config.topo_spec = env.topo_spec;
  config.link = env.link;
  config.loss_p = env.loss_p;
  config.gilbert_elliott = env.gilbert_elliott;
  config.ge = env.ge;
  config.per_node_loss = env.per_node_loss;
  config.faults = env.faults;
}

/// Loads opt.scenario (when set) or exits with the parse error — harness
/// startup, where a bad file should fail fast with the offending line.
inline std::optional<scenario::Scenario> load_bench_scenario(
    const BenchOptions& opt) {
  if (opt.scenario.empty()) return std::nullopt;
  std::string error;
  auto s = scenario::load_scenario_file(opt.scenario, &error);
  if (!s) {
    std::cerr << "error: " << error << "\n";
    std::exit(2);
  }
  return s;
}

/// Runs every config in the sweep through the parallel trial runner;
/// result i averages opt.repeats seeds of configs[i]. Trace flags apply to
/// the whole sweep: cell (config 0, trial 0) writes the exact requested
/// paths, other cells only under --trace-all (see sim::trace_for_trial).
/// Under --scenario=F.scn every sweep point runs on F's deployment.
inline std::vector<core::ExperimentResult> run_sweep(
    std::vector<core::ExperimentConfig> configs, const BenchOptions& opt) {
  if (const auto s = load_bench_scenario(opt)) {
    for (auto& c : configs) apply_scenario_environment(c, *s);
  }
  const sim::TraceExportConfig trace = trace_config(opt);
  for (auto& c : configs) c.trace = trace;
  return core::run_experiments_avg(configs, opt.repeats, opt.jobs);
}

/// Paper-scale defaults: 20 KB image, k = 32, n = 48 (rate 1.5), 64-byte
/// payloads, N = 20 receivers, Deluge Trickle constants.
inline core::ExperimentConfig paper_config(core::Scheme scheme) {
  core::ExperimentConfig c;
  c.scheme = scheme;
  c.params.payload_size = 64;
  c.params.k = 32;
  c.params.n = 48;
  c.params.k0 = 8;
  c.params.n0 = 16;
  c.params.puzzle_strength = 8;
  c.image_size = 20 * 1024;
  c.receivers = 20;
  c.seed = 1;
  c.timing.trickle.tau_low = 2 * sim::kSecond;
  c.timing.trickle.tau_high = 60 * sim::kSecond;
  return c;
}

/// The paper's five metrics — plus received bytes (rx-side goodput) and an
/// explicit completion flag, so an incomplete run is visible instead of
/// silently reporting the time-limit as latency.
inline std::vector<std::string> metric_cells(
    const core::ExperimentResult& r) {
  return {format_num(static_cast<double>(r.data_packets)),
          format_num(static_cast<double>(r.snack_packets)),
          format_num(static_cast<double>(r.adv_packets)),
          format_num(static_cast<double>(r.total_bytes)),
          format_num(static_cast<double>(r.received_bytes)),
          format_num(r.latency_s, 1),
          r.all_complete ? "true" : "false"};
}

inline const std::vector<std::string> kMetricHeader = {
    "data_pkts", "snack_pkts", "adv_pkts",  "total_bytes",
    "recv_bytes", "latency_s",  "completed"};

inline void print_table(const std::string& title, const Table& table) {
  std::cout << "\n== " << title << " ==\n";
  table.print(std::cout);
  std::cout << "\n-- CSV --\n";
  table.print_csv(std::cout);
  std::cout.flush();
}

/// Where BENCH_<name>.json goes: the LRS_BENCH_JSON path when set, else
/// BENCH_<name>.json in the working directory. Empty when LRS_BENCH_JSON is
/// "none" (skip the artifact).
inline std::string bench_json_path(const std::string& name) {
  const char* env = std::getenv("LRS_BENCH_JSON");
  const std::string path =
      env != nullptr && env[0] != '\0' ? env : "BENCH_" + name + ".json";
  return path == "none" ? "" : path;
}

/// Writes the harness result table as BENCH_<name>.json (core::bench_json:
/// the run-provenance manifest plus harness-level `extra` facts such as
/// repeats and sweep shape) to bench_json_path(name).
inline void write_bench_json(
    const std::string& name, const Table& table,
    const std::vector<std::pair<std::string, std::string>>& extra = {}) {
  const std::string path = bench_json_path(name);
  if (path.empty()) return;
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  out << core::bench_json(name, table, extra);
  std::cout << "wrote " << path << "\n";
}

/// Standard provenance extras for a sweep harness: seed averaging shape.
inline std::vector<std::pair<std::string, std::string>> sweep_extras(
    const BenchOptions& opt, std::uint64_t seed_base = 1) {
  return {{"seed_base", std::to_string(seed_base)},
          {"repeats", std::to_string(opt.repeats)},
          {"quick", opt.quick ? "true" : "false"}};
}

/// Resets the kernel's RSS high-water mark ("5" into /proc/self/clear_refs,
/// proc(5)) so the next peak_rss_mb() call reports this rung's own peak
/// rather than the process-lifetime maximum. Best-effort: a no-op on
/// kernels without the file, where rows fall back to the monotonic maximum.
inline void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (f) f << "5";
}

/// Peak RSS in MiB at KiB resolution: VmHWM from /proc/self/status (the
/// value reset_peak_rss clears), falling back to getrusage's ru_maxrss.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      try {
        return std::stod(line.substr(6)) / 1024.0;  // KiB -> MiB
      } catch (...) {
        break;
      }
    }
  }
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---------------------------------------------------------------------------
// Self-timed micro-benchmark sweeps (bench_micro_crypto, bench_micro_erasure)
// ---------------------------------------------------------------------------

/// Keeps `value`, and the work that computed it, from being optimized away:
/// the empty asm statement takes its address and may read any memory.
template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// One timed operation. Speedup rows ("/speedup/" in the name) carry the
/// ratio in mb_per_s; Monte Carlo rate rows ("_rate/") carry the rate in
/// mb_per_s and the sample count in ns_per_op; latency-only rows have
/// mb_per_s == 0.
struct SweepResult {
  std::string name;
  double mb_per_s;
  double ns_per_op;
};

/// Times fn (which processes `bytes` payload bytes per call): three
/// repetitions of ~150 ms each after a calibration warmup, keeping the
/// fastest — the standard defense against scheduler and hypervisor noise on
/// shared CI machines. Returns {MB/s, ns/op}.
template <typename Fn>
SweepResult time_op(const std::string& name, std::size_t bytes, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  // Warmup + iteration calibration.
  std::size_t iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (elapsed > 0.02 || iters > (1u << 24)) break;
    iters *= 4;
  }
  double best_ns_per_op = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    std::size_t done = 0;
    double elapsed = 0;
    do {
      for (std::size_t i = 0; i < iters; ++i) fn();
      done += iters;
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (elapsed < 0.15);
    const double ns_per_op = elapsed * 1e9 / static_cast<double>(done);
    if (rep == 0 || ns_per_op < best_ns_per_op) best_ns_per_op = ns_per_op;
  }
  const double mb_per_s =
      static_cast<double>(bytes) * 1e3 / best_ns_per_op;
  return {name, mb_per_s, best_ns_per_op};
}

/// The sweep in long form: one (name, metric, value) row per measured
/// number, metric one of mb_per_s, ns_per_op, speedup, rate, decodes.
/// Values keep the ostream default precision (6 significant digits).
inline Table sweep_table(const std::vector<SweepResult>& results) {
  Table table({"name", "metric", "value"});
  const auto sig6 = [](double v) {
    std::ostringstream os;
    os << v;
    return os.str();
  };
  for (const auto& r : results) {
    if (r.name.find("/speedup/") != std::string::npos) {
      table.add_row({r.name, "speedup", sig6(r.mb_per_s)});
    } else if (r.name.find("_rate/") != std::string::npos) {
      table.add_row({r.name, "rate", sig6(r.mb_per_s)});
      table.add_row({r.name, "decodes",
                     std::to_string(static_cast<std::size_t>(r.ns_per_op))});
    } else {
      if (r.mb_per_s != 0) {
        table.add_row({r.name, "mb_per_s", sig6(r.mb_per_s)});
      }
      table.add_row({r.name, "ns_per_op", sig6(r.ns_per_op)});
    }
  }
  return table;
}

}  // namespace lrs::bench
