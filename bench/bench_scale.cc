// Simulator-core throughput trajectory (ISSUE 6 tentpole, extended with
// the ISSUE 7 island rungs).
//
// Runs the scale ladder — the paper's two 225-node grids, the cells-1k
// island-executor rung, the 2000- and 10000-node geometric deployments and
// the 100000-node cells fleet — through the deterministic trial runner and
// reports events/sec and peak RSS alongside the protocol metrics. Invariant probing and tracing are forced off so the
// harness prices exactly the event core plus the protocol work, nothing
// else.
//
//   ./bench_scale                 # full ladder (225 / 225 / 1k / 2k / 10k / 100k)
//   ./bench_scale --quick         # CI tier: the grids + cells-1k + geo-2k
//   ./bench_scale --scales=geo-10k
//
// Flags: --repeats=R (override each scenario's trial block), --jobs=J,
// --scenario-dir=D (default: the source tree's scenarios/), --list,
// --metrics=M.json [--metrics-heartbeat=S] (runtime metrics export,
// bench/common.h), and the regression gate: --baseline=BENCH_scale.json
// [--gate=0.20] compares events/sec per ladder row against a previous
// artifact and exits 1 when any row regressed more than the gate fraction.
//
// Column contract (docs/performance.md): every column up to and including
// "expected" is a pure function of (scenario, seed) and must be
// byte-identical for any worker count — CI diffs them serial vs LRS_JOBS.
// That includes the island-executor columns: "islands" is the radio-island
// count and "imbalance" the max/mean per-island event-load ratio (1.0 for
// single-island rungs), both derived from deterministic event counts.
// The trailing wall_s / events_per_sec / peak_rss_mb columns are
// machine-dependent timing and are excluded from determinism comparisons.
// peak_rss_mb is per rung: the kernel's RSS high-water mark is reset
// (/proc/self/clear_refs) before each scenario and read back at KiB
// resolution (VmHWM, printed with matching precision), so small rungs no
// longer inherit — and tie at — the process-lifetime maximum of whatever
// ran before them.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "bench/json.h"
#include "core/parallel.h"
#include "core/run_trials.h"
#include "sim/scenario/scenario.h"
#include "util/args.h"
#include "util/csv.h"

namespace lrs {
namespace {

/// The ladder, smallest to largest. cells-1k and geo-100k run through the
/// island executor (islands = true in their trial blocks): one base per
/// radio-isolated cell, simulated island-by-island on LRS_JOBS workers.
const std::vector<std::string> kLadder = {
    "grid15x15-tight", "grid15x15-medium", "cells-1k",
    "geo-2k",          "geo-10k",          "geo-100k"};
const std::vector<std::string> kQuickLadder = {
    "grid15x15-tight", "grid15x15-medium", "cells-1k", "geo-2k"};

std::vector<std::string> split_csv_list(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// Column `column` of the row whose "scenario" cell is `scenario` in a
/// BENCH_scale.json document, when that cell is a number.
std::optional<double> baseline_cell(const bench::Json& doc,
                                    const std::string& scenario,
                                    const std::string& column) {
  const auto& columns = doc.find("columns")->array;
  std::size_t name_col = columns.size(), want_col = columns.size();
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].str == "scenario") name_col = c;
    if (columns[c].str == column) want_col = c;
  }
  if (name_col == columns.size() || want_col == columns.size())
    return std::nullopt;
  for (const bench::Json& row : doc.find("rows")->array) {
    if (row.array.size() <= std::max(name_col, want_col)) continue;
    if (row.array[name_col].str != scenario) continue;
    const bench::Json& cell = row.array[want_col];
    if (!cell.is(bench::Json::Kind::kNumber)) return std::nullopt;
    return cell.number;
  }
  return std::nullopt;
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const bool list_only = args.get_bool("list", false);
  const long repeats_flag = args.get_int("repeats", 0);  // 0 = per-scenario
  const long jobs_flag = args.get_int("jobs", 0);
  const std::string dir = args.get("scenario-dir", LRS_SCENARIO_DIR);
  const std::string scales_flag = args.get("scales", "");
  const std::string baseline_path = args.get("baseline", "");
  const double gate = args.get_double("gate", 0.20);
  bool bad = repeats_flag < 0 || jobs_flag < 0 || gate < 0.0 || gate >= 1.0;
  if (!args.positional().empty()) {
    std::cerr << "error: bench_scale takes no positional arguments\n";
    bad = true;
  }
  bench::finish_flags(args, bad, argv[0],
                      "[--quick] [--scales=a,b] [--repeats=R] [--jobs=J]"
                      " [--scenario-dir=D] [--baseline=F.json] [--gate=0.20]"
                      " [--metrics=M.json] [--metrics-heartbeat=S] [--list]");
  const std::size_t jobs = jobs_flag > 0 ? static_cast<std::size_t>(jobs_flag)
                                         : core::default_jobs();

  const std::vector<std::string> ladder =
      !scales_flag.empty() ? split_csv_list(scales_flag)
      : quick              ? kQuickLadder
                           : kLadder;

  std::vector<scenario::Scenario> library;
  for (const auto& name : ladder) {
    const std::string path = dir + "/" + name + ".scn";
    std::string error;
    auto s = scenario::load_scenario_file(path, &error);
    if (!s) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    library.push_back(std::move(*s));
  }

  if (list_only) {
    Table listing({"scenario", "topology", "nodes", "repeats"});
    for (const auto& s : library) {
      listing.add_row({s.name, sim::topology_kind_name(s.topo.kind),
                       std::to_string(s.topo.node_count()),
                       std::to_string(s.repeats)});
    }
    bench::print_table("scale ladder", listing);
    return 0;
  }

  // Read the baseline before the run: this run's own artifact may be
  // written to the same path.
  std::optional<bench::Json> baseline;
  if (!baseline_path.empty()) {
    baseline = bench::parse_json_file(baseline_path);
    if (!baseline || !baseline->find("columns") || !baseline->find("rows")) {
      std::cerr << "error: cannot read baseline " << baseline_path << "\n";
      return 2;
    }
  }

  Table table({"scenario", "nodes", "mean_degree", "repeats", "events",
               "data_pkts", "snack_pkts", "adv_pkts", "total_bytes",
               "recv_bytes", "latency_s", "min_completed", "islands",
               "imbalance", "expected", "wall_s", "events_per_sec",
               "peak_rss_mb"});
  bool all_complete = true;

  for (const auto& s : library) {
    core::ExperimentConfig config = scenario::scenario_config(s);
    // Throughput run: no invariant probes, no tracing — the row prices the
    // event core plus protocol work only.
    config.check_invariants = false;
    config.trace = sim::TraceExportConfig{};
    const std::size_t repeats =
        repeats_flag > 0 ? static_cast<std::size_t>(repeats_flag) : s.repeats;

    // mean_degree is a pure function of the (deterministic) placement; it
    // documents what "nodes" means radio-wise at this rung of the ladder.
    const double degree = sim::build_topology(config.topo_spec).mean_degree();

    bench::reset_peak_rss();
    const auto t0 = std::chrono::steady_clock::now();
    const auto trials = core::run_trials(config, repeats, jobs);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall =
        std::chrono::duration<double>(t1 - t0).count();

    const auto avg = core::aggregate_trials(trials);
    std::uint64_t events = 0;
    std::size_t min_completed = trials.empty() ? 0 : trials[0].completed;
    for (const auto& r : trials) {
      events += r.events_executed;
      min_completed = std::min(min_completed, r.completed);
    }
    if (min_completed < s.expected_complete()) {
      all_complete = false;
      std::cerr << "FAIL " << s.name << ": " << min_completed << "/"
                << s.expected_complete() << " expected receivers finished\n";
    }

    // Deterministic load attribution for the island-executor rungs:
    // max/mean per-island event-load ratio, exactly 1.0 when the rung runs
    // the classic single-simulator path. Both factors are trial sums, so
    // the ratio is the trial-weighted imbalance.
    const double imbalance =
        avg.events_executed == 0
            ? 1.0
            : static_cast<double>(avg.max_island_events) *
                  static_cast<double>(avg.islands) /
                  static_cast<double>(avg.events_executed);

    table.add_row({s.name, std::to_string(s.topo.node_count()),
                   format_num(degree, 1), std::to_string(repeats),
                   std::to_string(events),
                   format_num(static_cast<double>(avg.data_packets)),
                   format_num(static_cast<double>(avg.snack_packets)),
                   format_num(static_cast<double>(avg.adv_packets)),
                   format_num(static_cast<double>(avg.total_bytes)),
                   format_num(static_cast<double>(avg.received_bytes)),
                   format_num(avg.latency_s, 1),
                   std::to_string(min_completed),
                   std::to_string(avg.islands),
                   format_num(imbalance, 3),
                   std::to_string(s.expected_complete()),
                   format_num(wall, 3),
                   format_num(static_cast<double>(events) / wall),
                   format_num(bench::peak_rss_mb(), 3)});
  }

  bench::print_table("simulator scale ladder", table);

  std::vector<std::pair<std::string, std::string>> extras = {
      {"quick", quick ? "true" : "false"},
      {"jobs", std::to_string(jobs)}};
  bench::write_bench_json("scale", table, extras);

  int rc = all_complete ? 0 : 1;
  if (baseline) {
    for (std::size_t i = 0; i < library.size(); ++i) {
      const std::string& name = library[i].name;
      const auto before = baseline_cell(*baseline, name, "events_per_sec");
      if (!before) {
        std::cout << "gate: " << name << " not in baseline, skipped\n";
        continue;
      }
      const auto& row = table.row_data()[i];
      const double now = std::stod(row[row.size() - 2]);  // events_per_sec
      const double floor = *before * (1.0 - gate);
      const bool ok = now >= floor;
      std::cout << "gate: " << name << " events/sec " << format_num(now)
                << " vs baseline " << format_num(*before) << " (floor "
                << format_num(floor) << ") -> " << (ok ? "ok" : "REGRESSED")
                << "\n";
      if (!ok) rc = 1;
    }
  }
  return rc;
}

}  // namespace
}  // namespace lrs

int main(int argc, char** argv) { return lrs::run(argc, argv); }
