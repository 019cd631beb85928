// Scenario campaign runner (ISSUE 5 tentpole).
//
// Loads declarative scenario files (scenarios/*.scn, docs/scenarios.md),
// runs each one's trial block through the deterministic parallel trial
// runner, and reports the paper's metrics per scenario plus a pass/fail
// verdict: at least `expected_complete()` receivers finished in every
// trial, every completed receiver reassembled the exact image, and — when
// the scenario enables it — the invariant observer ran clean.
//
//   ./bench_campaign                        # every scenarios/*.scn of the
//                                           # source tree, from any cwd
//   ./bench_campaign scenarios/churn.scn    # explicit files/directories
//
// Flags: --repeats=R (override every scenario's trial block), --jobs=J,
// --quick (one repeat per scenario), --list (parse, validate and print the
// library without running), --trace=T.jsonl / --timeseries=TS.json /
// --trace-all (structured event traces, docs/observability.md). Writes
// BENCH_campaign.json (LRS_BENCH_JSON convention); rows are bit-identical
// for any worker count, so serial and LRS_JOBS=8 artifacts can be cmp'd.
// Exits 1 when any scenario fails its verdict.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/run_trials.h"
#include "sim/scenario/scenario.h"
#include "util/args.h"
#include "util/csv.h"

namespace lrs {
namespace {

namespace fs = std::filesystem;

/// Expands positional arguments (files or directories) into a sorted list
/// of .scn paths; no arguments = the checked-in scenarios/ library.
std::vector<std::string> collect_paths(const std::vector<std::string>& args) {
  std::vector<std::string> inputs = args;
  if (inputs.empty()) inputs.push_back(LRS_SCENARIO_DIR);
  std::vector<std::string> paths;
  for (const auto& in : inputs) {
    std::error_code ec;
    if (fs::is_directory(in, ec)) {
      for (const auto& entry : fs::directory_iterator(in, ec)) {
        if (entry.path().extension() == ".scn") {
          paths.push_back(entry.path().string());
        }
      }
    } else {
      paths.push_back(in);
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  return paths;
}

struct Verdict {
  bool passed = true;
  std::string reason = "ok";
};

Verdict judge(const scenario::Scenario& s,
              const std::vector<core::ExperimentResult>& trials) {
  const std::size_t expected = s.expected_complete();
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const auto& r = trials[i];
    const std::string tag = "trial " + std::to_string(i) + " (seed " +
                            std::to_string(s.seed + i) + "): ";
    if (r.completed < expected) {
      return {false, tag + std::to_string(r.completed) + "/" +
                         std::to_string(expected) +
                         " expected receivers finished"};
    }
    if (!r.images_match) {
      return {false, tag + "image mismatch on a completed receiver"};
    }
    if (r.invariant_violations > 0) {
      return {false, tag + r.first_violation};
    }
  }
  return {};
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const bool list_only = args.get_bool("list", false);
  const long repeats_flag = args.get_int("repeats", 0);  // 0 = per-scenario
  const long jobs_flag = args.get_int("jobs", 0);
  const sim::TraceExportConfig trace = bench::trace_config(
      args.get("trace", ""), args.get("timeseries", ""),
      args.get_bool("trace-all", false));
  const bool bad = repeats_flag < 0 || jobs_flag < 0 ||
                   bench::trace_all_without_paths(trace);
  bench::finish_flags(args, bad, argv[0],
                      "[files-or-dirs...] [--repeats=R] [--jobs=J] [--quick]"
                      " [--list] [--trace=T.jsonl] [--timeseries=TS.json]"
                      " [--trace-all] [--metrics=M.json]"
                      " [--metrics-heartbeat=S]");
  const std::size_t jobs = static_cast<std::size_t>(jobs_flag);

  const auto paths = collect_paths(args.positional());
  if (paths.empty()) {
    std::cerr << "error: no scenario files found\n";
    return 2;
  }

  std::vector<scenario::Scenario> library;
  for (const auto& path : paths) {
    std::string error;
    auto s = scenario::load_scenario_file(path, &error);
    if (!s) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    library.push_back(std::move(*s));
  }

  if (list_only) {
    Table listing({"scenario", "scheme", "topology", "nodes", "channel",
                   "faults", "repeats"});
    for (const auto& s : library) {
      const bool has_faults = s.faults.any() || !s.late_joiners.empty() ||
                              !s.early_sleepers.empty();
      listing.add_row({s.name, core::scheme_name(s.scheme),
                       sim::topology_kind_name(s.topo.kind),
                       std::to_string(s.topo.node_count()),
                       scenario::channel_model_name(s.channel.model),
                       has_faults ? s.faults.describe() : "none",
                       std::to_string(s.repeats)});
    }
    bench::print_table("scenario library", listing);
    return 0;
  }

  Table table({"scenario", "scheme", "topology", "nodes", "repeats",
               "data_pkts", "snack_pkts", "adv_pkts", "total_bytes",
               "recv_bytes", "latency_s", "min_completed", "expected",
               "reboots", "inv_viol", "passed"});
  std::size_t failures = 0;

  for (std::size_t i = 0; i < library.size(); ++i) {
    const auto& s = library[i];
    core::ExperimentConfig config = scenario::scenario_config(s);
    // --repeats / --quick override the scenario's own trial block.
    const std::size_t repeats =
        repeats_flag > 0 ? static_cast<std::size_t>(repeats_flag)
                         : (quick ? 1 : s.repeats);
    if (i == 0 || trace.all_trials) config.trace = trace;

    const auto trials = core::run_trials(config, repeats, jobs);
    const auto avg = core::aggregate_trials(trials);
    const Verdict verdict = judge(s, trials);
    if (!verdict.passed) {
      ++failures;
      std::cerr << "FAIL " << s.name << ": " << verdict.reason << "\n";
    }

    std::uint64_t reboots = 0, violations = 0;
    std::size_t min_completed = trials.empty() ? 0 : trials[0].completed;
    for (const auto& r : trials) {
      reboots += r.reboots;
      violations += r.invariant_violations;
      min_completed = std::min(min_completed, r.completed);
    }

    table.add_row({s.name, core::scheme_name(s.scheme),
                   sim::topology_kind_name(s.topo.kind),
                   std::to_string(s.topo.node_count()),
                   std::to_string(repeats),
                   format_num(static_cast<double>(avg.data_packets)),
                   format_num(static_cast<double>(avg.snack_packets)),
                   format_num(static_cast<double>(avg.adv_packets)),
                   format_num(static_cast<double>(avg.total_bytes)),
                   format_num(static_cast<double>(avg.received_bytes)),
                   format_num(avg.latency_s, 1),
                   std::to_string(min_completed),
                   std::to_string(s.expected_complete()),
                   std::to_string(reboots), std::to_string(violations),
                   verdict.passed ? "true" : "false"});
  }

  bench::print_table("scenario campaign", table);
  std::cout << "\n" << library.size() - failures << "/" << library.size()
            << " scenarios passed\n";

  std::vector<std::pair<std::string, std::string>> extras = {
      {"scenarios", std::to_string(library.size())},
      {"failures", std::to_string(failures)},
      {"quick", quick ? "true" : "false"}};
  bench::write_bench_json("campaign", table, extras);

  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lrs

int main(int argc, char** argv) { return lrs::run(argc, argv); }
