// Seed-sweeping fault-injection stress runner (ISSUE 3 tentpole).
//
// Sweeps an N-seed x fault-plan matrix through the parallel trial runner
// with the invariant observer attached: every combination must complete
// dissemination, reassemble the exact image, and run zero invariant
// violations. The fault layer is deterministic, so the first failing
// combination is reported as a one-line replay command
//
//   ./bench_stress --replay=<scheme>:<plan>:<seed>
//
// which reruns exactly that trial and prints its full diagnosis.
//
// Flags: --seeds=N (per plan; default 20 quick / 50 full), --jobs=J,
// --quick (LR-Seluge only, CI smoke), --scheme=lr-seluge|seluge|deluge
// (restrict the matrix), --replay=... (single-trial replay, exit 1 on
// failure), --trace=T.jsonl / --timeseries=TS.json (structured event
// trace of the first matrix cell's first seed — or of the replayed trial —
// see docs/observability.md). Writes BENCH_stress.json stamped with the
// run-provenance manifest (override with LRS_BENCH_JSON, skip with
// LRS_BENCH_JSON=none).
#include <charconv>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/experiment.h"
#include "core/run_trials.h"
#include "sim/faults.h"
#include "sim/trace.h"
#include "util/args.h"
#include "util/csv.h"

namespace lrs {
namespace {

using core::ExperimentConfig;
using core::ExperimentResult;
using core::Scheme;
using sim::kMillisecond;
using sim::kSecond;

struct NamedPlan {
  const char* name;
  sim::FaultPlan plan;
  // Plans that mutate frame bytes are only meaningful against schemes with
  // per-packet authentication: an unauthenticated scheme (Deluge) accepts
  // a corrupted payload into its image by design, which is the property
  // the paper argues against, not a harness failure.
  bool mutates = false;
};

std::vector<NamedPlan> fault_matrix() {
  std::vector<NamedPlan> m;
  {
    m.push_back({"clean", {}, false});
  }
  {
    sim::FaultPlan p;
    p.corrupt_prob = 0.05;
    p.corrupt_max_flips = 2;
    m.push_back({"corrupt-light", p, true});
  }
  {
    sim::FaultPlan p;
    p.corrupt_prob = 0.25;
    p.corrupt_max_flips = 8;
    m.push_back({"corrupt-heavy", p, true});
  }
  {
    sim::FaultPlan p;
    p.corrupt_prob = 0.15;
    p.corrupt_burst = true;
    p.corrupt_burst_len = 12;
    m.push_back({"corrupt-burst", p, true});
  }
  {
    sim::FaultPlan p;
    p.truncate_prob = 0.1;
    m.push_back({"truncate", p, true});
  }
  {
    sim::FaultPlan p;
    p.pad_prob = 0.1;
    p.max_pad = 16;
    m.push_back({"pad", p, true});
  }
  {
    sim::FaultPlan p;
    p.duplicate_prob = 0.2;
    p.max_copies = 3;
    m.push_back({"duplicate", p, false});
  }
  {
    sim::FaultPlan p;
    p.reorder_prob = 0.3;
    p.reorder_max_delay = 30 * kMillisecond;
    m.push_back({"reorder", p, false});
  }
  {
    sim::FaultPlan p;
    p.crashes.push_back({2, 1 * kSecond, 700 * kMillisecond});
    p.crashes.push_back({3, 2 * kSecond, 500 * kMillisecond});
    m.push_back({"crash", p, false});
  }
  {
    sim::FaultPlan p;
    p.corrupt_prob = 0.05;
    p.truncate_prob = 0.03;
    p.duplicate_prob = 0.05;
    p.reorder_prob = 0.1;
    p.reorder_max_delay = 20 * kMillisecond;
    p.crashes.push_back({2, 1 * kSecond, 500 * kMillisecond});
    m.push_back({"chaos", p, true});
  }
  return m;
}

/// Small, fast configuration (test-e2e scale): 8 pages of 8x32-byte blocks,
/// four receivers on a star, light uniform loss on top of the fault plan.
ExperimentConfig stress_config(Scheme scheme, const sim::FaultPlan& plan,
                               std::uint64_t seed) {
  ExperimentConfig c;
  c.scheme = scheme;
  c.params.payload_size = 32;
  c.params.k = 8;
  c.params.n = 12;
  c.params.k0 = 4;
  c.params.n0 = 8;
  c.params.puzzle_strength = 4;
  c.image_size = 2048;
  c.receivers = 4;
  c.seed = seed;
  c.loss_p = 0.05;
  c.timing.trickle.tau_low = 250 * kMillisecond;
  c.timing.trickle.tau_high = 8 * kSecond;
  c.faults = plan;
  c.check_invariants = true;
  return c;
}

bool trial_passed(const ExperimentResult& r) {
  return r.all_complete && r.images_match && r.invariant_violations == 0;
}

std::string diagnose(const ExperimentResult& r) {
  if (!r.all_complete) {
    return "incomplete: " + std::to_string(r.completed) + "/" +
           std::to_string(r.receivers) + " receivers finished";
  }
  if (!r.images_match) return "image mismatch on a completed receiver";
  if (r.invariant_violations > 0) return r.first_violation;
  return "ok";
}

/// The schemes the matrix sweeps, by core::scheme_name: Deluge, Seluge
/// and LR-Seluge.
std::optional<Scheme> stress_scheme(const std::string& name) {
  const auto scheme = core::scheme_from_name(name);
  if (scheme == Scheme::kDeluge || scheme == Scheme::kSeluge ||
      scheme == Scheme::kLrSeluge)
    return scheme;
  return std::nullopt;
}

/// One matrix cell's sums over its seeds.
struct CellResult {
  std::size_t failures = 0;
  std::uint64_t tampered = 0;
  std::uint64_t drops = 0;
  std::uint64_t reboots = 0;
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  std::string first_failure;  // replay command of the first failing seed
};

int replay(const std::string& spec, const sim::TraceExportConfig& trace) {
  // --replay=<scheme>:<plan>:<seed>, the seed a whole decimal >= 1 (the
  // sweep's seeds start at 1).
  const auto c1 = spec.find(':');
  const auto c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
  std::uint64_t seed = 0;
  if (c2 != std::string::npos) {
    const char* first = spec.data() + c2 + 1;
    const char* last = spec.data() + spec.size();
    const auto [end, ec] = std::from_chars(first, last, seed);
    if (ec != std::errc() || end != last) seed = 0;
  }
  if (seed == 0) {
    std::cerr << "bad replay spec '" << spec
              << "' (want <scheme>:<plan>:<seed>, seed >= 1)\n";
    return 2;
  }
  const std::string scheme_name = spec.substr(0, c1);
  const std::string plan_name = spec.substr(c1 + 1, c2 - c1 - 1);

  const auto scheme = stress_scheme(scheme_name);
  if (!scheme) {
    std::cerr << "unknown scheme '" << scheme_name << "'\n";
    return 2;
  }
  const sim::FaultPlan* plan = nullptr;
  static const auto matrix = fault_matrix();
  for (const auto& np : matrix) {
    if (plan_name == np.name) plan = &np.plan;
  }
  if (!plan) {
    std::cerr << "unknown fault plan '" << plan_name << "'\n";
    return 2;
  }

  auto cfg = stress_config(*scheme, *plan, seed);
  cfg.trace = trace;
  const auto r = run_experiment(cfg);
  std::cout << "replay " << spec << "  faults=" << plan->describe() << "\n"
            << "  completed:  " << r.completed << "/" << r.receivers << "\n"
            << "  images:     " << (r.images_match ? "match" : "MISMATCH")
            << "\n"
            << "  tampered:   " << r.tampered_frames
            << "  drops: " << r.fault_drops << "  reboots: " << r.reboots
            << "\n"
            << "  invariants: " << r.invariant_checks << " checks, "
            << r.invariant_violations << " violations\n";
  if (!r.first_violation.empty()) {
    std::cout << "  first:      " << r.first_violation << "\n";
  }
  const bool ok = trial_passed(r);
  std::cout << (ok ? "PASS" : "FAIL: " + diagnose(r)) << "\n";
  return ok ? 0 : 1;
}

int run_sweep(int argc, char** argv) {
  Args args(argc, argv);
  const std::string replay_spec = args.get("replay", "");
  const bool quick = args.get_bool("quick", false);
  const std::string only_scheme = args.get("scheme", "");
  const long seeds_flag = args.get_int("seeds", quick ? 20 : 50);
  const long jobs_flag = args.get_int("jobs", 0);
  const sim::TraceExportConfig trace =
      bench::trace_config(args.get("trace", ""), args.get("timeseries", ""));
  bool bad = seeds_flag < 1 || jobs_flag < 0;
  if (!only_scheme.empty() && !stress_scheme(only_scheme)) {
    std::cerr << "error: unknown scheme '" << only_scheme << "'\n";
    bad = true;
  }
  bench::finish_flags(args, bad, argv[0],
                      "[--seeds=N] [--jobs=J] [--quick] [--scheme=S]"
                      " [--replay=<scheme>:<plan>:<seed>]"
                      " [--trace=T.jsonl] [--timeseries=TS.json]"
                      " [--metrics=M.json] [--metrics-heartbeat=S]");
  if (!replay_spec.empty()) return replay(replay_spec, trace);

  const std::size_t seeds = static_cast<std::size_t>(seeds_flag);
  const std::size_t jobs = static_cast<std::size_t>(jobs_flag);

  std::vector<Scheme> schemes;
  if (!only_scheme.empty()) {
    schemes.push_back(*stress_scheme(only_scheme));
  } else if (quick) {
    schemes = {Scheme::kLrSeluge};
  } else {
    schemes = {Scheme::kDeluge, Scheme::kSeluge, Scheme::kLrSeluge};
  }

  const auto matrix = fault_matrix();
  std::size_t combos = 0, failures = 0;
  Table table({"scheme", "plan", "seeds", "fail", "tampered", "drops",
               "reboots", "inv_checks", "inv_viol", "first_failure"});

  for (const Scheme scheme : schemes) {
    const bool authenticated =
        scheme == Scheme::kSeluge || scheme == Scheme::kLrSeluge;
    for (const auto& np : matrix) {
      if (np.mutates && !authenticated) continue;
      auto base = stress_config(scheme, np.plan, 1);
      // The trace flags record the first matrix cell (seed routing — first
      // trial only, or every seed under all_trials — is run_trials').
      if (table.rows() == 0) base.trace = trace;
      const auto trials = core::run_trials(base, seeds, jobs);
      const std::string scheme_name = core::scheme_name(scheme);

      CellResult cell;
      for (std::size_t i = 0; i < trials.size(); ++i) {
        const auto& r = trials[i];
        ++combos;
        cell.tampered += r.tampered_frames;
        cell.drops += r.fault_drops;
        cell.reboots += r.reboots;
        cell.checks += r.invariant_checks;
        cell.violations += r.invariant_violations;
        if (!trial_passed(r)) {
          ++failures;
          ++cell.failures;
          std::ostringstream os;
          os << "--replay=" << scheme_name << ":" << np.name << ":"
             << base.seed + i;
          if (cell.first_failure.empty()) {
            cell.first_failure = os.str();
            std::cerr << "FAIL " << scheme_name << "/" << np.name << " seed "
                      << base.seed + i << " (" << diagnose(r)
                      << "); replay with: " << argv[0] << " " << os.str()
                      << "\n";
          }
        }
      }
      table.add_row({scheme_name, np.name, std::to_string(seeds),
                     std::to_string(cell.failures),
                     std::to_string(cell.tampered), std::to_string(cell.drops),
                     std::to_string(cell.reboots), std::to_string(cell.checks),
                     std::to_string(cell.violations), cell.first_failure});
    }
  }

  bench::print_table("stress sweep: " + std::to_string(combos) +
                         " seed x fault combos, " + std::to_string(failures) +
                         " failures",
                     table);

  bench::write_bench_json("stress", table,
                          {{"quick", quick ? "true" : "false"}});

  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lrs

int main(int argc, char** argv) { return lrs::run_sweep(argc, argv); }
