#include "core/run_trials.h"

#include <cstdlib>
#include <thread>

#include "core/parallel.h"
#include "sim/stats/stats.h"
#include "util/check.h"

namespace lrs::core {

std::size_t default_jobs() {
  if (detail::worker_budget != 0) return detail::worker_budget;
  if (const char* env = std::getenv("LRS_JOBS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return static_cast<std::size_t>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

namespace {

/// The one trial loop: every (config, trial) pair of a grid on one worker
/// pool. Slot c * repeats + i holds trial i of configs[c], run with seed
/// configs[c].seed + i and trace_for_trial(trace, c, i), so the result
/// vector is identical for any worker count. Sharing one pool keeps every
/// thread busy across cheap and expensive configs.
std::vector<ExperimentResult> run_grid(std::span<const ExperimentConfig> configs,
                                       std::size_t repeats, std::size_t jobs) {
  LRS_CHECK(repeats >= 1);
  std::vector<ExperimentResult> trials(configs.size() * repeats);
  parallel_for(trials.size(), jobs, [&](std::size_t t) {
    const std::size_t ci = t / repeats;
    const std::size_t ri = t % repeats;
    ExperimentConfig c = configs[ci];
    c.seed = configs[ci].seed + ri;
    c.trace = sim::trace_for_trial(configs[ci].trace, ci, ri);
    trials[t] = run_experiment(c);
  });
  return trials;
}

}  // namespace

std::vector<ExperimentResult> run_trials(const ExperimentConfig& config,
                                         std::size_t repeats,
                                         std::size_t jobs) {
  return run_grid(std::span<const ExperimentConfig>(&config, 1), repeats,
                  jobs);
}

ExperimentResult aggregate_trials(std::span<const ExperimentResult> trials) {
  static stats::Timer& timer =
      stats::Registry::instance().timer("core.aggregate", /*top_level=*/true);
  stats::TimerScope scope(timer);
  const std::size_t repeats = trials.size();
  LRS_CHECK(repeats >= 1);
  ExperimentResult avg;
  avg.max_island_events = 0;
  double data = 0, snack = 0, adv = 0, sig = 0, bytes = 0, latency = 0;
  double rbytes = 0;
  for (std::size_t i = 0; i < repeats; ++i) {
    const ExperimentResult& r = trials[i];
    avg.receivers = r.receivers;
    avg.completed += r.completed;
    avg.all_complete = (i == 0 ? true : avg.all_complete) && r.all_complete;
    avg.images_match = (i == 0 ? true : avg.images_match) && r.images_match;
    data += static_cast<double>(r.data_packets);
    avg.page0_data_packets += r.page0_data_packets;
    snack += static_cast<double>(r.snack_packets);
    adv += static_cast<double>(r.adv_packets);
    sig += static_cast<double>(r.sig_packets);
    bytes += static_cast<double>(r.total_bytes);
    rbytes += static_cast<double>(r.received_bytes);
    latency += r.latency_s;
    avg.collisions += r.collisions;
    avg.events_executed += r.events_executed;
    // Sum alongside events_executed so max_island_events * islands /
    // events_executed stays the (trial-weighted) max/mean imbalance ratio.
    avg.islands = r.islands;
    avg.max_island_events += r.max_island_events;
    avg.tx_energy_mj += r.tx_energy_mj / static_cast<double>(repeats);
    avg.rx_energy_mj += r.rx_energy_mj / static_cast<double>(repeats);
    avg.listen_energy_mj += r.listen_energy_mj / static_cast<double>(repeats);
    avg.hash_verifications += r.hash_verifications;
    avg.signature_verifications += r.signature_verifications;
    avg.auth_failures += r.auth_failures;
    avg.tampered_frames += r.tampered_frames;
    avg.fault_drops += r.fault_drops;
    avg.reboots += r.reboots;
    avg.invariant_checks += r.invariant_checks;
    avg.invariant_violations += r.invariant_violations;
    if (avg.first_violation.empty() && !r.first_violation.empty()) {
      avg.first_violation = r.first_violation;
    }
  }
  const double inv = 1.0 / static_cast<double>(repeats);
  avg.completed /= repeats;
  avg.data_packets = static_cast<std::uint64_t>(data * inv + 0.5);
  avg.page0_data_packets = static_cast<std::uint64_t>(
      static_cast<double>(avg.page0_data_packets) * inv + 0.5);
  avg.snack_packets = static_cast<std::uint64_t>(snack * inv + 0.5);
  avg.adv_packets = static_cast<std::uint64_t>(adv * inv + 0.5);
  avg.sig_packets = static_cast<std::uint64_t>(sig * inv + 0.5);
  avg.total_bytes = static_cast<std::uint64_t>(bytes * inv + 0.5);
  avg.received_bytes = static_cast<std::uint64_t>(rbytes * inv + 0.5);
  avg.latency_s = latency * inv;
  return avg;
}

std::vector<ExperimentResult> run_experiments_avg(
    std::span<const ExperimentConfig> configs, std::size_t repeats,
    std::size_t jobs) {
  const std::vector<ExperimentResult> trials = run_grid(configs, repeats, jobs);
  std::vector<ExperimentResult> out(configs.size());
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    out[ci] = aggregate_trials(
        std::span<const ExperimentResult>(trials).subspan(ci * repeats,
                                                          repeats));
  }
  return out;
}

}  // namespace lrs::core
