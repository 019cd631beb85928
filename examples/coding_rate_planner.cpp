// Capacity planning: pick an erasure-coding rate n/k for your deployment.
//
// Given the expected packet-loss rate and fleet size of a one-hop cell,
// sweep n (with k = 32 fixed) and report the total communication cost and
// latency of disseminating your image — reproducing the U-shape of the
// paper's Fig. 6: too little redundancy forces retransmission rounds, too
// much shrinks per-page capacity (the n hash images ride in every page).
//
//   ./examples/coding_rate_planner [loss_p receivers image_kb]
#include <cstdio>
#include <cstdlib>

#include "core/run_trials.h"

using namespace lrs;
using namespace lrs::core;

int main(int argc, char** argv) {
  double loss = 0.1;
  std::size_t receivers = 20;
  std::size_t image_kb = 20;
  if (argc >= 2) loss = std::atof(argv[1]);
  if (argc >= 3) receivers = static_cast<std::size_t>(std::atoi(argv[2]));
  if (argc >= 4) image_kb = static_cast<std::size_t>(std::atoi(argv[3]));

  std::printf("planning for p=%.2f, N=%zu, image=%zu KB (k=32)\n\n", loss,
              receivers, image_kb);
  std::printf("%4s  %5s  %6s  %10s  %11s  %9s\n", "n", "rate", "pages",
              "data_pkts", "total_bytes", "latency_s");

  double best_bytes = -1;
  std::size_t best_n = 0;
  for (std::size_t n = 32; n <= 72; n += 4) {
    ExperimentConfig cfg;
    cfg.scheme = Scheme::kLrSeluge;
    cfg.params.n = n;
    cfg.params.puzzle_strength = 6;
    cfg.receivers = receivers;
    cfg.loss_p = loss;
    cfg.image_size = image_kb * 1024;
    const auto r = aggregate_trials(run_trials(cfg, 3));
    if (!r.all_complete) {
      std::printf("%4zu  did not complete in time\n", n);
      continue;
    }
    const std::size_t mid = cfg.params.k * cfg.params.payload_size - n * 8;
    const std::size_t last = cfg.params.k * cfg.params.payload_size;
    const std::size_t pages =
        cfg.image_size <= last ? 1
                               : 1 + (cfg.image_size - last + mid - 1) / mid;
    std::printf("%4zu  %5.2f  %6zu  %10lu  %11lu  %9.1f\n", n,
                static_cast<double>(n) / 32.0, pages,
                static_cast<unsigned long>(r.data_packets),
                static_cast<unsigned long>(r.total_bytes), r.latency_s);
    if (best_bytes < 0 || static_cast<double>(r.total_bytes) < best_bytes) {
      best_bytes = static_cast<double>(r.total_bytes);
      best_n = n;
    }
  }
  std::printf("\nrecommended: n = %zu (rate %.2f) — lowest total bytes\n",
              best_n, static_cast<double>(best_n) / 32.0);
  return 0;
}
