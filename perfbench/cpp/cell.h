// One dissemination cell assembled from public parts, wired the way the
// library's own runners wire it (core::run_experiment on a single island,
// fleet::FleetEngine's per-cell runner): node 0 is the base station, every
// topology position is simulated, one RxFanoutMemo serves the whole cell.
// With a Tracer every layer is wrapped (trace.h); without one the cell is
// the plain library wiring.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "proto/engine.h"
#include "proto/scheme.h"
#include "sim/channel.h"
#include "sim/simulator.h"
#include "trace.h"

namespace perfbench {

struct CellSetup {
  std::shared_ptr<const lrs::sim::Topology> topology;
  std::unique_ptr<lrs::sim::LossModel> loss;
  lrs::sim::RadioParams radio{};
  std::uint64_t seed = 0;
  std::unique_ptr<lrs::proto::SchemeState> source;  // node 0's state
  std::function<std::unique_ptr<lrs::proto::SchemeState>()> make_receiver;
  lrs::proto::EngineConfig engine{};  // run_cell sets rx_memo, is_base_station
  lrs::Bytes cluster_key;
  lrs::sim::SimTime time_limit = 0;
};

/// The paper's five metrics plus what the benchmark checks them against.
struct CellResult {
  std::size_t receivers = 0;
  std::size_t completed = 0;
  std::size_t exact = 0;  // completed with a byte-exact image
  std::uint64_t data_packets = 0;
  std::uint64_t snack_packets = 0;
  std::uint64_t adv_packets = 0;
  std::uint64_t sig_packets = 0;
  std::uint64_t total_bytes = 0;
  double latency_s = 0.0;  // simulated; the time limit when incomplete
  std::uint64_t events = 0;
  std::uint64_t collisions = 0;
};

/// Builds, runs and checks one cell; `expected` is what every receiver must
/// reassemble. `tracer` may be null.
CellResult run_cell(CellSetup setup, const lrs::Bytes& expected,
                    Tracer* tracer);

}  // namespace perfbench
