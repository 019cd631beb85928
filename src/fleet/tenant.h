// Tenant model of the fleet engine: a tenant = (image, version, codec,
// scenario shape) plus the cell population disseminating it. One prepared
// image serves every cell of its tenant; cells differ only in their
// deterministic per-cell derivations (receiver count, channel seed).
#pragma once

#include <cstdint>
#include <string>

#include "proto/params.h"
#include "sim/time.h"

namespace lrs::fleet {

/// Tenant lifecycle. prepare() moves kRegistered -> kPrepared (image built,
/// Merkle tree + signature done, one one-time key consumed); run() moves
/// kPrepared -> kDisseminating -> kConverged (every cell complete and
/// byte-exact) or kFailed (any cell timed out or mismatched).
enum class TenantPhase {
  kRegistered,
  kPrepared,
  kDisseminating,
  kConverged,
  kFailed,
};

const char* phase_name(TenantPhase p);

/// Everything that defines one tenant. `params.version` is the version the
/// tenant's cells converge on; a delta tenant (delta = true, version >= 2)
/// disseminates the make_delta blob of version-1 -> version instead of the
/// full image, so only changed pages travel.
struct TenantSpec {
  std::string name;
  proto::CommonParams params{};  // version, codec, coding geometry, payload
  proto::EngineTiming timing{};  // Trickle/pacing constants for the cells

  std::size_t image_size = 2048;
  std::uint64_t seed = 1;

  /// Cell population: `cells` one-hop stars whose receiver counts spread
  /// uniformly (deterministically per cell) over [receivers_min,
  /// receivers_max], so cells differ in cost.
  std::size_t cells = 8;
  std::size_t receivers_min = 4;
  std::size_t receivers_max = 12;

  /// Uniform app-layer loss probability inside every cell.
  double loss_p = 0.02;

  /// Delta-image tenant: disseminate only the pages that changed between
  /// the previous version's image and this one (fleet/delta.h).
  bool delta = false;
  std::size_t delta_page_size = 256;

  /// Per-cell simulated-time budget; a cell still incomplete at the limit
  /// marks the tenant kFailed.
  sim::SimTime time_limit = 1800LL * sim::kSecond;
};

/// Receiver count of cell `cell`: uniform over [receivers_min,
/// receivers_max], a pure function of (spec.seed, cell) — never of
/// scheduling.
std::size_t cell_receivers(const TenantSpec& spec, std::size_t cell);

/// Simulation seed of cell `cell`, decorrelated across tenants and cells.
std::uint64_t cell_seed(const TenantSpec& spec, std::size_t cell);

}  // namespace lrs::fleet
