// FleetEngine: a long-running multi-tenant campaign engine — one process
// drives thousands of concurrent network cells across many tenants (images,
// versions, codecs), the OTA-backend reframing of dissemination as an
// ongoing service rather than a one-shot transfer.
//
// What is shared and what is not:
//   * Per tenant, preprocessing is done ONCE: prepare() builds the image,
//     hash chain, Merkle tree and signature through core::Publisher,
//     consuming one one-time key per tenant — then every cell's base
//     station is stamped from that master state via SchemeState::
//     clone_source() (a byte copy, no re-hashing, no re-signing).
//   * Per cell, everything dynamic is private: simulator, RNG streams,
//     receiver states, verification memo. Cells never touch each other.
//     A cell is a one-hop star run through core::run_cell — the same cell
//     runner run_experiment uses — so the fleet has no wiring of its own.
//
// Determinism contract (the repo-wide serial-vs-LRS_JOBS discipline): the
// work list is the tenant-ordered, cell-indexed cross product; each cell's
// simulation is a pure function of (spec, cell index); results land in
// index-addressed slots and per-tenant aggregation walks them in index
// order. The worker pool (core/parallel.h) only decides WHICH worker runs a
// cell, so every TenantResult is byte-identical for any job count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/lr_seluge.h"
#include "crypto/hash.h"
#include "fleet/tenant.h"
#include "util/types.h"

namespace lrs::fleet {

/// Per-tenant aggregate over its cells, walked in cell-index order.
struct TenantResult {
  std::string name;
  TenantPhase phase = TenantPhase::kRegistered;
  Version version = 0;
  erasure::CodecKind codec = erasure::CodecKind::kReedSolomon;
  bool delta = false;

  std::size_t cells = 0;
  std::size_t converged_cells = 0;
  std::size_t receivers = 0;  // summed over cells
  std::uint64_t events = 0;
  std::uint64_t max_cell_events = 0;  // busiest cell: imbalance numerator
  std::uint64_t data_packets = 0;
  std::uint64_t snack_packets = 0;
  std::uint64_t total_bytes = 0;
  double latency_max_s = 0.0;  // slowest cell (simulated time)
  bool images_ok = true;

  /// max/mean per-cell event load: max_cell_events * cells / events, 1.0
  /// when perfectly balanced; deterministic (event counts are).
  double imbalance() const {
    return events == 0 ? 1.0
                       : static_cast<double>(max_cell_events) *
                             static_cast<double>(cells) /
                             static_cast<double>(events);
  }
};

struct FleetReport {
  std::vector<TenantResult> tenants;  // tenant registration order
  std::size_t cells = 0;
  std::uint64_t events = 0;
  std::uint64_t max_cell_events = 0;  // busiest cell fleet-wide

  double imbalance() const {
    return events == 0 ? 1.0
                       : static_cast<double>(max_cell_events) *
                             static_cast<double>(cells) /
                             static_cast<double>(events);
  }
};

class FleetEngine {
 public:
  /// Registers a tenant (phase kRegistered). Returns its tenant id — the
  /// index into run()'s FleetReport::tenants.
  std::size_t add_tenant(TenantSpec spec);

  std::size_t tenant_count() const { return tenants_.size(); }
  TenantPhase phase(std::size_t tenant) const;

  /// The bytes a tenant's cells disseminate and converge on: the image
  /// itself, or the delta blob for a delta tenant. Valid after prepare().
  const Bytes& payload(std::size_t tenant) const;
  /// The tenant's full new image (what apply_delta reconstructs); equals
  /// payload() for non-delta tenants. Valid after prepare().
  const Bytes& image(std::size_t tenant) const;
  /// The previous version's image a delta tenant patches (empty for
  /// non-delta tenants). Valid after prepare().
  const Bytes& base_image(std::size_t tenant) const;

  /// Preprocesses and signs every registered tenant's payload, one
  /// Publisher and one one-time key per tenant, serially in registration
  /// order (the key sequence must never depend on scheduling). Idempotent:
  /// already-prepared tenants are skipped.
  void prepare();

  /// Runs every prepared tenant's cells on the worker pool, on at most
  /// `jobs` threads (0 = core::default_jobs()), and aggregates per tenant. Tenants move to
  /// kConverged (all cells complete and byte-exact) or kFailed.
  FleetReport run(std::size_t jobs = 0);

 private:
  struct Tenant {
    TenantSpec spec;
    TenantPhase phase = TenantPhase::kRegistered;
    std::unique_ptr<core::Publisher> publisher;
    std::unique_ptr<proto::SchemeState> master;  // prepared, serving-ready
    crypto::PacketHash root_pk{};
    Bytes image;       // the new image (version spec.params.version)
    Bytes base;        // previous version's image (delta tenants only)
    Bytes payload;     // what cells disseminate: image or delta blob
  };

  /// One cell through core::run_cell — deterministic for (spec, cell).
  core::ExperimentResult run_cell(const Tenant& tenant,
                                  std::size_t cell) const;

  std::vector<Tenant> tenants_;
};

}  // namespace lrs::fleet
