#include "fleet/engine.h"

#include <algorithm>
#include <utility>

#include "core/parallel.h"
#include "fleet/delta.h"
#include "sim/stats/stats.h"
#include "util/check.h"

namespace lrs::fleet {

namespace {

/// Derived per-tenant signing seed: each tenant owns its Publisher (its own
/// one-time key tree and preloaded root), so key consumption order across
/// tenants cannot matter — only the per-tenant prepare() order does, and
/// that is registration order by construction.
Bytes tenant_key_seed(const TenantSpec& spec) {
  Bytes seed;
  std::uint64_t x = spec.seed ^ 0xf1ee7ULL;
  for (int i = 0; i < 8; ++i) {
    seed.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
  }
  for (const char c : spec.name) {
    seed.push_back(static_cast<std::uint8_t>(c));
  }
  return seed;
}

/// The previous version's installed image a delta tenant patches from:
/// the new image with a deterministic quarter of its delta pages replaced
/// by different bytes — so the delta blob carries those pages and nothing
/// else, modelling a firmware release that touched part of the binary.
Bytes derive_base_image(const TenantSpec& spec, const Bytes& new_image) {
  Bytes base = new_image;
  const std::size_t page = spec.delta_page_size;
  const std::size_t pages = (base.size() + page - 1) / page;
  for (std::size_t p = 0; p < pages; ++p) {
    // Same mixer family as tenant.cc: pure function of (seed, page).
    std::uint64_t x = (spec.seed ^ 0xde17aULL) + p;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    if ((x ^ (x >> 31)) % 4 != 0) continue;  // ~1/4 of pages changed
    const std::size_t lo = p * page;
    const std::size_t hi = std::min(base.size(), lo + page);
    for (std::size_t i = lo; i < hi; ++i) base[i] ^= 0xa5;
  }
  return base;
}

}  // namespace

std::size_t FleetEngine::add_tenant(TenantSpec spec) {
  LRS_CHECK_MSG(!spec.name.empty(), "tenant needs a name");
  LRS_CHECK_MSG(spec.cells >= 1, "tenant needs at least one cell");
  LRS_CHECK_MSG(!spec.delta || spec.params.version >= 2,
                "a delta tenant upgrades FROM version-1: version must be >= 2");
  Tenant t;
  t.spec = std::move(spec);
  tenants_.push_back(std::move(t));
  return tenants_.size() - 1;
}

TenantPhase FleetEngine::phase(std::size_t tenant) const {
  LRS_CHECK(tenant < tenants_.size());
  return tenants_[tenant].phase;
}

const Bytes& FleetEngine::payload(std::size_t tenant) const {
  LRS_CHECK(tenant < tenants_.size());
  return tenants_[tenant].payload;
}

const Bytes& FleetEngine::image(std::size_t tenant) const {
  LRS_CHECK(tenant < tenants_.size());
  return tenants_[tenant].image;
}

const Bytes& FleetEngine::base_image(std::size_t tenant) const {
  LRS_CHECK(tenant < tenants_.size());
  return tenants_[tenant].base;
}

void FleetEngine::prepare() {
  static stats::Timer& timer = stats::Registry::instance().timer(
      "fleet.prepare", /*top_level=*/true);
  stats::TimerScope scope(timer);
  for (Tenant& t : tenants_) {
    if (t.phase != TenantPhase::kRegistered) continue;
    t.image = core::make_test_image(t.spec.image_size, t.spec.seed);
    if (t.spec.delta) {
      t.base = derive_base_image(t.spec, t.image);
      t.payload = make_delta(t.base, t.image, t.spec.params.version - 1,
                             t.spec.params.version, t.spec.delta_page_size);
    } else {
      t.payload = t.image;
    }
    const Bytes key_seed = tenant_key_seed(t.spec);
    t.publisher = std::make_unique<core::Publisher>(t.spec.params,
                                                    view(key_seed),
                                                    /*key_height=*/2);
    t.master = t.publisher->prepare(t.payload);
    t.root_pk = t.publisher->root_public_key();
    t.phase = TenantPhase::kPrepared;
  }
}

core::ExperimentResult FleetEngine::run_cell(const Tenant& tenant,
                                            std::size_t cell) const {
  // Top-level scope: one fleet cell end to end. Cells run concurrently, so
  // accumulated scope time is CPU-time-like under LRS_JOBS > 1.
  static stats::Timer& cell_timer = stats::Registry::instance().timer(
      "fleet.run_cell", /*top_level=*/true);
  stats::TimerScope cell_scope(cell_timer);

  const TenantSpec& spec = tenant.spec;
  // scheme keeps its kLrSeluge default: the Publisher prepared an LR-Seluge
  // source, and receivers must run the matching scheme.
  core::ExperimentConfig config;
  config.params = spec.params;
  config.timing = spec.timing;
  config.loss_p = spec.loss_p;
  config.time_limit = spec.time_limit;
  config.seed = cell_seed(spec, cell);

  std::unique_ptr<proto::SchemeState> source = tenant.master->clone_source();
  LRS_CHECK_MSG(source != nullptr, "tenant master must be serving-ready");
  return core::run_cell(config, tenant.payload, tenant.root_pk,
                        std::make_shared<const sim::Topology>(
                            sim::Topology::star(cell_receivers(spec, cell))),
                        {}, std::move(source));
}

FleetReport FleetEngine::run(std::size_t jobs) {
  // The global work list: tenant-ordered, cells contiguous per tenant.
  struct Item {
    std::size_t tenant;
    std::size_t cell;
  };
  std::vector<Item> items;
  std::vector<std::size_t> first_item(tenants_.size(), 0);
  for (std::size_t ti = 0; ti < tenants_.size(); ++ti) {
    LRS_CHECK_MSG(tenants_[ti].phase == TenantPhase::kPrepared,
                  "run() needs every tenant prepared");
    tenants_[ti].phase = TenantPhase::kDisseminating;
    first_item[ti] = items.size();
    for (std::size_t c = 0; c < tenants_[ti].spec.cells; ++c) {
      items.push_back({ti, c});
    }
  }

  std::vector<core::ExperimentResult> results(items.size());
  core::parallel_for(items.size(), jobs, [&](std::size_t i) {
    results[i] = run_cell(tenants_[items[i].tenant], items[i].cell);
  });

  FleetReport report;
  report.cells = items.size();
  report.tenants.reserve(tenants_.size());
  for (std::size_t ti = 0; ti < tenants_.size(); ++ti) {
    Tenant& t = tenants_[ti];
    TenantResult agg;
    agg.name = t.spec.name;
    agg.version = t.spec.params.version;
    agg.codec = t.spec.params.codec;
    agg.delta = t.spec.delta;
    agg.cells = t.spec.cells;
    // Cell-index order: the aggregate is a pure fold over deterministic
    // per-cell results, byte-identical for any worker count.
    for (std::size_t c = 0; c < t.spec.cells; ++c) {
      const core::ExperimentResult& r = results[first_item[ti] + c];
      agg.converged_cells += r.all_complete ? 1 : 0;
      agg.receivers += r.receivers;
      agg.events += r.events_executed;
      agg.max_cell_events = std::max(agg.max_cell_events, r.events_executed);
      agg.data_packets += r.data_packets;
      agg.snack_packets += r.snack_packets;
      agg.total_bytes += r.total_bytes;
      agg.latency_max_s = std::max(agg.latency_max_s, r.latency_s);
      agg.images_ok = agg.images_ok && r.images_match;
    }
    t.phase = (agg.converged_cells == agg.cells && agg.images_ok)
                  ? TenantPhase::kConverged
                  : TenantPhase::kFailed;
    agg.phase = t.phase;

    // Per-tenant scoped metrics: disjoint registry slots per tenant, and —
    // the deterministic export sorting by full name — one adjacent block
    // per tenant in the counters section. All values fold deterministic
    // cell results, so they keep the LRS_JOBS byte-identity guarantee.
    const stats::Scope scope("fleet." + t.spec.name);
    scope.counter("cells").add(agg.cells);
    scope.counter("cells_converged").add(agg.converged_cells);
    scope.counter("events").add(agg.events);
    scope.counter("data_packets").add(agg.data_packets);
    scope.counter("total_bytes").add(agg.total_bytes);

    report.events += agg.events;
    report.max_cell_events =
        std::max(report.max_cell_events, agg.max_cell_events);
    report.tenants.push_back(std::move(agg));
  }

  static stats::Counter& cells_counter =
      stats::Registry::instance().counter("fleet.cells");
  cells_counter.add(report.cells);
  return report;
}

}  // namespace lrs::fleet
