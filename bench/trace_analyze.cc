// Trace summarizer and schema checker for the JSONL event logs written by
// --trace= (sim/trace.h; format spec in docs/observability.md).
//
//   ./bench/trace_analyze t.jsonl              # human-readable summary
//   ./bench/trace_analyze --check t.jsonl      # CI schema validation
//
// The summary answers the questions end-of-run aggregates cannot: which
// node finished last and why (per-node latency breakdown), what the serve
// scheduler actually chose (page popularity histogram, top-k retransmitted
// packet indices) and how control traffic evolved against data traffic
// (SNACK/data ratio per time bucket).
//
// --check validates every line against the schema the tests pin: it must
// parse as a known event, re-serialize byte-identically (so the file was
// produced by, not merely resembles, TraceEvent::to_jsonl) and carry a
// non-decreasing timestamp. Exit 0 on success, 1 on the first violation.
//
// --metrics-check=M.json validates a --metrics export (sim/stats,
// "lrs-metrics-v1"): schema tag and section layout, histogram invariants
// (count equals the bucket total, canonical strictly-increasing bucket
// bounds, min/max land in the first/last occupied bucket) and the
// counter cross-check sim.queue.pop == core.events_executed. With a
// trace JSONL as the positional argument it also cross-checks
// sim.trace.events against the trace's line count — the two files must
// come from the same run:
//
//   ./bench/trace_analyze --metrics-check=m.json [t.jsonl]
//
// --bench-check=BENCH_x.json validates any BENCH_*.json artifact against
// the one schema every harness writes (core::bench_json): exactly the
// top-level keys bench (string), provenance (object), columns (strings)
// and rows, every row holding exactly one scalar cell per column. For
// bench == "fleet" it also checks the bench_fleet export: the pinned
// 20-column schema, u64 exactness for every integer column, "X/Y"
// convergence ratios, imbalance >= 1, at least one delta tenant, timing
// columns confined to ALL rows, and per-rung ALL rows that are exact folds
// (sum/max) of their tenant rows:
//
//   ./bench/trace_analyze --bench-check=BENCH_fleet.json
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/json.h"
#include "sim/stats/stats.h"
#include "sim/trace.h"
#include "util/args.h"
#include "util/csv.h"

namespace lrs {
namespace {

using bench::Json;
using sim::TraceEvent;
using sim::TraceEventType;

int check(const std::string& path, const std::vector<std::string>& lines) {
  sim::SimTime prev = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto& line = lines[i];
    if (line.empty()) continue;
    const auto e = TraceEvent::from_jsonl(line);
    if (!e) {
      std::cerr << path << ":" << i + 1 << ": unparseable event: " << line
                << "\n";
      return 1;
    }
    if (e->to_jsonl() != line) {
      std::cerr << path << ":" << i + 1
                << ": not canonical (re-serialization differs):\n  got:  "
                << line << "\n  want: " << e->to_jsonl() << "\n";
      return 1;
    }
    if (e->time < prev) {
      std::cerr << path << ":" << i + 1 << ": time " << e->time
                << " goes backwards (previous event at " << prev << ")\n";
      return 1;
    }
    prev = e->time;
    ++n;
  }
  std::cout << "OK: " << n << " events, schema-valid, time-ordered\n";
  return 0;
}

/// One validation failure: prints and counts. Returns false for use in
/// early-out expressions.
struct MetricsCheck {
  const std::string& path;
  int failures = 0;
  bool fail(const std::string& what) {
    std::cerr << path << ": " << what << "\n";
    ++failures;
    return false;
  }
};

bool check_histogram(MetricsCheck& mc, const std::string& name,
                     const Json& h) {
  const Json* count = h.find("count");
  const Json* sum = h.find("sum");
  const Json* min = h.find("min");
  const Json* max = h.find("max");
  const Json* buckets = h.find("buckets");
  if (!count || !count->as_u64() || !sum || !sum->as_u64() || !min ||
      !min->as_u64() || !max || !max->as_u64() || !buckets ||
      !buckets->is(Json::Kind::kArray)) {
    return mc.fail("histogram " + name +
                   ": needs u64 count/sum/min/max and a buckets array");
  }
  const std::uint64_t n = *count->as_u64();
  std::uint64_t bucket_total = 0;
  std::uint64_t prev_lb = 0;
  bool first = true;
  std::uint64_t first_lb = 0, last_lb = 0;
  for (const Json& pair : buckets->array) {
    if (!pair.is(Json::Kind::kArray) || pair.array.size() != 2 ||
        !pair.array[0].as_u64() || !pair.array[1].as_u64()) {
      return mc.fail("histogram " + name +
                     ": buckets must be [lower_bound, count] u64 pairs");
    }
    const std::uint64_t lb = *pair.array[0].as_u64();
    const std::uint64_t bn = *pair.array[1].as_u64();
    if (bn == 0) {
      return mc.fail("histogram " + name + ": empty bucket at " +
                     std::to_string(lb) + " must be omitted");
    }
    // Canonical boundary: the lower bound must round-trip through the
    // bucket math the recorder uses.
    using stats::Histogram;
    if (Histogram::bucket_lower_bound(Histogram::bucket_index(lb)) != lb) {
      return mc.fail("histogram " + name + ": " + std::to_string(lb) +
                     " is not a canonical bucket boundary");
    }
    if (!first && lb <= prev_lb) {
      return mc.fail("histogram " + name +
                     ": bucket bounds not strictly increasing at " +
                     std::to_string(lb));
    }
    if (first) first_lb = lb;
    last_lb = lb;
    first = false;
    prev_lb = lb;
    bucket_total += bn;
  }
  if (bucket_total != n) {
    return mc.fail("histogram " + name + ": count " + std::to_string(n) +
                   " != bucket total " + std::to_string(bucket_total));
  }
  if (n > 0) {
    using stats::Histogram;
    const std::uint64_t mn = *min->as_u64();
    const std::uint64_t mx = *max->as_u64();
    if (mn > mx) {
      return mc.fail("histogram " + name + ": min > max");
    }
    if (Histogram::bucket_index(mn) != Histogram::bucket_index(first_lb) ||
        Histogram::bucket_index(mx) != Histogram::bucket_index(last_lb)) {
      return mc.fail("histogram " + name +
                     ": min/max outside the first/last occupied bucket");
    }
  } else if (!buckets->array.empty()) {
    return mc.fail("histogram " + name + ": zero count with buckets");
  }
  return true;
}

int metrics_check(const std::string& path, const std::string& trace_path) {
  const auto doc = bench::parse_json_file(path);
  MetricsCheck mc{path};
  if (!doc || !doc->is(Json::Kind::kObject)) {
    mc.fail("not a readable JSON object");
    return 1;
  }

  const Json* schema = doc->find("schema");
  if (!schema || !schema->is(Json::Kind::kString) ||
      schema->str != "lrs-metrics-v1") {
    mc.fail("schema tag missing or not \"lrs-metrics-v1\"");
  }
  const Json* enabled = doc->find("enabled");
  if (!enabled || !enabled->is(Json::Kind::kBool)) {
    mc.fail("\"enabled\" missing or not a boolean");
  }
  if (!doc->find("provenance")) mc.fail("\"provenance\" missing");

  const Json* det = doc->find("deterministic");
  const Json* counters = nullptr;
  if (!det || !det->is(Json::Kind::kObject)) {
    mc.fail("\"deterministic\" section missing");
  } else {
    counters = det->find("counters");
    if (!counters || !counters->is(Json::Kind::kObject)) {
      mc.fail("deterministic.counters missing");
      counters = nullptr;
    } else {
      for (const auto& [name, v] : counters->object) {
        if (!v.as_u64()) mc.fail("counter " + name + " is not a u64");
      }
    }
    const Json* hists = det->find("histograms");
    if (!hists || !hists->is(Json::Kind::kObject)) {
      mc.fail("deterministic.histograms missing");
    } else {
      for (const auto& [name, h] : hists->object) {
        if (!h.is(Json::Kind::kObject)) {
          mc.fail("histogram " + name + " is not an object");
          continue;
        }
        check_histogram(mc, name, h);
      }
    }
  }

  const Json* timing = doc->find("timing");
  if (!timing || !timing->is(Json::Kind::kObject)) {
    mc.fail("\"timing\" section missing");
  } else {
    for (const char* key :
         {"wall_ns", "tsc_hz", "attributed_ns", "attributed_frac"}) {
      const Json* v = timing->find(key);
      if (!v || !v->is(Json::Kind::kNumber)) {
        mc.fail(std::string("timing.") + key + " missing or non-numeric");
      }
    }
    const Json* scopes = timing->find("scopes");
    if (!scopes || !scopes->is(Json::Kind::kObject)) {
      mc.fail("timing.scopes missing");
    } else if (counters) {
      // A deterministic timer's call count is mirrored into the
      // deterministic section as "<name>.calls" and the two sections must
      // agree; a deterministic=false scope (beneath a schedule-dependent
      // cache) must NOT leak its calls into the deterministic section.
      for (const auto& [name, s] : scopes->object) {
        const Json* calls = s.find("calls");
        const Json* det_flag = s.find("deterministic");
        if (!det_flag || !det_flag->is(Json::Kind::kBool)) {
          mc.fail("scope " + name + ": \"deterministic\" flag missing");
          continue;
        }
        const Json* mirrored = counters->find(name + ".calls");
        if (!det_flag->boolean) {
          if (mirrored) {
            mc.fail("scope " + name +
                    ": nondeterministic but mirrored into counters");
          }
          continue;
        }
        if (!calls || !calls->as_u64() || !mirrored || !mirrored->as_u64()) {
          mc.fail("scope " + name + ": calls not mirrored into counters");
          continue;
        }
        if (*calls->as_u64() != *mirrored->as_u64()) {
          mc.fail("scope " + name + ": timing calls " + calls->raw +
                  " != deterministic " + name + ".calls " + mirrored->raw);
        }
      }
    }
  }

  // Cross-checks between independently-maintained counters.
  std::uint64_t trace_events_counter = 0;
  bool have_trace_counter = false;
  if (counters) {
    const Json* pop = counters->find("sim.queue.pop");
    const Json* executed = counters->find("core.events_executed");
    if (pop && executed && pop->as_u64() && executed->as_u64() &&
        *pop->as_u64() != *executed->as_u64()) {
      mc.fail("sim.queue.pop " + pop->raw + " != core.events_executed " +
              executed->raw);
    }
    if (const Json* te = counters->find("sim.trace.events");
        te && te->as_u64()) {
      trace_events_counter = *te->as_u64();
      have_trace_counter = true;
    }
  }
  if (!trace_path.empty()) {
    std::ifstream tin(trace_path, std::ios::binary);
    if (!tin) {
      mc.fail("cannot open trace " + trace_path);
    } else {
      std::uint64_t lines = 0;
      for (std::string line; std::getline(tin, line);) {
        if (!line.empty()) ++lines;
      }
      if (!have_trace_counter) {
        mc.fail("trace given but sim.trace.events counter missing");
      } else if (trace_events_counter != lines) {
        mc.fail("sim.trace.events " + std::to_string(trace_events_counter) +
                " != trace line count " + std::to_string(lines) + " (" +
                trace_path + ")");
      }
    }
  }

  if (mc.failures > 0) {
    std::cerr << path << ": " << mc.failures << " metrics-check failure(s)\n";
    return 1;
  }
  std::cout << "OK: metrics schema valid"
            << (trace_path.empty() ? "" : ", trace count cross-checked")
            << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// --bench-check: the shared BENCH_*.json schema, plus the bench_fleet folds.
// The fleet column list is pinned verbatim — a drive-by reorder of the bench
// table is a schema break for downstream tooling, not a cosmetic change.
// Integer columns must be exact u64 tokens (no floats, no signs); per-rung
// ALL rows must be consistent folds of their tenant rows, which doubles as
// CI's cross-check that the engine's per-tenant aggregation didn't drift.
// ---------------------------------------------------------------------------

/// "X/Y" -> (X, Y); nullopt unless both are exact u64 tokens.
std::optional<std::pair<std::uint64_t, std::uint64_t>> parse_ratio(
    const std::string& s) {
  const std::size_t slash = s.find('/');
  if (slash == std::string::npos) return std::nullopt;
  Json a, b;
  a.kind = b.kind = Json::Kind::kNumber;
  a.raw = s.substr(0, slash);
  b.raw = s.substr(slash + 1);
  const auto x = a.as_u64();
  const auto y = b.as_u64();
  if (!x || !y) return std::nullopt;
  return std::make_pair(*x, *y);
}

/// The bench_fleet checks over a document that has `columns` and `rows`
/// arrays. Returns the rung and delta-row summary for the OK line.
std::string fleet_folds(MetricsCheck& mc, const Json& columns,
                        const Json& rows) {
  // The pinned schema. Everything up to and including images_ok is the
  // deterministic prefix (byte-identical for any LRS_JOBS); the trailing
  // three are timing columns, present only on ALL rows.
  static const std::vector<std::string> kColumns = {
      "rung", "tenants", "cells", "tenant", "codec", "version", "delta",
      "receivers", "converged", "events", "max_cell_events", "imbalance",
      "data_pkts", "snack_pkts", "total_bytes", "latency_s", "images_ok",
      "wall_s", "events_per_sec", "peak_rss_mb"};
  if (columns.array.size() != kColumns.size()) {
    mc.fail("expected " + std::to_string(kColumns.size()) + " columns, got " +
            std::to_string(columns.array.size()));
    return "";
  }
  for (std::size_t c = 0; c < kColumns.size(); ++c) {
    if (columns.array[c].str != kColumns[c]) {
      mc.fail("column " + std::to_string(c) + " must be \"" + kColumns[c] +
              "\"");
    }
  }
  const auto col = [&](const std::string& name) {
    for (std::size_t c = 0; c < kColumns.size(); ++c) {
      if (kColumns[c] == name) return c;
    }
    return kColumns.size();
  };

  if (rows.array.empty()) {
    mc.fail("\"rows\" empty");
    return "";
  }

  /// Accumulated per rung while walking rows, then checked against ALL.
  struct RungFold {
    bool has_all = false;
    std::uint64_t tenants_declared = 0;
    std::uint64_t tenant_rows = 0;
    std::uint64_t events = 0;
    std::uint64_t max_cell_events = 0;
    std::uint64_t converged = 0;
    std::uint64_t all_events = 0;
    std::uint64_t all_max_cell_events = 0;
    std::uint64_t all_converged = 0;
  };
  std::map<std::string, RungFold> rungs;
  std::uint64_t delta_rows = 0;

  for (std::size_t r = 0; r < rows.array.size(); ++r) {
    const std::string at = "row " + std::to_string(r);
    const Json& row = rows.array[r];
    if (!row.is(Json::Kind::kArray) || row.array.size() != kColumns.size()) {
      mc.fail(at + ": expected " + std::to_string(kColumns.size()) +
              " cells");
      continue;
    }
    const auto cell = [&](const std::string& name) -> const Json& {
      return row.array[col(name)];
    };
    const auto u64_cell =
        [&](const std::string& name) -> std::optional<std::uint64_t> {
      const auto v = cell(name).as_u64();
      if (!v) mc.fail(at + ": " + name + " must be an exact u64");
      return v;
    };

    if (!cell("rung").is(Json::Kind::kString) || cell("rung").str.empty()) {
      mc.fail(at + ": rung must be a non-empty string");
      continue;
    }
    RungFold& fold = rungs[cell("rung").str];
    const auto tenants = u64_cell("tenants");
    if (tenants) {
      if (fold.tenants_declared == 0) fold.tenants_declared = *tenants;
      if (fold.tenants_declared != *tenants) {
        mc.fail(at + ": tenants differs within the rung");
      }
    }
    u64_cell("cells");
    u64_cell("version");
    if (!cell("tenant").is(Json::Kind::kString) ||
        cell("tenant").str.empty()) {
      mc.fail(at + ": tenant must be a non-empty string");
      continue;
    }
    if (!cell("codec").is(Json::Kind::kString)) {
      mc.fail(at + ": codec must be a string");
    }
    if (!cell("delta").is(Json::Kind::kBool)) {
      mc.fail(at + ": delta must be a bool");
    } else if (cell("delta").boolean) {
      ++delta_rows;
    }
    if (!cell("images_ok").is(Json::Kind::kBool)) {
      mc.fail(at + ": images_ok must be a bool");
    } else if (!cell("images_ok").boolean) {
      mc.fail(at + ": images_ok is false");
    }
    u64_cell("receivers");
    const auto events = u64_cell("events");
    const auto max_events = u64_cell("max_cell_events");
    if (events && max_events && *max_events > *events) {
      mc.fail(at + ": max_cell_events " + std::to_string(*max_events) +
              " > events " + std::to_string(*events));
    }
    u64_cell("data_pkts");
    u64_cell("snack_pkts");
    u64_cell("total_bytes");
    if (!cell("imbalance").is(Json::Kind::kNumber) ||
        cell("imbalance").number < 0.999) {
      mc.fail(at + ": imbalance must be a number >= 1 (max/mean)");
    }
    if (!cell("latency_s").is(Json::Kind::kNumber) ||
        cell("latency_s").number < 0) {
      mc.fail(at + ": latency_s must be a non-negative number");
    }
    std::optional<std::pair<std::uint64_t, std::uint64_t>> ratio;
    if (!cell("converged").is(Json::Kind::kString) ||
        !(ratio = parse_ratio(cell("converged").str))) {
      mc.fail(at + ": converged must be \"X/Y\" with exact u64 parts");
    } else if (ratio->first > ratio->second) {
      mc.fail(at + ": converged " + cell("converged").str + " exceeds total");
    }

    const bool is_all = cell("tenant").str == "ALL";
    // Timing columns: exactly the ALL rows carry them, as numbers; tenant
    // rows leave them empty.
    for (const char* name : {"wall_s", "events_per_sec", "peak_rss_mb"}) {
      const bool num = cell(name).is(Json::Kind::kNumber);
      const bool empty =
          cell(name).is(Json::Kind::kString) && cell(name).str.empty();
      if (is_all ? !num : !empty) {
        mc.fail(at + ": " + name +
                (is_all ? " must be a number on ALL rows"
                        : " must be empty on tenant rows"));
      }
    }
    if (is_all) {
      if (fold.has_all) mc.fail(at + ": duplicate ALL row for rung");
      fold.has_all = true;
      if (events) fold.all_events = *events;
      if (max_events) fold.all_max_cell_events = *max_events;
      if (ratio) fold.all_converged = ratio->first;
    } else {
      fold.tenant_rows += 1;
      if (events) fold.events += *events;
      if (max_events) {
        fold.max_cell_events = std::max(fold.max_cell_events, *max_events);
      }
      if (ratio) fold.converged += ratio->first;
    }
  }

  for (const auto& [name, fold] : rungs) {
    if (!fold.has_all) {
      mc.fail("rung " + name + ": ALL row missing");
      continue;
    }
    if (fold.tenant_rows != fold.tenants_declared) {
      mc.fail("rung " + name + ": " + std::to_string(fold.tenant_rows) +
              " tenant rows but tenants=" +
              std::to_string(fold.tenants_declared));
    }
    if (fold.events != fold.all_events) {
      mc.fail("rung " + name + ": tenant events sum " +
              std::to_string(fold.events) + " != ALL events " +
              std::to_string(fold.all_events));
    }
    if (fold.max_cell_events != fold.all_max_cell_events) {
      mc.fail("rung " + name + ": tenant max_cell_events max " +
              std::to_string(fold.max_cell_events) + " != ALL " +
              std::to_string(fold.all_max_cell_events));
    }
    if (fold.converged != fold.all_converged) {
      mc.fail("rung " + name + ": tenant converged sum " +
              std::to_string(fold.converged) + " != ALL " +
              std::to_string(fold.all_converged));
    }
  }
  if (delta_rows == 0) {
    mc.fail("no delta tenant rows: every rung mixes in delta images");
  }

  return "; " + std::to_string(rungs.size()) + " rung(s), " +
         std::to_string(delta_rows) + " delta tenant row(s)";
}

int bench_check(const std::string& path) {
  MetricsCheck mc{path};
  const auto doc = bench::parse_json_file(path);
  if (!doc || !doc->is(Json::Kind::kObject)) {
    mc.fail("not a readable JSON object");
    return 1;
  }
  for (const auto& [key, value] : doc->object) {
    if (key != "bench" && key != "provenance" && key != "columns" &&
        key != "rows") {
      mc.fail("unexpected top-level key \"" + key + "\"");
    }
  }
  const Json* tag = doc->find("bench");
  if (!tag || !tag->is(Json::Kind::kString) || tag->str.empty()) {
    mc.fail("\"bench\" must be a non-empty string");
  }
  const Json* prov = doc->find("provenance");
  if (!prov || !prov->is(Json::Kind::kObject)) {
    mc.fail("\"provenance\" object missing");
  }
  const Json* columns = doc->find("columns");
  const Json* rows = doc->find("rows");
  if (!columns || !columns->is(Json::Kind::kArray) || !rows ||
      !rows->is(Json::Kind::kArray)) {
    mc.fail("\"columns\" and \"rows\" arrays required");
    return 1;
  }
  const std::size_t width = columns->array.size();
  for (std::size_t c = 0; c < width; ++c) {
    if (!columns->array[c].is(Json::Kind::kString)) {
      mc.fail("column " + std::to_string(c) + " must be a string");
    }
  }
  for (std::size_t r = 0; r < rows->array.size(); ++r) {
    const Json& row = rows->array[r];
    if (!row.is(Json::Kind::kArray) || row.array.size() != width) {
      mc.fail("row " + std::to_string(r) + ": expected " +
              std::to_string(width) + " cells");
      continue;
    }
    for (std::size_t c = 0; c < width; ++c) {
      const Json& cell = row.array[c];
      if (!cell.is(Json::Kind::kString) && !cell.is(Json::Kind::kNumber) &&
          !cell.is(Json::Kind::kBool)) {
        mc.fail("row " + std::to_string(r) + ", column " +
                std::to_string(c) + ": cell must be a string, number or bool");
      }
    }
  }
  std::string fleet;
  if (mc.failures == 0 && tag->str == "fleet") {
    fleet = fleet_folds(mc, *columns, *rows);
  }
  if (mc.failures > 0) {
    std::cerr << path << ": " << mc.failures << " bench-check failure(s)\n";
    return 1;
  }
  std::cout << "OK: " << tag->str << " schema valid (" << width
            << " columns, " << rows->array.size() << " rows" << fleet
            << ")\n";
  return 0;
}

struct NodeStats {
  std::uint64_t sends = 0;
  std::uint64_t receives = 0;
  std::uint64_t auth_failures = 0;
  std::uint64_t reboots = 0;
  std::uint32_t pages_complete = 0;
  sim::SimTime first_data_rx = -1;
  sim::SimTime completion = -1;
};

void summarize(const std::vector<TraceEvent>& events, std::size_t top_k,
               sim::SimTime bucket) {
  if (events.empty()) {
    std::cout << "empty trace\n";
    return;
  }
  const sim::SimTime end = events.back().time;

  std::map<NodeId, NodeStats> nodes;
  std::map<std::uint32_t, std::uint64_t> serve_pages;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> serves;
  // Per bucket: [0] data sends, [1] snack sends, [2] other sends.
  std::map<sim::SimTime, std::array<std::uint64_t, 3>> buckets;

  for (const auto& e : events) {
    auto& ns = nodes[e.node];
    switch (e.type) {
      case TraceEventType::kSend: {
        ns.sends += 1;
        auto& b = buckets[e.time / bucket];
        const auto cls = static_cast<sim::PacketClass>(e.cls);
        if (cls == sim::PacketClass::kData) {
          b[0] += 1;
        } else if (cls == sim::PacketClass::kSnack) {
          b[1] += 1;
        } else {
          b[2] += 1;
        }
        break;
      }
      case TraceEventType::kDeliver:
        ns.receives += 1;
        break;
      case TraceEventType::kReboot:
        ns.reboots += 1;
        break;
      case TraceEventType::kAuthFailure:
        ns.auth_failures += 1;
        break;
      case TraceEventType::kPageComplete:
        ns.pages_complete = std::max(ns.pages_complete, e.b);
        break;
      case TraceEventType::kNodeComplete:
        if (ns.completion < 0) ns.completion = e.time;
        break;
      case TraceEventType::kDataServe:
        serve_pages[e.a] += 1;
        serves[{e.a, e.b}] += 1;
        break;
      case TraceEventType::kDataRx:
        if (ns.first_data_rx < 0) ns.first_data_rx = e.time;
        break;
      case TraceEventType::kStateTransition:
        break;
    }
  }

  std::cout << events.size() << " events over "
            << sim::to_seconds(end) << " s, " << nodes.size() << " nodes\n";

  {
    Table t({"node", "sends", "receives", "auth_fail", "reboots", "pages",
             "first_data_s", "complete_s"});
    for (const auto& [id, ns] : nodes) {
      t.add_row({std::to_string(id), std::to_string(ns.sends),
                 std::to_string(ns.receives),
                 std::to_string(ns.auth_failures),
                 std::to_string(ns.reboots),
                 std::to_string(ns.pages_complete),
                 ns.first_data_rx < 0
                     ? "-"
                     : format_num(sim::to_seconds(ns.first_data_rx), 2),
                 ns.completion < 0
                     ? "-"
                     : format_num(sim::to_seconds(ns.completion), 2)});
    }
    std::cout << "\n== per-node latency breakdown ==\n";
    t.print(std::cout);
  }

  if (!serve_pages.empty()) {
    Table t({"page", "serves"});
    for (const auto& [page, count] : serve_pages) {
      t.add_row({std::to_string(page), std::to_string(count)});
    }
    std::cout << "\n== scheduler popularity (data serves per page) ==\n";
    t.print(std::cout);
  }

  if (!serves.empty()) {
    std::vector<std::pair<std::uint64_t, std::pair<std::uint32_t,
                                                   std::uint32_t>>> ranked;
    for (const auto& [pi, count] : serves) ranked.push_back({count, pi});
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    Table t({"page", "index", "times_sent"});
    for (std::size_t i = 0; i < ranked.size() && i < top_k; ++i) {
      t.add_row({std::to_string(ranked[i].second.first),
                 std::to_string(ranked[i].second.second),
                 std::to_string(ranked[i].first)});
    }
    std::cout << "\n== top-" << top_k << " retransmitted packet indices ==\n";
    t.print(std::cout);
  }

  if (!buckets.empty()) {
    Table t({"t_s", "data", "snack", "other", "snack_data_ratio"});
    for (const auto& [b, counts] : buckets) {
      const double ratio =
          counts[0] > 0
              ? static_cast<double>(counts[1]) /
                    static_cast<double>(counts[0])
              : 0.0;
      t.add_row({format_num(sim::to_seconds(b * bucket), 0),
                 std::to_string(counts[0]), std::to_string(counts[1]),
                 std::to_string(counts[2]), format_num(ratio, 3)});
    }
    std::cout << "\n== SNACK/data ratio over time (bucket start) ==\n";
    t.print(std::cout);
  }
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  // "--check trace.jsonl" parses as check=trace.jsonl (Args treats the
  // next token as the flag's value), so a non-boolean value doubles as
  // the positional path.
  const std::string check_val = args.get("check", "");
  const bool do_check = !check_val.empty() && check_val != "false";
  const std::string metrics_path = args.get("metrics-check", "");
  const bool do_metrics =
      !metrics_path.empty() && metrics_path != "true" &&
      metrics_path != "false";
  const std::string bench_path = args.get("bench-check", "");
  const bool do_bench =
      !bench_path.empty() && bench_path != "true" && bench_path != "false";
  std::string path;
  if (args.positional().size() == 1) {
    path = args.positional()[0];
  } else if (args.positional().empty() && !check_val.empty() &&
             check_val != "true" && check_val != "false") {
    path = check_val;
  }
  const long top_k = args.get_int("top", 10);
  const double bucket_s = args.get_double("bucket", 10.0);
  // In metrics mode the trace path is optional (it only adds the event
  // cross-check); bench mode takes no trace at all; every other mode needs
  // it.
  bool bad = top_k < 1 || bucket_s <= 0 ||
             (path.empty() && !do_metrics && !do_bench);
  if (!metrics_path.empty() && !do_metrics) {
    std::cerr << "error: --metrics-check needs a file argument\n";
    bad = true;
  }
  if (!bench_path.empty() && !do_bench) {
    std::cerr << "error: --bench-check needs a file argument\n";
    bad = true;
  }
  if (static_cast<int>(do_metrics) + static_cast<int>(do_check) +
          static_cast<int>(do_bench) >
      1) {
    std::cerr << "error: --check, --metrics-check and --bench-check are"
                 " exclusive\n";
    bad = true;
  }
  if (do_bench && !path.empty()) {
    std::cerr << "error: --bench-check takes no trace argument\n";
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
    std::cerr << "usage: " << argv[0]
              << " [--check] [--top=K] [--bucket=SECONDS] trace.jsonl\n"
                 "       "
              << argv[0] << " --metrics-check=metrics.json [trace.jsonl]\n"
                 "       "
              << argv[0] << " --bench-check=BENCH_x.json\n";
    return 2;
  }

  if (do_metrics) return metrics_check(metrics_path, path);
  if (do_bench) return bench_check(bench_path);

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  if (do_check) return check(path, lines);

  std::vector<TraceEvent> events;
  events.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const auto e = TraceEvent::from_jsonl(lines[i]);
    if (!e) {
      std::cerr << path << ":" << i + 1 << ": unparseable event\n";
      return 1;
    }
    events.push_back(*e);
  }
  summarize(events, static_cast<std::size_t>(top_k),
            static_cast<sim::SimTime>(bucket_s * sim::kSecond));
  return 0;
}

}  // namespace
}  // namespace lrs

int main(int argc, char** argv) { return lrs::run(argc, argv); }
