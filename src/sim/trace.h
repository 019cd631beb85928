// Structured event tracing and time-series progress metrics (observability
// layer, ISSUE 4 tentpole).
//
// A TraceRecorder attaches to the simulator's SimObserver hook set and
// captures every send, delivery, reboot, engine state transition, page
// completion, node completion, auth failure and data serve/receive as a
// fixed-width TraceEvent (32 bytes in memory, padding included).
// Recording is append-only into one contiguous vector: no per-event
// allocation beyond amortized growth, no formatting, no I/O until export.
// When no recorder is attached the simulator's observer pointer stays null
// and the hot paths pay a single branch — the null-recorder fast path.
//
// After the run the event log exports to
//  * JSONL         — one JSON object per line, stable key order, integer
//                    times (microseconds). The machine-readable archive
//                    format consumed by trace_analyze and the CI checker.
//  * Chrome trace  — {"traceEvents": [...]} loadable by Perfetto or
//                    chrome://tracing: one thread lane per node, instant
//                    events for packets, counter tracks for completed
//                    nodes and the page frontier.
//  * time series   — counters sampled on a fixed SimTime grid (packets
//                    sent by class, cumulative bytes, completed-node
//                    count, page-frontier min/sum, auth failures), the
//                    input for convergence-curve plots (paper Figs. 3-6).
//
// Everything here is deterministic: same (scheme, config, seed) produces
// byte-identical export files, serial or under LRS_JOBS parallelism.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/metrics.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/types.h"

namespace lrs::sim {

enum class TraceEventType : std::uint8_t {
  kSend = 1,             // node broadcast a frame: cls, a=frame bytes
  kDeliver = 2,          // frame survived the channel: peer=sender, cls,
                         // a=frame bytes, b=1 when fault-tampered
  kReboot = 3,           // crash/reboot fault restarted the node
  kStateTransition = 4,  // engine state change: a=from, b=to (NodeState)
  kPageComplete = 5,     // page decoded+verified: a=page, b=pages_complete
  kNodeComplete = 6,     // node holds the complete verified image
  kAuthFailure = 7,      // packet failed authentication: cls
  kDataServe = 8,        // sender-side data packet choice: a=page, b=index
  kDataRx = 9,           // receiver-side data outcome: a=page, b=index,
                         // cls=proto::DataStatus
};

/// Human-readable tag used in the JSONL "type" field.
const char* trace_event_type_name(TraceEventType t);
/// Inverse of trace_event_type_name; nullopt for unknown tags.
std::optional<TraceEventType> trace_event_type_from_name(std::string_view s);

/// One trace record.
struct TraceEvent {
  SimTime time = 0;              // microseconds since simulation start
  TraceEventType type = TraceEventType::kSend;
  NodeId node = 0;               // acting node (receiver for kDeliver)
  NodeId peer = 0;               // counterpart (sender for kDeliver), or 0
  std::uint8_t cls = 0;          // PacketClass / DataStatus, type-dependent
  std::uint32_t a = 0;           // type-dependent (see TraceEventType)
  std::uint32_t b = 0;           // type-dependent (see TraceEventType)

  bool operator==(const TraceEvent&) const = default;

  /// One JSONL line (no trailing newline): integer microsecond time,
  /// symbolic type/class names, type-specific field names.
  std::string to_jsonl() const;
  /// Parses a line produced by to_jsonl(); nullopt on malformed input.
  static std::optional<TraceEvent> from_jsonl(std::string_view line);
};

/// Passive SimObserver that appends every hook invocation to an in-memory
/// event log. Tracing is off when no recorder is built.
class TraceRecorder final : public SimObserver {
 public:
  TraceRecorder();

  const std::vector<TraceEvent>& events() const { return events_; }

  // SimObserver hooks (simulator side).
  void on_send(SimTime now, NodeId sender, PacketClass cls,
               ByteView frame) override;
  void after_deliver(SimTime now, NodeId from, NodeId to, PacketClass cls,
                     ByteView frame, bool tampered) override;
  void on_reboot(SimTime now, NodeId node) override;
  // SimObserver hooks (protocol side, emitted by the dissemination engine).
  void on_state_transition(SimTime now, NodeId node, int from,
                           int to) override;
  void on_page_complete(SimTime now, NodeId node, std::uint32_t page,
                        std::uint32_t pages_complete) override;
  void on_node_complete(SimTime now, NodeId node) override;
  void on_auth_failure(SimTime now, NodeId node, PacketClass cls) override;
  void on_data_served(SimTime now, NodeId node, std::uint32_t page,
                      std::uint32_t index) override;
  void on_data_packet(SimTime now, NodeId node, std::uint32_t page,
                      std::uint32_t index, int status) override;

  /// Writes the log as JSONL (one event per line). Returns false when the
  /// file cannot be opened.
  bool write_jsonl(const std::string& path) const;
  /// Writes Chrome trace / Perfetto JSON ({"traceEvents": [...]}).
  bool write_chrome_trace(const std::string& path) const;

 private:
  // Out of line: bumps the "sim.trace.events" metrics counter (the hook
  // trace_analyze --metrics-check cross-checks against a trace's line
  // count) without pulling sim/stats into this header.
  void record(TraceEvent e);

  std::vector<TraceEvent> events_;
};

/// One sampled row of the progress time series.
struct TimeSeriesSample {
  SimTime time = 0;  // sample-grid timestamp (inclusive upper bound)
  std::uint64_t sent[kPacketClassCount] = {};  // cumulative sends by class
  std::uint64_t sent_bytes = 0;                // cumulative bytes on air
  std::uint64_t completed_nodes = 0;           // nodes holding the image
  std::uint32_t frontier_min = 0;   // min pages_complete over receivers
  std::uint64_t frontier_sum = 0;   // sum of pages_complete over all nodes
  std::uint64_t auth_failures = 0;  // cumulative rejected packets
};

/// Folds a recorded event log into cumulative counters sampled every
/// `period` microseconds (plus one final sample at the last event time).
/// `node_count` sizes the per-node frontier table; node 0 (the base
/// station) is excluded from frontier_min, matching completed_count(0).
std::vector<TimeSeriesSample> build_time_series(
    const std::vector<TraceEvent>& events, SimTime period,
    std::size_t node_count);

/// Writes the sampled series as JSON: {"period_us": ..., "columns": [...],
/// "rows": [[...], ...]}. Returns false when the file cannot be opened.
bool write_time_series(const std::vector<TimeSeriesSample>& samples,
                       SimTime period, const std::string& path);

/// Sampling period of the exported time series.
inline constexpr SimTime kTimeSeriesPeriod = kSecond;

/// Export destinations for one traced run; empty strings disable each
/// output. enabled() gates recorder construction — the null-recorder fast
/// path — so a default TraceExportConfig adds zero work to a run.
struct TraceExportConfig {
  std::string events_path;      // JSONL event log
  std::string chrome_path;      // Chrome trace / Perfetto JSON
  std::string timeseries_path;  // progress counters every kTimeSeriesPeriod
  /// Multi-trial runners (core/run_trials) trace only the first trial of
  /// the first config by default, writing these exact paths — so a traced
  /// sweep stays byte-identical to a single traced run. Set to trace every
  /// (config, trial) pair at derived paths instead (see trace_for_trial).
  bool all_trials = false;

  bool enabled() const {
    return !events_path.empty() || !chrome_path.empty() ||
           !timeseries_path.empty();
  }
};

/// Routes `base` to one (config, trial) cell of a sweep: cell (0, 0) gets
/// the base paths verbatim; other cells get ".c<ci>.t<ti>" inserted before
/// each path's extension when base.all_trials is set, and a disabled config
/// otherwise.
TraceExportConfig trace_for_trial(const TraceExportConfig& base,
                                  std::size_t config_index,
                                  std::size_t trial_index);

/// Writes every output requested by `config` from one recorded run.
/// Returns false when any requested file could not be written.
bool export_trace(const TraceRecorder& recorder,
                  const TraceExportConfig& config, std::size_t node_count);

}  // namespace lrs::sim
