// Structured event tracing (sim/trace.h): JSONL round-trips, time-series
// folding, per-trial path routing, and end-to-end determinism — same
// (scheme, config, seed) must produce byte-identical trace files serially
// and under LRS_JOBS>1, with fault-injected reboots recorded at identical
// SimTimes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/run_trials.h"
#include "proto/engine.h"
#include "proto/scheme.h"
#include "sim/trace.h"

namespace lrs::sim {
namespace {

// The trace layer mirrors these proto enums numerically (sim/ cannot
// include proto/); a renumbering must be caught here, not in a viewer.
static_assert(static_cast<int>(proto::NodeState::kMaintain) == 0);
static_assert(static_cast<int>(proto::NodeState::kRx) == 1);
static_assert(static_cast<int>(proto::NodeState::kTx) == 2);
static_assert(static_cast<int>(proto::DataStatus::kRejected) == 0);
static_assert(static_cast<int>(proto::DataStatus::kStale) == 1);
static_assert(static_cast<int>(proto::DataStatus::kStored) == 2);
static_assert(static_cast<int>(proto::DataStatus::kPageComplete) == 3);
static_assert(static_cast<int>(proto::DataStatus::kImageComplete) == 4);

std::vector<TraceEvent> sample_events() {
  return {
      {10, TraceEventType::kSend, 0, 0, 2, 96, 0},
      {20, TraceEventType::kDeliver, 1, 0, 2, 96, 1},
      {30, TraceEventType::kReboot, 2, 0, 0, 0, 0},
      {40, TraceEventType::kStateTransition, 1, 0, 0, 0, 2},
      {50, TraceEventType::kPageComplete, 1, 0, 0, 3, 4},
      {60, TraceEventType::kNodeComplete, 1, 0, 0, 0, 0},
      {70, TraceEventType::kAuthFailure, 2, 0, 1, 0, 0},
      {80, TraceEventType::kDataServe, 0, 0, 0, 2, 9},
      {90, TraceEventType::kDataRx, 1, 0, 3, 2, 9},
  };
}

TEST(TraceEventJsonl, RoundTripAllTypes) {
  for (const auto& e : sample_events()) {
    const std::string line = e.to_jsonl();
    const auto back = TraceEvent::from_jsonl(line);
    ASSERT_TRUE(back.has_value()) << line;
    EXPECT_EQ(*back, e) << line;
    // Canonical: re-serializing reproduces the line byte-for-byte (the
    // property trace_analyze --check enforces).
    EXPECT_EQ(back->to_jsonl(), line);
  }
}

TEST(TraceEventJsonl, MalformedRejected) {
  EXPECT_FALSE(TraceEvent::from_jsonl("").has_value());
  EXPECT_FALSE(TraceEvent::from_jsonl("{}").has_value());
  EXPECT_FALSE(TraceEvent::from_jsonl("{\"t\":1,\"node\":0}").has_value());
  EXPECT_FALSE(
      TraceEvent::from_jsonl("{\"t\":1,\"type\":\"nope\",\"node\":0}")
          .has_value());
  // A send without its required class/bytes fields.
  EXPECT_FALSE(
      TraceEvent::from_jsonl("{\"t\":1,\"type\":\"send\",\"node\":0}")
          .has_value());
}

TEST(PacketClassName, RoundTrip) {
  for (std::size_t c = 0; c < kPacketClassCount; ++c) {
    const auto cls = static_cast<PacketClass>(c);
    const auto back = packet_class_from_name(packet_class_name(cls));
    ASSERT_TRUE(back.has_value()) << packet_class_name(cls);
    EXPECT_EQ(*back, cls);
  }
  EXPECT_FALSE(packet_class_from_name("?").has_value());
  EXPECT_FALSE(packet_class_from_name("").has_value());
  EXPECT_FALSE(packet_class_from_name("datagram").has_value());
}

TEST(TraceEventTypeName, RoundTrip) {
  for (std::uint8_t t = 1; t <= 9; ++t) {
    const auto type = static_cast<TraceEventType>(t);
    const auto back = trace_event_type_from_name(trace_event_type_name(type));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, type);
  }
  EXPECT_FALSE(trace_event_type_from_name("?").has_value());
  EXPECT_FALSE(trace_event_type_from_name("sendx").has_value());
}

TEST(TraceRecorder, RecordsEveryHook) {
  TraceRecorder rec;
  Bytes frame(48, 0);
  rec.on_send(1, 0, PacketClass::kData, view(frame));
  rec.after_deliver(2, 0, 3, PacketClass::kSnack, view(frame), true);
  rec.on_reboot(3, 2);
  ASSERT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.events()[0].type, TraceEventType::kSend);
  EXPECT_EQ(rec.events()[0].a, 48u);
  EXPECT_EQ(rec.events()[1].type, TraceEventType::kDeliver);
  EXPECT_EQ(rec.events()[1].node, 3u);
  EXPECT_EQ(rec.events()[1].peer, 0u);
  EXPECT_EQ(rec.events()[1].b, 1u);  // tampered
  EXPECT_EQ(rec.events()[2].type, TraceEventType::kReboot);
}

TEST(TimeSeries, FoldsCumulativeCounters) {
  std::vector<TraceEvent> events = {
      {100, TraceEventType::kSend, 0, 0,
       static_cast<std::uint8_t>(PacketClass::kData), 90, 0},
      {kSecond + 1, TraceEventType::kSend, 0, 0,
       static_cast<std::uint8_t>(PacketClass::kSnack), 40, 0},
      {kSecond + 2, TraceEventType::kPageComplete, 1, 0, 0, 0, 1},
      {2 * kSecond + 5, TraceEventType::kNodeComplete, 1, 0, 0, 0, 0},
      {2 * kSecond + 6, TraceEventType::kAuthFailure, 2, 0, 0, 0, 0},
  };
  const auto samples = build_time_series(events, kSecond, 3);
  ASSERT_GE(samples.size(), 3u);

  const auto& s1 = samples[0];  // t = 1 s: only the first send landed
  EXPECT_EQ(s1.time, kSecond);
  EXPECT_EQ(s1.sent[static_cast<std::size_t>(PacketClass::kData)], 1u);
  EXPECT_EQ(s1.sent[static_cast<std::size_t>(PacketClass::kSnack)], 0u);
  EXPECT_EQ(s1.sent_bytes, 90u);
  EXPECT_EQ(s1.completed_nodes, 0u);

  const auto& s2 = samples[1];  // t = 2 s: snack sent, page 0 decoded
  EXPECT_EQ(s2.sent[static_cast<std::size_t>(PacketClass::kSnack)], 1u);
  EXPECT_EQ(s2.sent_bytes, 130u);
  EXPECT_EQ(s2.frontier_sum, 1u);

  const auto& last = samples.back();
  EXPECT_EQ(last.completed_nodes, 1u);
  EXPECT_EQ(last.auth_failures, 1u);
  EXPECT_GE(last.time, events.back().time);
}

TEST(TraceForTrial, RoutesPathsPerCell) {
  TraceExportConfig base;
  base.events_path = "out/t.jsonl";
  base.chrome_path = "t.chrome.json";
  base.timeseries_path = "ts";

  // Cell (0, 0) always gets the base paths verbatim.
  const auto first = trace_for_trial(base, 0, 0);
  EXPECT_EQ(first.events_path, base.events_path);
  EXPECT_EQ(first.timeseries_path, base.timeseries_path);

  // Other cells are disabled unless all_trials is set.
  EXPECT_FALSE(trace_for_trial(base, 0, 1).enabled());
  EXPECT_FALSE(trace_for_trial(base, 2, 0).enabled());

  base.all_trials = true;
  const auto cell = trace_for_trial(base, 2, 3);
  EXPECT_EQ(cell.events_path, "out/t.c2.t3.jsonl");
  EXPECT_EQ(cell.chrome_path, "t.chrome.c2.t3.json");
  EXPECT_EQ(cell.timeseries_path, "ts.c2.t3");  // no extension: appended

  // A disabled base stays disabled everywhere.
  EXPECT_FALSE(trace_for_trial({}, 0, 0).enabled());
}

}  // namespace
}  // namespace lrs::sim

namespace lrs::core {
namespace {

ExperimentConfig traced_config(std::uint64_t seed) {
  ExperimentConfig c;
  c.scheme = Scheme::kLrSeluge;
  c.image_size = 4 * 1024;
  c.receivers = 4;
  c.loss_p = 0.2;
  c.seed = seed;
  return c;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct TempTraceFiles {
  std::string events, chrome, series;
  explicit TempTraceFiles(const std::string& tag)
      : events("test_trace_" + tag + ".jsonl"),
        chrome("test_trace_" + tag + ".chrome.json"),
        series("test_trace_" + tag + ".ts.json") {}
  ~TempTraceFiles() {
    std::remove(events.c_str());
    std::remove(chrome.c_str());
    std::remove(series.c_str());
  }
  sim::TraceExportConfig config() const {
    sim::TraceExportConfig t;
    t.events_path = events;
    t.chrome_path = chrome;
    t.timeseries_path = series;
    return t;
  }
};

std::vector<sim::TraceEvent> load_jsonl(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::vector<sim::TraceEvent> events;
  for (std::string line; std::getline(in, line);) {
    const auto e = sim::TraceEvent::from_jsonl(line);
    EXPECT_TRUE(e.has_value()) << line;
    if (e) events.push_back(*e);
  }
  return events;
}

TEST(TraceEndToEnd, CapturesProtocolEvents) {
  TempTraceFiles files("e2e");
  auto cfg = traced_config(11);
  cfg.trace = files.config();
  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.all_complete);

  const auto events = load_jsonl(files.events);
  ASSERT_FALSE(events.empty());

  std::size_t sends = 0, delivers = 0, completes = 0, serves = 0;
  std::size_t transitions = 0, pages = 0;
  sim::SimTime prev = 0;
  for (const auto& e : events) {
    EXPECT_GE(e.time, prev);  // exported log is time-ordered
    prev = e.time;
    switch (e.type) {
      case sim::TraceEventType::kSend: ++sends; break;
      case sim::TraceEventType::kDeliver: ++delivers; break;
      case sim::TraceEventType::kNodeComplete: ++completes; break;
      case sim::TraceEventType::kDataServe: ++serves; break;
      case sim::TraceEventType::kStateTransition: ++transitions; break;
      case sim::TraceEventType::kPageComplete: ++pages; break;
      default: break;
    }
  }
  EXPECT_GT(sends, 0u);
  EXPECT_GT(delivers, 0u);
  EXPECT_GT(serves, 0u);
  EXPECT_GT(transitions, 0u);
  EXPECT_GT(pages, 0u);
  // Every receiver completes exactly once, plus the base station (which
  // notifies at start-up — observers attach before the event loop runs).
  EXPECT_EQ(completes, static_cast<std::size_t>(r.receivers) + 1);

  // The Chrome trace and time series were written and are non-trivial.
  const std::string chrome = slurp(files.chrome);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  const std::string series = slurp(files.series);
  EXPECT_NE(series.find("\"completed_nodes\""), std::string::npos);
}

TEST(TraceEndToEnd, SameSeedIsByteIdentical) {
  TempTraceFiles a("det_a"), b("det_b");
  auto ca = traced_config(33);
  ca.trace = a.config();
  auto cb = traced_config(33);
  cb.trace = b.config();
  run_experiment(ca);
  run_experiment(cb);
  EXPECT_EQ(slurp(a.events), slurp(b.events));
  EXPECT_EQ(slurp(a.chrome), slurp(b.chrome));
  EXPECT_EQ(slurp(a.series), slurp(b.series));
}

TEST(TraceEndToEnd, SerialAndParallelTracesMatch) {
  TempTraceFiles serial("jobs1"), parallel("jobs4");
  // Trace every trial so the comparison covers seeds beyond the first.
  auto cs = traced_config(7);
  cs.trace = serial.config();
  cs.trace.all_trials = true;
  auto cp = traced_config(7);
  cp.trace = parallel.config();
  cp.trace.all_trials = true;
  run_trials(cs, 3, 1);
  run_trials(cp, 3, 4);

  EXPECT_EQ(slurp(serial.events), slurp(parallel.events));
  for (std::size_t trial = 1; trial < 3; ++trial) {
    const auto s = sim::trace_for_trial(cs.trace, 0, trial);
    const auto p = sim::trace_for_trial(cp.trace, 0, trial);
    EXPECT_EQ(slurp(s.events_path), slurp(p.events_path)) << trial;
    std::remove(s.events_path.c_str());
    std::remove(s.chrome_path.c_str());
    std::remove(s.timeseries_path.c_str());
    std::remove(p.events_path.c_str());
    std::remove(p.chrome_path.c_str());
    std::remove(p.timeseries_path.c_str());
  }
}

TEST(TraceEndToEnd, FaultRebootsRecordedAtIdenticalSimTimes) {
  const auto run_with_faults = [](const std::string& tag) {
    TempTraceFiles files(tag);
    auto cfg = traced_config(21);
    cfg.trace.events_path = files.events;  // JSONL only
    cfg.faults.crashes = {{2, sim::kSecond, 2 * sim::kSecond},
                          {3, 3 * sim::kSecond, sim::kSecond}};
    cfg.faults.corrupt_prob = 0.1;
    run_experiment(cfg);
    std::vector<std::pair<sim::SimTime, NodeId>> reboots;
    bool saw_tampered = false;
    for (const auto& e : load_jsonl(files.events)) {
      if (e.type == sim::TraceEventType::kReboot) {
        reboots.push_back({e.time, e.node});
      }
      if (e.type == sim::TraceEventType::kDeliver && e.b != 0) {
        saw_tampered = true;
      }
      if (e.type == sim::TraceEventType::kAuthFailure) saw_tampered = true;
    }
    EXPECT_EQ(reboots.size(), 2u);
    EXPECT_TRUE(saw_tampered);
    return reboots;
  };
  const auto first = run_with_faults("fault_a");
  const auto second = run_with_faults("fault_b");
  EXPECT_EQ(first, second);
}

TEST(TraceEndToEnd, DisabledTraceChangesNothing) {
  // The null-recorder fast path: an untraced run's aggregates equal a
  // traced run's (recording is passive), and no files appear.
  auto plain = traced_config(5);
  auto traced = traced_config(5);
  TempTraceFiles files("off");
  traced.trace = files.config();
  const auto a = run_experiment(plain);
  const auto b = run_experiment(traced);
  EXPECT_EQ(a.data_packets, b.data_packets);
  EXPECT_EQ(a.snack_packets, b.snack_packets);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.received_bytes, b.received_bytes);
  EXPECT_EQ(a.latency_s, b.latency_s);
  std::ifstream should_not_exist("test_trace_never_written.jsonl");
  EXPECT_FALSE(static_cast<bool>(should_not_exist));
}

TEST(ReceivedBytes, CountedPerDelivery) {
  const auto r = run_experiment(traced_config(3));
  EXPECT_GT(r.received_bytes, 0u);
  // Star topology: every broadcast reaches the other N nodes at most, so
  // rx bytes are bounded by fanout x tx bytes (loss removes some).
  EXPECT_LE(r.received_bytes, r.total_bytes * (4 + 1));
}

}  // namespace
}  // namespace lrs::core
