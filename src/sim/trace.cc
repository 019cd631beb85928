#include "sim/trace.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/stats/stats.h"

namespace lrs::sim {

// docs/observability.md ("Cost model") quotes this per-event size.
static_assert(sizeof(TraceEvent) == 32);

void TraceRecorder::record(TraceEvent e) {
  static stats::Counter& recorded =
      stats::Registry::instance().counter("sim.trace.events");
  recorded.add();
  events_.push_back(e);
}

namespace {

/// `"key":` followed by `tail`: the text a JSONL field starts with.
std::string field_needle(std::string_view key, std::string_view tail) {
  std::string needle(1, '"');
  needle.append(key).append("\":").append(tail);
  return needle;
}

/// Extracts an unsigned integer field `"key":value` from a JSONL line.
std::optional<std::uint64_t> json_uint(std::string_view line,
                                       std::string_view key) {
  const std::string needle = field_needle(key, "");
  const auto at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t i = at + needle.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return std::nullopt;
  std::uint64_t v = 0;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
    ++i;
  }
  return v;
}

/// Extracts a string field `"key":"value"` from a JSONL line.
std::optional<std::string> json_str(std::string_view line,
                                    std::string_view key) {
  const std::string needle = field_needle(key, "\"");
  const auto at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  const std::size_t start = at + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string_view::npos) return std::nullopt;
  return std::string(line.substr(start, end - start));
}

const char* data_status_name(std::uint8_t s) {
  // Mirrors proto::DataStatus (sim cannot include proto; the numeric
  // contract is pinned by tests/test_trace.cc).
  switch (s) {
    case 0: return "rejected";
    case 1: return "stale";
    case 2: return "stored";
    case 3: return "page_complete";
    case 4: return "image_complete";
  }
  return "?";
}

const char* engine_state_name(std::uint32_t s) {
  // Mirrors proto::NodeState (same layering note as data_status_name).
  switch (s) {
    case 0: return "maintain";
    case 1: return "rx";
    case 2: return "tx";
  }
  return "?";
}

}  // namespace

const char* trace_event_type_name(TraceEventType t) {
  switch (t) {
    case TraceEventType::kSend: return "send";
    case TraceEventType::kDeliver: return "deliver";
    case TraceEventType::kReboot: return "reboot";
    case TraceEventType::kStateTransition: return "state";
    case TraceEventType::kPageComplete: return "page_complete";
    case TraceEventType::kNodeComplete: return "node_complete";
    case TraceEventType::kAuthFailure: return "auth_failure";
    case TraceEventType::kDataServe: return "data_serve";
    case TraceEventType::kDataRx: return "data_rx";
  }
  return "?";
}

std::optional<TraceEventType> trace_event_type_from_name(std::string_view s) {
  for (std::uint8_t t = static_cast<std::uint8_t>(TraceEventType::kSend);
       t <= static_cast<std::uint8_t>(TraceEventType::kDataRx); ++t) {
    if (s == trace_event_type_name(static_cast<TraceEventType>(t))) {
      return static_cast<TraceEventType>(t);
    }
  }
  return std::nullopt;
}

std::string TraceEvent::to_jsonl() const {
  std::ostringstream os;
  os << "{\"t\":" << time << ",\"type\":\"" << trace_event_type_name(type)
     << "\",\"node\":" << node;
  switch (type) {
    case TraceEventType::kSend:
      os << ",\"cls\":\"" << packet_class_name(static_cast<PacketClass>(cls))
         << "\",\"bytes\":" << a;
      break;
    case TraceEventType::kDeliver:
      os << ",\"from\":" << peer << ",\"cls\":\""
         << packet_class_name(static_cast<PacketClass>(cls))
         << "\",\"bytes\":" << a << ",\"tampered\":" << (b ? 1 : 0);
      break;
    case TraceEventType::kReboot:
    case TraceEventType::kNodeComplete:
      break;
    case TraceEventType::kStateTransition:
      os << ",\"from_state\":\"" << engine_state_name(a)
         << "\",\"to_state\":\"" << engine_state_name(b) << "\"";
      break;
    case TraceEventType::kPageComplete:
      os << ",\"page\":" << a << ",\"pages_complete\":" << b;
      break;
    case TraceEventType::kAuthFailure:
      os << ",\"cls\":\"" << packet_class_name(static_cast<PacketClass>(cls))
         << "\"";
      break;
    case TraceEventType::kDataServe:
      os << ",\"page\":" << a << ",\"index\":" << b;
      break;
    case TraceEventType::kDataRx:
      os << ",\"page\":" << a << ",\"index\":" << b << ",\"status\":\""
         << data_status_name(cls) << "\"";
      break;
  }
  os << "}";
  return os.str();
}

std::optional<TraceEvent> TraceEvent::from_jsonl(std::string_view line) {
  const auto t = json_uint(line, "t");
  const auto type_name = json_str(line, "type");
  const auto node = json_uint(line, "node");
  if (!t || !type_name || !node) return std::nullopt;
  const auto type = trace_event_type_from_name(*type_name);
  if (!type) return std::nullopt;

  TraceEvent e;
  e.time = static_cast<SimTime>(*t);
  e.type = *type;
  e.node = static_cast<NodeId>(*node);

  const auto cls_of = [&](std::string_view key) -> std::optional<std::uint8_t> {
    const auto name = json_str(line, key);
    if (!name) return std::nullopt;
    if (const auto c = packet_class_from_name(*name)) {
      return static_cast<std::uint8_t>(*c);
    }
    return std::nullopt;
  };

  switch (*type) {
    case TraceEventType::kSend: {
      const auto cls = cls_of("cls");
      const auto bytes = json_uint(line, "bytes");
      if (!cls || !bytes) return std::nullopt;
      e.cls = *cls;
      e.a = static_cast<std::uint32_t>(*bytes);
      break;
    }
    case TraceEventType::kDeliver: {
      const auto cls = cls_of("cls");
      const auto from = json_uint(line, "from");
      const auto bytes = json_uint(line, "bytes");
      const auto tampered = json_uint(line, "tampered");
      if (!cls || !from || !bytes || !tampered) return std::nullopt;
      e.cls = *cls;
      e.peer = static_cast<NodeId>(*from);
      e.a = static_cast<std::uint32_t>(*bytes);
      e.b = static_cast<std::uint32_t>(*tampered);
      break;
    }
    case TraceEventType::kReboot:
    case TraceEventType::kNodeComplete:
      break;
    case TraceEventType::kStateTransition: {
      const auto from = json_str(line, "from_state");
      const auto to = json_str(line, "to_state");
      if (!from || !to) return std::nullopt;
      const auto decode_state =
          [](const std::string& s) -> std::optional<std::uint32_t> {
        for (std::uint32_t v = 0; v < 3; ++v) {
          if (s == engine_state_name(v)) return v;
        }
        return std::nullopt;
      };
      const auto fa = decode_state(*from);
      const auto fb = decode_state(*to);
      if (!fa || !fb) return std::nullopt;
      e.a = *fa;
      e.b = *fb;
      break;
    }
    case TraceEventType::kPageComplete: {
      const auto page = json_uint(line, "page");
      const auto pc = json_uint(line, "pages_complete");
      if (!page || !pc) return std::nullopt;
      e.a = static_cast<std::uint32_t>(*page);
      e.b = static_cast<std::uint32_t>(*pc);
      break;
    }
    case TraceEventType::kAuthFailure: {
      const auto cls = cls_of("cls");
      if (!cls) return std::nullopt;
      e.cls = *cls;
      break;
    }
    case TraceEventType::kDataServe: {
      const auto page = json_uint(line, "page");
      const auto index = json_uint(line, "index");
      if (!page || !index) return std::nullopt;
      e.a = static_cast<std::uint32_t>(*page);
      e.b = static_cast<std::uint32_t>(*index);
      break;
    }
    case TraceEventType::kDataRx: {
      const auto page = json_uint(line, "page");
      const auto index = json_uint(line, "index");
      const auto status = json_str(line, "status");
      if (!page || !index || !status) return std::nullopt;
      e.a = static_cast<std::uint32_t>(*page);
      e.b = static_cast<std::uint32_t>(*index);
      std::optional<std::uint8_t> code;
      for (std::uint8_t s = 0; s <= 4; ++s) {
        if (*status == data_status_name(s)) code = s;
      }
      if (!code) return std::nullopt;
      e.cls = *code;
      break;
    }
  }
  return e;
}

TraceRecorder::TraceRecorder() { events_.reserve(4096); }

void TraceRecorder::on_send(SimTime now, NodeId sender, PacketClass cls,
                            ByteView frame) {
  record({now, TraceEventType::kSend, sender, 0,
          static_cast<std::uint8_t>(cls),
          static_cast<std::uint32_t>(frame.size()), 0});
}

void TraceRecorder::after_deliver(SimTime now, NodeId from, NodeId to,
                                  PacketClass cls, ByteView frame,
                                  bool tampered) {
  record({now, TraceEventType::kDeliver, to, from,
          static_cast<std::uint8_t>(cls),
          static_cast<std::uint32_t>(frame.size()), tampered ? 1u : 0u});
}

void TraceRecorder::on_reboot(SimTime now, NodeId node) {
  record({now, TraceEventType::kReboot, node, 0, 0, 0, 0});
}

void TraceRecorder::on_state_transition(SimTime now, NodeId node, int from,
                                        int to) {
  record({now, TraceEventType::kStateTransition, node, 0, 0,
          static_cast<std::uint32_t>(from), static_cast<std::uint32_t>(to)});
}

void TraceRecorder::on_page_complete(SimTime now, NodeId node,
                                     std::uint32_t page,
                                     std::uint32_t pages_complete) {
  record({now, TraceEventType::kPageComplete, node, 0, 0, page,
          pages_complete});
}

void TraceRecorder::on_node_complete(SimTime now, NodeId node) {
  record({now, TraceEventType::kNodeComplete, node, 0, 0, 0, 0});
}

void TraceRecorder::on_auth_failure(SimTime now, NodeId node,
                                    PacketClass cls) {
  record({now, TraceEventType::kAuthFailure, node, 0,
          static_cast<std::uint8_t>(cls), 0, 0});
}

void TraceRecorder::on_data_served(SimTime now, NodeId node,
                                   std::uint32_t page, std::uint32_t index) {
  record({now, TraceEventType::kDataServe, node, 0, 0, page, index});
}

void TraceRecorder::on_data_packet(SimTime now, NodeId node,
                                   std::uint32_t page, std::uint32_t index,
                                   int status) {
  record({now, TraceEventType::kDataRx, node, 0,
          static_cast<std::uint8_t>(status), page, index});
}

bool TraceRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  for (const auto& e : events_) out << e.to_jsonl() << "\n";
  return static_cast<bool>(out);
}

bool TraceRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;

  // Track nodes seen so every lane gets a thread-name metadata record.
  NodeId max_node = 0;
  for (const auto& e : events_) max_node = std::max(max_node, e.node);

  out << "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (NodeId n = 0; n <= max_node; ++n) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << n
        << ",\"args\":{\"name\":\"node " << n
        << (n == 0 ? " (base)" : "") << "\"}}";
  }
  std::uint64_t completed = 0;
  for (const auto& e : events_) {
    sep();
    switch (e.type) {
      case TraceEventType::kNodeComplete:
        ++completed;
        out << "{\"name\":\"completed_nodes\",\"ph\":\"C\",\"pid\":0,"
            << "\"ts\":" << e.time << ",\"args\":{\"completed\":" << completed
            << "}}";
        break;
      case TraceEventType::kPageComplete:
        out << "{\"name\":\"frontier node " << e.node
            << "\",\"ph\":\"C\",\"pid\":0,\"ts\":" << e.time
            << ",\"args\":{\"pages_complete\":" << e.b << "}}";
        break;
      case TraceEventType::kStateTransition:
        out << "{\"name\":\"" << engine_state_name(e.b)
            << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" << e.node
            << ",\"ts\":" << e.time << ",\"args\":{\"from\":\""
            << engine_state_name(e.a) << "\"}}";
        break;
      default:
        out << "{\"name\":\"" << trace_event_type_name(e.type)
            << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" << e.node
            << ",\"ts\":" << e.time << ",\"args\":{";
        if (e.type == TraceEventType::kSend ||
            e.type == TraceEventType::kDeliver ||
            e.type == TraceEventType::kAuthFailure) {
          out << "\"cls\":\""
              << packet_class_name(static_cast<PacketClass>(e.cls)) << "\"";
          if (e.type != TraceEventType::kAuthFailure) {
            out << ",\"bytes\":" << e.a;
          }
          if (e.type == TraceEventType::kDeliver) {
            out << ",\"from\":" << e.peer;
          }
        } else if (e.type == TraceEventType::kDataServe ||
                   e.type == TraceEventType::kDataRx) {
          out << "\"page\":" << e.a << ",\"index\":" << e.b;
          if (e.type == TraceEventType::kDataRx) {
            out << ",\"status\":\"" << data_status_name(e.cls) << "\"";
          }
        }
        out << "}}";
        break;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::vector<TimeSeriesSample> build_time_series(
    const std::vector<TraceEvent>& events, SimTime period,
    std::size_t node_count) {
  if (period <= 0) period = kSecond;
  std::vector<TimeSeriesSample> samples;
  TimeSeriesSample cur;  // running cumulative counters
  std::vector<std::uint32_t> frontier(node_count, 0);

  const auto frontier_stats = [&](TimeSeriesSample& s) {
    std::uint32_t fmin = 0;
    std::uint64_t fsum = 0;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      fsum += frontier[i];
      if (i == 1 || (i > 1 && frontier[i] < fmin)) fmin = frontier[i];
    }
    s.frontier_min = node_count > 1 ? fmin : 0;
    s.frontier_sum = fsum;
  };

  SimTime next_sample = period;
  const auto flush_until = [&](SimTime t) {
    while (next_sample <= t) {
      TimeSeriesSample s = cur;
      s.time = next_sample;
      frontier_stats(s);
      samples.push_back(s);
      next_sample += period;
    }
  };

  for (const auto& e : events) {
    flush_until(e.time - 1);  // samples cover (prev, next_sample]
    switch (e.type) {
      case TraceEventType::kSend:
        if (e.cls < kPacketClassCount) cur.sent[e.cls] += 1;
        cur.sent_bytes += e.a;
        break;
      case TraceEventType::kNodeComplete:
        cur.completed_nodes += 1;
        break;
      case TraceEventType::kPageComplete:
        if (e.node < frontier.size()) frontier[e.node] = e.b;
        break;
      case TraceEventType::kAuthFailure:
        cur.auth_failures += 1;
        break;
      default:
        break;
    }
  }
  // Final partial sample so the curve always reaches the last event.
  const SimTime end = events.empty() ? 0 : events.back().time;
  TimeSeriesSample s = cur;
  s.time = std::max(end, next_sample - period);
  frontier_stats(s);
  flush_until(s.time);
  if (samples.empty() || samples.back().time < s.time) samples.push_back(s);
  return samples;
}

bool write_time_series(const std::vector<TimeSeriesSample>& samples,
                       SimTime period, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "{\n  \"period_us\": " << period << ",\n  \"columns\": [\"t_us\"";
  for (std::size_t c = 0; c < kPacketClassCount; ++c) {
    out << ", \"sent_" << packet_class_name(static_cast<PacketClass>(c))
        << "\"";
  }
  out << ", \"sent_bytes\", \"completed_nodes\", \"frontier_min\","
      << " \"frontier_sum\", \"auth_failures\"],\n  \"rows\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    out << "    [" << s.time;
    for (std::size_t c = 0; c < kPacketClassCount; ++c) {
      out << ", " << s.sent[c];
    }
    out << ", " << s.sent_bytes << ", " << s.completed_nodes << ", "
        << s.frontier_min << ", " << s.frontier_sum << ", "
        << s.auth_failures << "]" << (i + 1 < samples.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

TraceExportConfig trace_for_trial(const TraceExportConfig& base,
                                  std::size_t config_index,
                                  std::size_t trial_index) {
  if (!base.enabled()) return {};
  if (config_index == 0 && trial_index == 0) return base;
  if (!base.all_trials) return {};

  const auto derive = [&](const std::string& path) -> std::string {
    if (path.empty()) return path;
    std::ostringstream tag;
    tag << ".c" << config_index << ".t" << trial_index;
    const auto slash = path.find_last_of('/');
    const auto dot = path.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
      return path + tag.str();  // no extension: append the tag
    }
    return path.substr(0, dot) + tag.str() + path.substr(dot);
  };

  TraceExportConfig out = base;
  out.events_path = derive(base.events_path);
  out.chrome_path = derive(base.chrome_path);
  out.timeseries_path = derive(base.timeseries_path);
  return out;
}

bool export_trace(const TraceRecorder& recorder,
                  const TraceExportConfig& config, std::size_t node_count) {
  bool ok = true;
  if (!config.events_path.empty()) {
    ok = recorder.write_jsonl(config.events_path) && ok;
  }
  if (!config.chrome_path.empty()) {
    ok = recorder.write_chrome_trace(config.chrome_path) && ok;
  }
  if (!config.timeseries_path.empty()) {
    const auto samples = build_time_series(
        recorder.events(), kTimeSeriesPeriod, node_count);
    ok = write_time_series(samples, kTimeSeriesPeriod,
                           config.timeseries_path) &&
         ok;
  }
  return ok;
}

}  // namespace lrs::sim
