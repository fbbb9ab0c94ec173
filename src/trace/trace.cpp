#include "trace/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "common/error.hpp"
#include "common/table.hpp"

namespace rats {

namespace {

/// Bit equality (== would conflate +0/-0 and the formatter would not).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Appends a decimal integer without a temporary string.
void append_int(std::string& out, std::int32_t value) {
  char buf[12];
  const auto r = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, r.ptr);
}

}  // namespace

const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::TaskStart: return "task_start";
    case TraceEventKind::TaskFinish: return "task_finish";
    case TraceEventKind::RedistStart: return "redist_start";
    case TraceEventKind::RedistDone: return "redist_done";
    case TraceEventKind::SolveComponent: return "solve";
    case TraceEventKind::RateChange: return "rate";
    case TraceEventKind::LinkCapacity: return "link_cap";
    case TraceEventKind::NodeSlowdown: return "node_slow";
    case TraceEventKind::NodeFail: return "node_fail";
    case TraceEventKind::NodeRestart: return "node_restart";
    case TraceEventKind::TaskKill: return "task_kill";
    case TraceEventKind::TaskRemap: return "task_remap";
    case TraceEventKind::RedistAbort: return "redist_abort";
  }
  return "?";
}

void append_trace_double(std::string& out, double value) {
  // 24 bytes hold the longest general-17 form, "-2.2250738585072014e-308".
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, value,
                               std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

std::string trace_double(double value) {
  std::string out;
  append_trace_double(out, value);
  return out;
}

namespace {

/// The self-contained line form, appended without its newline.
void append_event_line(const TraceEvent& event, std::string& out) {
  out += "{\"t\":";
  append_trace_double(out, event.time);
  out += ",\"ev\":\"";
  out += to_string(event.kind);
  out += "\",\"a\":";
  append_int(out, event.a);
  out += ",\"b\":";
  append_int(out, event.b);
  out += ",\"v\":";
  append_trace_double(out, event.value);
  out += '}';
}

}  // namespace

std::string trace_event_line(const TraceEvent& event) {
  std::string line;
  append_event_line(event, line);
  return line;
}

void TraceLineEncoder::reset() {
  have_time_ = false;
  have_rate_ = false;
  time_ = 0;
  rate_ = 0;
}

void TraceLineEncoder::append(const TraceEvent& event, std::string& out) {
  if (event.kind != TraceEventKind::RateChange) {
    append_event_line(event, out);
    out += '\n';
    time_ = event.time;
    have_time_ = true;
    return;
  }
  out += "{\"r\":";
  append_int(out, event.a);
  if (!have_time_ || !same_bits(event.time, time_)) {
    out += ",\"t\":";
    append_trace_double(out, event.time);
    time_ = event.time;
    have_time_ = true;
  }
  if (!have_rate_ || !same_bits(event.value, rate_)) {
    out += ",\"v\":";
    append_trace_double(out, event.value);
    rate_ = event.value;
    have_rate_ = true;
  }
  out += "}\n";
}

void TraceLineDecoder::reset() {
  have_time_ = false;
  have_rate_ = false;
  time_ = 0;
  rate_ = 0;
}

namespace {

/// Consumes `token` at `at` when the line continues with it.
bool consume(std::string_view line, std::size_t& at, std::string_view token) {
  if (line.substr(at, token.size()) != token) return false;
  at += token.size();
  return true;
}

/// Parses `key` (the literal text before the value, e.g. `,"t":`) at
/// `at` followed by a number — a double, or an int32 written in plain
/// decimal.  Advances `at` past both only on success.
template <class Number>
bool parse_field(std::string_view line, std::size_t& at, std::string_view key,
                 Number& out) {
  std::size_t pos = at;
  if (!consume(line, pos, key)) return false;
  const char* first = line.data() + pos;
  const auto r = std::from_chars(first, line.data() + line.size(), out);
  if (r.ec != std::errc{}) return false;
  at = pos + static_cast<std::size_t>(r.ptr - first);
  return true;
}

TraceEventKind kind_from_string(std::string_view name, bool& ok) {
  ok = true;
  if (name == "task_start") return TraceEventKind::TaskStart;
  if (name == "task_finish") return TraceEventKind::TaskFinish;
  if (name == "redist_start") return TraceEventKind::RedistStart;
  if (name == "redist_done") return TraceEventKind::RedistDone;
  if (name == "solve") return TraceEventKind::SolveComponent;
  if (name == "rate") return TraceEventKind::RateChange;
  if (name == "link_cap") return TraceEventKind::LinkCapacity;
  if (name == "node_slow") return TraceEventKind::NodeSlowdown;
  if (name == "node_fail") return TraceEventKind::NodeFail;
  if (name == "node_restart") return TraceEventKind::NodeRestart;
  if (name == "task_kill") return TraceEventKind::TaskKill;
  if (name == "task_remap") return TraceEventKind::TaskRemap;
  if (name == "redist_abort") return TraceEventKind::RedistAbort;
  ok = false;
  return TraceEventKind::TaskStart;
}

}  // namespace

bool TraceLineDecoder::decode(std::string_view line, TraceEvent& out) {
  out = TraceEvent{};
  std::size_t at = 0;
  if (line.starts_with("{\"r\":")) {
    // Delta-encoded rate change: inherit time/value unless present.
    out.kind = TraceEventKind::RateChange;
    if (!parse_field(line, at, "{\"r\":", out.a)) return false;
    // Parse into locals and commit to the inherited state only once the
    // whole line is accepted — a rejected line must not corrupt what
    // later lines inherit.
    double time = 0, rate = 0;
    const bool line_has_time = parse_field(line, at, ",\"t\":", time);
    const bool line_has_rate = parse_field(line, at, ",\"v\":", rate);
    if (line.substr(at) != "}") return false;
    if ((!line_has_time && !have_time_) || (!line_has_rate && !have_rate_))
      return false;  // nothing to inherit
    if (line_has_time) {
      time_ = time;
      have_time_ = true;
    }
    if (line_has_rate) {
      rate_ = rate;
      have_rate_ = true;
    }
    out.time = time_;
    out.value = rate_;
    return true;
  }

  // Self-contained form: {"t":..,"ev":"..","a":..,"b":..,"v":..}
  if (!parse_field(line, at, "{\"t\":", out.time) ||
      !consume(line, at, ",\"ev\":\""))
    return false;
  const std::size_t name_end = line.find('"', at);
  if (name_end == std::string_view::npos) return false;
  bool ok = false;
  out.kind = kind_from_string(line.substr(at, name_end - at), ok);
  if (!ok) return false;
  at = name_end;
  if (!parse_field(line, at, "\",\"a\":", out.a) ||
      !parse_field(line, at, ",\"b\":", out.b) ||
      !parse_field(line, at, ",\"v\":", out.value) || line.substr(at) != "}")
    return false;
  time_ = out.time;
  have_time_ = true;
  if (out.kind == TraceEventKind::RateChange) {
    rate_ = out.value;
    have_rate_ = true;
  }
  return true;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string trace_gantt(const std::vector<TraceEvent>& events,
                        const std::vector<std::string>* task_names) {
  struct Interval {
    bool task;        ///< task interval (else redistribution)
    std::int32_t id;
    Seconds start;
    Seconds finish;
    bool closed = false;
  };
  std::vector<Interval> intervals;
  // Open-interval lookup: (task, id) -> index.  Streams are small and
  // ids dense per run, so a linear scan from the back (intervals close
  // roughly in the order they open) is plenty.
  auto open_index = [&](bool task, std::int32_t id) -> Interval* {
    for (auto it = intervals.rbegin(); it != intervals.rend(); ++it)
      if (it->task == task && it->id == id && !it->closed) return &*it;
    return nullptr;
  };
  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case TraceEventKind::TaskStart:
        intervals.push_back(Interval{true, e.a, e.time, e.time});
        break;
      case TraceEventKind::RedistStart:
        intervals.push_back(Interval{false, e.a, e.time, e.time});
        break;
      case TraceEventKind::TaskFinish:
      case TraceEventKind::TaskKill:
      case TraceEventKind::RedistDone:
      case TraceEventKind::RedistAbort: {
        // A kill/abort truncates the interval it interrupts.
        Interval* open =
            open_index(e.kind == TraceEventKind::TaskFinish ||
                           e.kind == TraceEventKind::TaskKill,
                       e.a);
        RATS_REQUIRE(open != nullptr, "trace closes an interval it never opened");
        open->finish = e.time;
        open->closed = true;
        break;
      }
      default:
        break;  // solver/rate events carry no interval
    }
  }
  std::stable_sort(intervals.begin(), intervals.end(),
                   [](const Interval& a, const Interval& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.task > b.task;
                   });
  Table table({"interval", "start", "finish", "duration"});
  for (const Interval& iv : intervals) {
    std::string label;
    if (iv.task) {
      label = task_names != nullptr
                  ? (*task_names)[static_cast<std::size_t>(iv.id)]
                  : "task " + std::to_string(iv.id);
    } else {
      label = "edge " + std::to_string(iv.id);
    }
    table.add_row({label, fmt(iv.start, 3), fmt(iv.finish, 3),
                   fmt(iv.finish - iv.start, 3)});
  }
  return table.to_text();
}

}  // namespace rats
