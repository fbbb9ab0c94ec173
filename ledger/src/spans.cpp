#include "spans.hpp"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/span.hpp"

namespace ledger {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Frame {
  const char* name;
  std::int64_t start_ns;
  std::int64_t child_ns;
};

struct ThreadSpans {
  std::vector<Frame> stack;
  std::map<const char*, SpanTotal> totals;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadSpans>> threads;
};

Registry& registry() {
  static Registry r;
  return r;
}

bool g_enabled = false;  // set before any worker thread starts

ThreadSpans& thread_spans() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.threads.push_back(std::make_unique<ThreadSpans>());
    mine = r.threads.back().get();
  }
  return *mine;
}

void add(std::map<std::string, SpanTotal>& into, const std::string& name,
         double total_s, double self_s) {
  SpanTotal& t = into[name];
  t.total_s += total_s;
  t.self_s += self_s;
  ++t.count;
}

/// Reads one `"key":<value>` field of a spans_json event line.
std::string field(const std::string& line, const char* key) {
  const std::string tag = std::string("\"") + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  std::size_t begin = at + tag.size();
  std::size_t end;
  if (line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
  } else {
    end = line.find_first_of(",}", begin);
  }
  return line.substr(begin, end == std::string::npos ? end : end - begin);
}

}  // namespace

void spans_enable() { g_enabled = true; }

Span::Span(const char* name) : active_(g_enabled) {
  if (active_) thread_spans().stack.push_back(Frame{name, now_ns(), 0});
}

Span::~Span() {
  if (!active_) return;
  ThreadSpans& t = thread_spans();
  const Frame f = t.stack.back();
  t.stack.pop_back();
  const std::int64_t dur = now_ns() - f.start_ns;
  SpanTotal& total = t.totals[f.name];
  total.total_s += static_cast<double>(dur) * 1e-9;
  total.self_s += static_cast<double>(dur - f.child_ns) * 1e-9;
  ++total.count;
  if (!t.stack.empty()) t.stack.back().child_ns += dur;
}

std::map<std::string, SpanTotal> span_totals() {
  std::map<std::string, SpanTotal> out;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& t : r.threads)
    for (const auto& [name, total] : t->totals) {
      SpanTotal& o = out[name];
      o.total_s += total.total_s;
      o.self_s += total.self_s;
      o.count += total.count;
    }
  return out;
}

std::map<std::string, SpanTotal> profile_totals() {
  // spans_json lists each thread's events in order, one per line, with
  // every begin matched by an end on the same thread.
  std::map<std::string, SpanTotal> out;
  const std::string json = rats::obs::spans_json();
  struct Open {
    std::string name;
    double start_us;
    double child_us;
  };
  std::vector<Open> stack;
  std::string tid;
  std::size_t at = 0;
  while (at < json.size()) {
    std::size_t end = json.find('\n', at);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(at, end - at);
    at = end + 1;
    const std::string ph = field(line, "ph");
    if (ph.empty()) continue;
    const std::string line_tid = field(line, "tid");
    if (line_tid != tid) {
      stack.clear();
      tid = line_tid;
    }
    const double ts = std::strtod(field(line, "ts").c_str(), nullptr);
    if (ph == "B") {
      stack.push_back(Open{field(line, "name"), ts, 0});
    } else if (!stack.empty()) {
      const Open o = stack.back();
      stack.pop_back();
      const double dur = ts - o.start_us;
      add(out, o.name, dur * 1e-6, (dur - o.child_us) * 1e-6);
      if (!stack.empty()) stack.back().child_us += dur;
    }
  }
  return out;
}

std::map<std::string, double> obs_delta(const rats::obs::Snapshot& before,
                                        const rats::obs::Snapshot& after) {
  std::map<std::string, double> out;
  const auto counters = [&](const auto& b, const auto& a) {
    for (const auto& v : a) out[v.name] = static_cast<double>(v.value);
    for (const auto& v : b) out[v.name] -= static_cast<double>(v.value);
  };
  counters(before.counters, after.counters);
  counters(before.volatile_counters, after.volatile_counters);
  for (const auto& t : after.timers) {
    out[t.name + ".ns"] += static_cast<double>(t.ns);
    out[t.name + ".count"] += static_cast<double>(t.count);
  }
  for (const auto& t : before.timers) {
    out[t.name + ".ns"] -= static_cast<double>(t.ns);
    out[t.name + ".count"] -= static_cast<double>(t.count);
  }
  return out;
}

}  // namespace ledger
