#include "trace/writer.hpp"

#include <ostream>

#include "common/error.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace rats {

TraceWriter::TraceWriter(std::ostream& out, std::string name,
                         std::string kind, std::string spec_text)
    : out_(out),
      name_(std::move(name)),
      kind_(std::move(kind)),
      spec_text_(std::move(spec_text)) {}

void TraceWriter::begin_matrix(std::size_t runs) {
  std::lock_guard<std::mutex> lock(mu_);
  RATS_REQUIRE(!header_written_, "trace matrix announced twice");
  runs_ = runs;
  header_written_ = true;
  out_ << "{\"rats_trace\":2,\"name\":\"" + json_escape(name_) +
              "\",\"kind\":\"" + json_escape(kind_) +
              "\",\"runs\":" + std::to_string(runs) + ",\"spec\":\"" +
              json_escape(spec_text_) + "\"}\n";
}

TraceSink* TraceWriter::begin_run(std::size_t run, const std::string& entry,
                                  const std::string& algo,
                                  const std::string& cluster) {
  std::lock_guard<std::mutex> lock(mu_);
  RATS_REQUIRE(header_written_, "begin_run before begin_matrix");
  RATS_REQUIRE(run < runs_, "run index out of range");
  auto [it, inserted] = pending_.emplace(run, PendingRun{});
  RATS_REQUIRE(inserted, "run began twice");
  it->second.sink = std::make_unique<TraceSink>();
  it->second.meta_line = "{\"run\":" + std::to_string(run) + ",\"entry\":\"" +
                         json_escape(entry) + "\",\"algo\":\"" +
                         json_escape(algo) + "\",\"cluster\":\"" +
                         json_escape(cluster) + "\"}\n";
  return it->second.sink.get();
}

void TraceWriter::end_run(std::size_t run, double makespan) {
  // Between begin_run and end_run the entry belongs to the completing
  // run alone (std::map references are stable across inserts), so the
  // chunk encodes outside the lock — workers never serialize on each
  // other's encoding, only on the ordered flush.
  PendingRun* p = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = pending_.find(run);
    RATS_REQUIRE(it != pending_.end() && !it->second.done && it->second.sink,
                 "end_run without matching begin_run");
    p = &it->second;
  }
  // Encode the chunk now and drop the sink: what waits for in-order
  // flushing is the compact encoded text, not the raw event buffer.
  {
    obs::PhaseTimer span("trace/encode");
    std::string& chunk = p->encoded;
    chunk = std::move(p->meta_line);
    TraceLineEncoder encoder;
    for (const TraceEvent& event : p->sink->events())
      encoder.append(event, chunk);
    chunk += "{\"run_end\":";
    chunk += std::to_string(run);
    chunk += ",\"events\":";
    chunk += std::to_string(p->sink->size());
    chunk += ",\"makespan\":";
    append_trace_double(chunk, makespan);
    chunk += "}\n";
  }
  const std::size_t events = p->sink->size();
  p->sink.reset();
  total_events_.fetch_add(events, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  p->done = true;
  flush_ready_locked();
}

void TraceWriter::flush_ready_locked() {
  // Registered once; counts are deterministic (chunk sizes depend only
  // on the simulated runs, not on flush interleaving).
  static obs::Counter& chunks = obs::counter("trace/chunks_flushed");
  static obs::Counter& bytes = obs::counter("trace/bytes");
  while (true) {
    const auto it = pending_.find(next_flush_);
    if (it == pending_.end() || !it->second.done) return;
    out_ << it->second.encoded;
    chunks.inc();
    bytes.add(it->second.encoded.size());
    pending_.erase(it);
    ++next_flush_;
  }
}

void TraceWriter::finish() {
  std::lock_guard<std::mutex> lock(mu_);
  RATS_REQUIRE(header_written_, "finish before begin_matrix");
  RATS_REQUIRE(pending_.empty() && next_flush_ == runs_,
               "trace finished with unflushed runs");
  out_.flush();
}

}  // namespace rats
