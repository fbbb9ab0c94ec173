// The benchmark's own spans: recorded around its calls into each
// layer's public functions, kept in memory per thread, and folded into
// per-layer totals when a traced pass ends.  A span's self time is its
// duration minus the time its child spans (on the same thread) cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/registry.hpp"

namespace ledger {

/// Turns recording on for this process (traced passes only).
void spans_enable();

/// Times the enclosing scope as layer span `name` (a string literal).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

struct SpanTotal {
  double total_s = 0;
  double self_s = 0;
  std::uint64_t count = 0;
};

/// Totals per span name over every thread that recorded.  Call after
/// the threads' work has completed.
std::map<std::string, SpanTotal> span_totals();

/// Totals per span name of the program's own `--profile` spans
/// (obs::spans_json), e.g. "redist/plan".
std::map<std::string, SpanTotal> profile_totals();

/// Stable and volatile counters plus timers of obs::snapshot(), as
/// deltas `after - before`, keyed by obs name; a timer `x` yields
/// `x.ns` and `x.count`.
std::map<std::string, double> obs_delta(const rats::obs::Snapshot& before,
                                        const rats::obs::Snapshot& after);

}  // namespace ledger
