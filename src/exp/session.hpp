// Per-run sinks for experiment matrices — the execution side of the
// experiment→report pipeline.
//
// A RunSession is handed to the matrix runners (exp/experiment.hpp,
// exp/presets.hpp, exp/tuning.hpp) and observes every (entry,
// algorithm) run as it executes: `begin_run` may attach a TraceSink so
// the run's simulation is traced *in the same pass* that produces the
// report data — a traced `rats run` simulates its run matrix exactly
// once — and `end_run` delivers the outcome.  The streaming trace
// writer (trace/writer.hpp) is the main implementation.
//
// Runs execute in parallel and complete out of order; implementations
// must be thread-safe across begin_run/end_run.
#pragma once

#include <cstddef>
#include <string>

#include "exp/runner.hpp"

namespace rats {

class TraceSink;

/// Identity of one run of an experiment matrix.
struct RunMeta {
  std::string entry;    ///< workload entry name
  std::string algo;     ///< algorithm display name
  std::string cluster;  ///< cluster name
};

/// Observer of an experiment matrix; see the header comment.
class RunSession {
 public:
  virtual ~RunSession() = default;

  /// Announces the matrix size before any run starts (called once,
  /// from the thread launching the matrix).
  virtual void begin_matrix(std::size_t runs) { (void)runs; }

  /// Offers the session a chance to *supply* run `run`'s outcome
  /// instead of simulating it.  Returning true means `out` holds the
  /// outcome and the runner must skip the schedule+simulate step for
  /// that run entirely — begin_run/end_run are not called for it, and
  /// no allocation is computed on its behalf.
  /// The sharded scenario service (src/serve/) uses this seam three
  /// ways: a dry pass injecting every run to learn the matrix shape, a
  /// worker pass injecting everything outside its shard, and a replay
  /// pass injecting every recorded outcome so the report is assembled
  /// by the exact single-process code path.  The default never
  /// injects; implementations must stay thread-safe like the other
  /// hooks.
  virtual bool inject(std::size_t run, const RunMeta& meta, RunOutcome& out) {
    (void)run;
    (void)meta;
    (void)out;
    return false;
  }

  /// Called as run `run` starts; the returned sink (nullptr = do not
  /// trace) receives the run's simulation events and must stay valid
  /// until the matching end_run.
  virtual TraceSink* begin_run(std::size_t run, const RunMeta& meta) = 0;

  /// Called when run `run` completes.
  virtual void end_run(std::size_t run, const RunOutcome& outcome) = 0;
};

}  // namespace rats
