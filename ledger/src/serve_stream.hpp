// The serve-stream workload's live half: a `rats serve` daemon with
// pre-forked workers, driven open-loop over the line protocol.
#pragma once

#include <string>
#include <vector>

#include "workloads.hpp"

namespace ledger {

struct ServeJob {
  double due = 0;  ///< seconds after the window opens
  std::string spec;
  Reference ref;
};

struct ServeConfig {
  std::vector<ServeJob> jobs;  ///< the window's jobs, by due time
  /// Jobs 0 .. warm_up-1 (or all, if fewer) are also run once, one at a
  /// time, as the last step of set-up.
  std::size_t warm_up = 0;
  double seconds = 10;      ///< arrival window
  int workers = 3;
  double poll_s = 0.002;    ///< status poll interval per job in flight
  std::string socket_path;  ///< relative to the working directory
  int setup_reps = 5;
};

struct ServeResult {
  std::vector<double> setup_s, parse_s;  ///< per set-up repetition
  /// Per completed job, in milliseconds.  Latency runs from the job's
  /// due time to its fetched result, so generator lag and
  /// retry_after_ms back-off both count.
  std::vector<double> latency_ms, submit_ms, queue_wait_ms, run_ms, fetch_ms;
  int jobs = 0;                ///< jobs scheduled
  int failed = 0;              ///< refused, failed, wrong digest or unfinished
  double runs_done = 0;        ///< runs of the completed jobs
  double runs_warm_up = 0;     ///< runs of the unmeasured warm-up jobs
  double window_s = 0;         ///< window start to the last completion
  double cpu_s = 0;            ///< client + daemon + workers, warm-up included
  double peak_rss_mb = 0;      ///< daemon or worker, whichever is larger
  double lag_max_ms = 0;       ///< latest first submit relative to due
  double shards_dispatched = 0, shards_retried = 0, jobs_rejected = 0,
         worker_restarts = 0;  ///< the daemon's own stats at the end
  std::vector<std::string> errors;
};

/// Sets the daemon up `setup_reps` times, timing each: parse the jobs'
/// specs, start the daemon until a ping answers, and warm it up.  Keeps
/// the last one, drives it through the window, drains, and shuts it
/// down.  Throws only when the daemon cannot be set up at all.
ServeResult run_serve_stream(const ServeConfig& config);

/// Saturated throughput in jobs per second: the jobs are submitted in
/// order, keeping `in_flight` unfinished, for `seconds`.
double serve_capacity(const ServeConfig& config, int in_flight);

}  // namespace ledger
