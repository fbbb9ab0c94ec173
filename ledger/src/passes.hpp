// Measurement passes.  Each function here runs inside a forked child
// (common.hpp run_pass) and returns what it measured as a Record.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace ledger {

/// Set-ups of a batch workload, at least `reps` and for at least
/// `seconds`: spec parse, corpus build and platform build of each spec.
/// A set-up takes milliseconds, and repeating it for a while keeps its
/// median clear of the first slow ones after the process starts.
/// vec: setup_s, parse_s, build_s (per repetition, all specs); num: tasks.
Record batch_setup(const std::vector<std::string>& spec_texts, int reps,
                   double seconds);

/// The direct single-thread `rats run` path (build_report at one thread,
/// render_json) over each spec: text digest<i>, num runs<i>.  With
/// `counts`, the obs counters the builds moved are added as obs.<name>.
Record reference_pass(const std::vector<std::string>& spec_texts, bool counts);

/// One timed pass of a batch workload.  Untraced, the report is built
/// exactly as `rats run` builds it, observed only through the
/// RunSession hooks; traced, the benchmark runs each (entry, algorithm)
/// itself through allocate -> map_tasks -> simulate under its spans,
/// with obs metrics and profile spans on.  trace-roundtrip writes its
/// trace under `tmp_dir` and verifies it.
Record batch_pass(const std::string& workload, const std::string& spec_text,
                  const std::string& tmp_dir, bool traced);

/// The serve pipeline of each spec replayed in-process, each step
/// timed: plan_shards, run_shard_payload per shard, parse_shard_payload
/// and merge_report_json, then parse_json/render_json of the merged
/// report.  Per spec i: digest<i>, and <step>_s<i> times.
Record serve_replay_pass(const std::vector<std::string>& specs,
                         std::size_t shards);

}  // namespace ledger
