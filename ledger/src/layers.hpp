// Per-layer metrics of a traced run: extraction from pass records, the
// determinism check on stable counts, and the printed layer report.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve_stream.hpp"

namespace ledger {

using Layers = std::map<std::string, double>;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order.  A layer a workload
/// does not exercise reads 0 there (the report says so).
const std::vector<MetricDef>& layer_metrics();

/// Counts that must repeat exactly between passes of one seed.
const std::vector<std::string>& stable_counts();

/// Layers of one traced batch pass; `setup` is the set-up record.
Layers batch_layers(const Record& pass, const Record& setup);

/// Layers of serve-stream: the live run for serve.* and loadgen, the
/// in-process replay of its `jobs` jobs for everything else (per-job
/// figures are means over the jobs).
Layers serve_layers(const Record& replay, const ServeResult& live,
                    std::size_t jobs);

/// The sim.* and net.* counts a pass moved, read from obs deltas.
Layers work_counts(const Record& rec);

/// Median per metric over passes; stable counts are checked for exact
/// repetition (mismatches appended to `errors`).
Layers combine(const std::vector<Layers>& passes,
               std::vector<std::string>& errors);

/// Checks the sim.*/net.* counts of `got` against a reference run.
void check_against(const Layers& got, const Layers& reference,
                   const std::string& what, std::vector<std::string>& errors);

/// Human-readable per-layer report (self times, counts, every ratio
/// with its base, the reconciliation with CPU, tracing overhead).
void print_layer_report(const std::string& workload, std::uint64_t seed,
                        const std::vector<Layers>& passes,
                        const Layers& combined, double untraced_wall_s,
                        double traced_wall_s, double pass_cpu_s,
                        const std::string& notes);

}  // namespace ledger
