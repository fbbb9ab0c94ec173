// The four ledger workloads as scenario text derived from the workload
// seed, and the reference digests their outputs are checked against.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ledger {

/// The seed whose reference digests are committed in references.txt;
/// every other seed computes its references before timing starts.
constexpr std::uint64_t kDefaultSeed = 42;

/// Names accepted by --workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// True for the corpus workloads driven through one report build per
/// pass (fig2-flat, hier-mt, trace-roundtrip).
bool is_batch(const std::string& workload);

/// Scenario texts of a batch workload at `seed`; timed passes cycle
/// through them, and traced passes use the first.  Their `threads` is
/// the worker count the passes use.
std::vector<std::string> batch_specs(const std::string& workload,
                                     std::uint64_t seed);

/// Number of serve-stream job shapes; jobs 0 .. serve_shapes()-1 of
/// any seed cover every shape once.
std::size_t serve_shapes();

/// Scenario text of serve-stream job `k` at `seed`: a shardable
/// `experiment` spec of one of several sizes, or a non-shardable
/// `single` spec, run with one thread inside a worker.
std::string serve_job(std::uint64_t seed, std::size_t k);

/// Due times, in seconds from the start, of the serve-stream jobs that
/// arrive within `seconds` at a mean of `rate` jobs per second.
std::vector<double> serve_arrivals(std::uint64_t seed, double seconds,
                                   double rate);

/// Expected output of one spec: digest of its report JSON from the
/// direct single-thread path, and the number of runs it simulates.
struct Reference {
  std::string digest;
  double runs = 0;
};

/// References committed for (workload, seed), keyed "report<i>" for
/// batch specs and "job<k>" for serve-stream jobs.  Empty when none.
std::map<std::string, Reference> committed_references(
    const std::string& path, const std::string& workload, std::uint64_t seed);

/// Deterministic 64-bit mixer (splitmix64) for seeded choices.
std::uint64_t mix64(std::uint64_t x);

}  // namespace ledger
