// Shared plumbing of the ledger benchmark: clocks, resource usage,
// digests, order statistics, and fork-isolated measurement passes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <sys/types.h>

namespace ledger {

/// Monotonic seconds (steady_clock) since an arbitrary epoch.
double now_s();

/// CPU seconds (user + sys) and peak resident memory of a process.
struct Usage {
  double cpu_s = 0;
  double maxrss_mb = 0;
};
Usage self_usage();  ///< this process, all threads

/// Reaps child `pid`; returns its usage, which includes the usage of its
/// own reaped children.  `status`, when given, receives the wait status.
Usage wait_child(pid_t pid, int* status = nullptr);

/// FNV-1a 64 of `bytes` as 16 hex digits: the report digests committed
/// in references.txt.
std::string digest(const std::string& bytes);

/// Order statistics over a copy of `v` (linear interpolation between
/// closest ranks); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// What a measurement pass reports back: numbers, strings and samples.
struct Record {
  std::map<std::string, double> num;
  std::map<std::string, std::string> text;
  std::map<std::string, std::vector<double>> vec;
};

/// Outcome of one pass run in a forked child.
struct PassResult {
  bool ok = false;
  std::string error;  ///< why the pass failed (throw, signal, bad exit)
  Record record;
  Usage usage;  ///< the child's own usage, from wait4
};

/// Runs `body` in a forked child and ships its Record back over a pipe.
/// Every library call that simulates runs in such a child, so each pass
/// starts from the same process state a fresh `rats run` has, its peak
/// memory excludes this process's own buffers, and a crash fails only
/// the pass.  The caller must be single-threaded.
PassResult run_pass(const std::function<Record()>& body);

/// Runs each body in its own forked child, all at once.
std::vector<PassResult> run_passes(
    const std::vector<std::function<Record()>>& bodies);

}  // namespace ledger
