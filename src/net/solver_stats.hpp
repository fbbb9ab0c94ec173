// Process-wide Max-Min solver statistics, registry-backed.
//
// The counters live in the obs:: metrics registry under `net/...`
// names, so they show up in `rats run --metrics` snapshots and in the
// report's metrics section; this struct resolves their handles once,
// and call sites bump them directly (`solver_stats().warm.inc()`).
// Bumps are gated on obs::metrics_enabled() — one predictable branch
// when off, a relaxed fetch_add when on.
//
// The counters measure the solver-strategy layer:
//
//   * per-path solve counts as picked by the fluid network's dispatch:
//     singleton short-circuit, warm re-solve, and cold solves of
//     two-link (`bipartite`) or other (`general`) components;
//   * warm re-solve attempts / hits / declines (cold fallbacks), i.e.
//     the *warm coverage* the dependency-cone undo is supposed to
//     raise;
//   * per-warm-solve replay composition: settles committed from the
//     recorded trace ("kept") vs re-solved through the cone, plus a
//     decile histogram of cone-size / undone-trace-size.
//
// See README.md ("Reading the solver counters") for how to interpret
// them.
#pragma once

#include <cstdint>

#include "obs/registry.hpp"

namespace rats {

struct SolverStats {
  // Strategy dispatch (fluid-network component solves).
  obs::Counter& singleton;
  obs::Counter& warm;
  obs::Counter& bipartite;
  obs::Counter& general;

  // Warm re-solve outcomes (solver-level, all callers).
  obs::Counter& warm_attempts;
  obs::Counter& warm_hits;
  obs::Counter& warm_declined;  ///< returned false

  // Replay composition across successful warm solves.
  obs::Counter& settles_kept;  ///< committed from trace
  obs::Counter& settles_cone;  ///< re-solved (cascade)
  /// Decile histogram of cone settles / undone settles per warm solve
  /// (bucket 9 also catches the ==100% case).
  obs::Histogram& cone_fraction;

  // Wall time inside component solves, by strategy (only accumulated
  // while stats are enabled; the timer itself costs ~2 clock reads per
  // solve).
  obs::Timer& ns_warm;
  obs::Timer& ns_cold;

  bool enabled() const { return obs::metrics_enabled(); }

  /// Records one successful warm replay: `cone` settles re-solved out
  /// of `undone` undone (kept = undone - cone).
  void record_warm_replay(std::uint64_t cone, std::uint64_t undone);

 private:
  SolverStats();
  friend SolverStats& solver_stats();
};

/// The process-wide instance (constructed on first use).
SolverStats& solver_stats();

}  // namespace rats
