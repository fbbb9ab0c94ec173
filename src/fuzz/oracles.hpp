// The `rats fuzz` invariant oracle battery.
//
// One spec in, one verdict out.  The battery exercises the whole stack
// — parse/emit, scheduling, fluid-network simulation (with the
// network's own conservation and warm≡cold checks enabled), report
// rendering and trace replay — and fails on the first violated
// invariant with a one-line diagnosis suitable for a repro header.
//
// Checked invariants:
//  * canonical emission is byte-stable: emit(parse(emit(spec))) ==
//    emit(spec);
//  * simulating the same schedule twice is bitwise identical (makespan,
//    work, bytes, per-task timings, fault counters);
//  * Max-Min rate conservation on every link at every solve and
//    warm ≡ cold solver equivalence (SimulatorOptions::validate);
//  * schedule feasibility: per-task timing order, precedence (no task
//    has data before a producer finished), slot exclusivity and
//    no-work-on-down-nodes (skipped under Reschedule with failures,
//    whose remaps are invisible in SimulationResult);
//  * FaultStats accounting: capacity·s lost and node·s down match an
//    independent integral over the event timeline; healthy runs report
//    all-zero stats;
//  * report determinism: text, CSV and JSON renderings are
//    byte-identical across two independent build_report passes;
//  * trace replay: the rendered trace verifies against its own
//    embedded spec (traceable kinds);
//  * thread-count independence: the report JSON and the trace
//    (traceable kinds) are byte-identical at 1 and at 4 worker threads.
//
// The RATS_FUZZ_INJECT environment variable deliberately breaks the
// battery for end-to-end tests of the minimize→pin loop:
//   "node-fail"  fail any spec whose timeline contains a node-fail
//                (deterministic and minimizable);
//   "hang"       block forever (exercises the fuzz driver's watchdog).
#pragma once

#include <string>

#include "scenario/spec.hpp"

namespace rats::fuzz {

struct OracleReport {
  bool ok = true;
  std::string diagnosis;  ///< one line, "<oracle>: <what broke>" (when !ok)
};

/// Runs the full battery on `spec`; stops at the first violation.
OracleReport run_battery(const scenario::ScenarioSpec& spec);

/// The battery's thread-count leg on its own: builds the report JSON
/// and renders the trace at 1 and at 4 worker threads and compares the
/// bytes ("threads-determinism").
OracleReport check_thread_count_independence(
    const scenario::ScenarioSpec& spec);

}  // namespace rats::fuzz
