// Two-step scheduler facade: allocation + mapping in one call.
//
// The five end-to-end schedulers of this repository:
//   Cpa          — CPA allocation + baseline mapping
//   Mcpa         — MCPA allocation + baseline mapping
//   Hcpa         — HCPA allocation + baseline mapping (the paper's baseline)
//   RatsDelta    — HCPA allocation + delta redistribution-aware mapping
//   RatsTimeCost — HCPA allocation + time-cost redistribution-aware mapping
//
// Step one depends only on `allocation_kind(kind)`, so the last three
// share one allocation: callers that schedule a graph with several
// algorithms (the experiment matrices) allocate once per kind and run
// step two alone through the `build_schedule` overload taking it.
#pragma once

#include <string>

#include "sched/mapping.hpp"

namespace rats {

enum class SchedulerKind { Cpa, Mcpa, Hcpa, RatsDelta, RatsTimeCost };

/// Printable scheduler name ("HCPA", "RATS-delta", ...).
std::string to_string(SchedulerKind kind);

/// The allocation procedure (step one) of a scheduler.
AllocationKind allocation_kind(SchedulerKind kind);

/// Tunable RATS parameters (paper Section IV-C, Table IV).
struct RatsParams {
  double mindelta = -0.5;  ///< delta: max fraction of Np(t) removable
  double maxdelta = 0.5;   ///< delta: max fraction of Np(t) addable
  double minrho = 0.5;     ///< time-cost: minimal admissible work ratio
  bool packing = true;     ///< time-cost: allow packing
};

struct SchedulerOptions {
  SchedulerKind kind = SchedulerKind::Hcpa;
  RatsParams rats{};
  bool secondary_sort = true;  ///< RATS ready-list secondary sort (ablation)
};

/// Runs the requested two-step scheduler end to end.
Schedule build_schedule(const TaskGraph& graph, const Cluster& cluster,
                        const SchedulerOptions& options = {});

/// Runs step two only, mapping a step-one `allocation` that must come
/// from `allocate(graph, cluster, {allocation_kind(options.kind)})`.
Schedule build_schedule(const TaskGraph& graph, const Cluster& cluster,
                        const SchedulerOptions& options,
                        const Allocation& allocation);

}  // namespace rats
