#include "sched/scheduler.hpp"

#include "obs/span.hpp"

namespace rats {

std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Cpa: return "CPA";
    case SchedulerKind::Mcpa: return "MCPA";
    case SchedulerKind::Hcpa: return "HCPA";
    case SchedulerKind::RatsDelta: return "RATS-delta";
    case SchedulerKind::RatsTimeCost: return "RATS-time-cost";
  }
  return "?";
}

AllocationKind allocation_kind(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Cpa: return AllocationKind::Cpa;
    case SchedulerKind::Mcpa: return AllocationKind::Mcpa;
    case SchedulerKind::Hcpa:
    case SchedulerKind::RatsDelta:
    case SchedulerKind::RatsTimeCost:
      return AllocationKind::Hcpa;  // RATS reuses HCPA's step one
  }
  return AllocationKind::Hcpa;
}

Schedule build_schedule(const TaskGraph& graph, const Cluster& cluster,
                        const SchedulerOptions& options) {
  const Allocation allocation = [&] {
    obs::PhaseTimer span("schedule/allocate");
    return allocate(graph, cluster, {allocation_kind(options.kind)});
  }();
  return build_schedule(graph, cluster, options, allocation);
}

Schedule build_schedule(const TaskGraph& graph, const Cluster& cluster,
                        const SchedulerOptions& options,
                        const Allocation& allocation) {
  MappingOptions map_opts;
  map_opts.secondary_sort = options.secondary_sort;
  map_opts.mindelta = options.rats.mindelta;
  map_opts.maxdelta = options.rats.maxdelta;
  map_opts.minrho = options.rats.minrho;
  map_opts.packing = options.rats.packing;
  switch (options.kind) {
    case SchedulerKind::Cpa:
    case SchedulerKind::Mcpa:
    case SchedulerKind::Hcpa:
      map_opts.mode = MappingMode::Baseline;
      break;
    case SchedulerKind::RatsDelta:
      map_opts.mode = MappingMode::Delta;
      break;
    case SchedulerKind::RatsTimeCost:
      map_opts.mode = MappingMode::TimeCost;
      break;
  }
  obs::PhaseTimer span("schedule/map");
  return map_tasks(graph, cluster, allocation, map_opts);
}

}  // namespace rats
