#include "sched/allocation.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "dag/graph_algorithms.hpp"
#include "obs/registry.hpp"

namespace rats {

Seconds allocation_edge_cost(const Cluster& cluster, Bytes bytes) {
  // Any node link is representative: the cluster is homogeneous.
  const LinkSpec& link = cluster.link(0);
  return link.latency + bytes / link.bandwidth;
}

namespace {
/// The processor count W divides the total work by.
double area_divisor(const TaskGraph& graph, const Cluster& cluster,
                    AllocationKind kind) {
  double procs = cluster.num_nodes();
  if (kind == AllocationKind::Hcpa) {
    // Modified average area: with far more processors than tasks the
    // plain W underestimates grossly and CPA over-allocates; bounding
    // the divisor by the task count removes that bias.
    procs = std::min(procs, static_cast<double>(graph.num_tasks()));
  }
  return procs;
}
}  // namespace

double average_area(const TaskGraph& graph, const Cluster& cluster,
                    const AmdahlModel& model, const Allocation& alloc,
                    AllocationKind kind) {
  double total_work = 0;
  for (TaskId t = 0; t < graph.num_tasks(); ++t)
    total_work += model.work(graph.task(t),
                             alloc[static_cast<std::size_t>(t)]);
  return total_work / area_divisor(graph, cluster, kind);
}

Allocation allocate(const TaskGraph& graph, const Cluster& cluster,
                    const AllocationOptions& options) {
  graph.validate();
  static obs::Counter& computed = obs::counter("sched/allocations");
  computed.inc();
  const AmdahlModel model(cluster.node_speed());
  const int num_procs = cluster.num_nodes();
  Allocation alloc(static_cast<std::size_t>(graph.num_tasks()), 1);

  // Per-level groups for the MCPA concurrency constraint.
  std::vector<std::int32_t> level;
  std::vector<std::int64_t> level_total;  // sum of allocations per level
  if (options.kind == AllocationKind::Mcpa) {
    level = task_levels(graph);
    const auto depth = *std::max_element(level.begin(), level.end()) + 1;
    level_total.assign(static_cast<std::size_t>(depth), 0);
    for (auto l : level) ++level_total[static_cast<std::size_t>(l)];
  }

  const auto node_cost = [&](TaskId t) {
    return model.execution_time(graph.task(t),
                                alloc[static_cast<std::size_t>(t)]);
  };
  const auto edge_cost = [&](EdgeId e) {
    return allocation_edge_cost(cluster, graph.edge(e).bytes);
  };

  auto may_grow = [&](TaskId t) {
    const int np = alloc[static_cast<std::size_t>(t)];
    if (np >= num_procs) return false;
    if (options.kind == AllocationKind::Mcpa) {
      const auto l = static_cast<std::size_t>(level[static_cast<std::size_t>(t)]);
      if (level_total[l] + 1 > num_procs) return false;
    }
    return true;
  };

  // Each CPA iteration changes exactly one task's allocation (hence
  // one node cost and one work term), so after the first full
  // bottom-level pass the levels are maintained incrementally along the
  // grown task's ancestors (bitwise identical to recomputing — see
  // bottom_levels_update); only the path walk runs in full.  Likewise
  // the average area W keeps one work term per task and refreshes only
  // the grown one; re-summing the terms in task order adds the same
  // summands in the same order as average_area, so W has the same bits
  // without a model call per task per iteration.
  std::vector<double> work(alloc.size());
  for (TaskId t = 0; t < graph.num_tasks(); ++t)
    work[static_cast<std::size_t>(t)] = model.work(graph.task(t), 1);
  const double area_procs = area_divisor(graph, cluster, options.kind);

  // Every iteration grows one task below P processors or stops, so the
  // loop ends within N * (P - 1) iterations.
  std::vector<double> bl_scratch;
  BottomLevelDelta bl_delta;
  CriticalPath cp;
  TaskId grown = kInvalidTask;
  for (;;) {
    if (grown == kInvalidTask)
      bottom_levels_into(graph, node_cost, edge_cost, bl_scratch);
    else
      bottom_levels_update(graph, node_cost, edge_cost, bl_scratch, grown,
                           bl_delta);
    critical_path_from_levels(graph, node_cost, edge_cost, bl_scratch, cp);
    double total_work = 0;
    for (double w : work) total_work += w;
    if (cp.length <= total_work / area_procs)
      break;  // C-infinity <= W: optimal trade-off

    // Give one processor to the critical-path task whose average
    // time-per-processor drops the most (the CPA benefit criterion).
    TaskId best = kInvalidTask;
    double best_benefit = 0;
    for (TaskId t : cp.tasks) {
      if (!may_grow(t)) continue;
      const int np = alloc[static_cast<std::size_t>(t)];
      const double benefit =
          model.execution_time(graph.task(t), np) / np -
          model.execution_time(graph.task(t), np + 1) / (np + 1);
      if (best == kInvalidTask || benefit > best_benefit) {
        best = t;
        best_benefit = benefit;
      }
    }
    if (best == kInvalidTask) break;  // every critical task is saturated

    const int grown_np = ++alloc[static_cast<std::size_t>(best)];
    work[static_cast<std::size_t>(best)] =
        model.work(graph.task(best), grown_np);
    grown = best;
    if (options.kind == AllocationKind::Mcpa)
      ++level_total[static_cast<std::size_t>(
          level[static_cast<std::size_t>(best)])];
  }
  return alloc;
}

}  // namespace rats
