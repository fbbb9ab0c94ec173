#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "redist/block_redistribution.hpp"
#include "redist/estimate.hpp"
#include "sim/event_queue.hpp"

namespace rats {

namespace {

constexpr Seconds kTimeEpsilon = 1e-12;

// Versioned event payloads.  A kill, re-timing or redistribution abort
// bumps the subject's version, which turns the prediction already in
// the queue stale (EventQueue cannot re-key); stale entries are skipped
// when popped.  On a healthy timeline every version stays 0 and the
// queues behave exactly like the unversioned originals.
struct TaskEvent {
  TaskId task;
  std::uint32_t version;
};

struct EdgeEvent {
  EdgeId edge;
  std::uint32_t version;
};

/// Simulator-level registry counters (registered once per process;
/// deterministic totals, so CI can pin them).
struct SimCounters {
  obs::Counter& tasks_executed = obs::counter("sim/tasks_executed");
  obs::Counter& redists_opened = obs::counter("sim/redists_opened");
  obs::Counter& redists_completed = obs::counter("sim/redists_completed");
};

SimCounters& sim_counters() {
  static SimCounters counters;
  return counters;
}

}  // namespace

SimulationResult simulate(const TaskGraph& graph, const Schedule& schedule,
                          const Cluster& cluster,
                          const SimulatorOptions& options) {
  schedule.validate(graph, cluster);
  const AmdahlModel model(cluster.node_speed());
  FluidNetwork net(cluster);
  TraceSink* const trace = options.trace;
  net.set_trace(trace);
  net.set_validation(options.validate);

  // An empty timeline must be indistinguishable from no timeline at
  // all, so normalize it away up front.
  const PlatformTimeline* const timeline =
      (options.timeline != nullptr && !options.timeline->empty())
          ? options.timeline
          : nullptr;
  if (timeline) timeline->validate(cluster);

  const int num_tasks = graph.num_tasks();
  const int num_edges = graph.num_edges();
  const std::size_t num_procs = static_cast<std::size_t>(cluster.num_nodes());
  SimulationResult result;
  result.timeline.resize(static_cast<std::size_t>(num_tasks));

  // Task placements.  Static unless a failure under the reschedule
  // policy remaps slots; the healthy path reads the schedule directly
  // (no copies on the hot path).
  std::vector<std::vector<NodeId>> remapped;
  if (timeline) {
    remapped.resize(static_cast<std::size_t>(num_tasks));
    for (TaskId t = 0; t < num_tasks; ++t)
      remapped[static_cast<std::size_t>(t)] = schedule.of(t).procs;
  }
  auto procs_of = [&](TaskId t) -> const std::vector<NodeId>& {
    return timeline ? remapped[static_cast<std::size_t>(t)]
                    : schedule.of(t).procs;
  };

  // Per-processor task queues in schedule (seq) order.
  std::vector<std::vector<TaskId>> queue(num_procs);
  for (TaskId t = 0; t < num_tasks; ++t)
    for (NodeId p : schedule.of(t).procs)
      queue[static_cast<std::size_t>(p)].push_back(t);
  // Processors serve their tasks in the order the mapper planned them
  // to start; seq breaks ties.  (Estimated starts respect precedence —
  // a child's start is at least its parent's finish — so per-processor
  // orders cannot contradict the DAG and deadlock.)
  auto plan_before = [&](TaskId a, TaskId b) {
    const auto& pa = schedule.of(a);
    const auto& pb = schedule.of(b);
    if (pa.est_start != pb.est_start) return pa.est_start < pb.est_start;
    return pa.seq < pb.seq;
  };
  for (auto& q : queue) std::sort(q.begin(), q.end(), plan_before);
  std::vector<std::size_t> head(queue.size(), 0);

  // Task and edge progress.
  std::vector<std::int32_t> pending_inputs(static_cast<std::size_t>(num_tasks));
  std::vector<char> started(static_cast<std::size_t>(num_tasks), 0);
  std::vector<char> done(static_cast<std::size_t>(num_tasks), 0);
  std::vector<std::uint32_t> task_version(static_cast<std::size_t>(num_tasks),
                                          0);
  for (TaskId t = 0; t < num_tasks; ++t)
    pending_inputs[static_cast<std::size_t>(t)] =
        static_cast<std::int32_t>(graph.in_edges(t).size());

  std::vector<std::int32_t> edge_pending_flows(
      static_cast<std::size_t>(num_edges), 0);
  std::vector<std::uint32_t> edge_version(static_cast<std::size_t>(num_edges),
                                          0);
  std::vector<EdgeId> flow_edge;  ///< flow id -> edge it belongs to

  // Timeline-only state.
  std::vector<char> node_up;        ///< per node: accepting work
  std::vector<double> node_factor;  ///< per node: speed multiplier
  std::vector<double> work_left;    ///< per running task: healthy seconds
  std::vector<double> run_factor;   ///< per running task: current speed
  std::vector<Seconds> settle_time; ///< instant work_left was settled at
  std::vector<char> edge_open;      ///< redistribution in flight
  std::vector<std::vector<FlowId>> edge_flows;  ///< its live flows
  std::vector<char> is_parked;      ///< waiting for endpoints to restart
  std::vector<EdgeId> parked;
  std::vector<double> base_cap;        ///< per link: cluster capacity
  std::vector<double> traffic_factor;  ///< per link: background scaling
  std::vector<NodeId> link_owner;      ///< NIC links -> node, else -1
  if (timeline) {
    node_up.assign(num_procs, 1);
    node_factor.assign(num_procs, 1.0);
    work_left.assign(static_cast<std::size_t>(num_tasks), 0);
    run_factor.assign(static_cast<std::size_t>(num_tasks), 1.0);
    settle_time.assign(static_cast<std::size_t>(num_tasks), 0);
    edge_open.assign(static_cast<std::size_t>(num_edges), 0);
    edge_flows.resize(static_cast<std::size_t>(num_edges));
    is_parked.assign(static_cast<std::size_t>(num_edges), 0);
    const std::size_t num_links = static_cast<std::size_t>(cluster.num_links());
    base_cap.resize(num_links);
    for (LinkId l = 0; l < cluster.num_links(); ++l)
      base_cap[static_cast<std::size_t>(l)] = cluster.link(l).bandwidth;
    traffic_factor.assign(num_links, 1.0);
    link_owner.assign(num_links, -1);
    for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
      link_owner[static_cast<std::size_t>(cluster.nic_up(n))] = n;
      link_owner[static_cast<std::size_t>(cluster.nic_down(n))] = n;
    }
  }

  auto procs_up = [&](TaskId t) {
    for (NodeId p : procs_of(t))
      if (!node_up[static_cast<std::size_t>(p)]) return false;
    return true;
  };
  auto edge_nodes_up = [&](EdgeId e) {
    const Edge& edge = graph.edge(e);
    return procs_up(edge.src) && procs_up(edge.dst);
  };
  // A task computes at the pace of its slowest processor.
  auto task_factor = [&](TaskId t) {
    double factor = 1.0;
    for (NodeId p : procs_of(t))
      factor = std::min(factor, node_factor[static_cast<std::size_t>(p)]);
    return factor;
  };

  // Tasks whose inputs are complete AND that sit at the head of every
  // processor queue they use.  Fed by the two events that can make a
  // task runnable — its last input completing, and a queue head
  // advancing onto it — so per-event work is O(#affected tasks), not
  // O(num_tasks).
  std::vector<TaskId> ready;
  std::vector<char> queued(static_cast<std::size_t>(num_tasks), 0);

  auto at_head = [&](TaskId t) {
    for (NodeId p : procs_of(t)) {
      const auto& q = queue[static_cast<std::size_t>(p)];
      const std::size_t pos = head[static_cast<std::size_t>(p)];
      if (pos >= q.size() || q[pos] != t) return false;
    }
    return true;
  };

  auto enqueue_if_ready = [&](TaskId t) {
    if (started[static_cast<std::size_t>(t)] ||
        queued[static_cast<std::size_t>(t)] ||
        pending_inputs[static_cast<std::size_t>(t)] > 0 || !at_head(t))
      return;
    if (timeline && !procs_up(t)) return;  // held until its nodes restart
    queued[static_cast<std::size_t>(t)] = 1;
    ready.push_back(t);
  };

  EventQueue<TaskEvent> completions;  // task finish events
  EventQueue<EdgeEvent> timed_edges;  // contention-free mode only
  Seconds now = 0;
  int finished_count = 0;

  auto edge_complete = [&](EdgeId e) {
    if (timeline) {
      edge_open[static_cast<std::size_t>(e)] = 0;
      edge_flows[static_cast<std::size_t>(e)].clear();
    }
    const TaskId dst = graph.edge(e).dst;
    auto& pending = pending_inputs[static_cast<std::size_t>(dst)];
    RATS_REQUIRE(pending > 0, "edge completed twice");
    sim_counters().redists_completed.inc();
    if (trace) trace->record(now, TraceEventKind::RedistDone, e);
    if (--pending == 0) {
      result.timeline[static_cast<std::size_t>(dst)].data_ready = now;
      enqueue_if_ready(dst);
    }
  };

  // One planner per thread: its scratch and output plan are reused by
  // every redistribution this thread opens, across runs.
  static thread_local RedistPlanner planner;

  auto open_redistribution = [&](EdgeId e) {
    const Edge& edge = graph.edge(e);
    if (timeline) {
      if (!edge_nodes_up(e)) {
        // An endpoint is down: the data is durable but unreachable, so
        // the delivery parks until every endpoint is back.
        if (!is_parked[static_cast<std::size_t>(e)]) {
          is_parked[static_cast<std::size_t>(e)] = 1;
          parked.push_back(e);
        }
        return;
      }
      edge_open[static_cast<std::size_t>(e)] = 1;
      edge_flows[static_cast<std::size_t>(e)].clear();
    }
    sim_counters().redists_opened.inc();
    const Redistribution& plan = [&]() -> const Redistribution& {
      obs::PhaseTimer span("redist/plan");
      return planner.plan(edge.bytes, procs_of(edge.src), procs_of(edge.dst));
    }();
    result.network_bytes += plan.remote_bytes();
    if (trace)
      trace->record(now, TraceEventKind::RedistStart, e,
                    static_cast<std::int32_t>(plan.transfers().size()),
                    plan.remote_bytes());
    if (plan.transfers().empty()) {
      edge_complete(e);  // all data stays local: zero-cost redistribution
      return;
    }
    if (!options.contention) {
      timed_edges.push(
          now + estimate_redistribution_time(cluster, plan),
          EdgeEvent{e, edge_version[static_cast<std::size_t>(e)]});
      return;
    }
    for (const Transfer& tr : plan.transfers()) {
      const FlowId f = net.open_flow(tr.src, tr.dst, tr.bytes);
      ++edge_pending_flows[static_cast<std::size_t>(e)];
      if (flow_edge.size() <= static_cast<std::size_t>(f))
        flow_edge.resize(static_cast<std::size_t>(f) + 1, -1);
      flow_edge[static_cast<std::size_t>(f)] = e;
      if (timeline) edge_flows[static_cast<std::size_t>(e)].push_back(f);
    }
  };

  auto finish_task = [&](TaskId t) {
    result.timeline[static_cast<std::size_t>(t)].finish = now;
    done[static_cast<std::size_t>(t)] = 1;
    ++finished_count;
    sim_counters().tasks_executed.inc();
    if (trace) trace->record(now, TraceEventKind::TaskFinish, t);
    for (NodeId p : procs_of(t)) {
      auto& pos = head[static_cast<std::size_t>(p)];
      const auto& q = queue[static_cast<std::size_t>(p)];
      RATS_REQUIRE(q[pos] == t, "completing task was not at queue head");
      ++pos;
      // The queue head advanced: its new head may now be startable.
      if (pos < q.size()) enqueue_if_ready(q[pos]);
    }
    for (EdgeId e : graph.out_edges(t)) open_redistribution(e);
  };

  // ---- failure machinery (timeline only) -----------------------------

  // Rolls an in-flight redistribution back entirely: live flows are
  // cancelled, partial progress is discarded, and the edge must re-send
  // from scratch when it re-opens.
  auto abort_edge = [&](EdgeId e) {
    if (!edge_open[static_cast<std::size_t>(e)]) return;
    edge_open[static_cast<std::size_t>(e)] = 0;
    for (FlowId f : edge_flows[static_cast<std::size_t>(e)])
      net.cancel_flow(f);  // no-op for flows that already completed
    edge_flows[static_cast<std::size_t>(e)].clear();
    edge_pending_flows[static_cast<std::size_t>(e)] = 0;
    ++edge_version[static_cast<std::size_t>(e)];  // stales a timed event
    ++result.faults.redists_aborted;
    if (trace) trace->record(now, TraceEventKind::RedistAbort, e);
  };

  // Fail-stop: the execution (if any) heading `p`'s queue dies with the
  // node and all its progress is lost.  A task runs on every processor
  // of its placement at once, so it heads each of their queues — the
  // started check keeps a multi-processor task from being counted once
  // per failed member.
  auto kill_running_on = [&](NodeId p) {
    const auto& q = queue[static_cast<std::size_t>(p)];
    const std::size_t pos = head[static_cast<std::size_t>(p)];
    if (pos >= q.size()) return;
    const TaskId t = q[pos];
    if (!started[static_cast<std::size_t>(t)] ||
        done[static_cast<std::size_t>(t)])
      return;
    ++task_version[static_cast<std::size_t>(t)];  // cancels its completion
    started[static_cast<std::size_t>(t)] = 0;
    ++result.faults.tasks_killed;
    if (trace) trace->record(now, TraceEventKind::TaskKill, t, p);
  };

  // A speed change on `p` re-times the execution heading its queue:
  // settle the work done at the old pace, re-predict at the new one.
  auto retime_running_on = [&](NodeId p) {
    const auto& q = queue[static_cast<std::size_t>(p)];
    const std::size_t pos = head[static_cast<std::size_t>(p)];
    if (pos >= q.size()) return;
    const TaskId t = q[pos];
    if (!started[static_cast<std::size_t>(t)] ||
        done[static_cast<std::size_t>(t)])
      return;
    auto& left = work_left[static_cast<std::size_t>(t)];
    left -= (now - settle_time[static_cast<std::size_t>(t)]) *
            run_factor[static_cast<std::size_t>(t)];
    if (left < 0) left = 0;
    settle_time[static_cast<std::size_t>(t)] = now;
    run_factor[static_cast<std::size_t>(t)] = task_factor(t);
    ++task_version[static_cast<std::size_t>(t)];
    completions.push(now + left / run_factor[static_cast<std::size_t>(t)],
                     TaskEvent{t, task_version[static_cast<std::size_t>(t)]});
  };

  // A killed or remapped task needs every input delivered again to its
  // (possibly new) placement: in-flight deliveries roll back, finished
  // ones re-send as soon as their producer's data is reachable.
  auto reset_inputs = [&](TaskId t) {
    const auto& ins = graph.in_edges(t);
    pending_inputs[static_cast<std::size_t>(t)] =
        static_cast<std::int32_t>(ins.size());
    for (EdgeId e : ins) {
      abort_edge(e);
      is_parked[static_cast<std::size_t>(e)] = 0;
      if (done[static_cast<std::size_t>(graph.edge(e).src)])
        open_redistribution(e);
    }
    if (pending_inputs[static_cast<std::size_t>(t)] == 0) {
      result.timeline[static_cast<std::size_t>(t)].data_ready = now;
      enqueue_if_ready(t);
    }
  };

  // Reschedule policy: every task still queued on the failed node moves
  // its failed slot to the least-loaded surviving node (keeping the
  // rest of its placement), re-entering that node's queue at its
  // planned (est_start, seq) position — the same consistent total order
  // every queue is sorted by, so the insertion cannot deadlock.  The
  // one exception is a slot clamped behind a running head (an execution
  // in progress is never preempted), which that head's completion
  // unblocks.  When no surviving node qualifies the slot is held for a
  // restart instead.
  auto remap_off = [&](NodeId p) {
    auto& qp = queue[static_cast<std::size_t>(p)];
    std::vector<TaskId> victims(qp.begin() +
                                    static_cast<std::ptrdiff_t>(
                                        head[static_cast<std::size_t>(p)]),
                                qp.end());
    qp.resize(head[static_cast<std::size_t>(p)]);
    for (TaskId t : victims) {
      auto& procs = remapped[static_cast<std::size_t>(t)];
      NodeId r = -1;
      std::size_t best_load = std::numeric_limits<std::size_t>::max();
      for (NodeId cand = 0; cand < cluster.num_nodes(); ++cand) {
        if (!node_up[static_cast<std::size_t>(cand)]) continue;
        if (std::find(procs.begin(), procs.end(), cand) != procs.end())
          continue;
        const auto& qc = queue[static_cast<std::size_t>(cand)];
        const std::size_t load =
            qc.size() - head[static_cast<std::size_t>(cand)];
        if (load < best_load) {
          best_load = load;
          r = cand;
        }
      }
      if (r < 0) {
        qp.push_back(t);  // hold the slot; victims keep their order
        continue;
      }
      *std::find(procs.begin(), procs.end(), p) = r;
      auto& qr = queue[static_cast<std::size_t>(r)];
      std::size_t begin = head[static_cast<std::size_t>(r)];
      if (begin < qr.size()) {
        const TaskId h = qr[begin];
        if (started[static_cast<std::size_t>(h)] &&
            !done[static_cast<std::size_t>(h)])
          ++begin;  // never preempt a running execution
      }
      qr.insert(std::lower_bound(qr.begin() +
                                     static_cast<std::ptrdiff_t>(begin),
                                 qr.end(), t, plan_before),
                t);
      ++result.faults.tasks_remapped;
      if (trace)
        trace->record(now, TraceEventKind::TaskRemap, t, p,
                      static_cast<double>(r));
      reset_inputs(t);
    }
  };

  // ---- capacity accounting (timeline only) ---------------------------

  // Effective capacity scaling of a link right now: zero while its
  // owning node is down (NIC links), the latest background-traffic
  // factor otherwise.
  auto eff_factor = [&](LinkId l) -> double {
    const NodeId owner = link_owner[static_cast<std::size_t>(l)];
    if (owner >= 0 && !node_up[static_cast<std::size_t>(owner)]) return 0.0;
    return traffic_factor[static_cast<std::size_t>(l)];
  };

  // Piecewise-constant integrals of lost capacity and node downtime;
  // settled at every platform change and once more at the makespan.
  Seconds last_settle = 0;
  auto settle_capacity = [&](Seconds upto) {
    const Seconds dt = upto - last_settle;
    if (dt <= 0) return;
    double lost_rate = 0;
    for (LinkId l = 0; l < cluster.num_links(); ++l)
      lost_rate +=
          base_cap[static_cast<std::size_t>(l)] * (1.0 - eff_factor(l));
    result.faults.capacity_seconds_lost += lost_rate * dt;
    int down = 0;
    for (const char up : node_up)
      if (!up) ++down;
    result.faults.node_seconds_down += down * dt;
    last_settle = upto;
  };

  // Applies one same-timestamp batch of platform events atomically: a
  // fail and a restart of the same node in one batch cancel out.
  auto apply_batch = [&](std::size_t first, std::size_t last) {
    settle_capacity(now);
    // Phase 1: flip platform state in event order; collect the links
    // whose capacity must be recomputed.
    const std::vector<char> was_up = node_up;
    std::vector<LinkId> touched;
    auto touch = [&](LinkId l) {
      if (std::find(touched.begin(), touched.end(), l) == touched.end())
        touched.push_back(l);
    };
    auto touch_node_links = [&](NodeId n) {
      touch(cluster.nic_up(n));
      touch(cluster.nic_down(n));
    };
    std::vector<NodeId> slowed;
    for (std::size_t i = first; i < last; ++i) {
      const PlatformEvent& e = timeline->events[i];
      switch (e.kind) {
        case PlatformEventKind::LinkCapacity:
          if (e.node >= 0) {
            traffic_factor[static_cast<std::size_t>(cluster.nic_up(e.node))] =
                e.factor;
            traffic_factor[static_cast<std::size_t>(
                cluster.nic_down(e.node))] = e.factor;
            touch_node_links(e.node);
          } else {
            traffic_factor[static_cast<std::size_t>(
                cluster.cabinet_up(e.cabinet))] = e.factor;
            traffic_factor[static_cast<std::size_t>(
                cluster.cabinet_down(e.cabinet))] = e.factor;
            touch(cluster.cabinet_up(e.cabinet));
            touch(cluster.cabinet_down(e.cabinet));
          }
          break;
        case PlatformEventKind::NodeSlowdown:
          node_factor[static_cast<std::size_t>(e.node)] = e.factor;
          slowed.push_back(e.node);
          if (trace)
            trace->record(now, TraceEventKind::NodeSlowdown, e.node, -1,
                          e.factor);
          break;
        case PlatformEventKind::NodeFail:
          node_up[static_cast<std::size_t>(e.node)] = 0;
          touch_node_links(e.node);
          if (trace) trace->record(now, TraceEventKind::NodeFail, e.node);
          break;
        case PlatformEventKind::NodeRestart:
          node_up[static_cast<std::size_t>(e.node)] = 1;
          touch_node_links(e.node);
          if (trace) trace->record(now, TraceEventKind::NodeRestart, e.node);
          break;
      }
    }
    std::vector<NodeId> newly_down, newly_up;
    for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
      if (was_up[static_cast<std::size_t>(n)] &&
          !node_up[static_cast<std::size_t>(n)])
        newly_down.push_back(n);
      else if (!was_up[static_cast<std::size_t>(n)] &&
               node_up[static_cast<std::size_t>(n)])
        newly_up.push_back(n);
    }
    // Phase 2: consequences of going down — kill running executions,
    // roll back transfers touching a dead node, re-time slowed
    // executions, then remap queued work off dead nodes.  All of this
    // happens before link capacities change so no live flow ever
    // crosses a zero-capacity link.
    for (const NodeId p : newly_down) kill_running_on(p);
    if (!newly_down.empty()) {
      for (EdgeId e = 0; e < num_edges; ++e) {
        if (!edge_open[static_cast<std::size_t>(e)] || edge_nodes_up(e))
          continue;
        abort_edge(e);
        is_parked[static_cast<std::size_t>(e)] = 1;
        parked.push_back(e);
      }
    }
    for (const NodeId n : slowed) retime_running_on(n);
    if (timeline->on_fail == FailPolicy::Reschedule)
      for (const NodeId p : newly_down) remap_off(p);
    // Restore plan order among pending tasks.  remap_off inserts a
    // victim after a running head even when the victim plan-orders
    // first (an execution in progress is never preempted); if that head
    // is later killed it stays queued at the front as a plain pending
    // task, and the leftover inversion can disagree with another
    // queue's order — two tasks each waiting behind the other, a
    // permanent stall (found by fuzzing).  Re-sorting every pending
    // suffix by the one total order makes cross-queue cycles
    // impossible again; on untouched queues this is a no-op.
    if (!newly_down.empty()) {
      for (std::size_t p = 0; p < queue.size(); ++p) {
        auto& q = queue[p];
        std::size_t begin = head[p];
        if (begin < q.size()) {
          const TaskId h = q[begin];
          if (started[static_cast<std::size_t>(h)] &&
              !done[static_cast<std::size_t>(h)])
            ++begin;  // a running execution keeps its slot
        }
        if (q.size() > begin + 1)
          std::sort(q.begin() + static_cast<std::ptrdiff_t>(begin), q.end(),
                    plan_before);
      }
    }
    // Phase 3: commit link capacities (traced with the final value).
    for (const LinkId l : touched) {
      const Rate cap = eff_factor(l) * base_cap[static_cast<std::size_t>(l)];
      net.set_link_capacity(l, cap);
      if (trace) trace->record(now, TraceEventKind::LinkCapacity, l, -1, cap);
    }
    // Phase 4: consequences of coming up — resume parked deliveries and
    // wake queue heads the availability gate was holding back.
    std::size_t keep = 0;
    for (std::size_t i = 0; i < parked.size(); ++i) {
      const EdgeId e = parked[i];
      if (!is_parked[static_cast<std::size_t>(e)]) continue;  // remap reset
      if (!edge_nodes_up(e)) {
        parked[keep++] = e;
        continue;
      }
      is_parked[static_cast<std::size_t>(e)] = 0;
      open_redistribution(e);
    }
    parked.resize(keep);
    for (std::size_t p = 0; p < queue.size(); ++p)
      if (head[p] < queue[p].size()) enqueue_if_ready(queue[p][head[p]]);
    // Leave the network flushed: cancellations mark components dirty
    // and next_event_time() asserts a clean partition.
    net.ensure_rates();
  };

  // Drops stale (version-bumped) predictions from the queue heads so
  // they never schedule ghost wakeups.
  auto purge_stale = [&] {
    if (!timeline) return;
    while (!completions.empty() &&
           completions.peek().version !=
               task_version[static_cast<std::size_t>(completions.peek().task)])
      completions.pop();
    while (!timed_edges.empty() &&
           timed_edges.peek().version !=
               edge_version[static_cast<std::size_t>(timed_edges.peek().edge)])
      timed_edges.pop();
  };

  // Seed the ready set: entry tasks already heading their queues.
  for (TaskId t = 0; t < num_tasks; ++t) enqueue_if_ready(t);

  std::size_t next_ev = 0;
  const std::size_t num_events = timeline ? timeline->events.size() : 0;

  while (finished_count < num_tasks) {
    // Apply platform batches due now.  Ordering ties: completions at T
    // were drained at the end of the previous iteration, so a task
    // finishing exactly when its node fails survives; events at t=0
    // apply before any task starts.
    while (next_ev < num_events &&
           timeline->events[next_ev].at <= now + kTimeEpsilon) {
      const Seconds at = timeline->events[next_ev].at;
      std::size_t batch_end = next_ev + 1;
      while (batch_end < num_events && timeline->events[batch_end].at == at)
        ++batch_end;
      apply_batch(next_ev, batch_end);
      next_ev = batch_end;
    }

    // Start everything that became runnable since the last event.
    while (!ready.empty()) {
      const TaskId t = ready.back();
      ready.pop_back();
      if (timeline) {
        // Re-validate: a failure batch may have killed, displaced or
        // availability-gated this task after it was enqueued.
        queued[static_cast<std::size_t>(t)] = 0;
        if (started[static_cast<std::size_t>(t)] ||
            pending_inputs[static_cast<std::size_t>(t)] > 0 || !at_head(t) ||
            !procs_up(t))
          continue;
      }
      started[static_cast<std::size_t>(t)] = 1;
      auto& timing = result.timeline[static_cast<std::size_t>(t)];
      timing.start = now;
      if (trace)
        trace->record(now, TraceEventKind::TaskStart, t,
                      static_cast<std::int32_t>(procs_of(t).size()));
      const Seconds duration =
          model.execution_time(graph.task(t), schedule.allocation(t));
      if (timeline) {
        const double factor = task_factor(t);
        work_left[static_cast<std::size_t>(t)] = duration;
        run_factor[static_cast<std::size_t>(t)] = factor;
        settle_time[static_cast<std::size_t>(t)] = now;
        completions.push(
            now + duration / factor,
            TaskEvent{t, task_version[static_cast<std::size_t>(t)]});
      } else {
        completions.push(now + duration, TaskEvent{t, 0});
      }
    }

    // Earliest next event: a task completion, a network change, a
    // contention-free redistribution completing or a platform event.
    purge_stale();
    Seconds t_next = std::numeric_limits<Seconds>::infinity();
    if (!completions.empty()) t_next = completions.next_time();
    if (!timed_edges.empty())
      t_next = std::min(t_next, timed_edges.next_time());
    if (const auto net_next = net.next_event_time())
      t_next = std::min(t_next, *net_next);
    if (next_ev < num_events)
      t_next = std::min(t_next, std::max(timeline->events[next_ev].at, now));
    if (!std::isfinite(t_next)) {
      std::string msg =
          "simulation stalled: no runnable task, no event in flight";
      if (timeline) {
        std::string down_list;
        for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
          if (node_up[static_cast<std::size_t>(n)]) continue;
          if (!down_list.empty()) down_list += ", ";
          down_list += std::to_string(n);
        }
        if (!down_list.empty())
          msg += " (node " + down_list +
                 " down with no scheduled restart; data held there is "
                 "unreachable)";
      }
      RATS_REQUIRE(false, msg);
    }

    net.advance_to(t_next);
    now = t_next;

    // Flow completions -> redistribution completions, O(#finished).
    for (const FlowId f : net.drain_completed()) {
      const EdgeId e = flow_edge[static_cast<std::size_t>(f)];
      if (timeline && !edge_open[static_cast<std::size_t>(e)])
        continue;  // the edge was rolled back while this flow drained
      if (--edge_pending_flows[static_cast<std::size_t>(e)] == 0)
        edge_complete(e);
    }
    while (!timed_edges.empty() &&
           timed_edges.next_time() <= now + kTimeEpsilon) {
      const EdgeEvent ev = timed_edges.pop();
      if (ev.version != edge_version[static_cast<std::size_t>(ev.edge)])
        continue;
      edge_complete(ev.edge);
    }

    // Task completions due now.
    while (!completions.empty() &&
           completions.next_time() <= now + kTimeEpsilon) {
      const TaskEvent ev = completions.pop();
      if (ev.version != task_version[static_cast<std::size_t>(ev.task)])
        continue;
      finish_task(ev.task);
    }
  }

  for (const auto& timing : result.timeline)
    result.makespan = std::max(result.makespan, timing.finish);
  if (timeline) settle_capacity(result.makespan);
  result.total_work = schedule.total_work(graph, model);
  return result;
}

}  // namespace rats
