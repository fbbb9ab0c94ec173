#include "fuzz/oracles.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/format.hpp"
#include "exp/runner.hpp"
#include "report/render.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "trace/replay.hpp"

namespace rats::fuzz {

namespace {

OracleReport violated(const std::string& oracle, std::string what) {
  // Diagnoses head repro files and summary lines: keep them one line.
  for (char& c : what)
    if (c == '\n' || c == '\r') c = ' ';
  return {false, oracle + ": " + what};
}

bool timings_equal(const SimulationResult& a, const SimulationResult& b) {
  if (a.makespan != b.makespan || a.total_work != b.total_work ||
      a.network_bytes != b.network_bytes)
    return false;
  if (a.timeline.size() != b.timeline.size()) return false;
  for (std::size_t t = 0; t < a.timeline.size(); ++t)
    if (a.timeline[t].data_ready != b.timeline[t].data_ready ||
        a.timeline[t].start != b.timeline[t].start ||
        a.timeline[t].finish != b.timeline[t].finish)
      return false;
  const FaultStats &fa = a.faults, &fb = b.faults;
  return fa.tasks_killed == fb.tasks_killed &&
         fa.tasks_remapped == fb.tasks_remapped &&
         fa.redists_aborted == fb.redists_aborted &&
         fa.capacity_seconds_lost == fb.capacity_seconds_lost &&
         fa.node_seconds_down == fb.node_seconds_down;
}

/// Independent recomputation of the simulator's fault integrals from
/// the event timeline alone (capacity·s lost and node·s down depend
/// only on events and the makespan, never on what the tasks did).
struct FaultIntegrals {
  double capacity_seconds_lost = 0;
  double node_seconds_down = 0;
};

FaultIntegrals integrate_faults(const Cluster& cluster,
                                const PlatformTimeline& timeline,
                                Seconds makespan) {
  const int links = cluster.num_links();
  const int nodes = cluster.num_nodes();
  std::vector<double> base(static_cast<std::size_t>(links));
  std::vector<double> factor(static_cast<std::size_t>(links), 1.0);
  std::vector<int> owner(static_cast<std::size_t>(links), -1);
  for (LinkId l = 0; l < links; ++l)
    base[static_cast<std::size_t>(l)] = cluster.link(l).bandwidth;
  for (NodeId n = 0; n < nodes; ++n) {
    owner[static_cast<std::size_t>(cluster.nic_up(n))] = n;
    owner[static_cast<std::size_t>(cluster.nic_down(n))] = n;
  }
  std::vector<bool> down(static_cast<std::size_t>(nodes), false);

  FaultIntegrals out;
  auto lost_rate = [&] {
    double s = 0;
    for (int l = 0; l < links; ++l) {
      const std::size_t i = static_cast<std::size_t>(l);
      const double eff =
          (owner[i] >= 0 && down[static_cast<std::size_t>(owner[i])])
              ? 0.0
              : factor[i];
      s += base[i] * (1.0 - eff);
    }
    return s;
  };
  auto down_count = [&] {
    return static_cast<double>(std::count(down.begin(), down.end(), true));
  };

  double t_prev = 0;
  for (const PlatformEvent& e : timeline.events) {
    const double t = std::clamp(e.at, 0.0, makespan);
    const double dt = std::max(0.0, t - t_prev);
    out.capacity_seconds_lost += dt * lost_rate();
    out.node_seconds_down += dt * down_count();
    t_prev = std::max(t_prev, t);
    switch (e.kind) {
      case PlatformEventKind::LinkCapacity:
        if (e.node >= 0) {
          factor[static_cast<std::size_t>(cluster.nic_up(e.node))] = e.factor;
          factor[static_cast<std::size_t>(cluster.nic_down(e.node))] = e.factor;
        } else {
          factor[static_cast<std::size_t>(cluster.cabinet_up(e.cabinet))] =
              e.factor;
          factor[static_cast<std::size_t>(cluster.cabinet_down(e.cabinet))] =
              e.factor;
        }
        break;
      case PlatformEventKind::NodeSlowdown:
        break;  // compute speed, not network capacity
      case PlatformEventKind::NodeFail:
        down[static_cast<std::size_t>(e.node)] = true;
        break;
      case PlatformEventKind::NodeRestart:
        down[static_cast<std::size_t>(e.node)] = false;
        break;
    }
  }
  const double dt = std::max(0.0, makespan - t_prev);
  out.capacity_seconds_lost += dt * lost_rate();
  out.node_seconds_down += dt * down_count();
  return out;
}

bool close(double got, double want) {
  return std::fabs(got - want) <= 1e-6 + 1e-6 * std::fabs(want);
}

/// Per-node down windows [fail, restart) of the timeline; a trailing
/// fail leaves the window open to +inf.
std::vector<std::vector<std::pair<double, double>>> down_windows(
    int nodes, const PlatformTimeline& timeline) {
  std::vector<std::vector<std::pair<double, double>>> win(
      static_cast<std::size_t>(nodes));
  constexpr double kOpen = std::numeric_limits<double>::infinity();
  for (const PlatformEvent& e : timeline.events) {
    if (e.kind == PlatformEventKind::NodeFail)
      win[static_cast<std::size_t>(e.node)].emplace_back(e.at, kOpen);
    else if (e.kind == PlatformEventKind::NodeRestart)
      win[static_cast<std::size_t>(e.node)].back().second = e.at;
  }
  return win;
}

/// Timing-order, precedence, slot-exclusivity and down-node checks on
/// one simulated run.  `exclusive` gates the two placement-based checks
/// (false under Reschedule with failures, whose remaps SimulationResult
/// does not expose).
OracleReport check_feasibility(const TaskGraph& graph,
                               const Schedule& schedule,
                               const Cluster& cluster,
                               const PlatformTimeline* timeline,
                               bool exclusive, const SimulationResult& r) {
  constexpr double kEps = 1e-9;
  const auto& tl = r.timeline;
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    const auto& x = tl[static_cast<std::size_t>(t)];
    if (!(x.data_ready <= x.start + kEps) || !(x.start <= x.finish + kEps))
      return violated("feasibility",
                      strf("task %d timing out of order (ready %.17g, start "
                           "%.17g, finish %.17g)",
                           t, x.data_ready, x.start, x.finish));
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const TaskId src = graph.edge(e).src, dst = graph.edge(e).dst;
    if (tl[static_cast<std::size_t>(dst)].data_ready + kEps <
        tl[static_cast<std::size_t>(src)].finish)
      return violated("feasibility",
                      strf("task %d has data before producer %d finished",
                           dst, src));
  }
  if (!exclusive) return {};

  // Slot exclusivity: tasks sharing a processor never overlap in time.
  const int nodes = cluster.num_nodes();
  std::vector<std::vector<TaskId>> per_node(static_cast<std::size_t>(nodes));
  for (TaskId t = 0; t < graph.num_tasks(); ++t)
    for (const NodeId n : schedule.of(t).procs)
      per_node[static_cast<std::size_t>(n)].push_back(t);
  for (NodeId n = 0; n < nodes; ++n) {
    auto& tasks = per_node[static_cast<std::size_t>(n)];
    std::sort(tasks.begin(), tasks.end(), [&](TaskId a, TaskId b) {
      return tl[static_cast<std::size_t>(a)].start <
             tl[static_cast<std::size_t>(b)].start;
    });
    for (std::size_t i = 1; i < tasks.size(); ++i) {
      const auto& prev = tl[static_cast<std::size_t>(tasks[i - 1])];
      const auto& next = tl[static_cast<std::size_t>(tasks[i])];
      if (prev.finish > next.start + kEps)
        return violated("feasibility",
                        strf("tasks %d and %d overlap on node %d",
                             tasks[i - 1], tasks[i], n));
    }
  }

  // No execution interval may intersect a down window of its nodes.
  if (timeline) {
    const auto win = down_windows(nodes, *timeline);
    for (TaskId t = 0; t < graph.num_tasks(); ++t) {
      const auto& x = tl[static_cast<std::size_t>(t)];
      for (const NodeId n : schedule.of(t).procs)
        for (const auto& [from, to] : win[static_cast<std::size_t>(n)])
          if (std::min(x.finish, to) - std::max(x.start, from) > kEps)
            return violated(
                "feasibility",
                strf("task %d runs on node %d during its down window "
                     "[%.17g, %g)",
                     t, n, from, to));
    }
  }
  return {};
}

OracleReport check_fault_stats(const Cluster& cluster,
                               const PlatformTimeline* timeline,
                               const SimulationResult& r) {
  const FaultStats& f = r.faults;
  if (!timeline) {
    if (f.tasks_killed || f.tasks_remapped || f.redists_aborted ||
        f.capacity_seconds_lost != 0 || f.node_seconds_down != 0)
      return violated("fault-stats", "healthy run reported non-zero faults");
    return {};
  }
  const bool has_fail = std::any_of(
      timeline->events.begin(), timeline->events.end(),
      [](const PlatformEvent& e) {
        return e.kind == PlatformEventKind::NodeFail;
      });
  if (!has_fail &&
      (f.tasks_killed || f.tasks_remapped || f.redists_aborted))
    return violated("fault-stats",
                    "fail-free timeline reported killed/remapped work");
  if (timeline->on_fail == FailPolicy::Hold && f.tasks_remapped)
    return violated("fault-stats", "hold policy reported remapped tasks");
  const FaultIntegrals want =
      integrate_faults(cluster, *timeline, r.makespan);
  if (!close(f.capacity_seconds_lost, want.capacity_seconds_lost))
    return violated("fault-stats",
                    strf("capacity_seconds_lost %.17g, independent integral "
                         "%.17g",
                         f.capacity_seconds_lost, want.capacity_seconds_lost));
  if (!close(f.node_seconds_down, want.node_seconds_down))
    return violated("fault-stats",
                    strf("node_seconds_down %.17g, independent integral %.17g",
                         f.node_seconds_down, want.node_seconds_down));
  return {};
}

OracleReport injected(const scenario::ScenarioSpec& spec) {
  const char* inject = std::getenv("RATS_FUZZ_INJECT");
  if (!inject) return {};
  const std::string what = inject;
  if (what == "node-fail") {
    for (const PlatformEvent& e : spec.events.timeline.events)
      if (e.kind == PlatformEventKind::NodeFail)
        return violated("injected-oracle",
                        "timeline contains a node-fail event");
  } else if (what == "hang") {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  return {};
}

}  // namespace

OracleReport check_thread_count_independence(
    const scenario::ScenarioSpec& spec) {
  scenario::ScenarioSpec one = spec;
  one.threads = 1;
  scenario::ScenarioSpec four = spec;
  four.threads = 4;
  if (report::render_json(scenario::build_report(one)) !=
      report::render_json(scenario::build_report(four)))
    return violated("threads-determinism",
                    "report JSON differs between 1 and 4 threads");
  if (scenario::kind_supports_trace(spec.kind) &&
      scenario::render_trace(spec, 1) != scenario::render_trace(spec, 4))
    return violated("threads-determinism",
                    "trace differs between 1 and 4 threads");
  return {};
}

OracleReport run_battery(const scenario::ScenarioSpec& spec) {
  if (OracleReport r = injected(spec); !r.ok) return r;
  try {
    // Canonical emission round trip.
    const std::string e1 = scenario::emit_scenario(spec);
    const scenario::ScenarioSpec reparsed =
        scenario::parse_scenario_string(e1, "<fuzz>");
    if (scenario::emit_scenario(reparsed) != e1)
      return violated("emit-roundtrip",
                      "emit(parse(emit(spec))) differs from emit(spec)");

    // Direct schedule+simulate pass: network validation on, every run
    // simulated twice and compared bitwise, feasibility and fault
    // accounting checked per run.
    const std::vector<Cluster> clusters = spec.platform.resolve();
    const std::vector<CorpusEntry> corpus = spec.workload.resolve();
    for (const Cluster& cluster : clusters) {
      PlatformTimeline timeline;
      const bool has_events = !spec.events.empty();
      if (has_events) timeline = spec.events.resolve(cluster, spec.origin);
      const bool has_fail =
          has_events &&
          std::any_of(timeline.events.begin(), timeline.events.end(),
                      [](const PlatformEvent& e) {
                        return e.kind == PlatformEventKind::NodeFail;
                      });
      // Reschedule remaps placements invisibly: placement-based checks
      // only hold on healthy runs or under Hold.
      const bool exclusive =
          !has_fail || timeline.on_fail == FailPolicy::Hold;
      for (const CorpusEntry& entry : corpus) {
        for (const AlgoSpec& algo :
             spec.algorithms.resolve(entry.family, cluster.name())) {
          const Schedule schedule =
              build_schedule(entry.graph, cluster, algo.options);
          schedule.validate(entry.graph, cluster);
          SimulatorOptions sim;
          sim.validate = true;
          sim.timeline = has_events ? &timeline : nullptr;
          const SimulationResult r1 =
              simulate(entry.graph, schedule, cluster, sim);
          const SimulationResult r2 =
              simulate(entry.graph, schedule, cluster, sim);
          if (!timings_equal(r1, r2))
            return violated("determinism",
                            "re-simulating '" + entry.name + "' x " +
                                algo.name + " changed the result");
          if (OracleReport r = check_feasibility(
                  entry.graph, schedule, cluster,
                  has_events ? &timeline : nullptr, exclusive, r1);
              !r.ok)
            return r;
          if (OracleReport r = check_fault_stats(
                  cluster, has_events ? &timeline : nullptr, r1);
              !r.ok)
            return r;
        }
      }
    }

    // Report pipeline: two independent passes must render byte-equal
    // text, CSV and JSON.
    const report::ReportModel m1 = scenario::build_report(spec);
    const report::ReportModel m2 = scenario::build_report(spec);
    if (report::render_text(m1) != report::render_text(m2))
      return violated("report-determinism", "text rendering differs");
    if (report::render_csv(m1) != report::render_csv(m2))
      return violated("report-determinism", "CSV rendering differs");
    if (report::render_json(m1) != report::render_json(m2))
      return violated("report-determinism", "JSON rendering differs");

    // Trace: render twice, then replay the stream against its own
    // embedded spec.
    if (scenario::kind_supports_trace(spec.kind)) {
      const std::string t1 = scenario::render_trace(spec, 1);
      if (scenario::render_trace(spec, 1) != t1)
        return violated("trace-determinism", "re-rendered trace differs");
      const ReplayReport rep = verify_trace_text(t1, "<fuzz-trace>", 1);
      if (!rep.ok) return violated("trace-replay", rep.error);
    }

    if (OracleReport r = check_thread_count_independence(spec); !r.ok)
      return r;
  } catch (const Error& e) {
    return violated("exception", e.what());
  } catch (const std::exception& e) {
    return violated("exception", e.what());
  }
  return {};
}

}  // namespace rats::fuzz
