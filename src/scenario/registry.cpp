#include "scenario/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "dag/graph_algorithms.hpp"
#include "exp/tuning.hpp"
#include "obs/progress.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "redist/block_redistribution.hpp"
#include "report/render.hpp"
#include "scenario/parser.hpp"
#include "sim/simulator.hpp"
#include "trace/gzip.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"

namespace rats::scenario {

namespace {

using report::Cell;
using report::cell;
using report::Column;
using report::ColumnType;
using report::ReportModel;
using report::TableModel;

Column text_col(std::string name) {
  return Column{std::move(name), ColumnType::Text};
}
Column num_col(std::string name) {
  return Column{std::move(name), ColumnType::Number};
}

/// Captures the workload's announcement lines into the model.
std::vector<CorpusEntry> resolve_workload(const ScenarioSpec& spec,
                                          ReportModel& model) {
  std::string notes;
  auto corpus = spec.workload.resolve(&notes);
  if (!notes.empty()) model.text(std::move(notes));
  return corpus;
}

/// The spec's [events] timeline resolved against every cluster the
/// scenario touches, bound into the SimulatorOptions the run matrix is
/// seeded with.  `base_sim` stays nullptr for healthy scenarios, so
/// their runs take the exact code path they took before timelines
/// existed.  Owns the storage `base_sim` points into — keep it alive
/// for the duration of the matrix (not copyable for that reason).
struct TimelineBinding {
  PlatformTimeline timeline;
  SimulatorOptions sim;
  const SimulatorOptions* base_sim = nullptr;

  TimelineBinding(const ScenarioSpec& spec,
                  const std::vector<Cluster>& clusters) {
    if (spec.events.empty()) return;
    timeline = spec.events.resolve(clusters.front(), spec.origin);
    for (std::size_t c = 1; c < clusters.size(); ++c)
      timeline.validate(clusters[c], spec.origin);
    sim.timeline = &timeline;
    base_sim = &sim;
  }
  TimelineBinding(const TimelineBinding&) = delete;
  TimelineBinding& operator=(const TimelineBinding&) = delete;
};

/// Forwards run hooks to an inner session with a fixed run-index
/// offset, swallowing begin_matrix — used when one logical matrix is
/// executed as several batches (robustness halves, per-event-point
/// sweep grids); the caller sizes the matrix once up front.
class OffsetSession final : public RunSession {
 public:
  OffsetSession(RunSession* inner, std::size_t offset)
      : inner_(inner), offset_(offset) {}
  void begin_matrix(std::size_t) override {}
  bool inject(std::size_t run, const RunMeta& meta, RunOutcome& out) override {
    return inner_ && inner_->inject(run + offset_, meta, out);
  }
  TraceSink* begin_run(std::size_t run, const RunMeta& meta) override {
    return inner_ ? inner_->begin_run(run + offset_, meta) : nullptr;
  }
  void end_run(std::size_t run, const RunOutcome& outcome) override {
    if (inner_) inner_->end_run(run + offset_, outcome);
  }

 private:
  RunSession* inner_;
  std::size_t offset_;
};

// ---- shared report fragments (pinned by the kind goldens) --------------

/// Figures 2 and 6: sorted curves followed by the relative-makespan
/// summary table.
void makespan_report(const ExperimentData& data, ReportModel& model) {
  std::vector<std::vector<Cell>> rows;
  for (std::size_t algo = 1; algo < data.algos(); ++algo) {
    auto series = relative_series(data, algo, 0, /*makespan=*/true);
    auto s = summarize_relative(series);
    rows.push_back({cell(data.algo_names[algo]),
                    cell(s.mean_ratio, fmt(s.mean_ratio, 3)),
                    cell(1.0 - s.mean_ratio, fmt_percent(1.0 - s.mean_ratio, 1)),
                    cell(s.fraction_better, fmt_percent(s.fraction_better, 1)),
                    cell(s.fraction_equal, fmt_percent(s.fraction_equal, 1))});
    model.series("relative-makespan/" + data.algo_names[algo],
                 data.algo_names[algo], std::move(series));
  }
  TableModel& table = model.table(
      "summary", {text_col("strategy"), num_col("avg relative makespan"),
                  num_col("avg improvement"), num_col("shorter in"),
                  num_col("equal in")});
  table.rows = std::move(rows);
}

/// Figures 3 and 7: sorted curves followed by the relative-work table.
void work_report(const ExperimentData& data, ReportModel& model) {
  std::vector<std::vector<Cell>> rows;
  for (std::size_t algo = 1; algo < data.algos(); ++algo) {
    auto series = relative_series(data, algo, 0, /*makespan=*/false);
    auto s = summarize_relative(series);
    rows.push_back({cell(data.algo_names[algo]),
                    cell(s.mean_ratio, fmt(s.mean_ratio, 3)),
                    cell(s.fraction_better, fmt_percent(s.fraction_better, 1)),
                    cell(s.fraction_equal, fmt_percent(s.fraction_equal, 1))});
    model.series("relative-work/" + data.algo_names[algo],
                 data.algo_names[algo], std::move(series));
  }
  TableModel& table = model.table(
      "summary", {text_col("strategy"), num_col("avg relative work"),
                  num_col("less work in"), num_col("equal in")});
  table.rows = std::move(rows);
}

/// Corpus x algorithms on one cluster — the shared execution of the
/// fig2/fig3/fig6/fig7 and generic kinds.  Tuned presets group by
/// family (Table IV parameters), everything else runs one algo list.
/// `session` observes every run: this is the single simulation pass a
/// traced scenario shares between report and trace.
ExperimentData run_matrix_experiment(const ScenarioSpec& spec,
                                     const std::vector<CorpusEntry>& entries,
                                     const Cluster& cluster,
                                     RunSession* session) {
  const TimelineBinding events(spec, {cluster});
  if (spec.algorithms.tuned())
    return presets::run_tuned_experiment(entries, cluster, spec.threads,
                                         session, events.base_sim);
  return run_experiment(entries, cluster,
                        spec.algorithms.resolve(DagFamily::Irregular,
                                                cluster.name()),
                        spec.threads, session, events.base_sim);
}

/// Figures 2, 3, 6 and 7: corpus x algorithms on one cluster, reported
/// as sorted curves plus a relative-makespan or relative-work summary.
/// The four differ only in this row.
struct FigureKind {
  const char* kind;
  const char* heading;  ///< the cluster name is appended
  void (*report)(const ExperimentData&, ReportModel&);
  const char* paper;    ///< the paper's finding, printed last
};

constexpr FigureKind kFigures[] = {
    {"fig2", "Figure 2: relative makespan vs HCPA, naive parameters, ",
     makespan_report,
     "\n  paper: delta ~9% shorter on average, better in 72% of "
     "scenarios;\n         time-cost ~16% shorter, better in 80%.\n"},
    {"fig3", "Figure 3: relative work vs HCPA, naive parameters, ",
     work_report,
     "\n  paper: both strategies stay close to HCPA's resource usage;\n"
     "         delta consumes less than time-cost.\n"},
    {"fig6", "Figure 6: relative makespan vs HCPA, tuned parameters, ",
     makespan_report,
     "\n  paper: tuned delta ~13% shorter than HCPA on grillon (9% "
     "naive);\n         time-cost improves only slightly over naive.\n"},
    {"fig7", "Figure 7: relative work vs HCPA, tuned parameters, ",
     work_report,
     "\n  paper: tuned RATS stays close to (mostly below) HCPA's resource "
     "usage.\n"},
};

void run_figure(const ScenarioSpec& spec, ReportModel& model,
                RunSession* session) {
  const FigureKind* fig = std::find_if(
      std::begin(kFigures), std::end(kFigures),
      [&](const FigureKind& f) { return spec.kind == f.kind; });
  RATS_REQUIRE(fig != std::end(kFigures), "not a figure kind: " + spec.kind);
  auto corpus = resolve_workload(spec, model);
  Cluster cluster = spec.platform.resolve_one();
  auto data = run_matrix_experiment(spec, corpus, cluster, session);
  model.heading(fig->heading + cluster.name());
  fig->report(data, model);
  model.text(fig->paper);
}

void run_fig4(const ScenarioSpec& spec, ReportModel& model,
              RunSession* session) {
  auto corpus = resolve_workload(spec, model);
  Cluster cluster = spec.platform.resolve_one();
  const TimelineBinding events(spec, {cluster});
  // Empty [sweep] lists fall back to the paper grids inside sweep_delta.
  auto sweep = sweep_delta(corpus, cluster, spec.sweep.mindeltas,
                           spec.sweep.maxdeltas, spec.threads, session,
                           events.base_sim);
  model.heading("Figure 4: avg makespan relative to HCPA, RATS-delta, FFT, " +
                cluster.name());
  std::vector<Column> columns{text_col("mindelta \\ maxdelta")};
  for (double mx : sweep.maxdeltas) columns.push_back(num_col(fmt(mx, 2)));
  TableModel& table = model.table("delta-sweep", std::move(columns));
  for (std::size_t i = 0; i < sweep.mindeltas.size(); ++i) {
    std::vector<Cell> row{cell(sweep.mindeltas[i], fmt(sweep.mindeltas[i], 2))};
    for (std::size_t j = 0; j < sweep.maxdeltas.size(); ++j)
      row.push_back(
          cell(sweep.avg_relative[i][j], fmt(sweep.avg_relative[i][j], 3)));
    table.rows.push_back(std::move(row));
  }
  model.scalar("best/mindelta", sweep.best_mindelta);
  model.scalar("best/maxdelta", sweep.best_maxdelta);
  model.scalar("best/avg-relative-makespan", sweep.best_value);
  model.textf("\n  best: mindelta=%s maxdelta=%s -> %s\n",
              fmt(sweep.best_mindelta, 2).c_str(),
              fmt(sweep.best_maxdelta, 2).c_str(),
              fmt(sweep.best_value, 3).c_str());
  model.text(
      "  paper: larger maxdelta improves the relative makespan; lowering\n"
      "  mindelta helps only to a certain extent (Table IV picks (-.5, 1)).\n");
}

void run_fig5(const ScenarioSpec& spec, ReportModel& model,
              RunSession* session) {
  auto corpus = resolve_workload(spec, model);
  Cluster cluster = spec.platform.resolve_one();
  const TimelineBinding events(spec, {cluster});
  auto sweep = sweep_rho(corpus, cluster, spec.sweep.minrhos, spec.threads,
                         session, events.base_sim);
  model.heading(
      "Figure 5: avg makespan relative to HCPA, RATS-time-cost, irregular, " +
      cluster.name());
  TableModel& table = model.table(
      "rho-sweep",
      {num_col("minrho"), num_col("packing allowed"), num_col("no packing")});
  for (std::size_t i = 0; i < sweep.minrhos.size(); ++i)
    table.rows.push_back(
        {cell(sweep.minrhos[i], fmt(sweep.minrhos[i], 2)),
         cell(sweep.with_packing[i], fmt(sweep.with_packing[i], 3)),
         cell(sweep.without_packing[i], fmt(sweep.without_packing[i], 3))});
  model.scalar("best/minrho", sweep.best_minrho);
  model.scalar("best/avg-relative-makespan", sweep.best_value);
  model.textf("\n  best (packing allowed): minrho=%s -> %s\n",
              fmt(sweep.best_minrho, 2).c_str(),
              fmt(sweep.best_value, 3).c_str());
  model.text(
      "  paper: packing gives better performance at every minrho; the\n"
      "  curve flattens beyond a threshold (0.5 on grillon).\n");
}

/// The generic sweep kind: a grid over any RatsParams fields, applied
/// to a base algorithm, scored against a fresh HCPA reference — fig4
/// and fig5 are fixed-shape presets of this.
void run_sweep(const ScenarioSpec& spec, ReportModel& model,
               RunSession* session) {
  struct Axis {
    const char* field;
    std::vector<double> values;
    bool is_flag;   ///< packing: render true/false instead of numbers
    bool is_event;  ///< rewrites the [events] timeline, not RatsParams
  };
  // Event axes first: they vary slowest in the mixed-radix decode, so
  // each event point runs the whole scheduler grid as one batch.
  std::vector<Axis> axes;
  if (!spec.sweep.event_factors.empty())
    axes.push_back({"event-factor", spec.sweep.event_factors, false, true});
  if (!spec.sweep.event_ats.empty())
    axes.push_back({"event-at", spec.sweep.event_ats, false, true});
  RATS_REQUIRE(!spec.sweep.sweeps_events() || !spec.events.empty(),
               "[sweep] event axes need a non-empty [events] timeline");
  if (!spec.sweep.mindeltas.empty())
    axes.push_back({"mindelta", spec.sweep.mindeltas, false, false});
  if (!spec.sweep.maxdeltas.empty())
    axes.push_back({"maxdelta", spec.sweep.maxdeltas, false, false});
  if (!spec.sweep.minrhos.empty())
    axes.push_back({"minrho", spec.sweep.minrhos, false, false});
  if (!spec.sweep.packings.empty()) {
    Axis packing{"packing", {}, true, false};
    for (const bool p : spec.sweep.packings)
      packing.values.push_back(p ? 1.0 : 0.0);
    axes.push_back(std::move(packing));
  }
  RATS_REQUIRE(!axes.empty(),
               "kind \"sweep\" needs at least one non-empty [sweep] grid");

  auto corpus = resolve_workload(spec, model);
  Cluster cluster = spec.platform.resolve_one();

  // The base algorithm is the paper's naive preset of that strategy;
  // each grid point overrides exactly the swept fields.
  const auto naive = presets::naive_algos();
  const SchedulerOptions& base =
      spec.sweep.base == "time-cost" ? naive[2].options : naive[1].options;

  std::size_t total = 1;
  for (const Axis& axis : axes) total *= axis.values.size();
  std::size_t event_total = 1;
  for (const Axis& axis : axes)
    if (axis.is_event) event_total *= axis.values.size();
  const std::size_t sched_total = total / event_total;

  // Mixed-radix decode of point index -> per-axis value (last axis
  // fastest); the single decoder keeps the simulated options, the
  // table rows and the best-point report in lockstep.
  std::vector<std::size_t> pick(axes.size(), 0);
  const auto decode = [&](std::size_t p) {
    std::size_t rest = p;
    for (std::size_t k = axes.size(); k-- > 0;) {
      pick[k] = rest % axes[k].values.size();
      rest /= axes[k].values.size();
    }
  };
  // Scheduler points only: decoding p < sched_total keeps every event
  // axis at index 0 while walking the scheduler axes in full-grid
  // order, so one point list serves every event point.
  std::vector<SchedulerOptions> points;
  points.reserve(sched_total);
  for (std::size_t p = 0; p < sched_total; ++p) {
    decode(p);
    SchedulerOptions options = base;
    for (std::size_t k = 0; k < axes.size(); ++k) {
      if (axes[k].is_event) continue;
      const double v = axes[k].values[pick[k]];
      const std::string field = axes[k].field;
      if (field == "mindelta") options.rats.mindelta = v;
      else if (field == "maxdelta") options.rats.maxdelta = v;
      else if (field == "minrho") options.rats.minrho = v;
      else options.rats.packing = v != 0.0;
    }
    points.push_back(options);
  }

  std::vector<double> avg;
  avg.reserve(total);
  if (event_total == 1) {
    // No event axes: a fixed timeline (when [events] is present) seeds
    // every run; healthy sweeps take the pre-timeline path verbatim.
    const TimelineBinding events(spec, {cluster});
    avg = sweep_grid(corpus, cluster, points, spec.threads, session,
                     events.base_sim);
  } else {
    // One grid batch per event point under one outer matrix.  Each
    // event-axis value rewrites the whole timeline — event-factor the
    // factor of every capacity/slowdown event, event-at the time of
    // every event — then the rewritten timeline degrades sweep point
    // and HCPA reference alike.
    if (session)
      session->begin_matrix(event_total * corpus.size() * (sched_total + 1));
    for (std::size_t ev = 0; ev < event_total; ++ev) {
      decode(ev * sched_total);
      PlatformTimeline tl = spec.events.resolve(cluster, spec.origin);
      for (std::size_t k = 0; k < axes.size(); ++k) {
        if (!axes[k].is_event) continue;
        const double v = axes[k].values[pick[k]];
        if (std::string(axes[k].field) == "event-factor") {
          for (PlatformEvent& e : tl.events)
            if (e.kind == PlatformEventKind::LinkCapacity ||
                e.kind == PlatformEventKind::NodeSlowdown)
              e.factor = v;
        } else {
          for (PlatformEvent& e : tl.events) e.at = v;
        }
      }
      tl.sort();
      tl.validate(cluster, spec.origin);
      SimulatorOptions sim;
      sim.timeline = &tl;
      OffsetSession offset(session, ev * corpus.size() * (sched_total + 1));
      const auto part = sweep_grid(corpus, cluster, points, spec.threads,
                                   session ? &offset : nullptr, &sim);
      avg.insert(avg.end(), part.begin(), part.end());
    }
  }

  std::string fields;
  for (std::size_t k = 0; k < axes.size(); ++k)
    fields += std::string(k ? " x " : "") + axes[k].field;
  model.heading(strf("Sweep '%s': %zu points over %s, RATS-%s, %s",
                     spec.name.c_str(), total, fields.c_str(),
                     spec.sweep.base.c_str(), cluster.name().c_str()));

  std::vector<Column> columns;
  for (const Axis& axis : axes)
    columns.push_back(axis.is_flag ? text_col(axis.field)
                                   : num_col(axis.field));
  columns.push_back(num_col("avg relative makespan"));
  TableModel& table = model.table("sweep", std::move(columns));
  std::size_t best = 0;
  for (std::size_t p = 0; p < total; ++p) {
    decode(p);
    std::vector<Cell> row;
    for (std::size_t k = 0; k < axes.size(); ++k) {
      const double v = axes[k].values[pick[k]];
      row.push_back(axes[k].is_flag ? cell(v != 0.0 ? "true" : "false")
                                    : cell(v, fmt(v, 2)));
    }
    row.push_back(cell(avg[p], fmt(avg[p], 3)));
    table.rows.push_back(std::move(row));
    if (avg[p] < avg[best]) best = p;
  }

  decode(best);
  std::string best_text = "\n  best:";
  for (std::size_t k = 0; k < axes.size(); ++k) {
    const double v = axes[k].values[pick[k]];
    model.scalar(std::string("best/") + axes[k].field, v);
    best_text += std::string(" ") + axes[k].field + "=" +
                 (axes[k].is_flag ? (v != 0.0 ? "true" : "false") : fmt(v, 2));
  }
  model.scalar("best/avg-relative-makespan", avg[best]);
  best_text += " -> " + fmt(avg[best], 3) + "\n";
  model.text(std::move(best_text));
}

void redist_matrix_table(const Redistribution& r, Bytes unit,
                         const std::string& id, ReportModel& model) {
  auto m = r.matrix();
  std::vector<Column> columns{text_col("")};
  for (int q = 0; q < r.receivers(); ++q)
    columns.push_back(num_col("q" + std::to_string(q + 1)));
  TableModel& table = model.table(id, std::move(columns));
  table.csv_echo = false;  // the legacy binaries never echoed these
  for (int p = 0; p < r.senders(); ++p) {
    std::vector<Cell> row{cell("p" + std::to_string(p + 1))};
    for (int q = 0; q < r.receivers(); ++q) {
      double units =
          m[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)] / unit;
      row.push_back(units == 0 ? cell("") : cell(units, fmt(units, 2)));
    }
    table.rows.push_back(std::move(row));
  }
}

void run_table1(const ScenarioSpec&, ReportModel& model, RunSession*) {
  model.heading(
      "Table I: communication matrix, 10 units, p=4 senders, q=5 receivers");
  const Bytes unit = 1024;  // any unit; the matrix scales linearly
  std::vector<NodeId> senders{0, 1, 2, 3};
  std::vector<NodeId> receivers{4, 5, 6, 7, 8};
  auto r = Redistribution::plan(10 * unit, senders, receivers);
  redist_matrix_table(r, unit, "matrix-disjoint", model);
  model.textf("  non-empty entries: %zu (expected p+q-1 = 8)\n",
              r.transfers().size());
  model.textf("  self bytes: %s units, remote: %s units\n",
              fmt(r.self_bytes() / unit, 2).c_str(),
              fmt(r.remote_bytes() / unit, 2).c_str());

  model.heading(
      "Overlapping sets: receiver order permuted to maximize self "
      "communication");
  std::vector<NodeId> overlap_recv{2, 3, 4, 5, 6};
  auto r2 = Redistribution::plan(10 * unit, senders, overlap_recv);
  redist_matrix_table(r2, unit, "matrix-overlap", model);
  model.textf("  self bytes: %s units (stay on node), remote: %s units\n",
              fmt(r2.self_bytes() / unit, 2).c_str(),
              fmt(r2.remote_bytes() / unit, 2).c_str());

  model.heading("Identical sets: redistribution cost is zero");
  auto r3 = Redistribution::plan(10 * unit, senders, senders);
  model.textf("  remote bytes: %s (paper: zero when tasks share the same "
              "processor set)\n",
              fmt(r3.remote_bytes(), 0).c_str());
}

void run_table2(const ScenarioSpec& spec, ReportModel& model, RunSession*) {
  const auto clusters = spec.platform.resolve();
  model.heading("Table II: cluster characteristics");
  TableModel& table = model.table(
      "clusters", {text_col("Cluster"), num_col("#proc."),
                   num_col("GFlop/sec"), text_col("topology"),
                   num_col("#links")});
  for (const Cluster& c : clusters) {
    table.rows.push_back(
        {cell(c.name()), cell(c.num_nodes(), std::to_string(c.num_nodes())),
         cell(c.node_speed() / 1e9, fmt(c.node_speed() / 1e9, 3)),
         cell(c.hierarchical_topology()
                  ? std::to_string(c.cabinets()) + " cabinets"
                  : "flat switch"),
         cell(c.num_links(), std::to_string(c.num_links()))});
  }

  model.heading("Derived network model (Section IV-A)");
  for (const Cluster& c : clusters) {
    NodeId far = static_cast<NodeId>(c.num_nodes() - 1);
    auto route = c.route(0, far);
    Seconds lat = c.route_latency(0, far);
    Seconds rtt = 2 * lat;
    Rate beta = c.link(c.nic_up(0)).bandwidth;
    Rate beta_prime = std::min(beta, c.tcp_window() / rtt);
    model.textf(
        "  %-8s route node0->node%-3d: %zu links, one-way latency %s us, "
        "beta' = min(beta, Wmax/RTT) = %s MB/s (beta = %s MB/s)\n",
        c.name().c_str(), far, route.size(), fmt(lat * 1e6, 1).c_str(),
        fmt(beta_prime / 1e6, 1).c_str(), fmt(beta / 1e6, 1).c_str());
  }
}

void run_table3(const ScenarioSpec& spec, ReportModel& model, RunSession*) {
  auto corpus = resolve_workload(spec, model);
  model.heading("Table III: corpus composition");
  TableModel& params = model.table(
      "composition",
      {text_col("family"), num_col("#configs"), text_col("tasks"),
       text_col("edges(min-max)"), num_col("avg levels"),
       num_col("avg width")});
  for (DagFamily family : {DagFamily::Layered, DagFamily::Irregular,
                           DagFamily::FFT, DagFamily::Strassen}) {
    int count = 0;
    std::int32_t min_edges = INT32_MAX, max_edges = 0;
    std::int32_t min_tasks = INT32_MAX, max_tasks = 0;
    double sum_levels = 0, sum_width = 0;
    for (const auto& e : corpus) {
      if (e.family != family) continue;
      ++count;
      min_edges = std::min(min_edges, e.graph.num_edges());
      max_edges = std::max(max_edges, e.graph.num_edges());
      min_tasks = std::min(min_tasks, e.graph.num_tasks());
      max_tasks = std::max(max_tasks, e.graph.num_tasks());
      auto levels = task_levels(e.graph);
      int num_levels = 1 + *std::max_element(levels.begin(), levels.end());
      std::vector<int> per_level(static_cast<std::size_t>(num_levels), 0);
      for (int l : levels) ++per_level[static_cast<std::size_t>(l)];
      sum_levels += num_levels;
      sum_width += *std::max_element(per_level.begin(), per_level.end());
    }
    if (count == 0) continue;
    params.rows.push_back(
        {cell(to_string(family)), cell(count, std::to_string(count)),
         cell(std::to_string(min_tasks) + "-" + std::to_string(max_tasks)),
         cell(std::to_string(min_edges) + "-" + std::to_string(max_edges)),
         cell(sum_levels / count, fmt(sum_levels / count, 1)),
         cell(sum_width / count, fmt(sum_width / count, 1))});
  }
  model.textf(
      "\n  paper scale: 108 layered + 324 irregular + 100 FFT + 25 Strassen "
      "= 557\n  (this run: %zu; --full regenerates the paper corpus)\n",
      corpus.size());
}

void run_table4(const ScenarioSpec& spec, ReportModel& model, RunSession*) {
  model.heading("Table IV: tuned (mindelta, maxdelta, minrho)");
  std::vector<std::vector<Cell>> rows;
  const int cap = spec.workload.cap_per_family > 0
                      ? spec.workload.cap_per_family
                      : 6;
  for (DagFamily family : {DagFamily::FFT, DagFamily::Strassen,
                           DagFamily::Layered, DagFamily::Irregular}) {
    std::string notes;
    auto corpus = presets::cap_per_family(
        presets::make_family(family, spec.workload.corpus, &notes),
        spec.workload.corpus, cap, &notes);
    if (!notes.empty()) model.text(std::move(notes));
    std::vector<Cell> row{cell(to_string(family))};
    for (const Cluster& cluster : spec.platform.resolve()) {
      TunedParams t = tune(corpus, cluster, spec.threads);
      row.push_back(cell("(" + fmt(t.mindelta, 2) + ", " + fmt(t.maxdelta, 2) +
                         ", " + fmt(t.minrho, 2) + ")"));
      model.textf("  tuned %-9s on %-8s: mindelta=%s maxdelta=%s minrho=%s\n",
                  to_string(family).c_str(), cluster.name().c_str(),
                  fmt(t.mindelta, 2).c_str(), fmt(t.maxdelta, 2).c_str(),
                  fmt(t.minrho, 2).c_str());
    }
    rows.push_back(std::move(row));
  }
  TableModel& table = model.table(
      "tuned-parameters", {text_col("family \\ cluster"), text_col("chti"),
                           text_col("grillon"), text_col("grelon")});
  table.rows = std::move(rows);
  model.text(
      "\n  paper Table IV (chti/grillon/grelon):\n"
      "    FFT      (-.5,1,.2)   (-.5,1,.2)   (-.25,.75,.4)\n"
      "    Strassen (-.25,.5,.5) (0,1,.4)     (-.25,1,.5)\n"
      "    Layered  (-.5,1,.2)   (-.25,1,.2)  (-.5,1,.2)\n"
      "    Random   (-.75,1,.5)  (-.75,1,.5)  (-.75,1,.4)\n"
      "  exact cell values depend on the generated corpus; the shape to\n"
      "  check is maxdelta ~ 1, negative mindelta, small-to-mid minrho.\n");
}

void run_table5(const ScenarioSpec& spec, ReportModel& model,
                RunSession* session) {
  auto corpus = resolve_workload(spec, model);
  const auto clusters = spec.platform.resolve();
  const TimelineBinding events(spec, clusters);
  model.textf("  running corpus on %zu clusters...\n", clusters.size());
  const std::vector<ExperimentData> per_cluster =
      presets::run_tuned_experiments(corpus, clusters, spec.threads, session,
                                     events.base_sim);
  const auto& names = per_cluster.front().algo_names;

  model.heading("Table V: pairwise comparison (chti / grillon / grelon)");
  TableModel& table = model.table(
      "pairwise", {text_col("algorithm"), text_col(""), text_col("vs HCPA"),
                   text_col("vs delta"), text_col("vs time-cost"),
                   text_col("combined (%)")});
  for (std::size_t a = 0; a < names.size(); ++a) {
    const char* row_names[3] = {"better", "equal", "worse"};
    for (int r = 0; r < 3; ++r) {
      std::vector<Cell> row{cell(r == 0 ? names[a] : ""), cell(row_names[r])};
      for (std::size_t b = 0; b < names.size(); ++b) {
        if (a == b) {
          row.push_back(cell("XXX"));
          continue;
        }
        std::string cell_text;
        for (const auto& data : per_cluster) {
          auto c = pairwise_compare(data, a, b);
          int v = r == 0 ? c.better : (r == 1 ? c.equal : c.worse);
          cell_text += (cell_text.empty() ? "" : " / ") + std::to_string(v);
        }
        row.push_back(cell(std::move(cell_text)));
      }
      std::string comb;
      for (const auto& data : per_cluster) {
        auto f = combined_compare(data, a);
        double v = r == 0 ? f.better : (r == 1 ? f.equal : f.worse);
        comb += (comb.empty() ? "" : " / ") + fmt(100 * v, 1);
      }
      row.push_back(cell(std::move(comb)));
      table.rows.push_back(std::move(row));
    }
  }
  model.text(
      "\n  paper: ranking {time-cost, delta, HCPA} by best-result counts;\n"
      "  time-cost wins more as cluster size grows, delta is strongest on\n"
      "  small and medium clusters.\n");
}

/// The Table VI degradation-from-best table, shared verbatim by the
/// table6 kind and the healthy half of the robustness kind — the
/// paper's degradation numbers stay reproducible as a preset of the
/// robustness report family.
void degradation_table(const std::vector<Cluster>& clusters,
                       const std::vector<ExperimentData>& per_cluster,
                       ReportModel& model) {
  TableModel& table = model.table(
      "degradation", {text_col("cluster"), text_col("metric"),
                      num_col("HCPA"), num_col("delta"),
                      num_col("time-cost")});
  for (std::size_t ci = 0; ci < clusters.size(); ++ci) {
    const Cluster& cluster = clusters[ci];
    const ExperimentData& data = per_cluster[ci];
    Degradation d[3];
    for (std::size_t a = 0; a < 3; ++a) d[a] = degradation_from_best(data, a);
    table.rows.push_back({cell(cluster.name()), cell("avg over all exp."),
                          cell(d[0].avg_over_all,
                               fmt_percent(d[0].avg_over_all, 2)),
                          cell(d[1].avg_over_all,
                               fmt_percent(d[1].avg_over_all, 2)),
                          cell(d[2].avg_over_all,
                               fmt_percent(d[2].avg_over_all, 2))});
    table.rows.push_back({cell(""), cell("# not best"),
                          cell(d[0].not_best, std::to_string(d[0].not_best)),
                          cell(d[1].not_best, std::to_string(d[1].not_best)),
                          cell(d[2].not_best, std::to_string(d[2].not_best))});
    table.rows.push_back({cell(""), cell("avg over # not best"),
                          cell(d[0].avg_over_not_best,
                               fmt_percent(d[0].avg_over_not_best, 2)),
                          cell(d[1].avg_over_not_best,
                               fmt_percent(d[1].avg_over_not_best, 2)),
                          cell(d[2].avg_over_not_best,
                               fmt_percent(d[2].avg_over_not_best, 2))});
  }
}

void run_table6(const ScenarioSpec& spec, ReportModel& model,
                RunSession* session) {
  auto corpus = resolve_workload(spec, model);
  model.heading("Table VI: average degradation from best");
  const auto clusters = spec.platform.resolve();
  const TimelineBinding events(spec, clusters);
  model.textf("  running corpus on %zu clusters...\n", clusters.size());
  const auto per_cluster =
      presets::run_tuned_experiments(corpus, clusters, spec.threads, session,
                                     events.base_sim);
  degradation_table(clusters, per_cluster, model);
  model.text(
      "\n  paper: time-cost stays closest to the best (< 6% over all\n"
      "  experiments, improving with cluster size); delta degrades as the\n"
      "  cluster grows; HCPA reaches > 100% on large clusters.\n");
}

/// The robustness kind: the tuned multi-cluster matrix (table5/table6
/// machinery) runs twice — healthy, then with the [events] timeline
/// injected — and the report compares the halves.  The healthy half
/// renders Table VI's degradation table through the shared helper, so
/// the paper's numbers are a preset of this family; the degraded half
/// adds makespan inflation and fault accounting per (cluster, algo).
void run_robustness(const ScenarioSpec& spec, ReportModel& model,
                    RunSession* session) {
  RATS_REQUIRE(!spec.events.empty(),
               "kind \"robustness\" needs a non-empty [events] timeline");
  auto corpus = resolve_workload(spec, model);
  const auto clusters = spec.platform.resolve();
  const TimelineBinding events(spec, clusters);

  // One matrix, two halves: run r of the degraded half is the injected
  // twin of run r of the healthy half.
  const std::size_t half = clusters.size() * corpus.size() * 3;
  if (session) session->begin_matrix(2 * half);
  model.textf("  running corpus on %zu clusters, healthy then degraded...\n",
              clusters.size());
  OffsetSession healthy_session(session, 0);
  const auto healthy = presets::run_tuned_experiments(
      corpus, clusters, spec.threads, session ? &healthy_session : nullptr,
      nullptr);
  OffsetSession degraded_session(session, half);
  const auto degraded = presets::run_tuned_experiments(
      corpus, clusters, spec.threads, session ? &degraded_session : nullptr,
      events.base_sim);

  model.heading("Degradation from best (healthy baseline, Table VI)");
  degradation_table(clusters, healthy, model);

  model.heading("Robustness under the [events] timeline");
  TableModel& table = model.table(
      "robustness", {text_col("cluster"), text_col("metric"),
                     num_col("HCPA"), num_col("delta"),
                     num_col("time-cost")});
  for (std::size_t ci = 0; ci < clusters.size(); ++ci) {
    const ExperimentData& h = degraded[ci];  // same shape as healthy[ci]
    double mean_inflation[3] = {0, 0, 0};
    double max_inflation[3] = {0, 0, 0};
    std::int64_t killed[3] = {0, 0, 0};
    std::int64_t remapped[3] = {0, 0, 0};
    std::int64_t aborted[3] = {0, 0, 0};
    double lost[3] = {0, 0, 0};
    const auto n = static_cast<double>(corpus.size());
    for (std::size_t a = 0; a < 3; ++a) {
      for (std::size_t e = 0; e < corpus.size(); ++e) {
        const RunOutcome& base = healthy[ci].outcome[e][a];
        const RunOutcome& hit = degraded[ci].outcome[e][a];
        const double inflation = hit.makespan / base.makespan - 1.0;
        mean_inflation[a] += inflation / n;
        max_inflation[a] = std::max(max_inflation[a], inflation);
        killed[a] += hit.faults.tasks_killed;
        remapped[a] += hit.faults.tasks_remapped;
        aborted[a] += hit.faults.redists_aborted;
        lost[a] += hit.faults.capacity_seconds_lost / 1e9 / n;
      }
      const std::string algo = h.algo_names[a];
      const std::string cname = clusters[ci].name();
      model.scalar("robustness/" + cname + "/" + algo + "/avg-inflation",
                   mean_inflation[a]);
      model.scalar("robustness/" + cname + "/" + algo + "/tasks-killed",
                   static_cast<double>(killed[a]));
    }
    const auto pct_row = [&](const char* metric, const double v[3],
                             const char* head) {
      table.rows.push_back({cell(head), cell(metric),
                            cell(v[0], fmt_percent(v[0], 2)),
                            cell(v[1], fmt_percent(v[1], 2)),
                            cell(v[2], fmt_percent(v[2], 2))});
    };
    const auto count_row = [&](const char* metric, const std::int64_t v[3]) {
      table.rows.push_back({cell(""), cell(metric),
                            cell(static_cast<double>(v[0]),
                                 std::to_string(v[0])),
                            cell(static_cast<double>(v[1]),
                                 std::to_string(v[1])),
                            cell(static_cast<double>(v[2]),
                                 std::to_string(v[2]))});
    };
    pct_row("avg makespan inflation", mean_inflation,
            clusters[ci].name().c_str());
    pct_row("max makespan inflation", max_inflation, "");
    count_row("# tasks killed", killed);
    count_row("# tasks remapped", remapped);
    count_row("# redists aborted", aborted);
    table.rows.push_back({cell(""), cell("avg capacity lost (GB)"),
                          cell(lost[0], fmt(lost[0], 2)),
                          cell(lost[1], fmt(lost[1], 2)),
                          cell(lost[2], fmt(lost[2], 2))});
  }
  model.text(
      "\n  inflation compares each degraded run against its healthy twin\n"
      "  (same workload, algorithm and cluster); fault counts are summed\n"
      "  over the corpus, capacity lost averaged per run.\n");
}

void run_experiment_kind(const ScenarioSpec& spec, ReportModel& model,
                         RunSession* session) {
  auto corpus = resolve_workload(spec, model);
  Cluster cluster = spec.platform.resolve_one();
  auto data = run_matrix_experiment(spec, corpus, cluster, session);
  model.heading("Scenario '" + spec.name + "': " + cluster.name() + ", " +
                std::to_string(data.entries()) + " workloads x " +
                std::to_string(data.algos()) + " algorithms");
  constexpr double kTolerance = 1e-6;
  TableModel& table = model.table(
      "summary", {text_col("algorithm"), num_col("avg makespan (s)"),
                  num_col("avg work (proc*s)"), text_col("best in")});
  for (std::size_t a = 0; a < data.algos(); ++a) {
    double sum_makespan = 0, sum_work = 0;
    int best = 0;
    for (std::size_t e = 0; e < data.entries(); ++e) {
      sum_makespan += data.outcome[e][a].makespan;
      sum_work += data.outcome[e][a].work;
      double min_makespan = data.outcome[e][0].makespan;
      for (std::size_t other = 1; other < data.algos(); ++other)
        min_makespan = std::min(min_makespan, data.outcome[e][other].makespan);
      if (data.outcome[e][a].makespan <= min_makespan * (1 + kTolerance))
        ++best;
    }
    const auto n = static_cast<double>(data.entries());
    table.rows.push_back(
        {cell(data.algo_names[a]),
         cell(sum_makespan / n, fmt(sum_makespan / n, 2)),
         cell(sum_work / n, fmt(sum_work / n, 1)),
         cell(std::to_string(best) + "/" + std::to_string(data.entries()))});
  }
  if (data.entries() <= 24) {
    model.heading("Per-workload makespans (s)");
    std::vector<Column> columns{text_col("workload")};
    for (const auto& name : data.algo_names) columns.push_back(num_col(name));
    TableModel& per_entry = model.table("per-workload", std::move(columns));
    for (std::size_t e = 0; e < data.entries(); ++e) {
      std::vector<Cell> row{cell(data.entry_names[e])};
      for (std::size_t a = 0; a < data.algos(); ++a)
        row.push_back(cell(data.outcome[e][a].makespan,
                           fmt(data.outcome[e][a].makespan, 2)));
      per_entry.rows.push_back(std::move(row));
    }
  }
}

// Deliberately serial: the kind exists to print a per-task timeline of
// a handful of runs, and the gantt table reads each run's sink before
// end_run hands it to the writer.  Large matrices belong to the
// "experiment" kind, whose runs go through the parallel worker pool.
void run_single(const ScenarioSpec& spec, ReportModel& model,
                RunSession* session) {
  auto corpus = resolve_workload(spec, model);
  Cluster cluster = spec.platform.resolve_one();
  const TimelineBinding events(spec, {cluster});
  const std::size_t num_algos = spec.algorithms.names().size();
  if (session) session->begin_matrix(corpus.size() * num_algos);
  for (std::size_t e = 0; e < corpus.size(); ++e) {
    const CorpusEntry& entry = corpus[e];
    const auto algos =
        spec.algorithms.resolve(entry.family, cluster.name());
    RATS_REQUIRE(algos.size() == num_algos,
                 "algorithm list changed size across families");
    for (std::size_t a = 0; a < algos.size(); ++a) {
      const AlgoSpec& algo = algos[a];
      const std::size_t run_index = e * num_algos + a;
      model.textf("\nworkflow %s: %d tasks, %d edges; platform %s (%d "
                  "nodes)\n",
                  entry.name.c_str(), entry.graph.num_tasks(),
                  entry.graph.num_edges(), cluster.name().c_str(),
                  cluster.num_nodes());
      const Schedule schedule =
          build_schedule(entry.graph, cluster, algo.options);
      TraceSink local_sink;
      TraceSink* sink = nullptr;
      if (session)
        sink = session->begin_run(
            run_index, RunMeta{entry.name, algo.name, cluster.name()});
      // A session may decline the run (nullptr sink); the Gantt table
      // still needs events, so fall back to the local sink — attaching
      // a session must never change the report's content.
      if (sink == nullptr && spec.output.gantt) sink = &local_sink;
      SimulatorOptions sim_options =
          events.base_sim ? *events.base_sim : SimulatorOptions{};
      sim_options.trace = sink;
      const SimulationResult result =
          simulate(entry.graph, schedule, cluster, sim_options);
      note_simulated_run();
      model.textf(
          "%s: makespan %.2f s (mapper estimate %.2f s), work %.1f proc*s, "
          "network %.1f MiB\n",
          algo.name.c_str(), result.makespan, schedule.estimated_makespan(),
          result.total_work, result.network_bytes / MiB);
      if (events.base_sim)
        model.textf(
            "   faults: %d killed, %d remapped, %d redists aborted, "
            "%.2f GB capacity lost\n",
            result.faults.tasks_killed, result.faults.tasks_remapped,
            result.faults.redists_aborted,
            result.faults.capacity_seconds_lost / 1e9);
      model.scalar("makespan/" + entry.name + "/" + algo.name,
                   result.makespan);
      model.scalar("work/" + entry.name + "/" + algo.name, result.total_work);
      TableModel& timeline = model.table(
          "timeline/" + entry.name + "/" + algo.name,
          {text_col("task"), num_col("procs"), num_col("ready"),
           num_col("start"), num_col("finish")});
      timeline.csv_echo = false;
      timeline.preformatted = strf("%-20s %5s %9s %9s %9s\n", "task", "procs",
                                   "ready", "start", "finish");
      for (TaskId t = 0; t < entry.graph.num_tasks(); ++t) {
        const auto& tl = result.timeline[static_cast<std::size_t>(t)];
        const std::size_t procs = schedule.of(t).procs.size();
        timeline.preformatted +=
            strf("%-20s %5zu %9.2f %9.2f %9.2f\n",
                 entry.graph.task(t).name.c_str(), procs, tl.data_ready,
                 tl.start, tl.finish);
        timeline.rows.push_back(
            {cell(entry.graph.task(t).name),
             cell(static_cast<double>(procs), std::to_string(procs)),
             cell(tl.data_ready, fmt(tl.data_ready, 2)),
             cell(tl.start, fmt(tl.start, 2)),
             cell(tl.finish, fmt(tl.finish, 2))});
      }
      if (spec.output.gantt && sink != nullptr) {
        std::vector<std::string> names;
        for (TaskId t = 0; t < entry.graph.num_tasks(); ++t)
          names.push_back(entry.graph.task(t).name);
        model.heading("Gantt (" + entry.name + ", " + algo.name + ")");
        model.text(trace_gantt(sink->events(), &names));
      }
      if (session)
        session->end_run(run_index, RunOutcome{result.makespan,
                                               result.total_work,
                                               result.faults});
    }
  }
}

// ---- registry ----------------------------------------------------------

struct KindEntry {
  const char* name;
  void (*fn)(const ScenarioSpec&, ReportModel&, RunSession*);
  bool traceable;
  /// Whether the kind feeds a spec's [events] timeline into its runs.
  /// Kinds that never simulate (or tune, where a degraded optimum is
  /// meaningless) reject specs carrying one instead of silently
  /// reporting healthy numbers for a degraded scenario.
  bool consumes_events;
};

constexpr KindEntry kKinds[] = {
    {"fig2", run_figure, true, true},
    {"fig3", run_figure, true, true},
    {"fig4", run_fig4, true, true},
    {"fig5", run_fig5, true, true},
    {"fig6", run_figure, true, true},
    {"fig7", run_figure, true, true},
    {"table1", run_table1, false, false},
    {"table2", run_table2, false, false},
    {"table3", run_table3, false, false},
    {"table4", run_table4, false, false},
    {"table5", run_table5, true, true},
    {"table6", run_table6, true, true},
    {"experiment", run_experiment_kind, true, true},
    {"single", run_single, true, true},
    {"sweep", run_sweep, true, true},
    {"robustness", run_robustness, true, true},
};

const KindEntry* find_kind(const std::string& kind) {
  for (const KindEntry& entry : kKinds)
    if (kind == entry.name) return &entry;
  return nullptr;
}

const KindEntry& require_kind(const std::string& kind) {
  const KindEntry* entry = find_kind(kind);
  if (entry == nullptr) {
    std::string known;
    for (const KindEntry& k : kKinds)
      known += (known.empty() ? "" : ", ") + std::string(k.name);
    throw Error("unknown scenario kind '" + kind + "' (known: " + known +
                ")");
  }
  return *entry;
}

// ---- trace session -----------------------------------------------------

/// RunSession → TraceWriter bridge: every observed run becomes one
/// streamed chunk.
class TraceSession final : public RunSession {
 public:
  explicit TraceSession(TraceWriter& writer) : writer_(writer) {}
  void begin_matrix(std::size_t runs) override { writer_.begin_matrix(runs); }
  TraceSink* begin_run(std::size_t run, const RunMeta& meta) override {
    return writer_.begin_run(run, meta.entry, meta.algo, meta.cluster);
  }
  void end_run(std::size_t run, const RunOutcome& outcome) override {
    writer_.end_run(run, outcome.makespan);
  }

 private:
  TraceWriter& writer_;
};

/// RunSession wrapper driving the --progress heartbeat: forwards every
/// hook to the (possibly absent) inner session and ticks the meter on
/// each completed run.  The meter finishes (final paint + newline) in
/// the destructor, so every exit path closes the heartbeat line.
class ProgressSession final : public RunSession {
 public:
  explicit ProgressSession(RunSession* inner) : inner_(inner) {}
  void begin_matrix(std::size_t runs) override {
    if (inner_) inner_->begin_matrix(runs);
    meter_.emplace("runs", runs);
  }
  bool inject(std::size_t run, const RunMeta& meta, RunOutcome& out) override {
    if (!(inner_ && inner_->inject(run, meta, out))) return false;
    if (meter_) meter_->tick();
    return true;
  }
  TraceSink* begin_run(std::size_t run, const RunMeta& meta) override {
    return inner_ ? inner_->begin_run(run, meta) : nullptr;
  }
  void end_run(std::size_t run, const RunOutcome& outcome) override {
    if (inner_) inner_->end_run(run, outcome);
    if (meter_) meter_->tick();
  }

 private:
  RunSession* inner_;
  std::optional<obs::ProgressMeter> meter_;
};

/// Fills the model's metrics section with the *stable* registry
/// counters/gauges accumulated since `before` — deltas, so `--check`
/// repetitions (which share the process-wide registry) embed identical
/// values, and so the section reflects this build rather than whatever
/// ran earlier in the process.  Volatile counters and timers are
/// excluded by design: they differ across repetitions (warm per-thread
/// caches, wall time), which would break --check's byte comparison;
/// they stay visible in the standalone --metrics snapshot.
void fill_metrics(ReportModel& model, const obs::Snapshot& before) {
  const obs::Snapshot after = obs::snapshot();
  const auto delta = [](const std::vector<obs::Snapshot::Value>& b,
                        const std::string& name) -> std::uint64_t {
    for (const auto& v : b)
      if (v.name == name) return v.value;
    return 0;
  };
  model.metrics.clear();
  for (const auto& v : after.counters)
    model.metrics.push_back(report::MetricModel{
        v.name, static_cast<std::int64_t>(v.value - delta(before.counters,
                                                          v.name)),
        true});
  for (const auto& v : after.gauges)
    model.metrics.push_back(report::MetricModel{
        v.name, static_cast<std::int64_t>(v.value), true});
}

/// The canonical scenario text embedded in trace headers: artefact
/// paths are execution details (like `threads`), so the trace bytes do
/// not depend on where reports or the trace itself are written.  `csv`
/// only changes how the text report renders, so it is cleared too.
std::string canonical_spec_text(const ScenarioSpec& spec) {
  ScenarioSpec canonical = spec;
  canonical.output.csv = false;
  canonical.output.report_csv.clear();
  canonical.output.report_json.clear();
  canonical.output.trace.clear();
  // Compression wraps the finished stream, so a gzipped trace inflates
  // to the exact bytes of the plain trace — header included.
  canonical.output.trace_gzip = false;
  return emit_scenario(canonical);
}

ReportModel build_with(const KindEntry& entry, const ScenarioSpec& spec,
                       RunSession* session) {
  RATS_REQUIRE(spec.events.empty() || entry.consumes_events,
               "scenario kind '" + spec.kind +
                   "' does not consume an [events] timeline");
  ReportModel model;
  model.name = spec.name;
  model.kind = spec.kind;
  entry.fn(spec, model, session);
  return model;
}

/// The one build path: executes the kind once and returns its report,
/// with a TraceWriter streaming the runs into `trace` when given and
/// the --progress heartbeat when `progress`.  The metrics section is
/// filled from the stable counters this build moved.
ReportModel build_once(const KindEntry& entry, const ScenarioSpec& spec,
                       std::ostream* trace, bool progress) {
  const obs::Snapshot before =
      obs::metrics_enabled() ? obs::snapshot() : obs::Snapshot{};
  std::optional<TraceWriter> writer;
  std::optional<TraceSession> tracing;
  if (trace != nullptr) {
    writer.emplace(*trace, spec.name, spec.kind, canonical_spec_text(spec));
    tracing.emplace(*writer);
  }
  RunSession* session = tracing ? &*tracing : nullptr;
  std::optional<ProgressSession> heartbeat;
  if (progress) session = &heartbeat.emplace(session);
  ReportModel model = build_with(entry, spec, session);
  if (writer) writer->finish();
  heartbeat.reset();  // close the heartbeat line before any rendering
  if (obs::metrics_enabled()) fill_metrics(model, before);
  return model;
}

/// Probes every [output] destination for writability before any
/// simulation runs, so a bad path fails in milliseconds with the
/// spec's file:line instead of after the whole matrix.
void preflight_output(const ScenarioSpec& spec) {
  const auto probe = [&](const std::string& path, int line,
                         const char* what) {
    if (path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "ab");
    if (f == nullptr) {
      const std::string where =
          spec.origin.empty() || line <= 0
              ? std::string()
              : spec.origin + ":" + std::to_string(line) + ": ";
      throw Error(where + "cannot write " + what + " '" + path + "'");
    }
    std::fclose(f);
  };
  probe(spec.output.trace, spec.output.trace_line, "trace");
  probe(spec.output.report_csv, spec.output.report_csv_line, "report");
  probe(spec.output.report_json, spec.output.report_json_line, "report");
}

void write_artifact(const std::string& path, const std::string& bytes,
                    const char* what) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error(std::string("cannot write ") + what + " '" + path +
                        "'");
  out << bytes;
  out.close();
  // A full disk leaves the stream open-able but the write short; a
  // truncated artefact must not be reported as success.
  if (!out.good())
    throw Error(std::string("failed writing ") + what + " '" + path + "'");
  std::fprintf(stderr, "wrote %s %s\n", what, path.c_str());
}

}  // namespace

std::vector<std::string> kinds() {
  std::vector<std::string> names;
  for (const KindEntry& entry : kKinds) names.emplace_back(entry.name);
  return names;
}

bool kind_supports_trace(const std::string& kind) {
  const KindEntry* entry = find_kind(kind);
  return entry != nullptr && entry->traceable;
}

report::ReportModel build_report(const ScenarioSpec& spec,
                                 RunSession* session) {
  const KindEntry& entry = require_kind(spec.kind);
  RATS_REQUIRE(session == nullptr || entry.traceable,
               "scenario kind '" + spec.kind + "' does not support tracing");
  return build_with(entry, spec, session);
}

std::string render_trace(const ScenarioSpec& spec, unsigned threads) {
  const KindEntry& entry = require_kind(spec.kind);
  RATS_REQUIRE(entry.traceable,
               "scenario kind '" + spec.kind + "' does not support tracing");
  ScenarioSpec effective = spec;
  effective.threads = threads;
  std::ostringstream out;
  build_once(entry, effective, &out, false);  // the report is discarded
  return std::move(out).str();
}

void run(const ScenarioSpec& spec, const RunOptions& options) {
  ScenarioSpec effective = spec;
  if (options.has_threads) effective.threads = options.threads;
  if (options.csv) effective.output.csv = true;
  if (options.full) effective.workload.corpus.full = true;
  // Command-line paths have no spec line to point diagnostics at.
  if (!options.trace_path.empty()) {
    effective.output.trace = options.trace_path;
    effective.output.trace_line = 0;
  }
  if (!options.report_csv_path.empty()) {
    effective.output.report_csv = options.report_csv_path;
    effective.output.report_csv_line = 0;
  }
  if (!options.report_json_path.empty()) {
    effective.output.report_json = options.report_json_path;
    effective.output.report_json_line = 0;
  }

  const KindEntry& entry = require_kind(effective.kind);
  const std::string trace_path = effective.output.trace;
  // Reject an untraceable kind before spending the run on it.
  RATS_REQUIRE(trace_path.empty() || entry.traceable,
               "scenario kind '" + effective.kind +
                   "' does not support tracing");
  RATS_REQUIRE(options.check >= 1, "--check needs a repetition count >= 1");
  preflight_output(effective);

  // Observability switches.  --metrics turns the registry on for the
  // whole invocation; --profile starts span recording from a clean
  // buffer.  Neither touches stdout or the report/trace bytes.
  if (!options.metrics_path.empty()) obs::set_metrics_enabled(true);
  if (!options.profile_path.empty() && !obs::profiling_enabled()) {
    // Start from a clean buffer — unless the caller (the CLI) already
    // enabled profiling to cover earlier phases like the spec parse.
    obs::set_profiling_enabled(true);
    obs::clear_spans();
  }
  // The heartbeat rides the run-session hook chain, which only
  // traceable kinds invoke; the static table kinds finish in
  // milliseconds anyway.
  const bool want_progress = options.progress && entry.traceable;

  // ONE simulation pass: the report model accumulates while the trace
  // (when requested) streams through the per-run session hooks.  Under
  // --check the trace is buffered instead so repetitions can compare
  // its bytes; under --progress so the heartbeat owns stderr while runs
  // finish.  Buffered bytes stay uncompressed (the deterministic form
  // the repetitions compare); compression happens at the write.
  const bool compare = options.check > 1;
  const auto build = [&](std::string* trace_out) {
    if (trace_out == nullptr)
      return build_once(entry, effective, nullptr, want_progress);
    std::ostringstream out;
    ReportModel m = build_once(entry, effective, &out, want_progress);
    *trace_out = std::move(out).str();
    return m;
  };

  const bool gzip_trace = !trace_path.empty() && effective.output.trace_gzip;
  ReportModel model;
  std::string trace_bytes;
  if (trace_path.empty()) {
    model = build(nullptr);
  } else if (compare || want_progress) {
    model = build(&trace_bytes);
    write_artifact(trace_path,
                   gzip_trace ? gzip_compress(trace_bytes) : trace_bytes,
                   "trace");
  } else {
    std::ofstream file(trace_path, std::ios::binary);
    if (!file) throw Error("cannot write trace '" + trace_path + "'");
    std::optional<GzipOstream> gz;
    if (gzip_trace) gz.emplace(file);
    std::ostream& out = gz ? gz->stream() : static_cast<std::ostream&>(file);
    model = build_once(entry, effective, &out, false);
    if (gz) gz->finish();
    file.close();
    if (!file.good())
      throw Error("failed writing trace '" + trace_path + "'");
    std::fprintf(stderr, "wrote trace %s\n", trace_path.c_str());
  }

  const std::string text = [&] {
    obs::PhaseTimer span("render");
    return report::render_text(model, effective.output.csv);
  }();
  std::fputs(text.c_str(), stdout);
  if (!effective.output.report_csv.empty())
    write_artifact(effective.output.report_csv, report::render_csv(model),
                   "report");
  if (!effective.output.report_json.empty())
    write_artifact(effective.output.report_json, report::render_json(model),
                   "report");

  // --check N: repeat the whole pass and require every rendering — the
  // bytes a user could observe — to come back identical.
  for (int rep = 2; rep <= options.check; ++rep) {
    std::string trace2;
    const ReportModel again = build(trace_path.empty() ? nullptr : &trace2);
    const auto differs = [&](const char* what) {
      throw Error(strf("--check: %s differs between repetition 1 and %d",
                       what, rep));
    };
    if (report::render_text(again, effective.output.csv) != text)
      differs("text report");
    if (!trace_path.empty() && trace2 != trace_bytes) differs("trace");
    if (!effective.output.report_csv.empty() &&
        report::render_csv(again) != report::render_csv(model))
      differs("CSV report");
    if (!effective.output.report_json.empty() &&
        report::render_json(again) != report::render_json(model))
      differs("JSON report");
  }
  if (compare)
    std::fprintf(stderr, "check: %d repetitions produced identical output\n",
                 options.check);

  // Standalone observability artefacts, written last so they cover the
  // whole invocation (including --check repetitions).
  if (!options.metrics_path.empty())
    write_artifact(options.metrics_path,
                   obs::snapshot_json(obs::snapshot(), effective.name,
                                      effective.kind),
                   "metrics");
  if (!options.profile_path.empty())
    write_artifact(options.profile_path, obs::spans_json(), "profile");
}

ScenarioSpec default_spec(const std::string& kind) {
  require_kind(kind);
  ScenarioSpec spec;
  spec.name = kind;
  spec.kind = kind;
  spec.platform.presets = {"grillon"};
  if (kind == "fig4") {
    spec.workload.source = WorkloadSpec::Source::Family;
    spec.workload.family = "fft";
    spec.sweep.mindeltas = tuning_mindeltas();
    spec.sweep.maxdeltas = tuning_maxdeltas();
  } else if (kind == "fig5") {
    spec.workload.source = WorkloadSpec::Source::Family;
    spec.workload.family = "irregular";
    spec.workload.cap_per_family = 16;
    spec.sweep.minrhos = tuning_minrhos();
  } else if (kind == "fig6" || kind == "fig7") {
    spec.algorithms.preset = "tuned";
  } else if (kind == "table2" || kind == "table4") {
    spec.platform.presets = {"chti", "grillon", "grelon"};
    if (kind == "table4") spec.workload.cap_per_family = 6;
  } else if (kind == "table5" || kind == "table6") {
    spec.platform.presets = {"chti", "grillon", "grelon"};
    spec.workload.cap_per_family = 12;
    spec.algorithms.preset = "tuned";
  } else if (kind == "robustness") {
    // Table VI's setting plus a representative timeline: background
    // traffic on node 1's NIC, node 0 at half speed, node 2 failing
    // and restarting.  Node ids 0-2 are valid on every preset cluster.
    spec.platform.presets = {"chti", "grillon", "grelon"};
    spec.workload.cap_per_family = 12;
    spec.algorithms.preset = "tuned";
    spec.events.timeline.on_fail = FailPolicy::Reschedule;
    PlatformEvent slow;
    slow.at = 1.0;
    slow.kind = PlatformEventKind::NodeSlowdown;
    slow.node = 0;
    slow.factor = 0.5;
    PlatformEvent traffic;
    traffic.at = 2.0;
    traffic.kind = PlatformEventKind::LinkCapacity;
    traffic.node = 1;
    traffic.factor = 0.25;
    PlatformEvent fail;
    fail.at = 3.0;
    fail.kind = PlatformEventKind::NodeFail;
    fail.node = 2;
    PlatformEvent restart;
    restart.at = 6.0;
    restart.kind = PlatformEventKind::NodeRestart;
    restart.node = 2;
    spec.events.timeline.events = {slow, traffic, fail, restart};
  } else if (kind == "experiment") {
    spec.workload.source = WorkloadSpec::Source::Generate;
    spec.workload.generator = "layered";
    spec.workload.count = 3;
    spec.workload.dag.num_tasks = 40;
    spec.workload.dag.width = 0.5;
    spec.workload.dag.density = 0.5;
    spec.workload.dag.regularity = 0.5;
  } else if (kind == "single") {
    spec.workload.source = WorkloadSpec::Source::Generate;
    spec.workload.generator = "fft";
    spec.workload.count = 1;
    spec.workload.fft_k = 8;
    spec.algorithms.preset.clear();
    spec.algorithms.algos = {presets::naive_algos().back()};
  } else if (kind == "sweep") {
    spec.workload.source = WorkloadSpec::Source::Family;
    spec.workload.family = "fft";
    spec.sweep.base = "delta";
    spec.sweep.mindeltas = {-0.75, -0.5, -0.25, 0.0};
    spec.sweep.maxdeltas = {0.5, 1.0};
  }
  return spec;
}

}  // namespace rats::scenario
