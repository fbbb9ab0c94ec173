#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include <unistd.h>

#include "common/error.hpp"
#include "exp/session.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "passes.hpp"
#include "report/render.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "spans.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"

namespace ledger {

namespace {

using rats::scenario::ScenarioSpec;

/// Runs one (entry, algorithm) of a scenario the way run_scenario and
/// build_schedule do, but from outside the library so each layer call
/// gets its own span.  Healthy, untuned scenarios only.
class Injector {
 public:
  explicit Injector(const ScenarioSpec& spec)
      : entries_(spec.workload.resolve()),
        cluster_(spec.platform.resolve_one()) {
    RATS_REQUIRE(!spec.algorithms.tuned() && spec.events.empty(),
                 "the traced pass mirrors untuned, healthy scenarios only");
    for (const rats::CorpusEntry& e : entries_) by_name_[e.name] = &e;
    for (const rats::AlgoSpec& a :
         spec.algorithms.resolve(rats::DagFamily::Irregular, cluster_.name()))
      algos_[a.name] = a.options;
  }

  rats::RunOutcome run(std::size_t run, const rats::RunMeta& meta,
                       rats::TraceWriter* writer) {
    const rats::TaskGraph& graph = by_name_.at(meta.entry)->graph;
    const rats::SchedulerOptions& options = algos_.at(meta.algo);
    rats::AllocationOptions alloc_opts;
    rats::MappingOptions map_opts;
    map_opts.secondary_sort = options.secondary_sort;
    map_opts.mindelta = options.rats.mindelta;
    map_opts.maxdelta = options.rats.maxdelta;
    map_opts.minrho = options.rats.minrho;
    map_opts.packing = options.rats.packing;
    switch (options.kind) {
      case rats::SchedulerKind::Cpa:
        alloc_opts.kind = rats::AllocationKind::Cpa;
        break;
      case rats::SchedulerKind::Mcpa:
        alloc_opts.kind = rats::AllocationKind::Mcpa;
        break;
      case rats::SchedulerKind::Hcpa:
        break;
      case rats::SchedulerKind::RatsDelta:
        map_opts.mode = rats::MappingMode::Delta;
        break;
      case rats::SchedulerKind::RatsTimeCost:
        map_opts.mode = rats::MappingMode::TimeCost;
        break;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      allocation_keys_.emplace(meta.entry, static_cast<int>(alloc_opts.kind));
    }
    const rats::Allocation allocation = [&] {
      Span span("sched.allocate");
      return rats::allocate(graph, cluster_, alloc_opts);
    }();
    const rats::Schedule schedule = [&] {
      Span span("sched.map");
      return rats::map_tasks(graph, cluster_, allocation, map_opts);
    }();
    rats::SimulatorOptions sim;
    if (writer)
      sim.trace = writer->begin_run(run, meta.entry, meta.algo, meta.cluster);
    const rats::SimulationResult result = [&] {
      Span span("sim.simulate");
      return rats::simulate(graph, schedule, cluster_, sim);
    }();
    rats::note_simulated_run();
    const rats::RunOutcome out{result.makespan, result.total_work,
                               result.faults};
    if (writer) {
      Span span("trace.end_run");
      writer->end_run(run, out.makespan);
    }
    return out;
  }

  /// Distinct (entry, allocation kind) keys: the allocations a
  /// per-matrix memo would compute.
  std::size_t unique_allocations() const { return allocation_keys_.size(); }

 private:
  std::vector<rats::CorpusEntry> entries_;
  rats::Cluster cluster_;
  std::map<std::string, const rats::CorpusEntry*> by_name_;
  std::map<std::string, rats::SchedulerOptions> algos_;
  std::mutex mu_;
  std::set<std::pair<std::string, int>> allocation_keys_;
};

/// Observes one report build: when the run matrix starts, and
/// (trace-roundtrip) bridges runs to the trace writer like the CLI's own
/// trace session.  With an injector the runs are executed here instead
/// of by the library, and each one's start and end are kept.
class PassSession final : public rats::RunSession {
 public:
  PassSession(rats::TraceWriter* writer, Injector* injector)
      : writer_(writer), injector_(injector) {}

  void begin_matrix(std::size_t runs) override {
    if (writer_) writer_->begin_matrix(runs);
    runs_ = runs;
    times_.assign(runs, {0.0, 0.0});
    cpu0_ = self_usage().cpu_s;
    start_ = now_s();
  }
  bool inject(std::size_t run, const rats::RunMeta& meta,
              rats::RunOutcome& out) override {
    if (injector_ == nullptr) return false;
    const double t0 = now_s();
    out = injector_->run(run, meta, writer_);
    times_[run] = {t0, now_s()};  // disjoint slots: thread-safe
    return true;
  }
  rats::TraceSink* begin_run(std::size_t run,
                             const rats::RunMeta& meta) override {
    return writer_ ? writer_->begin_run(run, meta.entry, meta.algo,
                                        meta.cluster)
                   : nullptr;
  }
  void end_run(std::size_t run, const rats::RunOutcome& outcome) override {
    if (writer_) writer_->end_run(run, outcome.makespan);
  }

  std::size_t runs() const { return runs_; }
  double start() const { return start_; }
  double cpu0() const { return cpu0_; }
  const std::vector<std::pair<double, double>>& times() const {
    return times_;
  }

 private:
  rats::TraceWriter* writer_;
  Injector* injector_;
  std::size_t runs_ = 0;
  std::vector<std::pair<double, double>> times_;
  double start_ = 0;
  double cpu0_ = 0;
};

}  // namespace

Record batch_setup(const std::vector<std::string>& spec_texts, int reps,
                   double seconds) {
  Record r;
  const double start = now_s();
  for (int i = 0; i < reps || now_s() - start < seconds; ++i) {
    double parse = 0, build = 0, tasks = 0;
    const double t0 = now_s();
    for (const std::string& text : spec_texts) {
      const double t1 = now_s();
      const ScenarioSpec spec =
          rats::scenario::parse_scenario_string(text, "<ledger>");
      const double t2 = now_s();
      const std::vector<rats::CorpusEntry> entries = spec.workload.resolve();
      const double t3 = now_s();
      (void)spec.platform.resolve_one();
      parse += t2 - t1;
      build += t3 - t2;
      for (const rats::CorpusEntry& e : entries) tasks += e.graph.num_tasks();
    }
    r.vec["setup_s"].push_back(now_s() - t0);
    r.vec["parse_s"].push_back(parse);
    r.vec["build_s"].push_back(build);
    r.num["tasks"] = tasks;
  }
  return r;
}

Record reference_pass(const std::vector<std::string>& spec_texts,
                      bool counts) {
  if (counts) rats::obs::set_metrics_enabled(true);
  const rats::obs::Snapshot before = rats::obs::snapshot();
  Record r;
  for (std::size_t i = 0; i < spec_texts.size(); ++i) {
    ScenarioSpec spec =
        rats::scenario::parse_scenario_string(spec_texts[i], "<ledger>");
    spec.threads = 1;
    const std::uint64_t runs0 = rats::simulated_run_count();
    const std::string json =
        rats::report::render_json(rats::scenario::build_report(spec));
    r.text["digest" + std::to_string(i)] = digest(json);
    r.num["runs" + std::to_string(i)] =
        static_cast<double>(rats::simulated_run_count() - runs0);
  }
  if (counts)
    for (const auto& [name, v] : obs_delta(before, rats::obs::snapshot()))
      r.num["obs." + name] = v;
  return r;
}

Record batch_pass(const std::string& workload, const std::string& spec_text,
                  const std::string& tmp_dir, bool traced) {
  const ScenarioSpec spec =
      rats::scenario::parse_scenario_string(spec_text, "<ledger>");
  std::unique_ptr<Injector> injector;
  if (traced) {
    rats::obs::set_metrics_enabled(true);
    rats::obs::set_profiling_enabled(true);
    rats::obs::clear_spans();
    spans_enable();
    injector = std::make_unique<Injector>(spec);
  }
  const bool writes_trace = workload == "trace-roundtrip";
  const std::string path =
      tmp_dir + "/trace-" + std::to_string(::getpid()) + ".jsonl";
  std::ofstream file;
  std::unique_ptr<rats::TraceWriter> writer;
  struct RemoveOnExit {
    const std::string& path;
    bool armed;
    ~RemoveOnExit() {
      if (armed) std::remove(path.c_str());
    }
  } remove_trace{path, writes_trace};
  if (writes_trace) {
    file.open(path, std::ios::binary);
    RATS_REQUIRE(file.good(), "cannot write trace '" + path + "'");
    writer = std::make_unique<rats::TraceWriter>(
        file, spec.name, spec.kind, rats::scenario::emit_scenario(spec));
  }
  PassSession session(writer.get(), injector.get());

  Record r;
  const rats::obs::Snapshot before =
      traced ? rats::obs::snapshot() : rats::obs::Snapshot{};
  const double cpu_build = self_usage().cpu_s;
  const double t_build = now_s();
  const rats::report::ReportModel model =
      rats::scenario::build_report(spec, &session);
  const std::string json = [&] {
    Span span("report.render");
    return rats::report::render_json(model);
  }();
  if (traced) {
    // The program's own counters and profile spans cover the report
    // build only; the verify below re-simulates and is its own layer.
    const rats::obs::Snapshot after = rats::obs::snapshot();
    for (const auto& [name, v] : obs_delta(before, after))
      r.num["obs." + name] = v;
    rats::obs::set_profiling_enabled(false);
    Span span("report.parse");
    (void)rats::report::parse_json(json);
  }
  if (writes_trace) {
    writer->finish();
    file.close();
    RATS_REQUIRE(file.good(), "failed writing trace '" + path + "'");
    r.num["trace_events"] = static_cast<double>(writer->total_events());
    std::ifstream sized(path, std::ios::binary | std::ios::ate);
    r.num["trace_bytes"] = static_cast<double>(sized.tellg());
    const double cpu_verify = self_usage().cpu_s;
    const rats::ReplayReport replay = [&] {
      Span span("trace.verify");
      return rats::verify_trace(path, spec.threads);
    }();
    r.num["verify_cpu_s"] = self_usage().cpu_s - cpu_verify;
    r.num["verify_ok"] = replay.ok ? 1 : 0;
    r.num["replay_events"] = static_cast<double>(replay.events);
    if (!replay.ok) r.text["verify_error"] = replay.error;
  }
  const double t_end = now_s();
  const double cpu_end = self_usage().cpu_s;
  r.num["cpu_s"] = cpu_end - session.cpu0();
  r.num["cpu_pass_s"] = cpu_end - cpu_build;
  r.num["wall_s"] = t_end - session.start();
  r.num["pre_matrix_s"] = session.start() - t_build;
  r.num["runs"] = static_cast<double>(session.runs());
  r.num["report_bytes"] = static_cast<double>(json.size());
  r.text["digest"] = digest(json);
  if (traced) {
    double busy = 0, last_start = 0, last_end = 0;
    for (const auto& [begin, end] : session.times()) {
      busy += end - begin;
      last_start = std::max(last_start, begin);
      last_end = std::max(last_end, end);
    }
    // Folded after the clock stopped: parsing the profile is the
    // benchmark's own cost, not the program's.
    for (const auto& [name, t] : profile_totals()) {
      r.num["prof." + name + ".total"] = t.total_s;
      r.num["prof." + name + ".count"] = static_cast<double>(t.count);
    }
    for (const auto& [name, t] : span_totals()) {
      r.num["span." + name + ".total"] = t.total_s;
      r.num["span." + name + ".self"] = t.self_s;
      r.num["span." + name + ".count"] = static_cast<double>(t.count);
    }
    r.num["allocate_unique"] =
        static_cast<double>(injector->unique_allocations());
    r.num["threads"] = spec.threads;
    r.num["exp_busy_s"] = busy;
    r.num["exp_matrix_s"] = last_end - session.start();
    r.num["exp_tail_s"] = last_end - last_start;
  }
  return r;
}

}  // namespace ledger
