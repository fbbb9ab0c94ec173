#include "serve/shard.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "exp/session.hpp"
#include "report/render.hpp"
#include "scenario/registry.hpp"
#include "trace/trace.hpp"

namespace rats::serve {

namespace {

/// The outcome injected into runs a pass does not simulate.  Strictly
/// positive: the report aggregators divide by reference makespans
/// (relative_series requires them > 0).  The values never reach a
/// merged report — plan-pass reports are discarded and shard-pass
/// reports only donate the runs the worker actually simulated.
RunOutcome placeholder() {
  RunOutcome out;
  out.makespan = 1.0;
  out.work = 1.0;
  return out;
}

/// Shard pass: simulate [begin, end), inject everywhere else.  The
/// plan pass is the empty shard [0, 0): it simulates nothing and only
/// records the matrix size.
class ShardSession final : public RunSession {
 public:
  ShardSession(std::size_t begin, std::size_t end)
      : begin_(begin), end_(end), outcomes_(end - begin) {}

  void begin_matrix(std::size_t runs) override { runs_ = runs; }
  bool inject(std::size_t run, const RunMeta&, RunOutcome& out) override {
    if (run >= begin_ && run < end_) return false;
    out = placeholder();
    return true;
  }
  TraceSink* begin_run(std::size_t, const RunMeta&) override {
    return nullptr;
  }
  void end_run(std::size_t run, const RunOutcome& outcome) override {
    RATS_REQUIRE(run >= begin_ && run < end_,
                 "shard session observed a run outside its shard");
    outcomes_[run - begin_] = outcome;  // disjoint slots: thread-safe
  }

  std::size_t runs() const { return runs_; }
  std::vector<RunOutcome> take() { return std::move(outcomes_); }

 private:
  std::size_t begin_;
  std::size_t end_;
  std::size_t runs_ = 0;
  std::vector<RunOutcome> outcomes_;
};

/// Replay pass: inject every recorded outcome.
class ReplaySession final : public RunSession {
 public:
  explicit ReplaySession(const std::vector<RunOutcome>& outcomes)
      : outcomes_(outcomes) {}

  void begin_matrix(std::size_t runs) override {
    RATS_REQUIRE(runs == outcomes_.size(),
                 "merge: outcome count does not match the run matrix");
  }
  bool inject(std::size_t run, const RunMeta&, RunOutcome& out) override {
    RATS_REQUIRE(run < outcomes_.size(), "merge: run index out of range");
    out = outcomes_[run];
    return true;
  }
  TraceSink* begin_run(std::size_t, const RunMeta&) override {
    return nullptr;
  }
  void end_run(std::size_t, const RunOutcome&) override {}

 private:
  const std::vector<RunOutcome>& outcomes_;
};

report::Cell num_cell(double value) {
  return report::cell(value, trace_double(value));
}

}  // namespace

bool kind_shardable(const std::string& kind) {
  // Traceable kinds drive every run through the RunSession seam —
  // except "single", whose report consumes per-task timelines the
  // outcome matrix does not carry.
  return scenario::kind_supports_trace(kind) && kind != "single";
}

ShardPlan plan_shards(const scenario::ScenarioSpec& spec,
                      std::size_t max_shards) {
  ShardPlan plan;
  if (!kind_shardable(spec.kind)) {
    // Validate up front anyway: an unknown kind must fail at submit,
    // not inside a worker.
    const std::vector<std::string> known = scenario::kinds();
    RATS_REQUIRE(
        std::find(known.begin(), known.end(), spec.kind) != known.end(),
        "unknown scenario kind '" + spec.kind + "'");
    plan.shards.push_back(ShardRange{0, 0});
    return plan;
  }
  scenario::ScenarioSpec dry = spec;
  dry.threads = 1;  // no pool threads: keeps the daemon fork-safe
  ShardSession session(0, 0);
  (void)scenario::build_report(dry, &session);
  plan.sharded = true;
  plan.total_runs = session.runs();
  RATS_REQUIRE(plan.total_runs > 0, "scenario has an empty run matrix");
  const std::size_t n = plan.total_runs;
  const std::size_t count = std::min(std::max<std::size_t>(max_shards, 1), n);
  for (std::size_t i = 0; i < count; ++i) {
    const ShardRange r{i * n / count, (i + 1) * n / count};
    if (r.begin < r.end) plan.shards.push_back(r);
  }
  return plan;
}

std::string run_shard_payload(const scenario::ScenarioSpec& spec,
                              std::size_t begin, std::size_t end,
                              std::size_t total) {
  RATS_REQUIRE(begin < end && end <= total, "bad shard range");
  ShardSession session(begin, end);
  (void)scenario::build_report(spec, &session);
  RATS_REQUIRE(session.runs() == total,
               "worker run matrix disagrees with the shard plan");
  const std::vector<RunOutcome> outcomes = session.take();

  report::ReportModel payload;
  payload.name = spec.name;
  payload.kind = "serve-shard";
  payload.scalar("begin", static_cast<double>(begin));
  payload.scalar("total", static_cast<double>(total));
  report::TableModel& table = payload.table(
      "outcomes", {{"makespan", report::ColumnType::Number},
                   {"work", report::ColumnType::Number},
                   {"tasks_killed", report::ColumnType::Number},
                   {"tasks_remapped", report::ColumnType::Number},
                   {"redists_aborted", report::ColumnType::Number},
                   {"capacity_seconds_lost", report::ColumnType::Number},
                   {"node_seconds_down", report::ColumnType::Number}});
  for (const RunOutcome& o : outcomes) {
    table.rows.push_back({num_cell(o.makespan), num_cell(o.work),
                          num_cell(o.faults.tasks_killed),
                          num_cell(o.faults.tasks_remapped),
                          num_cell(o.faults.redists_aborted),
                          num_cell(o.faults.capacity_seconds_lost),
                          num_cell(o.faults.node_seconds_down)});
  }
  return report::render_json(payload);
}

std::string run_whole_payload(const scenario::ScenarioSpec& spec) {
  return report::render_json(scenario::build_report(spec));
}

ShardOutcomes parse_shard_payload(const std::string& payload) {
  const report::ReportModel model = report::parse_json(payload);
  RATS_REQUIRE(model.kind == "serve-shard",
               "shard payload has wrong kind '" + model.kind + "'");
  ShardOutcomes result;
  const report::TableModel* table = model.find_table("outcomes");
  RATS_REQUIRE(table != nullptr, "shard payload misses the outcomes table");
  for (const report::Item& item : model.items)
    if (item.kind == report::Item::Kind::Scalar &&
        item.scalar.id == "begin")
      result.begin = static_cast<std::size_t>(item.scalar.num);
  result.outcomes.reserve(table->rows.size());
  for (const auto& row : table->rows) {
    RATS_REQUIRE(row.size() == 7, "shard payload row has wrong width");
    RunOutcome o;
    o.makespan = row[0].num;
    o.work = row[1].num;
    o.faults.tasks_killed = static_cast<std::int32_t>(row[2].num);
    o.faults.tasks_remapped = static_cast<std::int32_t>(row[3].num);
    o.faults.redists_aborted = static_cast<std::int32_t>(row[4].num);
    o.faults.capacity_seconds_lost = row[5].num;
    o.faults.node_seconds_down = row[6].num;
    result.outcomes.push_back(o);
  }
  return result;
}

std::string merge_report_json(const scenario::ScenarioSpec& spec,
                              const std::vector<RunOutcome>& outcomes) {
  scenario::ScenarioSpec replay = spec;
  replay.threads = 1;  // no pool threads: keeps the daemon fork-safe
  ReplaySession session(outcomes);
  return report::render_json(scenario::build_report(replay, &session));
}

}  // namespace rats::serve
