#include "common/error.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "passes.hpp"
#include "report/render.hpp"
#include "scenario/parser.hpp"
#include "serve/shard.hpp"
#include "spans.hpp"

namespace ledger {

Record serve_replay_pass(const std::vector<std::string>& specs,
                         std::size_t shards) {
  rats::obs::set_metrics_enabled(true);
  rats::obs::set_profiling_enabled(true);
  rats::obs::clear_spans();
  const rats::obs::Snapshot before = rats::obs::snapshot();
  const double cpu0 = self_usage().cpu_s;
  Record r;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string n = std::to_string(i);
    double t = now_s();
    const auto lap = [&t] {
      const double now = now_s();
      const double dt = now - t;
      t = now;
      return dt;
    };
    const rats::scenario::ScenarioSpec spec =
        rats::scenario::parse_scenario_string(specs[i], "<ledger>");
    r.num["parse_spec_s" + n] = lap();
    double tasks = 0;
    for (const rats::CorpusEntry& e : spec.workload.resolve())
      tasks += e.graph.num_tasks();
    r.num["build_s" + n] = lap();
    r.num["tasks" + n] = tasks;

    // What the daemon and its workers do for one job, in order.
    const rats::serve::ShardPlan plan = rats::serve::plan_shards(spec, shards);
    r.num["plan_s" + n] = lap();
    std::vector<std::string> payloads;
    for (const rats::serve::ShardRange& s : plan.shards)
      payloads.push_back(
          plan.sharded ? rats::serve::run_shard_payload(spec, s.begin, s.end,
                                                        plan.total_runs)
                       : rats::serve::run_whole_payload(spec));
    r.num["shard_s" + n] = lap();
    std::string merged;
    if (plan.sharded) {
      std::vector<rats::RunOutcome> outcomes(plan.total_runs);
      for (const std::string& payload : payloads) {
        const rats::serve::ShardOutcomes parsed =
            rats::serve::parse_shard_payload(payload);
        std::copy(parsed.outcomes.begin(), parsed.outcomes.end(),
                  outcomes.begin() + static_cast<std::ptrdiff_t>(parsed.begin));
      }
      merged = rats::serve::merge_report_json(spec, outcomes);
    } else {
      merged = rats::report::render_json(
          rats::report::parse_json(payloads.front()));
    }
    r.num["merge_s" + n] = lap();
    double bytes = 0;
    for (const std::string& payload : payloads)
      bytes += static_cast<double>(payload.size());
    r.num["payload_bytes" + n] = bytes;
    r.num["shards" + n] = static_cast<double>(payloads.size());
    r.text["digest" + n] = digest(merged);

    // The report layer on its own: the round trip of the merged JSON.
    const rats::report::ReportModel model = rats::report::parse_json(merged);
    r.num["parse_s" + n] = lap();
    const std::string again = rats::report::render_json(model);
    r.num["render_s" + n] = lap();
    RATS_REQUIRE(again == merged, "report JSON round trip is not exact");
    r.num["report_bytes" + n] = static_cast<double>(merged.size());
  }
  r.num["cpu_s"] = self_usage().cpu_s - cpu0;
  for (const auto& [name, v] : obs_delta(before, rats::obs::snapshot()))
    r.num["obs." + name] = v;
  for (const auto& [name, t] : profile_totals()) {
    r.num["prof." + name + ".total"] = t.total_s;
    r.num["prof." + name + ".count"] = static_cast<double>(t.count);
  }
  return r;
}

}  // namespace ledger
