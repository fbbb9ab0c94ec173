#include "layers.hpp"

#include <algorithm>
#include <cstdio>

#include "common/format.hpp"

namespace ledger {

namespace {

double get(const Record& rec, const std::string& key) {
  const auto it = rec.num.find(key);
  return it == rec.num.end() ? 0.0 : it->second;
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

Layers zeroed() {
  Layers l;
  for (const MetricDef& m : layer_metrics()) l[m.name] = 0;
  return l;
}

/// redist.* from the planner's lookup counters (mapper and simulator
/// lookups both) and the program's "redist/plan" profile span.
void redist_layers(const Record& rec, Layers& l) {
  l["redist.plan_s"] = get(rec, "prof.redist/plan.total");
  l["redist.plan_hits"] =
      get(rec, "obs.redist/plan/hits") + get(rec, "obs.redist/plan/sim_hits");
  l["redist.plan_misses"] = get(rec, "obs.redist/plan/misses") +
                            get(rec, "obs.redist/plan/sim_misses");
  l["redist.plan_hit_ratio"] =
      ratio(l["redist.plan_hits"], l["redist.plan_hits"] + l["redist.plan_misses"]);
}

/// net times and sim.self_s, once sim.simulate_s and redist are known.
void solver_layers(const Record& rec, Layers& l) {
  for (const auto& [name, v] : work_counts(rec)) l[name] = v;
  l["net.warm_s"] = get(rec, "obs.net/solve/warm_time.ns") * 1e-9;
  l["net.cold_s"] = get(rec, "obs.net/solve/cold_time.ns") * 1e-9;
  l["sim.self_s"] = l["sim.simulate_s"] - l["net.warm_s"] - l["net.cold_s"] -
                    l["redist.plan_s"];
}

}  // namespace

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"scenario.parse_s", "s"},
      {"daggen.build_s", "s"},
      {"daggen.tasks", "count"},
      {"sched.allocate_s", "s"},
      {"sched.allocate_calls", "count"},
      {"sched.allocate_unique", "count"},
      {"sched.map_s", "s"},
      {"sched.map_calls", "count"},
      {"redist.plan_s", "s"},
      {"redist.plan_hits", "count"},
      {"redist.plan_misses", "count"},
      {"redist.plan_hit_ratio", "ratio"},
      {"sim.simulate_s", "s"},
      {"sim.self_s", "s"},
      {"sim.tasks", "count"},
      {"sim.redists", "count"},
      {"net.warm_solves", "count"},
      {"net.warm_s", "s"},
      {"net.warm_declined", "count"},
      {"net.cold_solves", "count"},
      {"net.cold_s", "s"},
      {"net.bipartite_solves", "count"},
      {"net.general_solves", "count"},
      {"net.settles_cone", "count"},
      {"net.settles_kept", "count"},
      {"net.warm_reuse_ratio", "ratio"},
      {"trace.encode_s", "s"},
      {"trace.events", "count"},
      {"trace.bytes", "bytes"},
      {"trace.bytes_per_event", "bytes"},
      {"trace.replay_s", "s"},
      {"trace.replay_events", "count"},
      {"report.render_s", "s"},
      {"report.parse_s", "s"},
      {"report.bytes", "bytes"},
      {"exp.busy_frac", "ratio"},
      {"exp.tail_s", "s"},
      {"serve.job_latency_p50_ms", "ms"},
      {"serve.job_latency_p90_ms", "ms"},
      {"serve.submit_ms", "ms"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.run_ms", "ms"},
      {"serve.fetch_ms", "ms"},
      {"serve.plan_s", "s"},
      {"serve.shard_s", "s"},
      {"serve.merge_s", "s"},
      {"serve.payload_bytes", "bytes"},
      {"serve.shards_dispatched", "count"},
      {"serve.shards_retried", "count"},
      {"serve.jobs_rejected", "count"},
      {"serve.worker_restarts", "count"},
      {"loadgen.lag_max_ms", "ms"},
      {"ledger.layers_self_s", "s"},
      {"ledger.pass_cpu_s", "s"},
      {"ledger.tracing_overhead", "ratio"},
  };
  return defs;
}

const std::vector<std::string>& stable_counts() {
  static const std::vector<std::string> names = {
      "sim.tasks",          "sim.redists",          "net.warm_solves",
      "net.cold_solves",    "net.bipartite_solves", "net.general_solves",
      "net.settles_cone",   "net.settles_kept",     "sched.allocate_calls",
      "sched.map_calls",    "trace.events",         "trace.bytes"};
  return names;
}

Layers work_counts(const Record& rec) {
  Layers l;
  l["sim.tasks"] = get(rec, "obs.sim/tasks_executed");
  l["sim.redists"] = get(rec, "obs.sim/redists_opened");
  l["net.warm_solves"] = get(rec, "obs.net/solve/warm");
  l["net.warm_declined"] = get(rec, "obs.net/warm/declined");
  l["net.bipartite_solves"] = get(rec, "obs.net/solve/bipartite");
  l["net.general_solves"] = get(rec, "obs.net/solve/general");
  l["net.cold_solves"] = l["net.bipartite_solves"] + l["net.general_solves"];
  l["net.settles_cone"] = get(rec, "obs.net/warm/settles_cone");
  l["net.settles_kept"] = get(rec, "obs.net/warm/settles_kept");
  l["net.warm_reuse_ratio"] =
      ratio(l["net.settles_kept"], l["net.settles_kept"] + l["net.settles_cone"]);
  return l;
}

Layers batch_layers(const Record& pass, const Record& setup) {
  Layers l = zeroed();
  const auto vec = [&setup](const char* key) {
    const auto it = setup.vec.find(key);
    return it == setup.vec.end() ? 0.0 : median(it->second);
  };
  l["scenario.parse_s"] = vec("parse_s");
  l["daggen.build_s"] = vec("build_s");
  l["daggen.tasks"] = get(setup, "tasks");
  l["sched.allocate_s"] = get(pass, "span.sched.allocate.total");
  l["sched.allocate_calls"] = get(pass, "span.sched.allocate.count");
  l["sched.allocate_unique"] = get(pass, "allocate_unique");
  l["sched.map_s"] = get(pass, "span.sched.map.total");
  l["sched.map_calls"] = get(pass, "span.sched.map.count");
  redist_layers(pass, l);
  l["sim.simulate_s"] = get(pass, "span.sim.simulate.total");
  solver_layers(pass, l);
  l["trace.encode_s"] = get(pass, "span.trace.end_run.total");
  l["trace.events"] = get(pass, "trace_events");
  l["trace.bytes"] = get(pass, "trace_bytes");
  l["trace.bytes_per_event"] = ratio(l["trace.bytes"], l["trace.events"]);
  l["trace.replay_s"] = get(pass, "span.trace.verify.total");
  l["trace.replay_events"] = get(pass, "replay_events");
  l["report.render_s"] = get(pass, "span.report.render.total");
  l["report.parse_s"] = get(pass, "span.report.parse.total");
  l["report.bytes"] = get(pass, "report_bytes");
  l["exp.busy_frac"] = ratio(get(pass, "exp_busy_s"),
                             get(pass, "threads") * get(pass, "exp_matrix_s"));
  l["exp.tail_s"] = get(pass, "exp_tail_s");
  // The pass's own corpus build (before the matrix starts) stands in
  // for daggen, and the verify counts with its CPU time, as it runs on
  // the pass's threads; every other term is a span around a layer call.
  l["ledger.layers_self_s"] =
      get(pass, "pre_matrix_s") + l["sched.allocate_s"] + l["sched.map_s"] +
      l["sim.simulate_s"] + l["trace.encode_s"] + get(pass, "verify_cpu_s") +
      l["report.render_s"] + l["report.parse_s"];
  l["ledger.pass_cpu_s"] = get(pass, "cpu_pass_s");
  return l;
}

Layers serve_layers(const Record& replay, const ServeResult& live,
                    std::size_t jobs) {
  Layers l = zeroed();
  const auto mean = [&](const char* key) {
    double sum = 0;
    for (std::size_t i = 0; i < jobs; ++i)
      sum += get(replay, key + std::to_string(i));
    return jobs > 0 ? sum / static_cast<double>(jobs) : 0.0;
  };
  l["scenario.parse_s"] = median(live.parse_s);
  l["daggen.build_s"] = mean("build_s");
  l["daggen.tasks"] = mean("tasks");
  l["sched.allocate_s"] = get(replay, "prof.schedule/allocate.total");
  l["sched.allocate_calls"] = get(replay, "prof.schedule/allocate.count");
  l["sched.map_s"] = get(replay, "prof.schedule/map.total");
  l["sched.map_calls"] = get(replay, "prof.schedule/map.count");
  redist_layers(replay, l);
  l["sim.simulate_s"] = get(replay, "prof.simulate.total");
  solver_layers(replay, l);
  l["report.render_s"] = mean("render_s");
  l["report.parse_s"] = mean("parse_s");
  l["report.bytes"] = mean("report_bytes");
  l["serve.job_latency_p50_ms"] = quantile(live.latency_ms, 0.5);
  l["serve.job_latency_p90_ms"] = quantile(live.latency_ms, 0.9);
  l["serve.submit_ms"] = median(live.submit_ms);
  l["serve.queue_wait_ms"] = median(live.queue_wait_ms);
  l["serve.run_ms"] = median(live.run_ms);
  l["serve.fetch_ms"] = median(live.fetch_ms);
  l["serve.plan_s"] = mean("plan_s");
  l["serve.shard_s"] = mean("shard_s");
  l["serve.merge_s"] = mean("merge_s");
  l["serve.payload_bytes"] = mean("payload_bytes");
  l["serve.shards_dispatched"] = live.shards_dispatched;
  l["serve.shards_retried"] = live.shards_retried;
  l["serve.jobs_rejected"] = live.jobs_rejected;
  l["serve.worker_restarts"] = live.worker_restarts;
  l["loadgen.lag_max_ms"] = live.lag_max_ms;
  double self = 0;
  for (const char* key :
       {"parse_spec_s", "build_s", "plan_s", "shard_s", "merge_s", "parse_s",
        "render_s"})
    self += mean(key) * static_cast<double>(jobs);
  l["ledger.layers_self_s"] = self;
  l["ledger.pass_cpu_s"] = get(replay, "cpu_s");
  return l;
}

Layers combine(const std::vector<Layers>& passes,
               std::vector<std::string>& errors) {
  Layers out;
  if (passes.empty()) return zeroed();
  const std::vector<std::string>& stable = stable_counts();
  for (const auto& [name, first] : passes.front()) {
    std::vector<double> values;
    for (const Layers& p : passes) values.push_back(p.at(name));
    const bool is_stable =
        std::find(stable.begin(), stable.end(), name) != stable.end();
    if (is_stable)
      for (double v : values)
        if (v != first) {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "%s differs between traced passes: %.0f vs %.0f",
                        name.c_str(), first, v);
          errors.push_back(buf);
          break;
        }
    out[name] = is_stable ? first : median(values);
  }
  return out;
}

void check_against(const Layers& got, const Layers& reference,
                   const std::string& what, std::vector<std::string>& errors) {
  for (const auto& [name, want] : reference) {
    const std::vector<std::string>& stable = stable_counts();
    if (std::find(stable.begin(), stable.end(), name) == stable.end())
      continue;
    const double have = got.count(name) ? got.at(name) : 0;
    if (have != want) {
      char buf[200];
      std::snprintf(buf, sizeof buf, "%s = %.0f, but %.0f in %s", name.c_str(),
                    have, want, what.c_str());
      errors.push_back(buf);
    }
  }
}

void print_layer_report(const std::string& workload, std::uint64_t seed,
                        const std::vector<Layers>& passes,
                        const Layers& c, double untraced_wall_s,
                        double traced_wall_s, double pass_cpu_s,
                        const std::string& notes) {
  const auto v = [&c](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  const auto spread = [&passes](const char* name) {
    double lo = 0, hi = 0;
    bool first = true;
    for (const Layers& p : passes) {
      const double x = p.at(name);
      lo = first ? x : std::min(lo, x);
      hi = first ? x : std::max(hi, x);
      first = false;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4g..%.4g", lo, hi);
    return std::string(buf);
  };
  std::printf("== layer report: %s, seed %llu, %zu traced pass(es), medians ==\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              passes.size());
  if (!notes.empty()) std::printf("%s\n", notes.c_str());
  std::printf("%-9s %9s  %s\n", "layer", "self_s",
              "counts and ratios (ratio = part / base)");
  std::printf("%-9s %9.3g  spec text parse (set-up)\n", "scenario",
              v("scenario.parse_s"));
  std::printf("%-9s %9.3g  workload build, %.0f tasks (set-up)\n", "daggen",
              v("daggen.build_s"), v("daggen.tasks"));
  const std::string unique =
      v("sched.allocate_unique") > 0
          ? rats::strf("%.0f distinct (entry, kind) -> %.2f calls per "
                       "distinct allocation",
                       v("sched.allocate_unique"),
                       ratio(v("sched.allocate_calls"),
                             v("sched.allocate_unique")))
          : std::string("distinct allocations not counted here");
  std::printf(
      "%-9s %9.4f  allocate %.4f s over %.0f calls, %s; map %.4f s over %.0f "
      "calls\n",
      "sched", v("sched.allocate_s") + v("sched.map_s"), v("sched.allocate_s"),
      v("sched.allocate_calls"), unique.c_str(), v("sched.map_s"),
      v("sched.map_calls"));
  std::printf(
      "%-9s %9.4f  plan hit ratio %.4f = %.0f hits / %.0f lookups "
      "(volatile; passes %s)\n",
      "redist", v("redist.plan_s"), v("redist.plan_hit_ratio"),
      v("redist.plan_hits"), v("redist.plan_hits") + v("redist.plan_misses"),
      spread("redist.plan_hit_ratio").c_str());
  std::printf(
      "%-9s %9.4f  simulate %.4f s minus net %.4f s and plan %.4f s; %.0f "
      "tasks, %.0f redistributions\n",
      "sim", v("sim.self_s"), v("sim.simulate_s"),
      v("net.warm_s") + v("net.cold_s"), v("redist.plan_s"), v("sim.tasks"),
      v("sim.redists"));
  std::printf(
      "%-9s %9.4f  warm %.4f s over %.0f solves (%.0f declined); cold %.4f s "
      "over %.0f (bipartite %.0f, general %.0f); warm reuse %.4f = %.0f kept "
      "/ %.0f (kept + cone) settles\n",
      "net", v("net.warm_s") + v("net.cold_s"), v("net.warm_s"),
      v("net.warm_solves"), v("net.warm_declined"), v("net.cold_s"),
      v("net.cold_solves"), v("net.bipartite_solves"),
      v("net.general_solves"), v("net.warm_reuse_ratio"), v("net.settles_kept"),
      v("net.settles_kept") + v("net.settles_cone"));
  std::printf(
      "%-9s %9.4f  encode %.4f s, %.0f events, %.0f bytes (%.2f = bytes / "
      "events); replay %.4f s wall over %.0f events\n",
      "trace", v("trace.encode_s") + v("trace.replay_s"), v("trace.encode_s"),
      v("trace.events"), v("trace.bytes"), v("trace.bytes_per_event"),
      v("trace.replay_s"), v("trace.replay_events"));
  std::printf("%-9s %9.4f  render %.6f s, parse %.6f s, %.0f bytes\n",
              "report", v("report.render_s") + v("report.parse_s"),
              v("report.render_s"), v("report.parse_s"), v("report.bytes"));
  std::printf(
      "%-9s %9s  busy %.4f = run time / (threads x matrix wall); tail %.4f s "
      "from the last run start to the matrix end\n",
      "exp", "-", v("exp.busy_frac"), v("exp.tail_s"));
  std::printf(
      "%-9s %9.4f  per job: plan %.5f s, shards %.5f s, merge %.5f s, payload "
      "%.0f bytes; live job latency p50 %.3f ms, p90 %.3f ms; live medians: "
      "submit %.3f ms, queue %.3f ms, run %.3f ms, fetch %.3f ms; %.0f "
      "shards dispatched, %.0f retried, %.0f submits refused, %.0f worker "
      "restarts\n",
      "serve", v("serve.plan_s") + v("serve.shard_s") + v("serve.merge_s"),
      v("serve.plan_s"), v("serve.shard_s"), v("serve.merge_s"),
      v("serve.payload_bytes"), v("serve.job_latency_p50_ms"),
      v("serve.job_latency_p90_ms"), v("serve.submit_ms"),
      v("serve.queue_wait_ms"),
      v("serve.run_ms"), v("serve.fetch_ms"), v("serve.shards_dispatched"),
      v("serve.shards_retried"), v("serve.jobs_rejected"),
      v("serve.worker_restarts"));
  std::printf("%-9s %9s  generator ran at most %.3f ms late\n", "loadgen", "-",
              v("loadgen.lag_max_ms"));
  std::printf(
      "reconcile: layer self times sum to %.4f s of the traced pass's %.4f "
      "CPU-s (%.1f%%); %.4f s is outside every span\n",
      v("ledger.layers_self_s"), pass_cpu_s,
      100 * ratio(v("ledger.layers_self_s"), pass_cpu_s),
      pass_cpu_s - v("ledger.layers_self_s"));
  if (untraced_wall_s > 0)
    std::printf(
        "tracing overhead: traced passes %.4f s wall vs untraced %.4f s, "
        "medians of alternating passes (%+.1f%%)\n",
        traced_wall_s, untraced_wall_s,
        100 * (traced_wall_s / untraced_wall_s - 1));
}

}  // namespace ledger
