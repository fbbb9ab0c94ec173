// Unit tests for the experiment harness: parallel execution, relative
// series, pairwise comparison and degradation-from-best aggregations.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "common/error.hpp"
#include "exp/experiment.hpp"
#include "exp/parallel.hpp"
#include "exp/presets.hpp"
#include "exp/tuning.hpp"
#include "obs/registry.hpp"
#include "platform/grid5000.hpp"
#include "scenario/parser.hpp"

namespace rats {
namespace {

// ------------------------------------------------------------ parallel

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { ++hits[i]; }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(10, [](std::size_t i) {
        if (i == 3) throw Error("boom");
      }, 2),
      Error);
}

TEST(ParallelFor, ReusesThePersistentPool) {
  // Consecutive calls share one process-wide pool: the worker count
  // reaches the requested size once and stays there instead of
  // re-spawning per call.
  std::atomic<int> sink{0};
  parallel_for(64, [&](std::size_t) { ++sink; }, 3);
  const unsigned after_first = worker_pool_size();
  EXPECT_GE(after_first, 2u);  // 3 workers = caller + 2 pool threads
  for (int round = 0; round < 5; ++round)
    parallel_for(64, [&](std::size_t) { ++sink; }, 3);
  EXPECT_EQ(worker_pool_size(), after_first);
  EXPECT_EQ(sink.load(), 64 * 6);
}

TEST(ParallelFor, NestedCallsRunInline) {
  // A body that itself calls parallel_for must not deadlock on the
  // shared pool; the inner loop runs inline on the claiming worker.
  std::vector<std::atomic<int>> hits(100);
  parallel_for(10, [&](std::size_t outer) {
    parallel_for(10, [&](std::size_t inner) {
      ++hits[outer * 10 + inner];
    }, 4);
  }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ------------------------------------------------- synthetic aggregation

ExperimentData synthetic() {
  // 4 entries x 3 algos with hand-picked makespans.
  ExperimentData d;
  d.cluster_name = "synthetic";
  d.algo_names = {"ref", "good", "bad"};
  d.families.assign(4, DagFamily::Layered);
  d.entry_names = {"e0", "e1", "e2", "e3"};
  const double mk[4][3] = {
      {10.0, 8.0, 12.0},
      {10.0, 10.0, 15.0},
      {10.0, 9.0, 10.0},
      {10.0, 12.0, 20.0},
  };
  for (int e = 0; e < 4; ++e) {
    std::vector<RunOutcome> row;
    for (int a = 0; a < 3; ++a)
      row.push_back(RunOutcome{mk[e][a], 100.0 + a});
    d.outcome.push_back(std::move(row));
  }
  return d;
}

TEST(Experiment, RelativeSeriesAgainstReference) {
  const auto d = synthetic();
  const auto rel = relative_series(d, 1, 0, true);
  EXPECT_EQ(rel.size(), 4u);
  EXPECT_DOUBLE_EQ(rel[0], 0.8);
  EXPECT_DOUBLE_EQ(rel[1], 1.0);
  EXPECT_DOUBLE_EQ(rel[3], 1.2);
}

TEST(Experiment, RelativeSeriesOnWork) {
  const auto d = synthetic();
  const auto rel = relative_series(d, 2, 0, false);
  for (double r : rel) EXPECT_DOUBLE_EQ(r, 102.0 / 100.0);
}

TEST(Experiment, SummarizeRelativeCountsFractions) {
  const auto d = synthetic();
  const auto s = summarize_relative(relative_series(d, 1, 0, true));
  EXPECT_NEAR(s.mean_ratio, (0.8 + 1.0 + 0.9 + 1.2) / 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.fraction_better, 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_equal, 0.25);
}

TEST(Experiment, PairwiseCountsAreAntisymmetric) {
  const auto d = synthetic();
  const auto ab = pairwise_compare(d, 1, 2);
  const auto ba = pairwise_compare(d, 2, 1);
  EXPECT_EQ(ab.better, ba.worse);
  EXPECT_EQ(ab.worse, ba.better);
  EXPECT_EQ(ab.equal, ba.equal);
  EXPECT_EQ(ab.better + ab.equal + ab.worse, 4);
}

TEST(Experiment, PairwiseAgainstSynthetic) {
  const auto d = synthetic();
  const auto c = pairwise_compare(d, 1, 0);  // good vs ref
  EXPECT_EQ(c.better, 2);
  EXPECT_EQ(c.equal, 1);
  EXPECT_EQ(c.worse, 1);
}

TEST(Experiment, CombinedFractionsSumToOne) {
  const auto d = synthetic();
  for (std::size_t a = 0; a < 3; ++a) {
    const auto f = combined_compare(d, a);
    EXPECT_NEAR(f.better + f.equal + f.worse, 1.0, 1e-12);
  }
}

TEST(Experiment, DegradationFromBestSynthetic) {
  const auto d = synthetic();
  const auto deg = degradation_from_best(d, 0);  // "ref"
  // Per-entry bests: 8, 10, 9, 10.  ref degradations: 2/8, 0, 1/9, 0.
  EXPECT_EQ(deg.not_best, 2);
  EXPECT_NEAR(deg.avg_over_all, (0.25 + 0.0 + 1.0 / 9.0 + 0.0) / 4.0, 1e-12);
  EXPECT_NEAR(deg.avg_over_not_best, (0.25 + 1.0 / 9.0) / 2.0, 1e-12);
}

TEST(Experiment, BestAlgorithmHasZeroDegradation) {
  const auto d = synthetic();
  // Per entry the best algo has degradation 0; check algo 1 on entry 0.
  const auto deg = degradation_from_best(d, 1);
  EXPECT_EQ(deg.not_best, 1);  // only entry 3
  EXPECT_NEAR(deg.avg_over_not_best, 0.2, 1e-12);
}

TEST(Experiment, SortedCurveIsMonotone) {
  const auto curve = sorted_curve({5.0, 1.0, 3.0, 2.0, 4.0}, 11);
  ASSERT_EQ(curve.size(), 11u);
  EXPECT_DOUBLE_EQ(curve.front(), 1.0);
  EXPECT_DOUBLE_EQ(curve.back(), 5.0);
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_LE(curve[i - 1], curve[i]);
}

TEST(Experiment, SortedCurveRejectsBadPointCount) {
  EXPECT_THROW(sorted_curve({1.0}, 1), Error);
}

TEST(Experiment, RejectsBadIndices) {
  const auto d = synthetic();
  EXPECT_THROW(relative_series(d, 7, 0, true), Error);
}

// ------------------------------------------------- small real experiment

TEST(Experiment, EndToEndOnTinyCorpus) {
  CorpusOptions o;
  o.random_samples = 1;
  o.kernel_samples = 1;
  const auto corpus = build_family(DagFamily::Strassen, o);
  ASSERT_EQ(corpus.size(), 1u);
  const std::vector<AlgoSpec> algos = {
      {"HCPA", SchedulerOptions{SchedulerKind::Hcpa, {}, true}},
      {"delta", SchedulerOptions{SchedulerKind::RatsDelta, {}, true}},
  };
  const auto data = run_experiment(corpus, grid5000::chti(), algos);
  EXPECT_EQ(data.entries(), 1u);
  EXPECT_EQ(data.algos(), 2u);
  for (const auto& row : data.outcome)
    for (const auto& out : row) {
      EXPECT_GT(out.makespan, 0.0);
      EXPECT_GT(out.work, 0.0);
    }
}

// ------------------------------------------------- shared step one

scenario::ScenarioSpec checked_in_scenario(const std::string& file) {
  return scenario::load_scenario(std::string(RATS_SOURCE_DIR) + "/scenarios/" + file);
}

/// Every cell of `data` equals a direct run_scenario, which allocates
/// on its own, of the algorithm `algo_of(entry, algo)` returns.
template <class AlgoOf>
void expect_cells_match_direct_runs(const ExperimentData& data,
                                    const std::vector<CorpusEntry>& corpus,
                                    const Cluster& cluster, AlgoOf algo_of) {
  ASSERT_EQ(data.entries(), corpus.size());
  for (std::size_t e = 0; e < corpus.size(); ++e) {
    for (std::size_t a = 0; a < data.algos(); ++a) {
      const AlgoSpec spec = algo_of(e, a);
      const RunOutcome direct =
          run_scenario(corpus[e].graph, cluster, spec.options);
      const RunOutcome& cell = data.outcome[e][a];
      EXPECT_EQ(cell.makespan, direct.makespan)
          << corpus[e].name << " / " << spec.name;
      EXPECT_EQ(cell.work, direct.work) << corpus[e].name << " / " << spec.name;
    }
  }
}

TEST(SharedAllocation, ScenarioMatricesMatchDirectRuns) {
  for (const char* file : {"fig2_quick.rats", "hier_quick.rats"}) {
    const scenario::ScenarioSpec spec = checked_in_scenario(file);
    const auto corpus = spec.workload.resolve();
    const Cluster cluster = spec.platform.resolve_one();
    const auto algos =
        spec.algorithms.resolve(DagFamily::Irregular, cluster.name());
    for (unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(file) + " threads " + std::to_string(threads));
      const auto data = run_experiment(corpus, cluster, algos, threads);
      expect_cells_match_direct_runs(
          data, corpus, cluster,
          [&](std::size_t, std::size_t a) { return algos[a]; });
    }
  }
}

TEST(SharedAllocation, TunedMatrixMatchesDirectRuns) {
  const auto corpus = checked_in_scenario("fig2_quick.rats").workload.resolve();
  const std::vector<Cluster> clusters = {grid5000::grillon(),
                                         grid5000::chti()};
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const auto results =
        presets::run_tuned_experiments(corpus, clusters, threads);
    ASSERT_EQ(results.size(), clusters.size());
    for (std::size_t c = 0; c < clusters.size(); ++c)
      expect_cells_match_direct_runs(
          results[c], corpus, clusters[c], [&](std::size_t e, std::size_t a) {
            return presets::tuned_algos(corpus[e].family,
                                        clusters[c].name())[a];
          });
  }
}

/// Supplies every outcome, so the matrix runs nothing itself.
class InjectEveryRun : public RunSession {
 public:
  bool inject(std::size_t, const RunMeta&, RunOutcome& out) override {
    out = RunOutcome{1.0, 1.0, {}};
    return true;
  }
  TraceSink* begin_run(std::size_t, const RunMeta&) override {
    ADD_FAILURE() << "an injected run must not start";
    return nullptr;
  }
  void end_run(std::size_t, const RunOutcome&) override {
    ADD_FAILURE() << "an injected run must not end";
  }
};

TEST(SharedAllocation, InjectedRunsAllocateNothing) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const obs::Counter& allocations = obs::counter("sched/allocations");
  const auto corpus = checked_in_scenario("fig2_quick.rats").workload.resolve();
  const Cluster cluster = grid5000::grillon();

  const std::uint64_t before = allocations.value();
  InjectEveryRun session;
  run_experiment(corpus, cluster, presets::naive_algos(), 4, &session);
  presets::run_tuned_experiments(corpus, {cluster}, 4, &session);
  EXPECT_EQ(allocations.value(), before);

  // Without the session, HCPA and both RATS mappings share one HCPA
  // allocation per entry.
  run_experiment(corpus, cluster, presets::naive_algos(), 4);
  EXPECT_EQ(allocations.value(), before + corpus.size());
  obs::set_metrics_enabled(was_enabled);
}

TEST(Tuning, ParameterListsMatchPaper) {
  EXPECT_EQ(tuning_mindeltas(), (std::vector<double>{0.0, -0.25, -0.5, -0.75}));
  EXPECT_EQ(tuning_maxdeltas(),
            (std::vector<double>{0.0, 0.25, 0.5, 0.75, 1.0}));
  EXPECT_EQ(tuning_minrhos(),
            (std::vector<double>{0.2, 0.4, 0.5, 0.6, 0.8, 1.0}));
}

TEST(Tuning, SweepGridOfReferencePointIsOne) {
  // A sweep point equal to the HCPA reference maps the memoized HCPA
  // allocation exactly like the reference does: every ratio is 1.
  CorpusOptions o;
  o.random_samples = 1;
  o.kernel_samples = 1;
  const auto corpus = build_family(DagFamily::Strassen, o);
  SchedulerOptions hcpa;
  hcpa.kind = SchedulerKind::Hcpa;
  const auto avg = sweep_grid(corpus, grid5000::chti(), {hcpa});
  ASSERT_EQ(avg.size(), 1u);
  EXPECT_EQ(avg[0], 1.0);
}

}  // namespace
}  // namespace rats
