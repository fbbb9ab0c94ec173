#include "exp/experiment.hpp"

#include <algorithm>
#include <limits>
#include <mutex>

#include "common/error.hpp"
#include "exp/parallel.hpp"
#include "obs/span.hpp"

namespace rats {

namespace {

/// Step one of a run matrix, computed on first use and at most once per
/// (graph, allocation kind), graph = (cluster, entry).  Slots are
/// claimed through std::call_once, so concurrent cells of one entry
/// wait for a single computation, and the `schedule/allocate` span and
/// `sched/allocations` counts do not depend on the thread count.
class AllocationMemo {
 public:
  explicit AllocationMemo(std::size_t graphs) : slots_(graphs * kKinds) {}

  const Allocation& get(std::size_t graph_index, const TaskGraph& graph,
                        const Cluster& cluster, AllocationKind kind) {
    Slot& slot = slots_[graph_index * kKinds + static_cast<std::size_t>(kind)];
    std::call_once(slot.once, [&] {
      obs::PhaseTimer span("schedule/allocate");
      slot.allocation = allocate(graph, cluster, {kind});
    });
    return slot.allocation;
  }

 private:
  static constexpr std::size_t kKinds = 3;  // Cpa, Hcpa, Mcpa
  struct Slot {
    std::once_flag once;
    Allocation allocation;
  };
  std::vector<Slot> slots_;
};

}  // namespace

std::vector<ExperimentData> run_matrix(
    const std::vector<CorpusEntry>& corpus, std::span<const Cluster> clusters,
    const std::vector<std::string>& algo_names, const CellAlgo& algo,
    unsigned threads, RunSession* session, const SimulatorOptions* base_sim) {
  RATS_REQUIRE(!corpus.empty() && !algo_names.empty(),
               "experiment needs a corpus and algorithms");
  std::vector<ExperimentData> results(clusters.size());
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    ExperimentData& data = results[c];
    data.cluster_name = clusters[c].name();
    data.algo_names = algo_names;
    data.families.reserve(corpus.size());
    data.entry_names.reserve(corpus.size());
    for (const auto& entry : corpus) {
      data.families.push_back(entry.family);
      data.entry_names.push_back(entry.name);
    }
    data.outcome.assign(corpus.size(),
                        std::vector<RunOutcome>(algo_names.size()));
  }

  // One flat (cluster, entry, algo) batch: every scenario is an
  // independent job, each writing only its own outcome slot.
  AllocationMemo memo(clusters.size() * corpus.size());
  const std::size_t algos = algo_names.size();
  const std::size_t per_cluster = corpus.size() * algos;
  if (session) session->begin_matrix(clusters.size() * per_cluster);
  parallel_for(clusters.size() * per_cluster, [&](std::size_t j) {
    const std::size_t c = j / per_cluster;
    const std::size_t e = (j % per_cluster) / algos;
    const std::size_t a = j % algos;
    const AlgoSpec& spec = algo(c, e, a);
    const Cluster& cluster = clusters[c];
    RunOutcome& out = results[c].outcome[e][a];
    const RunMeta meta{corpus[e].name, spec.name, cluster.name()};
    if (session && session->inject(j, meta, out)) return;
    SimulatorOptions sim = base_sim ? *base_sim : SimulatorOptions{};
    if (session) sim.trace = session->begin_run(j, meta);
    const Allocation& allocation =
        memo.get(c * corpus.size() + e, corpus[e].graph, cluster,
                 allocation_kind(spec.options.kind));
    out = run_scenario(corpus[e].graph, cluster, spec.options, sim,
                       &allocation);
    if (session) session->end_run(j, out);
  }, threads);
  return results;
}

ExperimentData run_experiment(const std::vector<CorpusEntry>& corpus,
                              const Cluster& cluster,
                              const std::vector<AlgoSpec>& algos,
                              unsigned threads, RunSession* session,
                              const SimulatorOptions* base_sim) {
  std::vector<std::string> names;
  for (const auto& a : algos) names.push_back(a.name);
  return run_matrix(
             corpus, {&cluster, 1}, names,
             [&](std::size_t, std::size_t, std::size_t a) -> const AlgoSpec& {
               return algos[a];
             },
             threads, session, base_sim)
      .front();
}

std::vector<double> relative_series(const ExperimentData& data,
                                    std::size_t algo, std::size_t reference,
                                    bool makespan) {
  RATS_REQUIRE(algo < data.algos() && reference < data.algos(),
               "algorithm index out of range");
  std::vector<double> ratios;
  ratios.reserve(data.entries());
  for (std::size_t e = 0; e < data.entries(); ++e) {
    const double num = makespan ? data.outcome[e][algo].makespan
                                : data.outcome[e][algo].work;
    const double den = makespan ? data.outcome[e][reference].makespan
                                : data.outcome[e][reference].work;
    RATS_REQUIRE(den > 0, "reference metric must be positive");
    ratios.push_back(num / den);
  }
  return ratios;
}

RelativeSummary summarize_relative(const std::vector<double>& ratios,
                                   double tolerance) {
  RelativeSummary s;
  if (ratios.empty()) return s;
  double sum = 0;
  int better = 0;
  int equal = 0;
  for (double r : ratios) {
    sum += r;
    if (std::abs(r - 1.0) <= tolerance) {
      ++equal;
    } else if (r < 1.0) {
      ++better;
    }
  }
  const auto n = static_cast<double>(ratios.size());
  s.mean_ratio = sum / n;
  s.fraction_better = better / n;
  s.fraction_equal = equal / n;
  return s;
}

namespace {
int compare_with_tolerance(double a, double b, double tolerance) {
  // Relative comparison: runs are "equal" when within `tolerance` of
  // each other (identical schedules simulate to identical times; the
  // tolerance only absorbs floating-point noise).
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  const double diff = (a - b) / scale;
  if (diff < -tolerance) return -1;
  if (diff > tolerance) return 1;
  return 0;
}
}  // namespace

PairwiseCounts pairwise_compare(const ExperimentData& data, std::size_t algo_a,
                                std::size_t algo_b, double tolerance) {
  PairwiseCounts c;
  for (std::size_t e = 0; e < data.entries(); ++e) {
    const int cmp = compare_with_tolerance(data.outcome[e][algo_a].makespan,
                                           data.outcome[e][algo_b].makespan,
                                           tolerance);
    if (cmp < 0) {
      ++c.better;  // a's makespan smaller: a better
    } else if (cmp > 0) {
      ++c.worse;
    } else {
      ++c.equal;
    }
  }
  return c;
}

CombinedFractions combined_compare(const ExperimentData& data,
                                   std::size_t algo, double tolerance) {
  CombinedFractions f;
  if (data.entries() == 0) return f;
  int better = 0;
  int equal = 0;
  int worse = 0;
  for (std::size_t e = 0; e < data.entries(); ++e) {
    double best_other = std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < data.algos(); ++a)
      if (a != algo)
        best_other = std::min(best_other, data.outcome[e][a].makespan);
    const int cmp = compare_with_tolerance(data.outcome[e][algo].makespan,
                                           best_other, tolerance);
    if (cmp < 0) {
      ++better;
    } else if (cmp > 0) {
      ++worse;
    } else {
      ++equal;
    }
  }
  const auto n = static_cast<double>(data.entries());
  f.better = better / n;
  f.equal = equal / n;
  f.worse = worse / n;
  return f;
}

Degradation degradation_from_best(const ExperimentData& data,
                                  std::size_t algo, double tolerance) {
  Degradation d;
  if (data.entries() == 0) return d;
  double sum_all = 0;
  double sum_not_best = 0;
  for (std::size_t e = 0; e < data.entries(); ++e) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < data.algos(); ++a)
      best = std::min(best, data.outcome[e][a].makespan);
    const double mine = data.outcome[e][algo].makespan;
    const double degradation = (mine - best) / best;
    sum_all += degradation;
    if (compare_with_tolerance(mine, best, tolerance) > 0) {
      ++d.not_best;
      sum_not_best += degradation;
    }
  }
  d.avg_over_all = sum_all / static_cast<double>(data.entries());
  d.avg_over_not_best = d.not_best ? sum_not_best / d.not_best : 0.0;
  return d;
}

std::vector<double> sorted_curve(std::vector<double> series, int points) {
  RATS_REQUIRE(points >= 2, "curve needs at least two points");
  std::sort(series.begin(), series.end());
  std::vector<double> curve;
  curve.reserve(static_cast<std::size_t>(points));
  if (series.empty()) return curve;
  for (int i = 0; i < points; ++i) {
    const double pos = static_cast<double>(i) / (points - 1) *
                       static_cast<double>(series.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, series.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    curve.push_back(series[lo] + frac * (series[hi] - series[lo]));
  }
  return curve;
}

}  // namespace rats
