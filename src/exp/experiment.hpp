// Corpus-scale experiment execution and the aggregations used by the
// paper's figures and tables: relative makespan/work series (Figures
// 2-3 and 6-7), pairwise better/equal/worse counts (Table V) and
// degradation from best (Table VI).
//
// Every run matrix (run_experiment, the tuned batches of
// exp/presets.hpp, the sweep grids of exp/tuning.hpp) goes through one
// cell runner, `run_matrix`, which shares step one of the schedulers
// literally: each (cluster, entry, allocation kind) is allocated once,
// on first use, and HCPA and both RATS mappings map that allocation.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "daggen/corpus.hpp"
#include "exp/runner.hpp"
#include "exp/session.hpp"

namespace rats {

/// One named algorithm configuration to evaluate.
struct AlgoSpec {
  std::string name;
  SchedulerOptions options;
};

/// Outcomes of running every corpus entry with every algorithm on one
/// cluster: `outcome[entry][algo]`.
struct ExperimentData {
  std::string cluster_name;
  std::vector<std::string> algo_names;
  std::vector<DagFamily> families;      ///< per corpus entry
  std::vector<std::string> entry_names; ///< per corpus entry
  std::vector<std::vector<RunOutcome>> outcome;

  std::size_t entries() const { return outcome.size(); }
  std::size_t algos() const { return algo_names.size(); }
};

/// Runs the full cross product corpus x algos on `cluster`, in
/// parallel over scenarios (`threads` workers, 0 = hardware
/// concurrency).  `session`, when given, observes every run (run index
/// = entry * algos + algo) and may attach per-run trace sinks — this is
/// how a traced scenario shares one simulation pass between report and
/// trace (see exp/session.hpp).  `base_sim`, when given, seeds every
/// run's SimulatorOptions (per-run trace sinks are layered on top) —
/// the hook a platform event timeline rides in on.
ExperimentData run_experiment(const std::vector<CorpusEntry>& corpus,
                              const Cluster& cluster,
                              const std::vector<AlgoSpec>& algos,
                              unsigned threads = 0,
                              RunSession* session = nullptr,
                              const SimulatorOptions* base_sim = nullptr);

/// The algorithm of cell (cluster, entry, algo) of a run matrix.
using CellAlgo = std::function<const AlgoSpec&(
    std::size_t cluster, std::size_t entry, std::size_t algo)>;

/// The cell runner behind every run matrix: runs `clusters` x `corpus`
/// x `algo_names` as one parallel batch, job j = (cluster * entries +
/// entry) * algos + algo, which is also the session's run index.  Step
/// one is computed lazily, at most once per (cluster, entry, allocation
/// kind), and only for cells the session does not inject, so injected
/// runs allocate nothing.  Returns one ExperimentData per cluster.
std::vector<ExperimentData> run_matrix(
    const std::vector<CorpusEntry>& corpus, std::span<const Cluster> clusters,
    const std::vector<std::string>& algo_names, const CellAlgo& algo,
    unsigned threads, RunSession* session, const SimulatorOptions* base_sim);

/// Per-entry ratio metric(algo) / metric(reference algo), e.g. the
/// "makespan relative to HCPA" of Figures 2 and 6.  `metric` selects
/// makespan (true) or work (false).
std::vector<double> relative_series(const ExperimentData& data,
                                    std::size_t algo, std::size_t reference,
                                    bool makespan);

/// Summary of one relative series: its mean and the fraction of
/// entries strictly below 1 (i.e. better than the reference).
struct RelativeSummary {
  double mean_ratio{};
  double fraction_better{};
  double fraction_equal{};
};
RelativeSummary summarize_relative(const std::vector<double>& ratios,
                                   double tolerance = 1e-6);

/// Pairwise comparison counts of Table V.
struct PairwiseCounts {
  int better = 0;
  int equal = 0;
  int worse = 0;
};

/// Compares makespans of `algo_a` vs `algo_b` over all entries.
PairwiseCounts pairwise_compare(const ExperimentData& data, std::size_t algo_a,
                                std::size_t algo_b, double tolerance = 1e-6);

/// "Combined" columns of Table V: better/equal/worse of `algo` against
/// the best of all other algorithms, as fractions of the corpus.
struct CombinedFractions {
  double better{};
  double equal{};
  double worse{};
};
CombinedFractions combined_compare(const ExperimentData& data,
                                   std::size_t algo,
                                   double tolerance = 1e-6);

/// Degradation-from-best statistics of Table VI for one algorithm.
struct Degradation {
  double avg_over_all{};       ///< mean over every experiment
  int not_best = 0;            ///< experiments where the algo was not best
  double avg_over_not_best{};  ///< mean over those experiments only
};
Degradation degradation_from_best(const ExperimentData& data,
                                  std::size_t algo, double tolerance = 1e-6);

/// Sorted copy of a series sampled at `points` evenly spaced
/// percentiles — the compact rendering of the paper's sorted-curve
/// figures.
std::vector<double> sorted_curve(std::vector<double> series, int points = 21);

}  // namespace rats
