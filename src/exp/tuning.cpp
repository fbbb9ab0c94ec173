#include "exp/tuning.hpp"

#include <limits>

#include "common/error.hpp"

namespace rats {

std::vector<double> tuning_mindeltas() { return {0.0, -0.25, -0.5, -0.75}; }
std::vector<double> tuning_maxdeltas() { return {0.0, 0.25, 0.5, 0.75, 1.0}; }
std::vector<double> tuning_minrhos() { return {0.2, 0.4, 0.5, 0.6, 0.8, 1.0}; }

std::vector<double> sweep_grid(const std::vector<CorpusEntry>& corpus,
                               const Cluster& cluster,
                               const std::vector<SchedulerOptions>& points,
                               unsigned threads, RunSession* session,
                               const SimulatorOptions* base_sim) {
  RATS_REQUIRE(!corpus.empty(), "sweep needs a corpus");
  // All grid points ride through the experiment runner as one batch:
  // algo 0 is the HCPA reference, the rest are the sweep points, and
  // the whole points x corpus cross product is claimed by one worker
  // pool instead of a serial per-point loop.
  std::vector<AlgoSpec> algos;
  algos.reserve(points.size() + 1);
  SchedulerOptions hcpa;
  hcpa.kind = SchedulerKind::Hcpa;
  algos.push_back(AlgoSpec{"HCPA", hcpa});
  for (std::size_t p = 0; p < points.size(); ++p)
    algos.push_back(AlgoSpec{"point" + std::to_string(p), points[p]});

  const ExperimentData data =
      run_experiment(corpus, cluster, algos, threads, session, base_sim);

  std::vector<double> averages;
  averages.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p)
    averages.push_back(
        summarize_relative(relative_series(data, p + 1, 0, /*makespan=*/true))
            .mean_ratio);
  return averages;
}

DeltaSweep sweep_delta(const std::vector<CorpusEntry>& corpus,
                       const Cluster& cluster, unsigned threads) {
  return sweep_delta(corpus, cluster, {}, {}, threads);
}

DeltaSweep sweep_delta(const std::vector<CorpusEntry>& corpus,
                       const Cluster& cluster,
                       const std::vector<double>& mindeltas,
                       const std::vector<double>& maxdeltas,
                       unsigned threads, RunSession* session,
                       const SimulatorOptions* base_sim) {
  DeltaSweep sweep;
  sweep.mindeltas = mindeltas.empty() ? tuning_mindeltas() : mindeltas;
  sweep.maxdeltas = maxdeltas.empty() ? tuning_maxdeltas() : maxdeltas;

  std::vector<SchedulerOptions> points;
  for (double mindelta : sweep.mindeltas) {
    for (double maxdelta : sweep.maxdeltas) {
      SchedulerOptions options;
      options.kind = SchedulerKind::RatsDelta;
      options.rats.mindelta = mindelta;
      options.rats.maxdelta = maxdelta;
      points.push_back(options);
    }
  }
  const std::vector<double> avg =
      sweep_grid(corpus, cluster, points, threads, session, base_sim);

  sweep.best_value = std::numeric_limits<double>::infinity();
  std::size_t k = 0;
  for (double mindelta : sweep.mindeltas) {
    std::vector<double> row;
    for (double maxdelta : sweep.maxdeltas) {
      const double value = avg[k++];
      row.push_back(value);
      if (value < sweep.best_value) {
        sweep.best_value = value;
        sweep.best_mindelta = mindelta;
        sweep.best_maxdelta = maxdelta;
      }
    }
    sweep.avg_relative.push_back(std::move(row));
  }
  return sweep;
}

RhoSweep sweep_rho(const std::vector<CorpusEntry>& corpus,
                   const Cluster& cluster, unsigned threads) {
  return sweep_rho(corpus, cluster, {}, threads);
}

RhoSweep sweep_rho(const std::vector<CorpusEntry>& corpus,
                   const Cluster& cluster,
                   const std::vector<double>& minrhos, unsigned threads,
                   RunSession* session, const SimulatorOptions* base_sim) {
  RhoSweep sweep;
  sweep.minrhos = minrhos.empty() ? tuning_minrhos() : minrhos;

  std::vector<SchedulerOptions> points;
  for (double minrho : sweep.minrhos) {
    for (bool packing : {true, false}) {
      SchedulerOptions options;
      options.kind = SchedulerKind::RatsTimeCost;
      options.rats.minrho = minrho;
      options.rats.packing = packing;
      points.push_back(options);
    }
  }
  const std::vector<double> avg =
      sweep_grid(corpus, cluster, points, threads, session, base_sim);

  sweep.best_value = std::numeric_limits<double>::infinity();
  std::size_t k = 0;
  for (double minrho : sweep.minrhos) {
    for (bool packing : {true, false}) {
      const double value = avg[k++];
      (packing ? sweep.with_packing : sweep.without_packing).push_back(value);
      if (packing && value < sweep.best_value) {
        sweep.best_value = value;
        sweep.best_minrho = minrho;
      }
    }
  }
  return sweep;
}

TunedParams tune(const std::vector<CorpusEntry>& corpus,
                 const Cluster& cluster, unsigned threads) {
  const DeltaSweep ds = sweep_delta(corpus, cluster, threads);
  const RhoSweep rs = sweep_rho(corpus, cluster, threads);
  return TunedParams{ds.best_mindelta, ds.best_maxdelta, rs.best_minrho};
}

}  // namespace rats
