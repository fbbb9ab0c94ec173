#include "net/solver_stats.hpp"

namespace rats {

SolverStats::SolverStats()
    : singleton(obs::counter("net/solve/singleton")),
      warm(obs::counter("net/solve/warm")),
      bipartite(obs::counter("net/solve/bipartite")),
      general(obs::counter("net/solve/general")),
      warm_attempts(obs::counter("net/warm/attempts")),
      warm_hits(obs::counter("net/warm/hits")),
      warm_declined(obs::counter("net/warm/declined")),
      settles_kept(obs::counter("net/warm/settles_kept")),
      settles_cone(obs::counter("net/warm/settles_cone")),
      cone_fraction(obs::histogram("net/warm/cone_fraction", 10)),
      ns_warm(obs::timer("net/solve/warm_time")),
      ns_cold(obs::timer("net/solve/cold_time")) {}

void SolverStats::record_warm_replay(std::uint64_t cone,
                                     std::uint64_t undone) {
  if (!obs::metrics_enabled())
    return;
  settles_cone.add(cone);
  settles_kept.add(undone - cone);
  std::size_t bucket = 9;
  if (undone > 0 && cone < undone)
    bucket = static_cast<std::size_t>((cone * 10) / undone);
  cone_fraction.record(bucket);
}

SolverStats& solver_stats() {
  static SolverStats stats;
  return stats;
}

}  // namespace rats
