// Shared support for the ablation benches.
//
// Every ablation accepts the same command line:
//   --full              use the paper's full 557-configuration corpus
//   --samples-random N  samples per random-DAG parameter combination
//   --samples-kernel N  samples per FFT size / Strassen
//   --seed S            corpus master seed
//   --csv               also emit machine-readable CSV after each table
//   --threads N         worker threads (0 = hardware concurrency)
//
// The corpus/algorithm machinery itself lives in the library
// (src/exp/presets.hpp); this header only keeps the command-line front
// end plus thin printing aliases.  The paper's figures and tables are
// reproduced by `rats run scenarios/<kind>.rats`.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "daggen/corpus.hpp"
#include "exp/experiment.hpp"
#include "exp/presets.hpp"
#include "platform/grid5000.hpp"
#include "sched/scheduler.hpp"

namespace rats::bench {

struct BenchConfig {
  presets::CorpusConfig corpus;
  bool csv = false;
  unsigned threads = 0;
};

/// Parses the common flags; prints usage and exits on --help or errors.
BenchConfig parse_args(int argc, char** argv);

// Thin aliases over the library presets (see src/exp/presets.hpp).
// The presets capture their announcement lines into strings (report
// models need them as data); the ablations print them.
inline std::vector<CorpusEntry> make_corpus(const BenchConfig& cfg) {
  std::string announce;
  auto corpus = presets::make_corpus(cfg.corpus, &announce);
  std::fputs(announce.c_str(), stdout);
  return corpus;
}
inline std::vector<CorpusEntry> cap_per_family(std::vector<CorpusEntry> corpus,
                                               const BenchConfig& cfg, int n) {
  std::string announce;
  auto capped =
      presets::cap_per_family(std::move(corpus), cfg.corpus, n, &announce);
  std::fputs(announce.c_str(), stdout);
  return capped;
}
inline std::vector<AlgoSpec> naive_algos() { return presets::naive_algos(); }
inline void heading(const std::string& title) { presets::heading(title); }

}  // namespace rats::bench
