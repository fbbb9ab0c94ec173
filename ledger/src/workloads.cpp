#include "workloads.hpp"

#include <fstream>
#include <iterator>
#include <sstream>

#include "common/error.hpp"
#include "common/format.hpp"

namespace ledger {

namespace {

/// Corpus seeds stay below 2^31 so every seed survives the scenario
/// parser's number syntax exactly; kDefaultSeed maps to itself.
std::uint64_t corpus_seed(std::uint64_t seed) { return seed % (1ull << 31); }

/// One serve-stream job shape.
struct Slot {
  const char* kind;
  const char* cluster;
  const char* generator;
  int count;
  int tasks;  ///< layered / irregular
  int fft_k;  ///< fft
};

// Three size classes: 7 small shapes (3-6 runs; three of them kind
// "single", which is not shardable and takes the daemon's whole-report
// path), 10 medium (12 runs) and 7 large (24 runs).  Each class has one
// grelon shape, whose hierarchy needs the general solver.  With 30/40/30
// per cent of the jobs, the latency median falls mid-way into the medium
// class and p90 two thirds into the large one, not on a boundary between
// classes.  The shapes are the same for every seed; each job draws its
// own graphs, so a run's cost averages over a few hundred graph sets
// rather than resting on a handful.
constexpr Slot kSlots[] = {
    {"single", "grillon", "layered", 1, 30, 0},
    {"experiment", "grillon", "fft", 1, 0, 4},
    {"single", "chti", "irregular", 1, 25, 0},
    {"experiment", "chti", "layered", 2, 20, 0},
    {"single", "grillon", "fft", 1, 0, 8},
    {"experiment", "grelon", "strassen", 1, 0, 0},
    {"experiment", "grillon", "irregular", 2, 20, 0},
    {"experiment", "grillon", "layered", 4, 30, 0},
    {"experiment", "grillon", "irregular", 4, 30, 0},
    {"experiment", "grillon", "fft", 4, 0, 8},
    {"experiment", "chti", "strassen", 4, 0, 0},
    {"experiment", "chti", "layered", 4, 40, 0},
    {"experiment", "chti", "irregular", 4, 25, 0},
    {"experiment", "grillon", "fft", 4, 0, 4},
    {"experiment", "grelon", "fft", 4, 0, 4},
    {"experiment", "grillon", "strassen", 4, 0, 0},
    {"experiment", "grillon", "irregular", 4, 35, 0},
    {"experiment", "grillon", "layered", 8, 30, 0},
    {"experiment", "grillon", "irregular", 8, 30, 0},
    {"experiment", "chti", "fft", 8, 0, 8},
    {"experiment", "chti", "layered", 8, 40, 0},
    {"experiment", "grillon", "irregular", 8, 25, 0},
    {"experiment", "grillon", "strassen", 8, 0, 0},
    {"experiment", "grelon", "strassen", 8, 0, 0},
};

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fig2-flat", "hier-mt", "serve-stream", "trace-roundtrip"};
  return names;
}

bool is_batch(const std::string& workload) {
  return workload == "fig2-flat" || workload == "hier-mt" ||
         workload == "trace-roundtrip";
}

std::vector<std::string> batch_specs(const std::string& workload,
                                     std::uint64_t seed) {
  // Each batch workload is one scenario template run over `corpora`
  // corpus seeds: the workload seed itself first, then seeds derived
  // from it.  A run cycles through all of them, so its cost averages
  // over more graphs than one corpus holds and swings less with the
  // seed.
  const char* tmpl = nullptr;
  std::uint64_t corpora = 1;
  if (workload == "fig2-flat") {
    // The paper's headline experiment: Fig. 2 on flat grillon, where
    // every contention component is bipartite.
    tmpl =
        "[scenario]\nname = \"fig2-flat\"\nkind = \"fig2\"\nthreads = 1\n"
        "[platform]\ncluster = \"grillon\"\n"
        "[workload]\nsource = \"corpus\"\nsamples-random = 1\n"
        "samples-kernel = 2\nseed = %llu\n"
        "[algorithms]\npreset = \"naive\"\n";
    corpora = 2;
  } else if (workload == "hier-mt") {
    // Three cabinets behind shared uplinks: cross-cabinet routes need
    // the general Max-Min solver, and three threads use the worker pool.
    tmpl =
        "[scenario]\nname = \"hier-mt\"\nkind = \"fig2\"\nthreads = 3\n"
        "[platform]\nname = \"tricab\"\ncabinets = [24, 24, 16]\n"
        "gflops = 3.185\nlatency-us = 100\nbandwidth-gbps = 1\n"
        "uplink-latency-us = 100\nuplink-bandwidth-gbps = 1\n"
        "[workload]\nsource = \"corpus\"\nsamples-random = 1\n"
        "samples-kernel = 1\nseed = %llu\n"
        "[algorithms]\npreset = \"naive\"\n";
    corpora = 2;
  } else if (workload == "trace-roundtrip") {
    // The fig2 corpus cut to its kernel families (FFT and Strassen):
    // small enough to write and re-verify its whole trace many times in
    // a run, which is also why it needs many corpora.
    tmpl =
        "[scenario]\nname = \"trace-roundtrip\"\nkind = \"fig2\"\n"
        "threads = 3\n"
        "[platform]\ncluster = \"grillon\"\n"
        "[workload]\nsource = \"corpus\"\nsamples-random = 0\n"
        "samples-kernel = 4\nseed = %llu\n"
        "[algorithms]\npreset = \"naive\"\n";
    corpora = 8;
  } else {
    throw rats::Error("not a batch workload: " + workload);
  }
  std::vector<std::string> specs;
  for (std::uint64_t i = 0; i < corpora; ++i)
    specs.push_back(rats::strf(
        tmpl, static_cast<unsigned long long>(corpus_seed(
                  i == 0 ? seed : mix64(seed * corpora + i)))));
  return specs;
}

std::size_t serve_shapes() { return std::size(kSlots); }

std::string serve_job(std::uint64_t seed, std::size_t k) {
  // Shapes are dealt in shuffled rounds of the whole table, so any run
  // of whole rounds has the same mix; within a round the order is the
  // seed's, and every job draws its own graphs.
  const std::size_t n = serve_shapes();
  std::vector<std::size_t> round(n);
  for (std::size_t i = 0; i < n; ++i) round[i] = i;
  std::uint64_t state = mix64(seed ^ mix64(k / n));
  for (std::size_t i = n - 1; i > 0; --i) {
    state = mix64(state);
    std::swap(round[i], round[state % (i + 1)]);
  }
  const Slot& slot = kSlots[round[k % n]];
  const std::string generator = slot.generator;
  const auto gen_seed = static_cast<unsigned long long>(
      mix64(mix64(seed) + k) % 1000000000ull);
  std::string workload =
      rats::strf("source = \"generate\"\ngenerator = \"%s\"\ncount = %d\n",
                 slot.generator, slot.count);
  if (slot.tasks > 0)
    workload += rats::strf(
        "tasks = %d\nwidth = 0.5\ndensity = 0.5\nregularity = 0.5\n",
        slot.tasks);
  if (generator == "irregular") workload += "jump = 2\n";
  if (slot.fft_k > 0) workload += rats::strf("fft-k = %d\n", slot.fft_k);
  workload += rats::strf("generate-seed = %llu\n", gen_seed);
  return rats::strf(
      "[scenario]\nname = \"serve-%zu\"\nkind = \"%s\"\nthreads = 1\n"
      "[platform]\ncluster = \"%s\"\n[workload]\n%s"
      "[algorithms]\npreset = \"naive\"\n",
      k, slot.kind, slot.cluster, workload.c_str());
}

std::vector<double> serve_arrivals(std::uint64_t seed, double seconds,
                                   double rate) {
  // Job k falls due at a uniformly drawn time within its own slot
  // [k, k+1) / rate: a fixed rate and job count without the bursts of a
  // Poisson stream, which would dominate p90.
  std::vector<double> due;
  std::uint64_t state = mix64(seed ^ 0xa7719a15ull);
  for (std::size_t k = 0; static_cast<double>(k + 1) / rate <= seconds; ++k) {
    state = mix64(state);
    due.push_back((static_cast<double>(k) +
                   static_cast<double>(state >> 11) * 0x1.0p-53) /
                  rate);
  }
  return due;
}

std::map<std::string, Reference> committed_references(
    const std::string& path, const std::string& workload, std::uint64_t seed) {
  if (path.empty()) return {};
  std::ifstream in(path);
  RATS_REQUIRE(in.good(), "cannot read references '" + path + "'");
  std::map<std::string, Reference> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, key;
    std::uint64_t line_seed = 0;
    Reference ref;
    fields >> name >> line_seed >> key >> ref.digest >> ref.runs;
    RATS_REQUIRE(!fields.fail(), "malformed references line: " + line);
    if (name == workload && line_seed == seed) out[key] = ref;
  }
  return out;
}

}  // namespace ledger
