// Declarative scenario model: platforms, workloads, algorithms, sweep
// grids and output selection as *data*.
//
// A scenario is written as a `.rats` text file (see scenario/parser.hpp
// for the grammar), bound into the ScenarioSpec struct below, and
// executed through the kind registry (scenario/registry.hpp), which
// maps each scenario kind onto the src/exp/ runner machinery.  Every
// figure and table of the paper is one such file — `rats run
// scenarios/fig2.rats` reproduces Figure 2 — and `default_spec(kind)`
// builds the same spec in code.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "daggen/corpus.hpp"
#include "daggen/random_dag.hpp"
#include "exp/experiment.hpp"
#include "exp/presets.hpp"
#include "platform/cluster.hpp"
#include "platform/timeline.hpp"

namespace rats::scenario {

/// Platform section: either a list of named Grid'5000 presets (several
/// for multi-cluster kinds like table5/table6) or one custom cluster —
/// flat (`nodes`) or hierarchical (`cabinets`, possibly heterogeneous
/// per-cabinet node counts).
struct PlatformSpec {
  std::vector<std::string> presets;  ///< "chti" | "grillon" | "grelon"
  std::string name = "custom";
  int nodes = 0;                     ///< custom flat cluster
  std::vector<int> cabinet_nodes;    ///< custom hierarchical cluster
  double gflops = 1.0;
  double latency_us = 100.0;
  double bandwidth_gbps = 1.0;
  double uplink_latency_us = 100.0;
  double uplink_bandwidth_gbps = 1.0;

  bool is_custom() const { return presets.empty(); }
  /// All clusters of the section (presets in order, or the one custom
  /// cluster).  Throws on unknown preset names or empty sections.
  std::vector<Cluster> resolve() const;
  /// The single cluster of the section; throws when it names several.
  Cluster resolve_one() const;
};

/// Workload section: where the task graphs come from.
struct WorkloadSpec {
  enum class Source { Corpus, Family, Generate, File };
  Source source = Source::Corpus;

  /// Corpus / Family sources (the paper's Table III corpus).
  presets::CorpusConfig corpus;
  std::string family = "fft";  ///< Family source only
  /// Keep at most this many entries per family (0 = no cap; ignored
  /// with corpus.full, so --full always runs the whole corpus).
  int cap_per_family = 0;

  /// Generate source: `count` samples of one generator.
  std::string generator = "layered";  ///< fft|strassen|layered|irregular
  int count = 1;
  int fft_k = 8;
  RandomDagParams dag;
  std::uint64_t generate_seed = 42;

  /// File source: a workflow file for src/io/workflow_io.hpp.
  std::string path;

  /// Materializes the workload.  `announce`, when given, receives the
  /// corpus-size lines a fig/table report opens with (the report models
  /// capture them as text items; nullptr stays silent).
  std::vector<CorpusEntry> resolve(std::string* announce = nullptr) const;
};

/// Algorithms section: a named preset or an explicit ordered list.
///   naive — HCPA, delta(-0.5,0.5), time-cost(0.5)   (Figures 2-3)
///   tuned — HCPA + Table IV parameters per family   (Figures 6-7)
struct AlgorithmsSpec {
  std::string preset = "naive";  ///< "naive" | "tuned" | "" (explicit)
  std::vector<AlgoSpec> algos;   ///< explicit list (preset empty)

  bool tuned() const { return preset == "tuned"; }
  /// Algorithm specs for entries of `family` on `cluster` (tuned
  /// presets pick the family's Table IV cell).
  std::vector<AlgoSpec> resolve(DagFamily family,
                                const std::string& cluster) const;
  /// Algorithm display names (family-independent).
  std::vector<std::string> names() const;
};

/// Sweep section: parameter grids for the sweep kinds.  fig4/fig5 read
/// their grids from here (empty lists fall back to the paper's grids);
/// the generic `kind = "sweep"` crosses every non-empty grid over
/// `base` (any RatsParams field on any workload source — fig4 is the
/// (mindelta, maxdelta) x delta preset of it, fig5 the (minrho,
/// packing) x time-cost one).
struct SweepSpec {
  std::vector<double> mindeltas;
  std::vector<double> maxdeltas;
  std::vector<double> minrhos;
  std::vector<bool> packings;  ///< generic sweep only
  /// Base algorithm the generic sweep perturbs: "delta" | "time-cost".
  std::string base = "delta";
  /// Platform-event axes (generic sweep only): each grid value rewrites
  /// the factor / time of *every* `[event]` in the spec's timeline, so
  /// any event parameter sweeps like a scheduler parameter.
  std::vector<double> event_factors;
  std::vector<double> event_ats;

  /// True when no grid is given (the generic sweep kind rejects this).
  bool empty() const {
    return mindeltas.empty() && maxdeltas.empty() && minrhos.empty() &&
           packings.empty() && event_factors.empty() && event_ats.empty();
  }
  /// True when an event axis is present (needs a non-empty [events]).
  bool sweeps_events() const {
    return !event_factors.empty() || !event_ats.empty();
  }
};

/// Events section: the fault-injection timeline ([events] policy plus
/// repeated [event] sections).  An empty timeline is byte-identical to
/// no section at all — canonical emission drops it, so healthy specs
/// keep their trace headers (and goldens) stable.
struct EventsSpec {
  PlatformTimeline timeline;

  bool empty() const { return timeline.empty(); }
  /// Time-sorted, cluster-validated timeline ready for the simulator.
  /// `context` prefixes validation errors (typically file:line).
  PlatformTimeline resolve(const Cluster& cluster,
                           const std::string& context = "") const;
};

/// Output section.  The report always renders to stdout as text; the
/// paths write additional artefacts of the same ReportModel / run.
struct OutputSpec {
  bool csv = false;    ///< also emit CSV after each table on stdout
  bool gantt = false;  ///< print a Gantt table per run (kind "single")
  std::string report_csv;   ///< write the CSV report rendering here
  std::string report_json;  ///< write the JSON report rendering here
  std::string trace;        ///< stream a simulation trace here (traceable kinds)
  bool trace_gzip = false;  ///< gzip the trace stream (needs zlib at build)
  /// Source line of each path key (0 = not from a spec file) — lets the
  /// runner report unwritable paths as file:line diagnostics up front.
  int report_csv_line = 0;
  int report_json_line = 0;
  int trace_line = 0;
};

/// Ceiling on a worker-thread count taken from outside input: a spec's
/// `threads`, a spec submitted to `rats serve`, or `--threads`.  The
/// worker pool starts up to that many persistent OS threads.
inline constexpr unsigned kMaxThreads = 256;

/// Whether `v` is an acceptable thread count (0 = hardware concurrency).
constexpr bool valid_threads(long long v) {
  return v >= 0 && v <= kMaxThreads;
}

/// One fully-described scenario.
struct ScenarioSpec {
  std::string name;
  std::string kind;
  unsigned threads = 0;  ///< worker threads (0 = hardware concurrency)
  PlatformSpec platform;
  WorkloadSpec workload;
  AlgorithmsSpec algorithms;
  SweepSpec sweep;
  EventsSpec events;
  OutputSpec output;
  /// Path of the spec file this came from ("" for built specs) — used
  /// only for diagnostics, never emitted.
  std::string origin;
};

}  // namespace rats::scenario
