// Unit tests for structured simulation tracing (src/trace): event
// capture through the simulator and fluid network, the JSON-lines and
// Gantt exporters, and the deterministic replay checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "daggen/kernels.hpp"
#include "io/workflow_io.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"
#include "trace/writer.hpp"

namespace rats {
namespace {

struct Traced {
  TaskGraph graph;
  TraceSink sink;
  SimulationResult result;
};

Traced traced_fft_run() {
  Traced t;
  Rng rng(7);
  t.graph = generate_fft_dag(4, rng);
  const Cluster cluster =
      Cluster::flat("flat8", 8, 3e9, 100e-6, kGigabitPerSecond);
  const Schedule schedule = build_schedule(t.graph, cluster, {});
  SimulatorOptions options;
  options.trace = &t.sink;
  t.result = simulate(t.graph, schedule, cluster, options);
  return t;
}

TEST(TraceSinkTest, CapturesTaskAndRedistributionIntervals) {
  const Traced t = traced_fft_run();
  const auto& events = t.sink.events();
  ASSERT_FALSE(events.empty());

  int starts = 0, finishes = 0, redist_open = 0, redist_done = 0, solves = 0,
      rates = 0;
  Seconds last = 0;
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.time, last - 1e-12);  // non-decreasing stream
    last = std::max(last, e.time);
    switch (e.kind) {
      case TraceEventKind::TaskStart: ++starts; break;
      case TraceEventKind::TaskFinish: ++finishes; break;
      case TraceEventKind::RedistStart: ++redist_open; break;
      case TraceEventKind::RedistDone: ++redist_done; break;
      case TraceEventKind::SolveComponent: ++solves; break;
      case TraceEventKind::RateChange: ++rates; break;
    }
  }
  EXPECT_EQ(starts, t.graph.num_tasks());
  EXPECT_EQ(finishes, t.graph.num_tasks());
  EXPECT_EQ(redist_open, t.graph.num_edges());
  EXPECT_EQ(redist_done, t.graph.num_edges());
  EXPECT_GT(solves, 0);
  EXPECT_GT(rates, 0);

  // Untraced simulation is unaffected (and the sink is opt-in).
  Traced again = traced_fft_run();
  EXPECT_DOUBLE_EQ(again.result.makespan, t.result.makespan);
}

TEST(TraceSinkTest, EventLineFormat) {
  TraceEvent e;
  e.time = 0.5;
  e.kind = TraceEventKind::TaskStart;
  e.a = 3;
  e.b = 2;
  EXPECT_EQ(trace_event_line(e),
            "{\"t\":0.5,\"ev\":\"task_start\",\"a\":3,\"b\":2,\"v\":0}");
  e.kind = TraceEventKind::RateChange;
  e.value = 1.0 / 3.0;
  EXPECT_NE(trace_event_line(e).find("\"v\":0.33333333333333331"),
            std::string::npos);
}

// ---- double formatting -------------------------------------------------

/// The formatter trace_double replaced, kept as the byte reference.
std::string printf_17g(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

TEST(TraceDoubleTest, MatchesPrintfOnBoundaryValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {0.0,     -0.0,     DBL_MIN,      DBL_MAX,
                                DBL_TRUE_MIN, std::nextafter(DBL_MIN, 0.0),
                                inf,     -inf,     nan,          -nan,
                                0.1,     1.0 / 3.0, 125e6,       62.5e6};
  // Powers of two ±1 ulp across the whole exponent range.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    values.insert(values.end(),
                  {p, std::nextafter(p, inf), std::nextafter(p, 0.0)});
  }
  // Powers of ten ±1 ulp, covering the %g fixed/exponent switches
  // (1e-5, 1e17) and the 1e15/1e16 integer-precision boundaries.
  for (int e = -6; e <= 18; ++e) {
    const double p = std::pow(10.0, e);
    values.insert(values.end(),
                  {p, std::nextafter(p, inf), std::nextafter(p, 0.0)});
  }
  for (const double v : values) {
    EXPECT_EQ(trace_double(v), printf_17g(v)) << std::hexfloat << v;
    EXPECT_EQ(trace_double(-v), printf_17g(-v)) << std::hexfloat << -v;
  }
}

TEST(TraceDoubleTest, MatchesPrintfOnRandomBitPatterns) {
  // Uniform bit patterns hit every exponent, subnormals and NaN
  // payloads alike.
  std::mt19937_64 rng(20080925);
  std::size_t mismatches = 0;
  std::string first;
  for (int i = 0; i < (1 << 20); ++i) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    const std::string got = trace_double(v), want = printf_17g(v);
    if (got != want && mismatches++ == 0)
      first = got + " vs %.17g " + want;
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
}

TEST(TraceSinkTest, JsonEscaping) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// ---- delta encoding ----------------------------------------------------

TEST(TraceEncodingTest, RateRecordsDropRepeatedFields) {
  TraceLineEncoder encoder;
  std::string out;
  TraceEvent solve;
  solve.time = 1.5;
  solve.kind = TraceEventKind::SolveComponent;
  solve.a = 0;
  solve.b = 4;
  encoder.append(solve, out);

  TraceEvent rate;
  rate.kind = TraceEventKind::RateChange;
  rate.time = 1.5;  // same instant as the solve
  rate.a = 7;
  rate.value = 125e6;
  encoder.append(rate, out);
  rate.a = 8;  // same time, same fair share
  encoder.append(rate, out);
  rate.a = 9;
  rate.time = 2.0;  // rate flush at a later event
  rate.value = 62.5e6;
  encoder.append(rate, out);

  const std::string expected_tail =
      "{\"r\":7,\"v\":125000000}\n"
      "{\"r\":8}\n"
      "{\"r\":9,\"t\":2,\"v\":62500000}\n";
  EXPECT_NE(out.find(expected_tail), std::string::npos) << out;
}

TEST(TraceEncodingTest, EncodeDecodeRoundTripsARealRunBitExactly) {
  const Traced t = traced_fft_run();
  TraceLineEncoder encoder;
  std::string encoded;
  std::string plain;
  for (const TraceEvent& e : t.sink.events()) {
    encoder.append(e, encoded);
    plain += trace_event_line(e);
    plain += '\n';
  }
  // The stream that dominates trace size shrinks.
  EXPECT_LT(encoded.size(), plain.size());

  TraceLineDecoder decoder;
  std::size_t index = 0;
  std::size_t at = 0;
  while (at < encoded.size()) {
    const std::size_t end = encoded.find('\n', at);
    ASSERT_NE(end, std::string::npos);
    const std::string line = encoded.substr(at, end - at);
    at = end + 1;
    TraceEvent decoded;
    ASSERT_TRUE(decoder.decode(line, decoded)) << line;
    ASSERT_LT(index, t.sink.events().size());
    const TraceEvent& original = t.sink.events()[index++];
    EXPECT_EQ(std::memcmp(&decoded.time, &original.time, sizeof(double)), 0);
    EXPECT_EQ(decoded.kind, original.kind);
    EXPECT_EQ(decoded.a, original.a);
    EXPECT_EQ(decoded.b, original.b);
    EXPECT_EQ(std::memcmp(&decoded.value, &original.value, sizeof(double)),
              0);
  }
  EXPECT_EQ(index, t.sink.events().size());
}

TEST(TraceEncodingTest, DecoderRejectsMalformedAndOrphanLines) {
  TraceLineDecoder decoder;
  TraceEvent out;
  // A bare {"r":...} with no prior time/value has nothing to inherit.
  EXPECT_FALSE(decoder.decode("{\"r\":3}", out));
  EXPECT_FALSE(decoder.decode("{\"r\":3,\"v\":1}", out));  // still no time
  EXPECT_FALSE(decoder.decode("not json", out));
  EXPECT_FALSE(decoder.decode("{\"t\":1,\"ev\":\"nope\",\"a\":1,\"b\":1,\"v\":0}",
                              out));
  EXPECT_TRUE(
      decoder.decode("{\"t\":1,\"ev\":\"rate\",\"a\":1,\"b\":-1,\"v\":5}", out));
  EXPECT_TRUE(decoder.decode("{\"r\":3}", out));  // now it inherits
  EXPECT_EQ(out.a, 3);
  EXPECT_EQ(out.time, 1.0);
  EXPECT_EQ(out.value, 5.0);
  // Ids are plain decimal int32 values: no exponent, fraction, sign
  // prefix or out-of-range magnitude, in either line form.
  for (const char* id : {"1e99", "1.5", "+3", "2147483648", "-2147483649",
                         "0x10", " 3", "", "nan"}) {
    const std::string text(id);
    EXPECT_FALSE(decoder.decode("{\"r\":" + text + "}", out)) << text;
    EXPECT_FALSE(decoder.decode("{\"t\":1,\"ev\":\"task_start\",\"a\":" +
                                    text + ",\"b\":1,\"v\":0}",
                                out))
        << text;
    EXPECT_FALSE(decoder.decode(
        "{\"t\":1,\"ev\":\"task_start\",\"a\":1,\"b\":" + text + ",\"v\":0}",
        out))
        << text;
  }
  EXPECT_TRUE(decoder.decode("{\"r\":-2147483648}", out));
  EXPECT_EQ(out.a, std::numeric_limits<std::int32_t>::min());
  EXPECT_TRUE(decoder.decode("{\"r\":2147483647}", out));
  EXPECT_EQ(out.a, std::numeric_limits<std::int32_t>::max());
  // Rejected lines left the inherited time and rate untouched.
  EXPECT_EQ(out.time, 1.0);
  EXPECT_EQ(out.value, 5.0);
}

// ---- streaming writer --------------------------------------------------

TEST(TraceWriterTest, OutOfOrderCompletionsFlushInRunOrder) {
  std::ostringstream out;
  TraceWriter writer(out, "w", "experiment", "[scenario]\nkind=...\n");
  writer.begin_matrix(3);
  TraceSink* s0 = writer.begin_run(0, "e0", "HCPA", "c");
  TraceSink* s1 = writer.begin_run(1, "e0", "delta", "c");
  TraceSink* s2 = writer.begin_run(2, "e0", "time-cost", "c");
  s0->record(0.5, TraceEventKind::TaskStart, 0, 1);
  s1->record(1.5, TraceEventKind::TaskStart, 0, 1);
  s2->record(2.5, TraceEventKind::TaskStart, 0, 1);
  // Complete out of order: nothing before run 0 ends may flush.
  writer.end_run(2, 30.0);
  writer.end_run(0, 10.0);
  writer.end_run(1, 20.0);
  writer.finish();
  const std::string text = out.str();
  const std::size_t r0 = text.find("{\"run\":0,");
  const std::size_t r1 = text.find("{\"run\":1,");
  const std::size_t r2 = text.find("{\"run\":2,");
  ASSERT_NE(r0, std::string::npos);
  ASSERT_NE(r1, std::string::npos);
  ASSERT_NE(r2, std::string::npos);
  EXPECT_LT(r0, r1);
  EXPECT_LT(r1, r2);
  EXPECT_EQ(writer.total_events(), 3u);
  EXPECT_NE(text.find("\"makespan\":30"), std::string::npos);
  EXPECT_EQ(text.rfind("{\"rats_trace\":2,", 0), 0u);
}

TEST(TraceWriterTest, FinishRejectsUnendedRuns) {
  std::ostringstream out;
  TraceWriter writer(out, "w", "experiment", "spec");
  writer.begin_matrix(1);
  writer.begin_run(0, "e", "a", "c");
  EXPECT_THROW(writer.finish(), Error);
}

TEST(TraceGanttTest, RendersSortedIntervals) {
  const Traced t = traced_fft_run();
  std::vector<std::string> names;
  for (TaskId id = 0; id < t.graph.num_tasks(); ++id)
    names.push_back(t.graph.task(id).name);
  const std::string gantt = trace_gantt(t.sink.events(), &names);
  EXPECT_NE(gantt.find("interval"), std::string::npos);
  EXPECT_NE(gantt.find("duration"), std::string::npos);
  EXPECT_NE(gantt.find(names.front()), std::string::npos);
  EXPECT_NE(gantt.find("edge 0"), std::string::npos);
}

// ---- replay ------------------------------------------------------------

scenario::ScenarioSpec tiny_experiment_spec() {
  scenario::ScenarioSpec spec = scenario::default_spec("experiment");
  spec.name = "tiny";
  spec.workload.count = 1;
  spec.workload.dag.num_tasks = 20;
  spec.platform.presets.clear();
  spec.platform.name = "flat6";
  spec.platform.nodes = 6;
  spec.platform.gflops = 3.0;
  return spec;
}

scenario::ScenarioSpec tiny_hierarchical_spec() {
  scenario::ScenarioSpec spec = tiny_experiment_spec();
  spec.name = "tiny-hier";
  spec.platform.nodes = 0;
  spec.platform.name = "hier";
  spec.platform.cabinet_nodes = {2, 4, 3};
  return spec;
}

std::string write_temp_trace(const scenario::ScenarioSpec& spec,
                             const char* filename) {
  const std::string path = testing::TempDir() + filename;
  std::ofstream out(path, std::ios::binary);
  out << scenario::render_trace(spec, 1);
  out.close();
  return path;
}

TEST(TraceReplayTest, RenderIsThreadCountIndependent) {
  const auto spec = tiny_experiment_spec();
  EXPECT_EQ(scenario::render_trace(spec, 1), scenario::render_trace(spec, 4));
}

TEST(TraceReplayTest, VerifiesItsOwnRender) {
  const std::string path =
      write_temp_trace(tiny_experiment_spec(), "tiny_trace.jsonl");
  const ReplayReport report = verify_trace(path, 2);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.runs, 3u);  // 1 workload x naive's 3 algorithms
  EXPECT_GT(report.events, 0u);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, VerifiesHierarchicalScenario) {
  const std::string path =
      write_temp_trace(tiny_hierarchical_spec(), "hier_trace.jsonl");
  const ReplayReport report = verify_trace(path, 2);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.runs, 3u);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, DetectsTampering) {
  const std::string path =
      write_temp_trace(tiny_experiment_spec(), "tampered_trace.jsonl");
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  // Flip the first task_start event into a task id that never ran.
  const std::size_t at = text.find("\"ev\":\"task_start\",\"a\":");
  ASSERT_NE(at, std::string::npos);
  text[at + 22] = text[at + 22] == '9' ? '8' : '9';
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  const ReplayReport report = verify_trace(path, 1);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("diverges from replay"), std::string::npos)
      << report.error;
  std::remove(path.c_str());
}

/// Number of lines in a newline-terminated text.
std::size_t line_count(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

TEST(TraceReplayTest, RejectsMissingFinalNewline) {
  // The trace minus its last byte: every line still matches as text,
  // but the stream is not byte-identical.
  const std::string path =
      write_temp_trace(tiny_experiment_spec(), "unterminated_trace.jsonl");
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_EQ(text.back(), '\n');
  const std::size_t lines = line_count(text);
  text.pop_back();
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  const ReplayReport report = verify_trace(path, 1);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find(":" + std::to_string(lines) +
                              ": trace ends early (mid-line)"),
            std::string::npos)
      << report.error;
  std::remove(path.c_str());
}

TEST(TraceReplayTest, RejectsATraceThatEndsEarly) {
  const std::string text = scenario::render_trace(tiny_experiment_spec(), 1);
  const std::size_t lines = line_count(text);
  // Drop the whole last line (the final run_end record).
  const std::size_t last_line = text.rfind('\n', text.size() - 2) + 1;
  const ReplayReport report =
      verify_trace_text(text.substr(0, last_line), "cut.jsonl", 1);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("cut.jsonl:" + std::to_string(lines) +
                              ": trace ends early; replay expects: "
                              "{\"run_end\":"),
            std::string::npos)
      << report.error;
}

TEST(TraceReplayTest, RejectsTrailingContent) {
  const std::string text = scenario::render_trace(tiny_experiment_spec(), 1);
  const std::size_t lines = line_count(text);
  const ReplayReport report =
      verify_trace_text(text + "{\"extra\":1}\n", "long.jsonl", 1);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("long.jsonl:" + std::to_string(lines + 1) +
                              ": trailing content after the replayed "
                              "stream: {\"extra\":1}"),
            std::string::npos)
      << report.error;
  // A lone extra newline is trailing content too.
  EXPECT_FALSE(verify_trace_text(text + "\n", "long.jsonl", 1).ok);
}

TEST(TraceReplayTest, RejectsNonTraces) {
  const std::string path = testing::TempDir() + "not_a_trace.jsonl";
  std::ofstream out(path);
  out << "{\"something\":\"else\"}\n";
  out.close();
  const ReplayReport report = verify_trace(path, 1);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("not a RATS trace"), std::string::npos);
  std::remove(path.c_str());
  EXPECT_FALSE(verify_trace("/nonexistent/trace.jsonl").ok);
}

TEST(TraceReplayTest, CsvFlagLeavesTraceBytesAlone) {
  // `csv` only changes how the text report renders, so a trace of the
  // same simulation is the same with and without it.
  auto spec = scenario::load_scenario(std::string(RATS_SOURCE_DIR) +
                                      "/scenarios/fig2_quick.rats");
  spec.output.csv = false;
  const std::string plain = scenario::render_trace(spec, 2);
  spec.output.csv = true;
  const std::string with_csv = scenario::render_trace(spec, 2);
  EXPECT_EQ(plain, with_csv);
  EXPECT_TRUE(verify_trace_text(plain, "plain.jsonl", 2).ok);
  const ReplayReport replay = verify_trace_text(with_csv, "csv.jsonl", 2);
  EXPECT_TRUE(replay.ok) << replay.error;
}

TEST(TraceReplayTest, FileWorkloadMatchesTheInMemoryGraph) {
  // A user's workflow file reaches the scheduler only through a
  // `source = "file"` workload: it must schedule and simulate exactly
  // like the graph it was saved from, survive emit/parse, and replay.
  Rng rng(11);
  const TaskGraph graph = generate_fft_dag(8, rng);
  const std::string path = testing::TempDir() + "file_source_fft.wf";
  save_workflow(graph, path);

  scenario::ScenarioSpec spec = scenario::default_spec("single");
  spec.name = "file-source";
  spec.workload.source = scenario::WorkloadSpec::Source::File;
  spec.workload.path = path;
  spec.platform.presets.clear();
  spec.platform.name = "flat16";
  spec.platform.nodes = 16;
  spec.platform.gflops = 3.0;
  spec.threads = 1;

  const std::string emitted = scenario::emit_scenario(spec);
  EXPECT_NE(emitted.find("source = \"file\"\n"), std::string::npos);
  const scenario::ScenarioSpec reparsed =
      scenario::parse_scenario_string(emitted);
  EXPECT_EQ(reparsed.workload.source, scenario::WorkloadSpec::Source::File);
  EXPECT_EQ(reparsed.workload.path, path);
  EXPECT_EQ(scenario::emit_scenario(reparsed), emitted);

  const Cluster cluster = spec.platform.resolve_one();
  const AlgoSpec algo =
      spec.algorithms.resolve(DagFamily::Irregular, cluster.name()).front();
  const Schedule schedule = build_schedule(graph, cluster, algo.options);
  const SimulationResult direct = simulate(graph, schedule, cluster, {});

  const report::ReportModel model = scenario::build_report(spec);
  const auto scalar = [&](const std::string& id) {
    for (const auto& item : model.items)
      if (item.kind == report::Item::Kind::Scalar && item.scalar.id == id)
        return item.scalar.num;
    ADD_FAILURE() << "missing scalar " << id;
    return 0.0;
  };
  EXPECT_EQ(scalar("makespan/" + path + "/" + algo.name), direct.makespan);
  EXPECT_EQ(scalar("work/" + path + "/" + algo.name), direct.total_work);

  const std::string trace = scenario::render_trace(spec, 1);
  const ReplayReport replay = verify_trace_text(trace, "file.jsonl", 1);
  EXPECT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.runs, 1u);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, UntraceableKindsRefuse) {
  auto spec = scenario::default_spec("table4");
  EXPECT_THROW(scenario::render_trace(spec, 1), Error);
}

// ---- golden trace bytes ------------------------------------------------
// The full rendered traces of two checked-in scenarios, pinned by size
// and FNV-1a 64 digest.  Rates are pinned elsewhere; these also pin the
// order in which each solve settles its flows (the `{"r":…}` records),
// which no rate comparison sees.

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(TraceGoldenTest, CheckedInScenarioTracesArePinned) {
  struct Golden {
    const char* file;
    std::size_t bytes;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {"fig2_quick.rats", 154387, 0x55d5a54996d3fd04ull},
      {"hier_quick.rats", 1946827, 0x46c2933bdd4c06ceull},
  };
  for (const Golden& g : goldens) {
    const auto spec = scenario::load_scenario(std::string(RATS_SOURCE_DIR) +
                                              "/scenarios/" + g.file);
    for (const unsigned threads : {1u, 4u}) {
      const std::string text = scenario::render_trace(spec, threads);
      EXPECT_EQ(text.size(), g.bytes) << g.file << " threads " << threads;
      EXPECT_EQ(fnv1a64(text), g.digest) << g.file << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace rats
