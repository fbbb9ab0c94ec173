// Tests for the `rats fuzz` subsystem (src/fuzz): deterministic spec
// generation, the invariant oracle battery on generated specs, the
// delta-debugging minimizer, the forked watchdog driver, and the
// injected-bug minimize→pin loop end to end.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "exp/parallel.hpp"
#include "fuzz/driver.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/minimize.hpp"
#include "fuzz/oracles.hpp"
#include "scenario/parser.hpp"

namespace rats::fuzz {
namespace {

/// Scoped RATS_FUZZ_INJECT so a failing test never leaks the knob into
/// later tests (the battery reads it on every run).
struct Inject {
  explicit Inject(const char* what) { setenv("RATS_FUZZ_INJECT", what, 1); }
  ~Inject() { unsetenv("RATS_FUZZ_INJECT"); }
};

/// A small spec with a fail/restart pair plus decoy events, used by
/// the minimizer tests.
scenario::ScenarioSpec spec_with_fail() {
  scenario::ScenarioSpec spec;
  spec.name = "minimize-me";
  spec.kind = "experiment";
  spec.threads = 1;
  spec.platform.name = "mini";
  spec.platform.nodes = 4;
  spec.workload.source = scenario::WorkloadSpec::Source::Generate;
  spec.workload.generator = "strassen";
  spec.workload.count = 2;
  AlgoSpec hcpa;
  hcpa.name = "HCPA";
  hcpa.options.kind = SchedulerKind::Hcpa;
  AlgoSpec cpa;
  cpa.name = "CPA";
  cpa.options.kind = SchedulerKind::Cpa;
  spec.algorithms.preset.clear();
  spec.algorithms.algos = {hcpa, cpa};
  auto& ev = spec.events.timeline.events;
  PlatformEvent slow;
  slow.at = 0.5;
  slow.kind = PlatformEventKind::NodeSlowdown;
  slow.node = 1;
  slow.factor = 0.5;
  PlatformEvent traffic;
  traffic.at = 1.0;
  traffic.kind = PlatformEventKind::LinkCapacity;
  traffic.node = 2;
  traffic.factor = 0.25;
  PlatformEvent fail;
  fail.at = 2.0;
  fail.kind = PlatformEventKind::NodeFail;
  fail.node = 3;
  PlatformEvent restart = fail;
  restart.kind = PlatformEventKind::NodeRestart;
  restart.at = 3.0;
  ev = {slow, traffic, fail, restart};
  return spec;
}

bool has_fail_event(const scenario::ScenarioSpec& spec) {
  for (const PlatformEvent& e : spec.events.timeline.events)
    if (e.kind == PlatformEventKind::NodeFail) return true;
  return false;
}

TEST(FuzzGenerator, DeterministicPerSeedAndSeedSensitive) {
  const std::string a = scenario::emit_scenario(generate_spec(42));
  const std::string b = scenario::emit_scenario(generate_spec(42));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, scenario::emit_scenario(generate_spec(43)));
  EXPECT_NE(spec_seed(1, 0), spec_seed(1, 1));
  EXPECT_NE(spec_seed(1, 0), spec_seed(2, 0));
}

TEST(FuzzGenerator, SpecsAreValidByConstruction) {
  for (int i = 0; i < 50; ++i) {
    const scenario::ScenarioSpec spec = generate_spec(spec_seed(11, i));
    SCOPED_TRACE(spec.name);
    // Byte-stable through the text form.
    const std::string e1 = scenario::emit_scenario(spec);
    const scenario::ScenarioSpec reparsed =
        scenario::parse_scenario_string(e1, "<gen>");
    EXPECT_EQ(scenario::emit_scenario(reparsed), e1);
    // Resolvable platform, timeline valid against every cluster, and
    // every fail paired with a restart (the no-stall guarantee).
    const std::vector<Cluster> clusters = spec.platform.resolve();
    ASSERT_GE(clusters.size(), 1u);
    for (const Cluster& cluster : clusters)
      if (!spec.events.empty())
        EXPECT_NO_THROW(spec.events.resolve(cluster));
    int open_fails = 0;
    for (const PlatformEvent& e : spec.events.timeline.events) {
      if (e.kind == PlatformEventKind::NodeFail) ++open_fails;
      if (e.kind == PlatformEventKind::NodeRestart) --open_fails;
    }
    EXPECT_EQ(open_fails, 0);
  }
}

TEST(FuzzGenerator, CoversMultiClusterAndSweepShapes) {
  bool multi_cluster = false, sweep = false, single_cluster = false;
  for (int i = 0; i < 80; ++i) {
    const scenario::ScenarioSpec spec = generate_spec(spec_seed(11, i));
    SCOPED_TRACE(spec.name);
    const std::vector<Cluster> clusters = spec.platform.resolve();
    if (clusters.size() > 1) {
      multi_cluster = true;
      // Multi-cluster platforms pair with the table kinds only.
      EXPECT_TRUE(spec.kind == "table5" || spec.kind == "table6");
      EXPECT_TRUE(spec.platform.presets.size() >= 2);
    } else {
      single_cluster = true;
    }
    if (spec.kind == "sweep") {
      sweep = true;
      EXPECT_FALSE(spec.sweep.empty());
      EXPECT_TRUE(!spec.sweep.sweeps_events() || !spec.events.empty());
    }
  }
  EXPECT_TRUE(multi_cluster) << "no multi-cluster platform in 80 specs";
  EXPECT_TRUE(sweep) << "no sweep kind in 80 specs";
  EXPECT_TRUE(single_cluster);
}

TEST(FuzzOracles, GeneratedSpecsPassTheBattery) {
  for (int i = 0; i < 12; ++i) {
    const scenario::ScenarioSpec spec = generate_spec(spec_seed(5, i));
    SCOPED_TRACE(spec.name);
    const OracleReport report = run_battery(spec);
    EXPECT_TRUE(report.ok) << report.diagnosis;
  }
}

TEST(FuzzOracles, ThreadCountLegAgreesOnGeneratedSpecs) {
  for (int i = 0; i < 4; ++i) {
    const scenario::ScenarioSpec spec = generate_spec(spec_seed(11, i));
    SCOPED_TRACE(spec.name);
    const OracleReport report = check_thread_count_independence(spec);
    EXPECT_TRUE(report.ok) << report.diagnosis;
  }
  // The 4-thread side really ran on pool workers.
  EXPECT_GT(worker_pool_size(), 0u);
}

TEST(FuzzOracles, InjectedOracleFlagsFailTimelines) {
  const scenario::ScenarioSpec spec = spec_with_fail();
  EXPECT_TRUE(run_battery(spec).ok);
  const Inject inject("node-fail");
  const OracleReport report = run_battery(spec);
  ASSERT_FALSE(report.ok);
  EXPECT_NE(report.diagnosis.find("injected-oracle"), std::string::npos);
}

TEST(FuzzMinimize, ReducesToTheFailingIngredient) {
  const scenario::ScenarioSpec minimal =
      minimize_spec(spec_with_fail(), has_fail_event);
  // Everything irrelevant to "has a node-fail event" is gone: decoy
  // events, the extra graph, the second algorithm; the platform shrank.
  EXPECT_EQ(minimal.events.timeline.events.size(), 1u);
  EXPECT_TRUE(has_fail_event(minimal));
  EXPECT_EQ(minimal.workload.count, 1);
  EXPECT_EQ(minimal.algorithms.algos.size(), 1u);
  // The surviving event names node 3, so the validity probe must stop
  // the platform from shrinking below 4 nodes.
  EXPECT_EQ(minimal.platform.nodes, 4);
}

TEST(FuzzMinimize, CandidatesStayWellFormed) {
  // The probe must refuse shrinks that break the spec for a different
  // reason, e.g. dropping nodes below an event's node id.
  scenario::ScenarioSpec spec = spec_with_fail();
  const scenario::ScenarioSpec minimal = minimize_spec(
      spec, [](const scenario::ScenarioSpec& s) { return has_fail_event(s); });
  // The surviving fail event names node 3, so the platform cannot
  // shrink below 4 nodes while the event is still present... unless the
  // minimizer legitimately found an even smaller repro by dropping the
  // restart first.  Either way the result must resolve cleanly.
  const std::vector<Cluster> clusters = minimal.platform.resolve();
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_NO_THROW(minimal.events.resolve(clusters.front()));
}

TEST(FuzzDriver, CleanCampaignIsDeterministic) {
  FuzzOptions options;
  options.count = 8;
  options.seed = 21;
  options.regress_dir = testing::TempDir() + "rats-fuzz-clean";
  std::ostringstream out1, out2;
  const FuzzResult r1 = run_fuzz(options, out1);
  const FuzzResult r2 = run_fuzz(options, out2);
  EXPECT_EQ(r1.ran, 8);
  EXPECT_EQ(r1.failed, 0) << out1.str();
  EXPECT_EQ(out1.str(), out2.str());
  // A clean campaign writes nothing into the regression corpus.
  EXPECT_FALSE(std::filesystem::exists(options.regress_dir));
}

TEST(FuzzDriver, EmitOnlyPrintsTheSpecs) {
  FuzzOptions options;
  options.count = 2;
  options.seed = 3;
  options.emit_only = true;
  std::ostringstream out;
  run_fuzz(options, out);
  EXPECT_NE(out.str().find("[scenario]"), std::string::npos);
  EXPECT_NE(out.str().find(scenario::emit_scenario(generate_spec(
                spec_seed(3, 0)))),
            std::string::npos);
}

// The acceptance loop: a deliberately broken oracle must fuzz into a
// minimized repro on disk that the regression runner then fails on —
// and passes once the "bug" is fixed (the injection removed).
TEST(FuzzEndToEnd, InjectedBugIsMinimizedAndPinned) {
  const std::string dir = testing::TempDir() + "rats-fuzz-pin";
  std::filesystem::remove_all(dir);
  FuzzOptions options;
  options.count = 40;
  options.seed = 1;
  options.regress_dir = dir;
  std::ostringstream out;
  FuzzResult result;
  {
    const Inject inject("node-fail");
    result = run_fuzz(options, out);
  }
  ASSERT_GT(result.failed, 0) << "no generated timeline had a node-fail";
  ASSERT_FALSE(result.repro_paths.empty());

  const scenario::ScenarioSpec repro =
      scenario::load_scenario(result.repro_paths.front());
  // Minimized: exactly the failing ingredient survives.
  EXPECT_EQ(repro.events.timeline.events.size(), 1u);
  EXPECT_TRUE(has_fail_event(repro));
  EXPECT_EQ(repro.workload.count, 1);
  {
    // Bug still present: the pinned repro fails the battery — this is
    // what the regress corpus runner would report.
    const Inject inject("node-fail");
    EXPECT_FALSE(run_battery(repro).ok);
  }
  // Bug "fixed": the pinned repro passes and guards against regression.
  EXPECT_TRUE(run_battery(repro).ok) << "repro should pass once fixed";
  std::filesystem::remove_all(dir);
}

#if defined(__unix__) || defined(__APPLE__)
TEST(FuzzDriver, WatchdogKillsHungSpecs) {
  const Inject inject("hang");
  const SpecOutcome outcome =
      run_spec_isolated(generate_spec(spec_seed(1, 0)), 0.5);
  EXPECT_EQ(outcome.kind, SpecOutcome::Timeout);
  EXPECT_NE(outcome.diagnosis.find("watchdog"), std::string::npos);
}

TEST(FuzzDriver, IsolationSurvivesACrashingChild) {
  // A spec whose forked battery dies from a signal must come back as a
  // crash finding, not take the campaign down.
  const Inject inject("hang");  // the child never exits on its own
  const SpecOutcome outcome =
      run_spec_isolated(generate_spec(spec_seed(1, 1)), 0.2);
  EXPECT_NE(outcome.kind, SpecOutcome::Pass);
}
#endif

}  // namespace
}  // namespace rats::fuzz
