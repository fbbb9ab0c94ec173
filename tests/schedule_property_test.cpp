// Property tests over the full scheduler matrix: every algorithm on
// every cluster over a diverse corpus sample must produce schedules
// satisfying the structural invariants of the paper's model.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "daggen/corpus.hpp"
#include "platform/grid5000.hpp"
#include "sched/allocation.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace rats {
namespace {

struct Case {
  int cluster;    // index into grid5000::all()
  SchedulerKind kind;
};

class ScheduleProperties : public ::testing::TestWithParam<Case> {
 protected:
  static std::vector<CorpusEntry> corpus() {
    CorpusOptions o;
    o.random_samples = 1;
    o.kernel_samples = 1;
    std::vector<CorpusEntry> all;
    for (DagFamily f : {DagFamily::Layered, DagFamily::Irregular,
                        DagFamily::FFT, DagFamily::Strassen}) {
      auto fam = build_family(f, o);
      // Spread over the parameter grid, keep the suite fast.
      for (std::size_t i = 0; i < fam.size(); i += 1 + fam.size() / 3)
        all.push_back(fam[i]);
    }
    return all;
  }
};

TEST_P(ScheduleProperties, StructuralInvariants) {
  const auto [cluster_idx, kind] = GetParam();
  const Cluster cluster =
      grid5000::all()[static_cast<std::size_t>(cluster_idx)];
  SchedulerOptions options;
  options.kind = kind;

  for (const CorpusEntry& entry : corpus()) {
    const Schedule s = build_schedule(entry.graph, cluster, options);
    ASSERT_NO_THROW(s.validate(entry.graph, cluster)) << entry.name;

    for (TaskId t = 0; t < entry.graph.num_tasks(); ++t) {
      const auto& p = s.of(t);
      // Processor sets are non-empty, distinct, in range.
      ASSERT_FALSE(p.procs.empty()) << entry.name;
      std::set<NodeId> uniq(p.procs.begin(), p.procs.end());
      EXPECT_EQ(uniq.size(), p.procs.size()) << entry.name;
      EXPECT_GE(*uniq.begin(), 0);
      EXPECT_LT(*uniq.rbegin(), cluster.num_nodes());
      // Estimates are causally ordered with every predecessor.
      for (TaskId pred : entry.graph.predecessors(t)) {
        EXPECT_GE(p.est_start, s.of(pred).est_finish - 1e-9)
            << entry.name << " task " << t;
        EXPECT_GT(p.seq, s.of(pred).seq) << entry.name;
      }
      EXPECT_GT(p.est_finish, p.est_start) << "tasks take time";
    }
  }
}

TEST_P(ScheduleProperties, RatsAllocationsRespectTheDeltaBounds) {
  const auto [cluster_idx, kind] = GetParam();
  if (kind != SchedulerKind::RatsDelta) GTEST_SKIP();
  const Cluster cluster =
      grid5000::all()[static_cast<std::size_t>(cluster_idx)];

  SchedulerOptions options;
  options.kind = kind;  // defaults: mindelta -0.5, maxdelta 0.5

  for (const CorpusEntry& entry : corpus()) {
    // The delta strategy may only move a task's allocation to a
    // predecessor's size within [np*(1+mindelta), np*(1+maxdelta)] of
    // the HCPA step-one allocation np.
    AllocationOptions ao;
    ao.kind = AllocationKind::Hcpa;
    const Allocation base = allocate(entry.graph, cluster, ao);
    const Schedule s = build_schedule(entry.graph, cluster, options);
    for (TaskId t = 0; t < entry.graph.num_tasks(); ++t) {
      const double np = base[static_cast<std::size_t>(t)];
      const double got = static_cast<double>(s.of(t).procs.size());
      EXPECT_GE(got, np + options.rats.mindelta * np - 1e-9)
          << entry.name << " task " << t;
      EXPECT_LE(got, np + options.rats.maxdelta * np + 1e-9)
          << entry.name << " task " << t;
    }
  }
}

TEST_P(ScheduleProperties, SimulationAgreesOnWorkAndCoversAllTasks) {
  const auto [cluster_idx, kind] = GetParam();
  const Cluster cluster =
      grid5000::all()[static_cast<std::size_t>(cluster_idx)];
  const AmdahlModel model(cluster.node_speed());
  SchedulerOptions options;
  options.kind = kind;

  for (const CorpusEntry& entry : corpus()) {
    const Schedule s = build_schedule(entry.graph, cluster, options);
    const SimulationResult r = simulate(entry.graph, s, cluster);
    // Work is a pure function of the placement.
    double work = 0;
    for (TaskId t = 0; t < entry.graph.num_tasks(); ++t)
      work += model.work(entry.graph.task(t),
                         static_cast<int>(s.of(t).procs.size()));
    EXPECT_NEAR(r.total_work, work, work * 1e-9) << entry.name;
    // Every task ran, in causal order, and the makespan is the last
    // finish.
    Seconds last = 0;
    for (TaskId t = 0; t < entry.graph.num_tasks(); ++t) {
      const auto& tl = r.timeline[static_cast<std::size_t>(t)];
      EXPECT_GT(tl.finish, tl.start) << entry.name;
      for (TaskId pred : entry.graph.predecessors(t))
        EXPECT_GE(tl.start,
                  r.timeline[static_cast<std::size_t>(pred)].finish - 1e-9)
            << entry.name;
      last = std::max(last, tl.finish);
    }
    EXPECT_DOUBLE_EQ(r.makespan, last) << entry.name;
  }
}

TEST_P(ScheduleProperties, StepTwoOverloadMatchesFullSchedule) {
  // Mapping a separately computed step one gives the schedule the
  // one-call form builds, placement by placement.
  const auto [cluster_idx, kind] = GetParam();
  const Cluster cluster =
      grid5000::all()[static_cast<std::size_t>(cluster_idx)];
  SchedulerOptions options;
  options.kind = kind;

  for (const CorpusEntry& entry : corpus()) {
    const Schedule full = build_schedule(entry.graph, cluster, options);
    const Schedule split = build_schedule(
        entry.graph, cluster, options,
        allocate(entry.graph, cluster, {allocation_kind(options.kind)}));
    ASSERT_EQ(split.placements.size(), full.placements.size());
    for (TaskId t = 0; t < entry.graph.num_tasks(); ++t) {
      EXPECT_EQ(split.of(t).procs, full.of(t).procs) << entry.name;
      EXPECT_EQ(split.of(t).est_start, full.of(t).est_start) << entry.name;
      EXPECT_EQ(split.of(t).est_finish, full.of(t).est_finish) << entry.name;
      EXPECT_EQ(split.of(t).seq, full.of(t).seq) << entry.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllClustersAllAlgorithms, ScheduleProperties,
    ::testing::Values(Case{0, SchedulerKind::Cpa}, Case{0, SchedulerKind::Mcpa},
                      Case{0, SchedulerKind::Hcpa},
                      Case{0, SchedulerKind::RatsDelta},
                      Case{0, SchedulerKind::RatsTimeCost},
                      Case{1, SchedulerKind::Hcpa},
                      Case{1, SchedulerKind::RatsDelta},
                      Case{1, SchedulerKind::RatsTimeCost},
                      Case{2, SchedulerKind::Hcpa},
                      Case{2, SchedulerKind::RatsDelta},
                      Case{2, SchedulerKind::RatsTimeCost}),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = grid5000::all()[static_cast<std::size_t>(
                             info.param.cluster)].name() +
                         "_" + to_string(info.param.kind);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace rats
