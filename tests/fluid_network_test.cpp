// Unit tests for the fluid (flow-level) network simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "net/fluid_network.hpp"
#include "obs/registry.hpp"

namespace rats {
namespace {

// 1 Gb/s = 125 MB/s links, 100 us latency: the paper's interconnect.
Cluster test_cluster(int nodes = 4) {
  return Cluster::flat("net-test", nodes, 1e9, 100e-6, 125e6);
}

TEST(FluidNetwork, SingleFlowTakesLatencyPlusTransferTime) {
  const Cluster c = test_cluster();
  FluidNetwork net(c);
  const FlowId f = net.open_flow(0, 1, 125e6);  // one second of payload
  net.advance_to(10.0);
  ASSERT_TRUE(net.flow_done(f));
  // Route latency = 2 * 100us; bandwidth 125 MB/s.
  EXPECT_NEAR(net.flow_finish_time(f), 2e-4 + 1.0, 1e-9);
}

TEST(FluidNetwork, LoopbackIsInstant) {
  const Cluster c = test_cluster();
  FluidNetwork net(c);
  const FlowId f = net.open_flow(2, 2, 1e9);
  EXPECT_TRUE(net.flow_done(f));
  EXPECT_DOUBLE_EQ(net.flow_finish_time(f), 0.0);
}

TEST(FluidNetwork, ZeroByteFlowCompletesAfterLatency) {
  const Cluster c = test_cluster();
  FluidNetwork net(c);
  const FlowId f = net.open_flow(0, 1, 0);
  EXPECT_TRUE(net.flow_done(f));
  EXPECT_NEAR(net.flow_finish_time(f), 2e-4, 1e-12);
}

TEST(FluidNetwork, TwoFlowsOutOfSameNicShareBandwidth) {
  const Cluster c = test_cluster();
  FluidNetwork net(c);
  const FlowId f1 = net.open_flow(0, 1, 125e6);
  const FlowId f2 = net.open_flow(0, 2, 125e6);
  net.advance_to(10.0);
  // Both share node 0's uplink: each gets 62.5 MB/s -> ~2s transfers.
  EXPECT_NEAR(net.flow_finish_time(f1), 2.0 + 2e-4, 1e-6);
  EXPECT_NEAR(net.flow_finish_time(f2), 2.0 + 2e-4, 1e-6);
}

TEST(FluidNetwork, DisjointFlowsDoNotInterfere) {
  const Cluster c = test_cluster();
  FluidNetwork net(c);
  const FlowId f1 = net.open_flow(0, 1, 125e6);
  const FlowId f2 = net.open_flow(2, 3, 125e6);
  net.advance_to(10.0);
  EXPECT_NEAR(net.flow_finish_time(f1), 1.0 + 2e-4, 1e-9);
  EXPECT_NEAR(net.flow_finish_time(f2), 1.0 + 2e-4, 1e-9);
}

TEST(FluidNetwork, DepartureReleasesBandwidthToSurvivors) {
  const Cluster c = test_cluster();
  FluidNetwork net(c);
  // Short flow (0.5s at half rate) and long flow share node 0's NIC.
  const FlowId short_flow = net.open_flow(0, 1, 31.25e6);
  const FlowId long_flow = net.open_flow(0, 2, 125e6);
  net.advance_to(10.0);
  // Phase 1: both at 62.5 MB/s until short done at ~0.5s.
  EXPECT_NEAR(net.flow_finish_time(short_flow), 0.5 + 2e-4, 1e-6);
  // Long flow: 31.25 MB done in phase 1, remaining 93.75 MB at full
  // 125 MB/s -> 0.75s more.
  EXPECT_NEAR(net.flow_finish_time(long_flow), 0.5 + 0.75 + 2e-4, 1e-6);
}

TEST(FluidNetwork, LateArrivalSlowsExistingFlow) {
  const Cluster c = test_cluster();
  FluidNetwork net(c);
  const FlowId first = net.open_flow(0, 1, 125e6);
  net.advance_to(0.5);  // ~62.4 MB transferred at full rate
  const FlowId second = net.open_flow(0, 2, 125e6);
  net.advance_to(10.0);
  // First flow needed ~0.5s more alone; sharing doubles that.
  EXPECT_NEAR(net.flow_finish_time(first), 0.5 + 2.0 * (0.5 + 2e-4) - 2e-4,
              1e-3);
  ASSERT_TRUE(net.flow_done(second));
  EXPECT_GT(net.flow_finish_time(second), 1.5);
}

TEST(FluidNetwork, NextEventTimePredictsCompletion) {
  const Cluster c = test_cluster();
  FluidNetwork net(c);
  net.open_flow(0, 1, 125e6);
  const auto next = net.next_event_time();
  ASSERT_TRUE(next.has_value());
  // First event: latency-phase exit at 200us.
  EXPECT_NEAR(*next, 2e-4, 1e-12);
  net.advance_to(*next);
  const auto completion = net.next_event_time();
  ASSERT_TRUE(completion.has_value());
  EXPECT_NEAR(*completion, 2e-4 + 1.0, 1e-9);
}

TEST(FluidNetwork, NoEventsWhenIdle) {
  const Cluster c = test_cluster();
  FluidNetwork net(c);
  EXPECT_FALSE(net.next_event_time().has_value());
  net.open_flow(1, 1, 10);  // loopback, done immediately
  EXPECT_FALSE(net.next_event_time().has_value());
}

TEST(FluidNetwork, CannotMoveTimeBackwards) {
  const Cluster c = test_cluster();
  FluidNetwork net(c);
  net.advance_to(1.0);
  EXPECT_THROW(net.advance_to(0.5), Error);
}

TEST(FluidNetwork, RejectsNegativeVolume) {
  const Cluster c = test_cluster();
  FluidNetwork net(c);
  EXPECT_THROW(net.open_flow(0, 1, -1), Error);
}

TEST(FluidNetwork, TcpWindowCapsLongRttFlows) {
  // Shrink the TCP window so W/RTT binds below the link bandwidth.
  Cluster c = test_cluster();
  c.set_tcp_window(12500);  // bytes; RTT = 400us -> cap = 31.25 MB/s
  FluidNetwork net(c);
  const FlowId f = net.open_flow(0, 1, 31.25e6);
  net.advance_to(10.0);
  EXPECT_NEAR(net.flow_finish_time(f), 2e-4 + 1.0, 1e-6);
}

TEST(FluidNetwork, HierarchicalUplinkIsTheBottleneck) {
  // Two cabinets of two nodes; all cross-cabinet flows share one uplink.
  const Cluster c = Cluster::hierarchical("h", 2, 2, 1e9, 100e-6, 125e6,
                                          100e-6, 125e6);
  FluidNetwork net(c);
  const FlowId f1 = net.open_flow(0, 2, 125e6);  // cab 0 -> cab 1
  const FlowId f2 = net.open_flow(1, 3, 125e6);  // cab 0 -> cab 1
  net.advance_to(10.0);
  // Each NIC is private but the cabinet uplink is shared: 62.5 MB/s each.
  EXPECT_NEAR(net.flow_finish_time(f1), 2.0 + 4e-4, 1e-6);
  EXPECT_NEAR(net.flow_finish_time(f2), 2.0 + 4e-4, 1e-6);
}

// Merge-then-depart churn on a hierarchical cluster with validation
// on: every rate flush re-solves the whole population cold and
// requires bitwise equality with the incremental (cone-warm) rates.
// Staggered sizes make finishes (departures) interleave with arrivals
// while cross-cabinet flows keep merging and splitting the sharing
// components over the uplinks — the deep-cone regime of solve_warm.
TEST(FluidNetwork, HierarchicalMergeThenDepartWarmEqualsCold) {
  const Cluster c = Cluster::hierarchical("h3", 3, 4, 1e9, 100e-6, 125e6,
                                          100e-6, 250e6);
  FluidNetwork net(c);
  net.set_validation(true);
  // Intra-cabinet flows: three separate sharing components.
  net.open_flow(0, 1, 30e6);
  net.open_flow(1, 2, 90e6);
  net.open_flow(4, 5, 45e6);
  net.open_flow(6, 7, 120e6);
  net.open_flow(8, 9, 60e6);
  net.advance_to(0.1);
  // Cross-cabinet bridges merge the components over the uplinks.
  net.open_flow(0, 4, 200e6);
  net.open_flow(4, 8, 150e6);
  net.advance_to(0.4);  // the small intra-cabinet flows finish (depart)
  net.open_flow(1, 9, 80e6);
  net.open_flow(10, 11, 25e6);
  net.advance_to(1.1);
  net.open_flow(9, 2, 50e6);  // re-merge after earlier finishes
  net.advance_to(30.0);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(FluidNetwork, ByteAccountingMatchesOpenedVolume) {
  const Cluster c = test_cluster();
  FluidNetwork net(c);
  net.open_flow(0, 1, 1000.0);
  net.open_flow(1, 2, 2000.0);
  net.open_flow(3, 3, 500.0);  // loopback still counted as opened
  EXPECT_DOUBLE_EQ(net.total_bytes_opened(), 3500.0);
}

TEST(FluidNetwork, ManySmallFlowsAllComplete) {
  const Cluster c = test_cluster(8);
  FluidNetwork net(c);
  std::vector<FlowId> flows;
  for (int i = 0; i < 64; ++i)
    flows.push_back(net.open_flow(i % 8, (i + 3) % 8, 1e6 * (1 + i % 5)));
  net.advance_to(100.0);
  for (FlowId f : flows) EXPECT_TRUE(net.flow_done(f));
}

TEST(FluidNetwork, AdvanceInSmallStepsMatchesOneBigStep) {
  const Cluster c = test_cluster();
  FluidNetwork a(c);
  FluidNetwork b(c);
  const FlowId fa = a.open_flow(0, 1, 125e6);
  const FlowId fb = b.open_flow(0, 1, 125e6);
  for (int i = 1; i <= 1000; ++i) a.advance_to(2.0 * i / 1000.0);
  b.advance_to(2.0);
  ASSERT_TRUE(a.flow_done(fa));
  ASSERT_TRUE(b.flow_done(fb));
  EXPECT_NEAR(a.flow_finish_time(fa), b.flow_finish_time(fb), 1e-6);
}

// -------------------------------------------- sharing-component partition

// Brute-force check that the engine's partition matches the connected
// components of the link-sharing graph over released, unfinished flows.
void expect_exact_partition(const FluidNetwork& net,
                            const std::vector<FlowId>& flows) {
  std::vector<FlowId> alive;
  for (FlowId f : flows)
    if (net.flow(f).released && !net.flow(f).done) alive.push_back(f);

  // Union-find over the alive flows by shared link.
  std::map<FlowId, FlowId> parent;
  for (FlowId f : alive) parent[f] = f;
  std::function<FlowId(FlowId)> find = [&](FlowId x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (std::size_t i = 0; i < alive.size(); ++i)
    for (std::size_t j = i + 1; j < alive.size(); ++j) {
      const RouteView a = net.flow_route(alive[i]);
      const RouteView b = net.flow_route(alive[j]);
      const bool share = std::any_of(a.begin(), a.end(), [&](LinkId l) {
        return std::find(b.begin(), b.end(), l) != b.end();
      });
      if (share) parent[find(alive[i])] = find(alive[j]);
    }

  // Same partition: pairs agree, and the component count matches.
  std::set<FlowId> roots;
  std::set<std::int32_t> comps;
  for (FlowId f : alive) {
    roots.insert(find(f));
    ASSERT_GE(net.flow_component(f), 0) << "flow " << f;
    comps.insert(net.flow_component(f));
  }
  for (std::size_t i = 0; i < alive.size(); ++i)
    for (std::size_t j = i + 1; j < alive.size(); ++j)
      EXPECT_EQ(find(alive[i]) == find(alive[j]),
                net.flow_component(alive[i]) == net.flow_component(alive[j]))
          << "flows " << alive[i] << " and " << alive[j];
  EXPECT_EQ(comps.size(), roots.size());
  EXPECT_EQ(net.num_components(), roots.size());
}

TEST(FluidNetworkComponents, PartitionRefinesLinkSharing) {
  const Cluster c = test_cluster(6);
  FluidNetwork net(c);
  // Two sharing pairs and one isolated flow: 0->1 and 0->2 share node
  // 0's uplink; 3->4 and 5->4 share node 4's downlink; 1->5 is alone...
  // no: 1->5 shares 1's uplink with nothing and 5's downlink with
  // nothing else, so it forms its own component.
  std::vector<FlowId> flows;
  flows.push_back(net.open_flow(0, 1, 1e8));
  flows.push_back(net.open_flow(0, 2, 1e8));
  flows.push_back(net.open_flow(3, 4, 1e8));
  flows.push_back(net.open_flow(5, 4, 1e8));
  flows.push_back(net.open_flow(1, 5, 1e8));
  net.advance_to(0.01);  // everyone past the 200us latency phase
  EXPECT_EQ(net.flow_component(flows[0]), net.flow_component(flows[1]));
  EXPECT_EQ(net.flow_component(flows[2]), net.flow_component(flows[3]));
  EXPECT_NE(net.flow_component(flows[0]), net.flow_component(flows[2]));
  EXPECT_NE(net.flow_component(flows[0]), net.flow_component(flows[4]));
  EXPECT_NE(net.flow_component(flows[2]), net.flow_component(flows[4]));
  EXPECT_EQ(net.num_components(), 3u);
  expect_exact_partition(net, flows);
}

TEST(FluidNetworkComponents, ComponentsMergeOnActivate) {
  const Cluster c = test_cluster(6);
  FluidNetwork net(c);
  const FlowId a = net.open_flow(0, 1, 1e9);
  const FlowId b = net.open_flow(2, 3, 1e9);
  net.advance_to(0.01);
  ASSERT_NE(net.flow_component(a), net.flow_component(b));
  ASSERT_EQ(net.num_components(), 2u);
  // 0 -> 3 shares 0's uplink with `a` and 3's downlink with `b`.
  const FlowId bridge = net.open_flow(0, 3, 1e9);
  EXPECT_EQ(net.flow_component(bridge), -1);  // still latent
  net.advance_to(0.02);
  EXPECT_EQ(net.flow_component(a), net.flow_component(bridge));
  EXPECT_EQ(net.flow_component(b), net.flow_component(bridge));
  EXPECT_EQ(net.num_components(), 1u);
  expect_exact_partition(net, {a, b, bridge});
}

TEST(FluidNetworkComponents, ComponentsSplitWhenTheBridgeCompletes) {
  const Cluster c = test_cluster(6);
  FluidNetwork net(c);
  // Bridge 0->1 connects 0->2 (via 0's uplink) and 3->1 (via 1's
  // downlink); it carries far fewer bytes, so it finishes first.
  const FlowId left = net.open_flow(0, 2, 4e8);
  const FlowId right = net.open_flow(3, 1, 4e8);
  const FlowId bridge = net.open_flow(0, 1, 1e7);
  net.advance_to(0.01);
  ASSERT_EQ(net.flow_component(left), net.flow_component(bridge));
  ASSERT_EQ(net.flow_component(right), net.flow_component(bridge));
  ASSERT_EQ(net.num_components(), 1u);
  net.advance_to(1.0);  // bridge done (~0.16s); the others still run
  ASSERT_TRUE(net.flow_done(bridge));
  ASSERT_FALSE(net.flow_done(left));
  ASSERT_FALSE(net.flow_done(right));
  EXPECT_EQ(net.flow_component(bridge), -1);
  EXPECT_NE(net.flow_component(left), net.flow_component(right));
  EXPECT_EQ(net.num_components(), 2u);
  expect_exact_partition(net, {left, right, bridge});
}

// ------------------------------------------------ warm-state exactness
// The component solves dispatch among warm re-solves and cold solves
// over two-link or general adjacency; whatever the path — and across
// merges (bulk pending arrivals), splits (trace invalidation) and the
// amortized re-partition of large components — every released flow's
// rate must equal a from-scratch Max-Min solve of the whole released
// population, bit for bit.

void expect_rates_match_full_solve(const Cluster& c, const FluidNetwork& net,
                                   const std::vector<FlowId>& flows,
                                   int step) {
  std::vector<Rate> capacity;
  for (LinkId l = 0; l < c.num_links(); ++l)
    capacity.push_back(c.link(l).bandwidth);
  std::vector<FlowDemand> demands;
  std::vector<FlowId> released;
  for (const FlowId id : flows) {
    const FlowState& f = net.flow(id);
    if (!f.released || f.done) continue;
    released.push_back(id);
    const RouteView route = net.flow_route(id);
    demands.push_back(
        FlowDemand{std::vector<LinkId>(route.begin(), route.end()), f.cap});
  }
  std::vector<Rate> expected;
  MaxMinSolver solver;
  solver.solve(capacity, demands, expected);
  for (std::size_t k = 0; k < released.size(); ++k)
    EXPECT_EQ(net.flow_rate(released[k]), expected[k])
        << "step " << step << " flow " << released[k] << " on " << c.name();
}

TEST(FluidNetworkWarm, RandomTrafficRatesMatchFullSolveBitwise) {
  // Flat (two-link cold solves + warm) and hierarchical (general cold
  // solves + warm; cross-cabinet routes have four links) clusters.
  const std::vector<Cluster> clusters = {
      test_cluster(10),
      Cluster::hierarchical("h-test", 3, 4, 1e9, 100e-6, 125e6, 100e-6,
                            125e6)};
  for (const Cluster& c : clusters) {
    FluidNetwork net(c);
    const int nodes = c.num_nodes();
    std::uint64_t state = 987654321;
    const auto next_u32 = [&state]() {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<std::uint32_t>(state >> 33);
    };
    std::vector<FlowId> flows;
    Seconds t = 0;
    int step = 0;

    // Phase A: grow one large component (> 64 members, hot node 0) so
    // the amortized split walk is armed, with staggered arrivals taking
    // the warm path.
    for (int i = 0; i < 80; ++i) {
      const int dst = 1 + static_cast<int>(next_u32() % (nodes - 1));
      flows.push_back(net.open_flow(0, dst, 1e6 * (1 + next_u32() % 100)));
      t += 0.0002 * (1 + next_u32() % 5);
      net.advance_to(t);
      expect_rates_match_full_solve(c, net, flows, step++);
    }
    // Phase B: mixed random traffic (merges via bridging flows) while
    // phase A flows drain (departures, splits, re-partitions).
    for (int i = 0; i < 120; ++i) {
      const int src = static_cast<int>(next_u32() % nodes);
      int dst = static_cast<int>(next_u32() % nodes);
      if (dst == src) dst = (dst + 1) % nodes;
      flows.push_back(net.open_flow(src, dst, 1e6 * (1 + next_u32() % 300)));
      t += 0.003 * (1 + next_u32() % 40);
      net.advance_to(t);
      expect_rates_match_full_solve(c, net, flows, step++);
    }
    // Phase C: drain everything, checking along the way.
    while (net.active_flows() > 0) {
      t += 0.05;
      net.advance_to(t);
      expect_rates_match_full_solve(c, net, flows, step++);
    }
    for (FlowId f : flows) EXPECT_TRUE(net.flow_done(f));
  }
}

// ------------------------------------------------- cold-solve dispatch
// A cold solve is tagged by route shape: a component whose members all
// cross exactly two links records `kSolveBipartite`, any other
// component `kSolveGeneral`.  The trace tags and the `net/solve/*`
// counters must agree one to one.

struct DispatchTally {
  std::map<int, std::uint64_t> traced;   ///< SolveComponent records per tag
  std::map<int, std::uint64_t> counted;  ///< `net/solve/*` counter deltas
  std::set<std::size_t> route_lengths;   ///< links per opened flow
};

/// Staggered random traffic between the node pairs `pick` returns
/// (arrivals, merges, departures and splits), traced and counted.
DispatchTally tally_dispatch(
    const Cluster& c,
    const std::function<std::pair<int, int>(std::uint32_t, std::uint32_t)>&
        pick) {
  const char* const names[] = {"net/solve/singleton", "net/solve/warm",
                               "net/solve/bipartite", "net/solve/general"};
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  std::uint64_t before[4];
  for (int tag = 0; tag < 4; ++tag)
    before[tag] = obs::counter(names[tag]).value();

  TraceSink sink;
  FluidNetwork net(c);
  net.set_trace(&sink);
  std::uint64_t state = 0xD15Au;
  const auto next_u32 = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 33);
  };
  DispatchTally tally;
  Seconds t = 0;
  for (int i = 0; i < 60; ++i) {
    const std::uint32_t r1 = next_u32();
    const auto [src, dst] = pick(r1, next_u32());
    const FlowId id = net.open_flow(src, dst, 1e6 * (1 + next_u32() % 200));
    tally.route_lengths.insert(net.flow_route(id).size());
    t += 0.002 * (1 + next_u32() % 10);
    net.advance_to(t);
  }
  while (net.active_flows() > 0) net.advance_to(t += 0.05);

  for (int tag = 0; tag < 4; ++tag)
    tally.counted[tag] = obs::counter(names[tag]).value() - before[tag];
  obs::set_metrics_enabled(was_enabled);
  for (const TraceEvent& ev : sink.events())
    if (ev.kind == TraceEventKind::SolveComponent)
      ++tally.traced[static_cast<int>(ev.value)];
  return tally;
}

TEST(FluidNetworkDispatch, FlatClusterColdSolvesAreTwoLink) {
  const Cluster c = test_cluster(8);
  DispatchTally tally =
      tally_dispatch(c, [](std::uint32_t a, std::uint32_t b) {
        const int src = static_cast<int>(a % 8);
        const int dst = (src + 1 + static_cast<int>(b % 7)) % 8;
        return std::pair<int, int>(src, dst);
      });
  EXPECT_EQ(tally.route_lengths, std::set<std::size_t>{2});
  EXPECT_GT(tally.traced[kSolveBipartite], 0u);
  EXPECT_GT(tally.traced[kSolveWarm], 0u);
  EXPECT_EQ(tally.traced[kSolveGeneral], 0u);
  for (int tag = 0; tag < 4; ++tag)
    EXPECT_EQ(tally.traced[tag], tally.counted[tag]) << "strategy " << tag;
}

TEST(FluidNetworkDispatch, CrossCabinetColdSolvesAreGeneral) {
  // Three cabinets of four nodes; every flow leaves its cabinet, so
  // every route crosses four links (two NICs, two cabinet uplinks).
  const Cluster c = Cluster::hierarchical("h-test", 3, 4, 1e9, 100e-6,
                                          125e6, 100e-6, 250e6);
  DispatchTally tally =
      tally_dispatch(c, [](std::uint32_t a, std::uint32_t b) {
        const int src = static_cast<int>(a % 12);
        const int cabinet = (src / 4 + 1 + static_cast<int>(b % 2)) % 3;
        const int dst = 4 * cabinet + static_cast<int>(b / 2 % 4);
        return std::pair<int, int>(src, dst);
      });
  EXPECT_EQ(tally.route_lengths, std::set<std::size_t>{4});
  EXPECT_GT(tally.traced[kSolveGeneral], 0u);
  EXPECT_GT(tally.traced[kSolveWarm], 0u);
  EXPECT_EQ(tally.traced[kSolveBipartite], 0u);
  for (int tag = 0; tag < 4; ++tag)
    EXPECT_EQ(tally.traced[tag], tally.counted[tag]) << "strategy " << tag;
}

// ------------------------------------------- capacity-update exactness
// set_link_capacity (the platform-timeline entry point) must leave the
// network in exactly the state a full invalidation would: 200 random
// interleavings of traffic and capacity changes, one network updating
// incrementally, its twin invalidated from scratch after every change.
// Rates and finish times must agree bit for bit throughout.

TEST(FluidNetworkCapacity, TargetedUpdateMatchesFullInvalidationBitwise) {
  const std::vector<Cluster> clusters = {
      test_cluster(6),
      Cluster::hierarchical("h-test", 3, 4, 1e9, 100e-6, 125e6, 100e-6,
                            125e6)};
  for (const Cluster& c : clusters) {
    FluidNetwork incremental(c);
    FluidNetwork oracle(c);
    const int nodes = c.num_nodes();
    std::uint64_t state = 2718281828;
    const auto next_u32 = [&state]() {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<std::uint32_t>(state >> 33);
    };
    std::vector<FlowId> flows;
    Seconds t = 0;
    for (int step = 0; step < 200; ++step) {
      switch (next_u32() % 3) {
        case 0: {  // open a flow on both networks
          const int src = static_cast<int>(next_u32() % nodes);
          int dst = static_cast<int>(next_u32() % nodes);
          if (dst == src) dst = (dst + 1) % nodes;
          const Bytes bytes = 1e6 * (1 + next_u32() % 200);
          const FlowId a = incremental.open_flow(src, dst, bytes);
          const FlowId b = oracle.open_flow(src, dst, bytes);
          ASSERT_EQ(a, b);
          flows.push_back(a);
          break;
        }
        case 1: {  // scale a random link's capacity
          const LinkId link =
              static_cast<LinkId>(next_u32() % c.num_links());
          static const double kFactors[] = {0.25, 0.5, 0.75, 1.0};
          const Rate cap = c.link(link).bandwidth * kFactors[next_u32() % 4];
          incremental.set_link_capacity(link, cap);
          oracle.set_link_capacity(link, cap);
          oracle.invalidate_all_rates();
          oracle.ensure_rates();
          break;
        }
        default: {  // let time pass
          t += 0.001 * (1 + next_u32() % 40);
          incremental.advance_to(t);
          oracle.advance_to(t);
          break;
        }
      }
      for (LinkId l = 0; l < c.num_links(); ++l)
        ASSERT_EQ(incremental.link_capacity(l), oracle.link_capacity(l));
      for (FlowId f : flows) {
        ASSERT_EQ(incremental.flow_done(f), oracle.flow_done(f))
            << "step " << step << " flow " << f << " on " << c.name();
        if (incremental.flow_done(f)) {
          EXPECT_EQ(incremental.flow_finish_time(f),
                    oracle.flow_finish_time(f))
              << "step " << step << " flow " << f << " on " << c.name();
        } else {
          EXPECT_EQ(incremental.flow_rate(f), oracle.flow_rate(f))
              << "step " << step << " flow " << f << " on " << c.name();
        }
      }
    }
    // Restore full capacity and drain: finish order and times agree.
    for (LinkId l = 0; l < c.num_links(); ++l) {
      incremental.set_link_capacity(l, c.link(l).bandwidth);
      oracle.set_link_capacity(l, c.link(l).bandwidth);
    }
    oracle.invalidate_all_rates();
    while (incremental.active_flows() > 0 || oracle.active_flows() > 0) {
      t += 0.05;
      incremental.advance_to(t);
      oracle.advance_to(t);
    }
    for (FlowId f : flows) {
      ASSERT_TRUE(incremental.flow_done(f));
      EXPECT_EQ(incremental.flow_finish_time(f), oracle.flow_finish_time(f));
    }
  }
}

TEST(FluidNetworkComponents, RandomTrafficKeepsPartitionExact) {
  const Cluster c = test_cluster(8);
  FluidNetwork net(c);
  std::uint64_t state = 12345;
  const auto next_u32 = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 33);
  };
  std::vector<FlowId> flows;
  Seconds t = 0;
  for (int round = 0; round < 60; ++round) {
    const int src = static_cast<int>(next_u32() % 8);
    int dst = static_cast<int>(next_u32() % 8);
    if (dst == src) dst = (dst + 1) % 8;
    flows.push_back(
        net.open_flow(src, dst, 1e6 * (1 + next_u32() % 200)));
    t += 0.001 * (1 + next_u32() % 50);
    net.advance_to(t);
    expect_exact_partition(net, flows);
  }
  net.advance_to(1e6);
  for (FlowId f : flows) EXPECT_TRUE(net.flow_done(f));
  EXPECT_EQ(net.num_components(), 0u);
}

}  // namespace
}  // namespace rats
