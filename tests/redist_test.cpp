// Unit and property tests for 1-D block redistribution, including the
// paper's Table I communication matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <tuple>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "redist/block_redistribution.hpp"
#include "redist/estimate.hpp"

namespace rats {
namespace {

std::vector<NodeId> nodes(std::initializer_list<NodeId> ids) { return ids; }

// ------------------------------------------------------------ overlap

TEST(BlockOverlap, IdentityDistribution) {
  EXPECT_DOUBLE_EQ(block_overlap(100, 4, 2, 4, 2), 25.0);
  EXPECT_DOUBLE_EQ(block_overlap(100, 4, 2, 4, 3), 0.0);
}

TEST(BlockOverlap, RejectsBadRanks) {
  EXPECT_THROW(block_overlap(100, 4, 4, 4, 0), Error);
  EXPECT_THROW(block_overlap(100, 0, 0, 4, 0), Error);
}

// The exact communication matrix of Table I: 10 units of data, p = 4
// senders, q = 5 receivers.
TEST(Redistribution, TableOneMatrix) {
  const auto r = Redistribution::plan(10.0, nodes({0, 1, 2, 3}),
                                      nodes({4, 5, 6, 7, 8}));
  const auto m = r.matrix();
  const std::vector<std::vector<double>> expected = {
      {2.0, 0.5, 0.0, 0.0, 0.0},
      {0.0, 1.5, 1.0, 0.0, 0.0},
      {0.0, 0.0, 1.0, 1.5, 0.0},
      {0.0, 0.0, 0.0, 0.5, 2.0},
  };
  ASSERT_EQ(m.size(), 4u);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 5; ++j)
      EXPECT_NEAR(m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                  expected[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j)],
                  1e-12)
          << "entry (" << i << "," << j << ")";
}

TEST(Redistribution, DisjointSetsHaveNoSelfBytes) {
  const auto r = Redistribution::plan(10.0, nodes({0, 1, 2, 3}),
                                      nodes({4, 5, 6, 7, 8}));
  EXPECT_DOUBLE_EQ(r.self_bytes(), 0.0);
  EXPECT_NEAR(r.remote_bytes(), 10.0, 1e-12);
  // Block overlap yields at most p + q - 1 transfers.
  EXPECT_LE(r.transfers().size(), 8u);
}

TEST(Redistribution, SameOrderedSetIsAllSelf) {
  const auto r =
      Redistribution::plan(1e6, nodes({3, 1, 4}), nodes({3, 1, 4}));
  EXPECT_TRUE(r.transfers().empty());
  EXPECT_DOUBLE_EQ(r.remote_bytes(), 0.0);
  EXPECT_NEAR(r.self_bytes(), 1e6, 1e-6);
}

TEST(Redistribution, SameSetDifferentOrderRecoversIdentity) {
  // The self-communication maximization permutes receivers back into
  // the senders' order, so no byte crosses the network.
  const auto r =
      Redistribution::plan(1e6, nodes({3, 1, 4}), nodes({4, 3, 1}));
  EXPECT_TRUE(r.transfers().empty());
  EXPECT_EQ(r.receiver_order(), nodes({3, 1, 4}));
}

TEST(Redistribution, WithoutMaximizationSamePermutedSetCommunicates) {
  const auto r = Redistribution::plan(1e6, nodes({3, 1, 4}),
                                      nodes({4, 3, 1}), false);
  EXPECT_FALSE(r.transfers().empty());
  EXPECT_GT(r.remote_bytes(), 0.0);
}

TEST(Redistribution, PartialOverlapKeepsSharedNodesLocal) {
  // Senders {0,1}, receivers {1,2}: node 1 appears on both sides and
  // should keep its half local.
  const auto r = Redistribution::plan(100.0, nodes({0, 1}), nodes({1, 2}));
  EXPECT_NEAR(r.self_bytes(), 50.0, 1e-9);
  EXPECT_NEAR(r.remote_bytes(), 50.0, 1e-9);
  // Receiver rank 1 (second half) is node 1.
  EXPECT_EQ(r.receiver_order()[1], 1);
}

TEST(Redistribution, GrowingAllocationOneToTwo) {
  const auto r = Redistribution::plan(100.0, nodes({0}), nodes({0, 1}));
  // Node 0 keeps its first half, sends second half to node 1.
  EXPECT_NEAR(r.self_bytes(), 50.0, 1e-9);
  ASSERT_EQ(r.transfers().size(), 1u);
  EXPECT_EQ(r.transfers()[0].src, 0);
  EXPECT_EQ(r.transfers()[0].dst, 1);
  EXPECT_NEAR(r.transfers()[0].bytes, 50.0, 1e-9);
}

TEST(Redistribution, ShrinkingAllocationTwoToOne) {
  const auto r = Redistribution::plan(100.0, nodes({0, 1}), nodes({1}));
  // Receiver is node 1: it keeps its half, gets node 0's half.
  EXPECT_NEAR(r.self_bytes(), 50.0, 1e-9);
  ASSERT_EQ(r.transfers().size(), 1u);
  EXPECT_EQ(r.transfers()[0].src, 0);
}

TEST(Redistribution, ZeroBytesYieldsNoTransfers) {
  const auto r = Redistribution::plan(0.0, nodes({0, 1}), nodes({2, 3}));
  EXPECT_TRUE(r.transfers().empty());
  EXPECT_DOUBLE_EQ(r.total_bytes(), 0.0);
}

TEST(Redistribution, RejectsEmptyRanks) {
  EXPECT_THROW(Redistribution::plan(10.0, {}, nodes({0})), Error);
  EXPECT_THROW(Redistribution::plan(10.0, nodes({0}), {}), Error);
  EXPECT_THROW(Redistribution::plan(-1.0, nodes({0}), nodes({1})), Error);
}

// --------------------------------------------------------- properties

class RedistConservation
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RedistConservation, BytesConservedAndMatrixConsistent) {
  const auto [p, q] = GetParam();
  const double total = 1e7;
  std::vector<NodeId> senders, receivers;
  for (int i = 0; i < p; ++i) senders.push_back(i);
  for (int j = 0; j < q; ++j) receivers.push_back(100 + j);  // disjoint
  const auto r = Redistribution::plan(total, senders, receivers);

  // All bytes cross the network (disjoint) and are conserved.
  EXPECT_NEAR(r.remote_bytes(), total, total * 1e-12);
  double sum = 0;
  for (const auto& t : r.transfers()) sum += t.bytes;
  EXPECT_NEAR(sum, total, total * 1e-12);

  // Matrix rows sum to the sender share, columns to the receiver share.
  const auto m = r.matrix();
  for (int i = 0; i < p; ++i) {
    const double row = std::accumulate(m[static_cast<std::size_t>(i)].begin(),
                                       m[static_cast<std::size_t>(i)].end(),
                                       0.0);
    EXPECT_NEAR(row, total / p, total * 1e-12);
  }
  for (int j = 0; j < q; ++j) {
    double col = 0;
    for (int i = 0; i < p; ++i)
      col += m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    EXPECT_NEAR(col, total / q, total * 1e-12);
  }

  // Interval overlap structure: at most p + q - 1 non-zero transfers.
  EXPECT_LE(r.transfers().size(), static_cast<std::size_t>(p + q - 1));
}

INSTANTIATE_TEST_SUITE_P(
    PQGrid, RedistConservation,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7, 16, 24),
                       ::testing::Values(1, 2, 3, 5, 8, 13, 24)));

class RedistSelfMaximization : public ::testing::TestWithParam<int> {};

TEST_P(RedistSelfMaximization, SharedSubsetKeepsDataLocal) {
  // Senders [0, n), receivers [0, n) shuffled: identity must be found.
  const int n = GetParam();
  std::vector<NodeId> senders, receivers;
  for (int i = 0; i < n; ++i) senders.push_back(i);
  for (int i = 0; i < n; ++i) receivers.push_back((i * 7 + 3) % n);
  const auto r = Redistribution::plan(1e6, senders, receivers);
  EXPECT_TRUE(r.transfers().empty()) << "n=" << n;
  EXPECT_EQ(r.receiver_order(), senders);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RedistSelfMaximization,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 20, 47));

// ----------------------------------------------------------- estimate

TEST(Estimate, ZeroWhenNoNetworkTraffic) {
  const Cluster c = Cluster::flat("t", 4, 1e9, 100e-6, 125e6);
  EXPECT_DOUBLE_EQ(
      estimate_redistribution_time(c, 1e6, nodes({0, 1}), nodes({0, 1})),
      0.0);
}

TEST(Estimate, SingleTransferMatchesLatencyPlusSerialization) {
  const Cluster c = Cluster::flat("t", 4, 1e9, 100e-6, 125e6);
  // 1 -> 2 processors: 62.5 MB cross the NIC at 125 MB/s.
  const Seconds t =
      estimate_redistribution_time(c, 125e6, nodes({0}), nodes({0, 1}));
  EXPECT_NEAR(t, 2e-4 + 0.5, 1e-9);
}

TEST(Estimate, BoundedByMostLoadedEndpoint) {
  const Cluster c = Cluster::flat("t", 8, 1e9, 100e-6, 125e6);
  // 1 sender scatters to 4 disjoint receivers: sender NIC carries all.
  const Seconds t = estimate_redistribution_time(c, 125e6, nodes({0}),
                                                 nodes({1, 2, 3, 4}));
  EXPECT_NEAR(t, 2e-4 + 1.0, 1e-9);
}

TEST(Estimate, AccountsForCabinetUplinks) {
  const Cluster c = Cluster::hierarchical("h", 2, 2, 1e9, 100e-6, 125e6,
                                          100e-6, 125e6);
  // Both nodes of cabinet 0 send half of 250 MB to cabinet 1: every
  // byte crosses the shared uplink -> uplink serialization dominates.
  const Seconds t = estimate_redistribution_time(c, 250e6, nodes({0, 1}),
                                                 nodes({2, 3}));
  EXPECT_NEAR(t, 4e-4 + 2.0, 1e-9);
}

TEST(Estimate, ScalesLinearlyWithVolume) {
  const Cluster c = Cluster::flat("t", 4, 1e9, 100e-6, 125e6);
  const Seconds t1 =
      estimate_redistribution_time(c, 1e6, nodes({0, 1}), nodes({2, 3}));
  const Seconds t2 =
      estimate_redistribution_time(c, 2e6, nodes({0, 1}), nodes({2, 3}));
  EXPECT_NEAR(t2 - 2e-4, 2.0 * (t1 - 2e-4), 1e-9);
}

/// The estimate computed the straightforward way: a std::map of
/// per-link loads and a fresh route per transfer.  The library's
/// allocation-free version must agree with it bit for bit.
Seconds reference_estimate(const Cluster& cluster, const Redistribution& r) {
  if (r.transfers().empty()) return 0;
  std::map<LinkId, Bytes> load;
  Seconds max_latency = 0;
  for (const Transfer& t : r.transfers()) {
    for (LinkId l : cluster.route(t.src, t.dst)) load[l] += t.bytes;
    max_latency = std::max(max_latency, cluster.route_latency(t.src, t.dst));
  }
  Seconds serial = 0;
  for (const auto& [link, bytes] : load)
    serial = std::max(serial, bytes / cluster.link(link).bandwidth);
  return max_latency + serial;
}

/// `k` distinct nodes of `cluster` in random order.
std::vector<NodeId> random_nodes(Rng& rng, const Cluster& cluster, int k) {
  std::vector<NodeId> all(static_cast<std::size_t>(cluster.num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  for (std::size_t i = 0; i < static_cast<std::size_t>(k); ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(i),
        static_cast<std::int64_t>(all.size()) - 1));
    std::swap(all[i], all[j]);
  }
  all.resize(static_cast<std::size_t>(k));
  return all;
}

TEST(Estimate, MatchesMapReferenceBitwise) {
  // Alternating between a flat and a hierarchical cluster also checks
  // that the per-thread scratch carries nothing from one call (or one
  // platform) to the next.
  const std::vector<Cluster> clusters = {
      Cluster::flat("grillon", 47, 3.185e9, 100e-6, 125e6),
      Cluster::hierarchical_custom("h3", {24, 24, 16}, 3.185e9, 100e-6,
                                   125e6, 100e-6, 125e6)};
  Rng rng(20081001);
  int compared = 0;
  int empty = 0;
  for (int i = 0; i < 12000; ++i) {
    const Cluster& c = clusters[static_cast<std::size_t>(i % 2)];
    const int n = c.num_nodes();
    const int p = static_cast<int>(rng.uniform_int(1, n));
    const std::vector<NodeId> senders = random_nodes(rng, c, p);
    std::vector<NodeId> receivers;
    switch (rng.uniform_int(0, 3)) {
      case 0:  // the same set: every byte stays on its node
        receivers = senders;
        break;
      case 1: {  // overlapping sets: some self transfers
        receivers = senders;
        receivers.resize(static_cast<std::size_t>(rng.uniform_int(1, p)));
        const auto extra = random_nodes(rng, c, static_cast<int>(
                                                     rng.uniform_int(1, n)));
        for (NodeId x : extra)
          if (std::find(receivers.begin(), receivers.end(), x) ==
              receivers.end())
            receivers.push_back(x);
        break;
      }
      default:
        receivers = random_nodes(rng, c, static_cast<int>(rng.uniform_int(1, n)));
    }
    const Bytes bytes = rng.uniform_int(0, 9) == 0
                            ? 0.0
                            : std::pow(10.0, rng.uniform(0.0, 10.0));
    const auto r = Redistribution::plan(bytes, senders, receivers,
                                        rng.uniform_int(0, 1) == 1);
    if (r.transfers().empty()) ++empty;
    const Seconds got = estimate_redistribution_time(c, r);
    const Seconds want = reference_estimate(c, r);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "case " << i << ": " << got << " vs " << want;
    ++compared;
  }
  EXPECT_EQ(compared, 12000);
  EXPECT_GT(empty, 0);  // the no-network case is covered too
}

// --------------------------------------------------------- RedistPlanner

void expect_same_plan(const Redistribution& a, const Redistribution& b) {
  EXPECT_EQ(a.self_bytes(), b.self_bytes());
  EXPECT_EQ(a.remote_bytes(), b.remote_bytes());
  EXPECT_EQ(a.receiver_order(), b.receiver_order());
  ASSERT_EQ(a.transfers().size(), b.transfers().size());
  for (std::size_t i = 0; i < a.transfers().size(); ++i) {
    EXPECT_EQ(a.transfers()[i].src, b.transfers()[i].src);
    EXPECT_EQ(a.transfers()[i].dst, b.transfers()[i].dst);
    EXPECT_EQ(a.transfers()[i].bytes, b.transfers()[i].bytes);
  }
}

TEST(RedistPlanner, MatchesTheStaticPlanner) {
  RedistPlanner planner;
  // Disjoint, overlapping and identical sets, self-matching on and off.
  const std::vector<std::pair<std::vector<NodeId>, std::vector<NodeId>>> cases =
      {{nodes({0, 1, 2}), nodes({3, 4})},
       {nodes({0, 1, 2, 3}), nodes({2, 3, 4})},
       {nodes({3, 1, 4}), nodes({4, 3, 1})},
       {nodes({5}), nodes({5, 6, 7})}};
  for (const auto& [senders, receivers] : cases) {
    for (bool maximize : {true, false}) {
      expect_same_plan(planner.plan(1e7, senders, receivers, maximize),
                       Redistribution::plan(1e7, senders, receivers, maximize));
    }
  }
}

TEST(RedistPlanner, GeometryKeyedEntriesRescaleAcrossVolumes) {
  // One planner sweeping the volume over a fixed geometry (disjoint
  // sets, equal-size sets, maximize_self=false) plans bitwise what a
  // fresh plan computes at each volume.
  RedistPlanner planner;
  const std::vector<std::tuple<std::vector<NodeId>, std::vector<NodeId>, bool>>
      cases = {{nodes({0, 1, 2}), nodes({3, 4}), true},       // disjoint
               {nodes({0, 1, 2}), nodes({5, 6, 7, 8}), true}, // disjoint
               {nodes({3, 1, 4}), nodes({4, 3, 1}), true},    // p == q, shared
               {nodes({0, 1, 2, 3}), nodes({2, 3, 4}), false}};  // no matching
  for (const auto& [senders, receivers, maximize] : cases)
    for (const Bytes volume : {1e6, 3.5e7, 123456.0, 1e9, 7.0, 0.0})
      expect_same_plan(
          planner.plan(volume, senders, receivers, maximize),
          Redistribution::plan(volume, senders, receivers, maximize));
}

TEST(RedistPlanner, RescaleMatchesFreshPlansOnRandomGeometries) {
  RedistPlanner planner;
  Rng rng(0x9E0Du);
  for (int instance = 0; instance < 300; ++instance) {
    const int p = static_cast<int>(rng.uniform_int(1, 12));
    const int q = static_cast<int>(rng.uniform_int(1, 12));
    const bool disjoint = rng.bernoulli(0.5);
    std::vector<NodeId> senders, receivers;
    for (int i = 0; i < p; ++i) senders.push_back(i);
    for (int j = 0; j < q; ++j)
      receivers.push_back(disjoint ? p + j : j);
    const bool maximize = rng.bernoulli(0.7);
    const Bytes volume = rng.bernoulli(0.2)
                             ? static_cast<Bytes>(rng.uniform_int(0, 3))
                             : rng.uniform(1.0, 1e9);
    expect_same_plan(planner.plan(volume, senders, receivers, maximize),
                     Redistribution::plan(volume, senders, receivers, maximize));
  }
}

/// Reference planner: the same matching and transfer rules, but every
/// (sender rank, receiver rank) pair is scanned in both loops.
struct AllPairsPlan {
  std::vector<NodeId> receiver_order;
  std::vector<Transfer> transfers;
  Bytes self_bytes = 0;
  Bytes remote_bytes = 0;
  /// Kept pairs whose intervals only touch in exact arithmetic (their
  /// bytes are a rounding epsilon).
  int touching_kept = 0;
};

AllPairsPlan all_pairs_plan(Bytes total, const std::vector<NodeId>& senders,
                            const std::vector<NodeId>& receivers,
                            bool maximize_self) {
  const int p = static_cast<int>(senders.size());
  const int q = static_cast<int>(receivers.size());
  AllPairsPlan out;
  out.receiver_order = receivers;
  if (maximize_self) {
    std::map<NodeId, int> sender_rank;  // node -> first sender rank
    for (int i = 0; i < p; ++i)
      sender_rank.emplace(senders[static_cast<std::size_t>(i)], i);
    std::vector<std::tuple<Bytes, NodeId, int>> cands;
    for (const NodeId node : receivers) {
      const auto it = sender_rank.find(node);
      if (it == sender_rank.end()) continue;
      for (int j = 0; j < q; ++j) {
        const Bytes ov = block_overlap(total, p, it->second, q, j);
        if (ov > 0) cands.emplace_back(ov, node, j);
      }
    }
    std::sort(cands.begin(), cands.end(), [](const auto& a, const auto& b) {
      if (std::get<0>(a) != std::get<0>(b))
        return std::get<0>(a) > std::get<0>(b);
      return std::tie(std::get<1>(a), std::get<2>(a)) <
             std::tie(std::get<1>(b), std::get<2>(b));
    });
    std::vector<NodeId> assignment(static_cast<std::size_t>(q), kNoNode);
    std::set<NodeId> used;
    for (const auto& [ov, node, j] : cands) {
      if (used.count(node) || assignment[static_cast<std::size_t>(j)] != kNoNode)
        continue;
      assignment[static_cast<std::size_t>(j)] = node;
      used.insert(node);
    }
    std::size_t next = 0;
    for (const NodeId node : receivers) {
      if (!used.insert(node).second) continue;
      while (assignment[next] != kNoNode) ++next;
      assignment[next] = node;
    }
    out.receiver_order = assignment;
  }
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < q; ++j) {
      const Bytes ov = block_overlap(total, p, i, q, j);
      if (ov <= 0) continue;
      const std::int64_t exact =
          std::min<std::int64_t>((i + 1) * q, (j + 1) * p) -
          std::max<std::int64_t>(i * q, j * p);
      if (exact == 0) ++out.touching_kept;
      const NodeId src = senders[static_cast<std::size_t>(i)];
      const NodeId dst = out.receiver_order[static_cast<std::size_t>(j)];
      if (src == dst) {
        out.self_bytes += ov;
      } else {
        out.remote_bytes += ov;
        out.transfers.push_back(Transfer{src, dst, ov});
      }
    }
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(RedistPlanner, BandedScanMatchesAllPairsScan) {
  // The planner visits only the band of rank pairs that overlap or
  // touch; an all-pairs scan must produce bitwise the same plan, over
  // shared, shifted, reversed and disjoint node sets, with and without
  // the self-communication matching, at volumes from 0 to 1e10.
  RedistPlanner planner;
  Rng rng(0xBA4Du);
  int touching_kept = 0;
  constexpr int kCases = 10000;
  for (int c = 0; c < kCases; ++c) {
    const int p = static_cast<int>(rng.uniform_int(1, 128));
    const int q = static_cast<int>(rng.uniform_int(1, 128));
    std::vector<NodeId> senders(static_cast<std::size_t>(p));
    std::iota(senders.begin(), senders.end(), 0);
    std::vector<NodeId> receivers(static_cast<std::size_t>(q));
    switch (c % 4) {
      case 0: {  // shared: a random subset of a pool around the senders
        std::vector<NodeId> pool(static_cast<std::size_t>(p + q));
        std::iota(pool.begin(), pool.end(), 0);
        std::shuffle(pool.begin(), pool.end(), rng);
        receivers.assign(pool.begin(), pool.begin() + q);
        std::shuffle(senders.begin(), senders.end(), rng);
        break;
      }
      case 1: {  // shifted: the sender range moved by up to p nodes
        const auto shift = static_cast<NodeId>(rng.uniform_int(0, p));
        std::iota(receivers.begin(), receivers.end(), shift);
        break;
      }
      case 2:  // reversed: the sender nodes in descending order
        for (int j = 0; j < q; ++j)
          receivers[static_cast<std::size_t>(j)] = q - 1 - j;
        break;
      default:  // disjoint
        std::iota(receivers.begin(), receivers.end(), p);
    }
    const bool maximize = rng.bernoulli(0.5);
    const std::int64_t shape = rng.uniform_int(0, 9);
    const Bytes volume =
        shape == 0   ? 0.0
        : shape <= 3 ? static_cast<Bytes>(rng.uniform_int(1, 64))
        : shape <= 6 ? rng.uniform(0.0, 1e10)
                     : std::pow(10.0, rng.uniform(0.0, 10.0));
    const Redistribution& got =
        planner.plan(volume, senders, receivers, maximize);
    const AllPairsPlan want =
        all_pairs_plan(volume, senders, receivers, maximize);
    touching_kept += want.touching_kept;
    ASSERT_EQ(got.receiver_order(), want.receiver_order) << "case " << c;
    ASSERT_EQ(bits(got.self_bytes()), bits(want.self_bytes)) << "case " << c;
    ASSERT_EQ(bits(got.remote_bytes()), bits(want.remote_bytes))
        << "case " << c;
    ASSERT_EQ(got.transfers().size(), want.transfers.size()) << "case " << c;
    for (std::size_t t = 0; t < want.transfers.size(); ++t) {
      ASSERT_EQ(got.transfers()[t].src, want.transfers[t].src) << "case " << c;
      ASSERT_EQ(got.transfers()[t].dst, want.transfers[t].dst) << "case " << c;
      ASSERT_EQ(bits(got.transfers()[t].bytes), bits(want.transfers[t].bytes))
          << "case " << c;
    }
  }
  // The touching pairs — where a band that is one rank too narrow would
  // drop a rounding epsilon — occur in the corpus.
  EXPECT_GT(touching_kept, 0);
}

}  // namespace
}  // namespace rats
