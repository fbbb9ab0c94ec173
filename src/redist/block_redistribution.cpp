#include "redist/block_redistribution.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"

namespace rats {

Bytes block_overlap(Bytes total, int p, int i, int q, int j) {
  RATS_REQUIRE(p > 0 && q > 0, "distribution needs at least one rank");
  RATS_REQUIRE(i >= 0 && i < p && j >= 0 && j < q, "rank out of range");
  const double lo_s = total * static_cast<double>(i) / p;
  const double hi_s = total * static_cast<double>(i + 1) / p;
  const double lo_r = total * static_cast<double>(j) / q;
  const double hi_r = total * static_cast<double>(j + 1) / q;
  return std::max(0.0, std::min(hi_s, hi_r) - std::max(lo_s, lo_r));
}

namespace {

/// Sorted flat map lookup; returns nullptr when `node` is absent.
template <typename Pair>
Pair* flat_find(std::vector<Pair>& entries, NodeId node) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), node,
      [](const Pair& a, NodeId n) { return a.first < n; });
  if (it == entries.end() || it->first != node) return nullptr;
  return &*it;
}

/// Sorts a flat (node, value) map by node and keeps each node's FIRST
/// inserted value (std::map::emplace semantics the original code had).
template <typename Pair>
void sort_unique_by_node(std::vector<Pair>& entries) {
  std::stable_sort(
      entries.begin(), entries.end(),
      [](const Pair& a, const Pair& b) { return a.first < b.first; });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Pair& a, const Pair& b) {
                              return a.first == b.first;
                            }),
                entries.end());
}

/// The receiver ranks [first, last] that sender rank `i` of `p` may
/// share bytes with, out of `q`.  In units of total/(p*q), sender rank
/// i covers [i*q, (i+1)*q) and receiver rank j covers [j*p, (j+1)*p);
/// the band holds every j whose interval overlaps or touches i's in
/// exact integer arithmetic.  A pair outside it is at least one unit
/// apart, far beyond the rounding of the interval ends, so its
/// `block_overlap` is 0 at any volume.  Touching pairs stay inside:
/// rounding can give them a positive epsilon, which a plan must keep.
struct RankBand {
  int first;
  int last;
};
RankBand overlap_band(int p, int i, int q) {
  const std::int64_t lo = static_cast<std::int64_t>(i) * q / p - 1;
  const std::int64_t hi = (static_cast<std::int64_t>(i) + 1) * q / p;
  return {static_cast<int>(std::max<std::int64_t>(0, lo)),
          static_cast<int>(std::min<std::int64_t>(q - 1, hi))};
}

}  // namespace

void Redistribution::plan_into(Bytes total_bytes,
                               const std::vector<NodeId>& senders,
                               const std::vector<NodeId>& receivers,
                               bool maximize_self, PlanScratch& scratch,
                               Redistribution& out) {
  RATS_REQUIRE(total_bytes >= 0, "volume must be non-negative");
  RATS_REQUIRE(!senders.empty() && !receivers.empty(),
               "redistribution needs sender and receiver ranks");

  out.sender_order_ = senders;
  out.receiver_order_ = receivers;
  out.total_ = total_bytes;
  out.self_bytes_ = 0;
  out.remote_bytes_ = 0;
  out.transfers_.clear();
  const int p = static_cast<int>(senders.size());
  const int q = static_cast<int>(receivers.size());

  if (maximize_self) {
    // Permute the receiver rank -> node assignment so that nodes
    // present on both sides get the receiver interval overlapping
    // their sender interval the most.  Greedy matching on descending
    // overlap; ties broken deterministically by (node, rank).
    auto& sender_rank = scratch.sender_rank;  // node -> first sender rank
    sender_rank.clear();
    for (int i = 0; i < p; ++i) sender_rank.emplace_back(senders[i], i);
    sort_unique_by_node(sender_rank);

    auto& cands = scratch.cands;
    cands.clear();
    for (NodeId node : receivers) {
      const auto* hit = flat_find(sender_rank, node);
      if (!hit) continue;
      const RankBand band = overlap_band(p, hit->second, q);
      for (int j = band.first; j <= band.last; ++j) {
        const Bytes ov = block_overlap(total_bytes, p, hit->second, q, j);
        if (ov > 0) cands.push_back(PlanScratch::Cand{ov, node, j});
      }
    }
    std::sort(cands.begin(), cands.end(),
              [](const PlanScratch::Cand& a, const PlanScratch::Cand& b) {
                if (a.overlap != b.overlap) return a.overlap > b.overlap;
                if (a.node != b.node) return a.node < b.node;
                return a.rank < b.rank;
              });

    auto& assignment = scratch.assignment;
    assignment.assign(static_cast<std::size_t>(q), kNoNode);
    auto& node_used = scratch.node_used;
    node_used.clear();
    for (NodeId node : receivers) node_used.emplace_back(node, 0);
    sort_unique_by_node(node_used);
    for (const PlanScratch::Cand& c : cands) {
      auto* used = flat_find(node_used, c.node);
      if (used->second || assignment[static_cast<std::size_t>(c.rank)] != kNoNode)
        continue;
      assignment[static_cast<std::size_t>(c.rank)] = c.node;
      used->second = 1;
    }
    // Fill the remaining ranks with the unassigned nodes in their
    // original order.
    std::size_t next = 0;
    for (NodeId node : receivers) {
      auto* used = flat_find(node_used, node);
      if (used->second) continue;
      while (assignment[next] != kNoNode) ++next;
      assignment[next] = node;
      used->second = 1;
    }
    out.receiver_order_.assign(assignment.begin(), assignment.end());
  }

  for (int i = 0; i < p; ++i) {
    const RankBand band = overlap_band(p, i, q);
    for (int j = band.first; j <= band.last; ++j) {
      const Bytes ov = block_overlap(total_bytes, p, i, q, j);
      if (ov <= 0) continue;
      const NodeId src = out.sender_order_[static_cast<std::size_t>(i)];
      const NodeId dst = out.receiver_order_[static_cast<std::size_t>(j)];
      if (src == dst) {
        out.self_bytes_ += ov;
      } else {
        out.remote_bytes_ += ov;
        out.transfers_.push_back(Transfer{src, dst, ov});
      }
    }
  }
}

Redistribution Redistribution::plan(Bytes total_bytes,
                                    const std::vector<NodeId>& senders,
                                    const std::vector<NodeId>& receivers,
                                    bool maximize_self) {
  Redistribution r;
  PlanScratch scratch;
  plan_into(total_bytes, senders, receivers, maximize_self, scratch, r);
  return r;
}

std::vector<std::vector<Bytes>> Redistribution::matrix() const {
  const int p = senders();
  const int q = receivers();
  std::vector<std::vector<Bytes>> m(static_cast<std::size_t>(p),
                                    std::vector<Bytes>(static_cast<std::size_t>(q), 0.0));
  for (int i = 0; i < p; ++i)
    for (int j = 0; j < q; ++j)
      m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          block_overlap(total_, p, i, q, j);
  return m;
}

const Redistribution& RedistPlanner::plan(Bytes total_bytes,
                                          const std::vector<NodeId>& senders,
                                          const std::vector<NodeId>& receivers,
                                          bool maximize_self) {
  Redistribution::plan_into(total_bytes, senders, receivers, maximize_self,
                            scratch_, plan_);
  return plan_;
}

}  // namespace rats
