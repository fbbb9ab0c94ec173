#include "redist/estimate.hpp"

#include <algorithm>

namespace rats {

namespace {

/// Per-thread scratch of the estimate: a per-link byte accumulator (all
/// zero between calls), the links it touched, and one route.  The
/// estimate runs for every mapper candidate and in-edge, so it reuses
/// these instead of allocating a map and two route vectors per call.
struct EstimateScratch {
  std::vector<Bytes> load;
  std::vector<LinkId> touched;
  std::vector<LinkId> route;
};

}  // namespace

Seconds estimate_redistribution_time(const Cluster& cluster,
                                     const Redistribution& r) {
  if (r.transfers().empty()) return 0;

  // Aggregate per-resource load: NIC up/down per node, cabinet up/down
  // per cabinet on hierarchical clusters.  Each link's load sums its
  // transfers in transfer order, and the maximum over links does not
  // depend on their order.
  thread_local EstimateScratch s;
  if (s.load.size() < static_cast<std::size_t>(cluster.num_links()))
    s.load.resize(static_cast<std::size_t>(cluster.num_links()), 0.0);
  struct Reset {
    EstimateScratch& s;
    ~Reset() {
      for (LinkId l : s.touched) s.load[static_cast<std::size_t>(l)] = 0;
      s.touched.clear();
    }
  } reset{s};

  Seconds max_latency = 0;
  for (const Transfer& t : r.transfers()) {
    s.route.clear();
    cluster.route_into(t.src, t.dst, s.route);
    Seconds latency = 0;  // Cluster::route_latency, without its route copy
    for (LinkId l : s.route) {
      latency += cluster.link(l).latency;
      Bytes& load = s.load[static_cast<std::size_t>(l)];
      if (load == 0) s.touched.push_back(l);  // repeats are harmless
      load += t.bytes;
    }
    max_latency = std::max(max_latency, latency);
  }
  Seconds serial = 0;
  for (LinkId l : s.touched)
    serial = std::max(serial, s.load[static_cast<std::size_t>(l)] /
                                  cluster.link(l).bandwidth);
  return max_latency + serial;
}

Seconds estimate_redistribution_time(const Cluster& cluster, Bytes total_bytes,
                                     const std::vector<NodeId>& senders,
                                     const std::vector<NodeId>& receivers) {
  return estimate_redistribution_time(
      cluster, Redistribution::plan(total_bytes, senders, receivers));
}

}  // namespace rats
