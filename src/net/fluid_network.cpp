#include "net/fluid_network.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "net/solver_stats.hpp"
#include "obs/span.hpp"

namespace rats {

// ---- indexed event heap ------------------------------------------------

void FluidNetwork::EventHeap::place(std::size_t i, const Entry& e) {
  entries_[i] = e;
  pos_[static_cast<std::size_t>(e.flow)] = static_cast<std::int32_t>(i);
}

void FluidNetwork::EventHeap::sift_up(std::size_t i, Entry e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(e, entries_[parent])) break;
    place(i, entries_[parent]);
    i = parent;
  }
  place(i, e);
}

void FluidNetwork::EventHeap::sift_down(std::size_t i, Entry e) {
  const std::size_t n = entries_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(entries_[child + 1], entries_[child])) ++child;
    if (!before(entries_[child], e)) break;
    place(i, entries_[child]);
    i = child;
  }
  place(i, e);
}

void FluidNetwork::EventHeap::fix_top() {
  while (!entries_.empty()) {
    const Entry& top = entries_.front();
    const auto fi = static_cast<std::size_t>(top.flow);
    if (true_seq_[fi] == top.seq) return;
    // Deferred re-keys only ever move a key later, so the true key is
    // >= the stored lower bound and the entry can only sink.
    sift_down(0, Entry{true_time_[fi], true_seq_[fi], top.flow});
  }
}

FlowId FluidNetwork::EventHeap::pop() {
  // The top is fresh by invariant (every mutation ends in fix_top), so
  // the popped event is the true earliest.
  const FlowId f = entries_.front().flow;
  pos_[static_cast<std::size_t>(f)] = -1;
  const Entry last = entries_.back();
  entries_.pop_back();
  if (!entries_.empty()) sift_down(0, last);
  fix_top();
  return f;
}

void FluidNetwork::EventHeap::remove(FlowId f) {
  const std::int32_t at = pos_[static_cast<std::size_t>(f)];
  if (at < 0) return;
  pos_[static_cast<std::size_t>(f)] = -1;
  const auto i = static_cast<std::size_t>(at);
  const Entry last = entries_.back();
  entries_.pop_back();
  if (i < entries_.size()) {
    if (i > 0 && before(last, entries_[(i - 1) / 2]))
      sift_up(i, last);
    else
      sift_down(i, last);
  }
  fix_top();
}

void FluidNetwork::EventHeap::upsert(FlowId f, Seconds time,
                                     std::uint64_t seq) {
  const auto fi = static_cast<std::size_t>(f);
  true_time_[fi] = time;
  true_seq_[fi] = seq;
  const Entry e{time, seq, f};
  const std::int32_t at = pos_[fi];
  if (at < 0) {
    entries_.push_back(e);
    sift_up(entries_.size() - 1, e);
    return;
  }
  const auto i = static_cast<std::size_t>(at);
  if (time >= entries_[i].time) {
    // Moved later (the fresh seq always sorts after the stored one at
    // equal times): defer — the stored key stays a valid lower bound
    // and the entry is re-keyed only if it ever surfaces at the top.
    if (i == 0) fix_top();
    return;
  }
  // Moved earlier: a lower bound would be violated, re-key now.  The
  // key strictly decreased, so the entry can only rise.
  sift_up(i, e);
}

// ---- fluid network -----------------------------------------------------

FluidNetwork::FluidNetwork(const Cluster& cluster) : cluster_(&cluster) {
  capacity_.reserve(static_cast<std::size_t>(cluster.num_links()));
  for (LinkId l = 0; l < cluster.num_links(); ++l)
    capacity_.push_back(cluster.link(l).bandwidth);
  link_members_.assign(capacity_.size(), {});
  link_stamp_.assign(capacity_.size(), 0);
}

FlowId FluidNetwork::open_flow(NodeId src, NodeId dst, Bytes bytes) {
  RATS_REQUIRE(bytes >= 0, "flow volume must be non-negative");
  FlowState f;
  f.src = src;
  f.dst = dst;
  f.total_bytes = bytes;
  f.start = now_;
  total_bytes_ += bytes;

  const auto id = static_cast<FlowId>(flows_.size());
  if (route_off_.empty()) route_off_.push_back(0);
  cluster_->route_into(src, dst, route_links_);
  route_off_.push_back(static_cast<std::int32_t>(route_links_.size()));
  route_pos_.resize(route_links_.size(), -1);  // filled at activation
  const bool loopback =
      route_off_[static_cast<std::size_t>(id)] ==
      route_off_[static_cast<std::size_t>(id) + 1];
  flow_rate_.push_back(0);
  flow_remaining_.push_back(bytes);
  flow_settled_.push_back(now_);
  if (loopback || bytes == 0) {
    // Loopback transfers are free (the paper's zero-cost
    // self-communication); zero-byte flows only carry a dependence.
    f.release = now_;
    f.finish = loopback ? now_ : now_ + cluster_->route_latency(src, dst);
    f.done = true;
    flows_.push_back(std::move(f));
    completed_.push_back(id);
    return id;
  }

  const Seconds one_way = cluster_->route_latency(src, dst);
  f.release = now_ + one_way;
  // Empirical TCP bound: beta' = min(beta, W_max / RTT), RTT = 2 x one-way.
  const Seconds rtt = 2.0 * one_way;
  if (rtt > 0) f.cap = cluster_->tcp_window() / rtt;

  flows_.push_back(std::move(f));
  if (active_pos_.size() < flows_.size()) {
    active_pos_.resize(flows_.size(), -1);
    component_of_.resize(flows_.size(), -1);
    member_pos_.resize(flows_.size(), -1);
    visit_stamp_.resize(flows_.size(), 0);
    events_.grow(flows_.size());
  }
  active_pos_[static_cast<std::size_t>(id)] =
      static_cast<std::int32_t>(active_ids_.size());
  active_ids_.push_back(id);
  events_.upsert(id, flows_.back().release, next_seq_++);
  return id;
}

void FluidNetwork::settle(FlowId id) {
  const auto fi = static_cast<std::size_t>(id);
  const Rate rate = flow_rate_[fi];
  if (rate > 0 && now_ > flow_settled_[fi])
    flow_remaining_[fi] =
        std::max(0.0, flow_remaining_[fi] - rate * (now_ - flow_settled_[fi]));
  flow_settled_[fi] = now_;
}

void FluidNetwork::set_rate(FlowId id, Rate r) {
  settle(id);
  const auto fi = static_cast<std::size_t>(id);
  flow_rate_[fi] = r;
  if (trace_) trace_->record(now_, TraceEventKind::RateChange, id, -1, r);
  // The heap re-key is queued, not applied: one component solve changes
  // many rates, and batching lets the whole flush touch the heap once
  // per flow at the end (seq is assigned here so the batch reproduces
  // the eager scheme's tie-break order exactly).
  if (r > 0) {
    rekey_buffer_.push_back(PendingRekey{
        id, false, std::max(now_ + flow_remaining_[fi] / r, now_),
        next_seq_++});
  } else {
    // A flow starved to rate 0 (degenerate exactly-saturated instance)
    // has no completion to predict; its old prediction must not fire.
    rekey_buffer_.push_back(PendingRekey{id, true, 0, 0});
  }
}

void FluidNetwork::apply_rekeys() {
  for (const PendingRekey& rk : rekey_buffer_) {
    if (rk.remove)
      events_.remove(rk.flow);
    else
      events_.upsert(rk.flow, rk.time, rk.seq);
  }
  rekey_buffer_.clear();
}

// ---- sharing-component partition --------------------------------------

std::int32_t FluidNetwork::alloc_component() {
  std::int32_t c;
  if (!free_components_.empty()) {
    c = free_components_.back();
    free_components_.pop_back();
    components_[static_cast<std::size_t>(c)].members.clear();
  } else {
    c = static_cast<std::int32_t>(components_.size());
    components_.emplace_back();
  }
  auto& comp = components_[static_cast<std::size_t>(c)];
  comp.live = true;
  comp.dirty = false;
  comp.maybe_split = false;
  comp.solves_since_walk = 0;
  comp.reset_warm();
  ++live_components_;
  return c;
}

void FluidNetwork::free_component(std::int32_t c) {
  auto& comp = components_[static_cast<std::size_t>(c)];
  comp.live = false;
  comp.dirty = false;
  comp.maybe_split = false;
  comp.members.clear();
  comp.reset_warm();
  free_components_.push_back(c);
  --live_components_;
}

void FluidNetwork::mark_dirty(std::int32_t c) {
  auto& comp = components_[static_cast<std::size_t>(c)];
  if (!comp.dirty) {
    comp.dirty = true;
    dirty_components_.push_back(c);
  }
}

void FluidNetwork::add_member(std::int32_t c, FlowId id) {
  auto& members = components_[static_cast<std::size_t>(c)].members;
  component_of_[static_cast<std::size_t>(id)] = c;
  member_pos_[static_cast<std::size_t>(id)] =
      static_cast<std::int32_t>(members.size());
  members.push_back(id);
}

void FluidNetwork::remove_member(std::int32_t c, FlowId id) {
  auto& members = components_[static_cast<std::size_t>(c)].members;
  const auto pos = member_pos_[static_cast<std::size_t>(id)];
  const FlowId moved = members.back();
  members[static_cast<std::size_t>(pos)] = moved;
  member_pos_[static_cast<std::size_t>(moved)] = pos;
  members.pop_back();
  member_pos_[static_cast<std::size_t>(id)] = -1;
}

std::int32_t FluidNetwork::merge_components(std::int32_t a, std::int32_t b) {
  if (components_[static_cast<std::size_t>(a)].members.size() <
      components_[static_cast<std::size_t>(b)].members.size())
    std::swap(a, b);
  auto& keep = components_[static_cast<std::size_t>(a)];
  auto& gone = components_[static_cast<std::size_t>(b)];
  keep.maybe_split = keep.maybe_split || gone.maybe_split;
  // Relative to the survivor's trace, the absorbed members are plain
  // arrivals — the absorbed trace is dropped with its component.
  const bool track = keep.warm.valid;
  for (const FlowId m : gone.members) {
    component_of_[static_cast<std::size_t>(m)] = a;
    member_pos_[static_cast<std::size_t>(m)] =
        static_cast<std::int32_t>(keep.members.size());
    keep.members.push_back(m);
    if (track) keep.pending_add.push_back(m);
  }
  free_component(b);
  return a;
}

void FluidNetwork::activate(FlowId id, FlowState& f) {
  f.released = true;
  flow_settled_[static_cast<std::size_t>(id)] = now_;
  const auto r_begin = static_cast<std::size_t>(
      route_off_[static_cast<std::size_t>(id)]);
  const auto r_end = static_cast<std::size_t>(
      route_off_[static_cast<std::size_t>(id) + 1]);
  // Merge the sharing components of every route link.  All released
  // flows on one link already share a component, so one representative
  // per link suffices.  The merged result stays connected — the new
  // flow is the bridge — so no split flag is raised here.
  std::int32_t target = -1;
  for (std::size_t i = r_begin; i < r_end; ++i) {
    const auto& members =
        link_members_[static_cast<std::size_t>(route_links_[i])];
    if (members.empty()) continue;
    const std::int32_t c = component_of_[static_cast<std::size_t>(
        members.front())];
    if (target == -1)
      target = c;
    else if (c != target)
      target = merge_components(target, c);
  }
  if (target == -1) target = alloc_component();
  add_member(target, id);
  if (components_[static_cast<std::size_t>(target)].warm.valid)
    components_[static_cast<std::size_t>(target)].pending_add.push_back(id);
  mark_dirty(target);
  for (std::size_t i = r_begin; i < r_end; ++i) {
    auto& members =
        link_members_[static_cast<std::size_t>(route_links_[i])];
    route_pos_[i] = static_cast<std::int32_t>(members.size());
    members.push_back(id);
  }
}

void FluidNetwork::retire(FlowId id, FlowState& f) {
  flow_remaining_[static_cast<std::size_t>(id)] = 0;
  f.done = true;
  f.finish = now_;
  flow_rate_[static_cast<std::size_t>(id)] = 0;
  const auto pos = active_pos_[static_cast<std::size_t>(id)];
  const FlowId moved = active_ids_.back();
  active_ids_[static_cast<std::size_t>(pos)] = moved;
  active_pos_[static_cast<std::size_t>(moved)] = pos;
  active_ids_.pop_back();
  active_pos_[static_cast<std::size_t>(id)] = -1;
  if (!f.released) return;  // latent: no link/component membership yet
  const auto r_begin = static_cast<std::size_t>(
      route_off_[static_cast<std::size_t>(id)]);
  const auto r_end = static_cast<std::size_t>(
      route_off_[static_cast<std::size_t>(id) + 1]);
  for (std::size_t i = r_begin; i < r_end; ++i) {
    const LinkId l = route_links_[i];
    auto& members = link_members_[static_cast<std::size_t>(l)];
    const auto pos = static_cast<std::size_t>(route_pos_[i]);
    const FlowId moved = members.back();
    members[pos] = moved;
    members.pop_back();
    if (moved != id) {
      // Point the displaced flow's back-pointer for link l at its new
      // slot; its route is a handful of links, so this scan is O(1)-ish.
      const auto m_begin = static_cast<std::size_t>(
          route_off_[static_cast<std::size_t>(moved)]);
      const auto m_end = static_cast<std::size_t>(
          route_off_[static_cast<std::size_t>(moved) + 1]);
      for (std::size_t j = m_begin; j < m_end; ++j)
        if (route_links_[j] == l) {
          route_pos_[j] = static_cast<std::int32_t>(pos);
          break;
        }
    }
  }
  const std::int32_t c = component_of_[static_cast<std::size_t>(id)];
  remove_member(c, id);
  component_of_[static_cast<std::size_t>(id)] = -1;
  if (components_[static_cast<std::size_t>(c)].members.empty()) {
    // Pure removal: the departing flow shared no link with anyone (it
    // was alone in its component), so no rate can change.
    free_component(c);
  } else {
    // Any survivor on a freed link speeds up (and may cascade through
    // the component), and the departure may also have disconnected it —
    // the next ensure_rates() re-partitions and re-solves it.
    auto& comp = components_[static_cast<std::size_t>(c)];
    if (comp.warm.valid) {
      // A flow that arrived and completed within one event batch never
      // entered the trace: the delta cancels out entirely.
      const auto added = std::find(comp.pending_add.begin(),
                                   comp.pending_add.end(), id);
      if (added != comp.pending_add.end())
        comp.pending_add.erase(added);
      else
        comp.pending_remove.push_back(id);
    }
    comp.maybe_split = true;
    mark_dirty(c);
  }
}

void FluidNetwork::complete(FlowId id, FlowState& f) {
  retire(id, f);
  completed_.push_back(id);
}

void FluidNetwork::cancel_flow(FlowId id) {
  RATS_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < flows_.size(),
               "cancel of unknown flow");
  auto& f = flows_[static_cast<std::size_t>(id)];
  if (f.done) return;
  // Unlike completion (whose heap entry was popped to get here), a
  // cancelled flow still has its prediction queued.
  events_.remove(id);
  retire(id, f);
}

Rate FluidNetwork::link_capacity(LinkId link) const {
  RATS_REQUIRE(link >= 0 && static_cast<std::size_t>(link) < capacity_.size(),
               "link id out of range");
  return capacity_[static_cast<std::size_t>(link)];
}

void FluidNetwork::set_link_capacity(LinkId link, Rate capacity) {
  RATS_REQUIRE(link >= 0 && static_cast<std::size_t>(link) < capacity_.size(),
               "link id out of range");
  RATS_REQUIRE(capacity >= 0 && std::isfinite(capacity),
               "link capacity must be finite and non-negative");
  auto& slot = capacity_[static_cast<std::size_t>(link)];
  if (slot == capacity) return;
  slot = capacity;
  // Every released flow crossing the link shares one component (that is
  // what a sharing component is), so the first member identifies it.
  const auto& members = link_members_[static_cast<std::size_t>(link)];
  if (!members.empty()) {
    const std::int32_t c =
        component_of_[static_cast<std::size_t>(members.front())];
    components_[static_cast<std::size_t>(c)].reset_warm();
    mark_dirty(c);
  }
  ensure_rates();
}

void FluidNetwork::invalidate_all_rates() {
  for (std::size_t c = 0; c < components_.size(); ++c) {
    if (!components_[c].live) continue;
    components_[c].reset_warm();
    mark_dirty(static_cast<std::int32_t>(c));
  }
  ensure_rates();
}

void FluidNetwork::advance_to(Seconds t) {
  RATS_REQUIRE(t >= now_ - 1e-12, "cannot move time backwards");
  for (;;) {
    ensure_rates();
    if (events_.empty() || events_.next_time() > t) break;
    const Seconds next = events_.next_time();
    // Predictions are re-keyed eagerly, so an event can never hide
    // inside a stale window behind the current time.
    assert(next >= now_ && "event prediction in the past");
    now_ = std::max(now_, next);
    // Process the whole batch of simultaneous events before re-solving:
    // one redistribution completing can retire many flows at once.
    while (!events_.empty() && events_.next_time() <= now_) {
      const FlowId id = events_.pop();
      auto& f = flows_[static_cast<std::size_t>(id)];
      if (!f.released)
        activate(id, f);
      else
        complete(id, f);
    }
  }
  now_ = std::max(now_, t);
}

std::optional<Seconds> FluidNetwork::next_event_time() const {
  // The lazy flush lives in ensure_rates(), which every mutating entry
  // point runs before returning — the query itself stays const.
  assert(dirty_components_.empty() &&
         "next_event_time() with unflushed rate changes");
  if (events_.empty()) return std::nullopt;
  return events_.next_time();
}

const std::vector<FlowId>& FluidNetwork::drain_completed() {
  std::swap(drained_, completed_);
  completed_.clear();
  return drained_;
}

Seconds FluidNetwork::flow_finish_time(FlowId id) const {
  const FlowState& f = flow(id);
  RATS_REQUIRE(f.done, "flow has not completed yet");
  return f.finish;
}

const FlowState& FluidNetwork::flow(FlowId id) const {
  RATS_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < flows_.size(),
               "flow id out of range");
  return flows_[static_cast<std::size_t>(id)];
}

std::int32_t FluidNetwork::flow_component(FlowId id) const {
  const FlowState& f = flow(id);
  if (!f.released || f.done) return -1;
  return component_of_[static_cast<std::size_t>(id)];
}

void FluidNetwork::ensure_rates() {
  if (dirty_components_.empty()) return;
  // Swap the dirty list out: re-partitioning may allocate fresh (clean)
  // components but never re-dirties one mid-flush.
  dirty_scratch_.swap(dirty_components_);
  for (const std::int32_t c : dirty_scratch_) {
    auto& comp = components_[static_cast<std::size_t>(c)];
    if (!comp.live || !comp.dirty) continue;  // merged or freed away
    comp.dirty = false;
    repartition_and_solve(c);
  }
  dirty_scratch_.clear();
  // One heap pass for the whole flush (see set_rate).
  apply_rekeys();
  if (validate_ && !validating_) run_validation_checks();
}

void FluidNetwork::run_validation_checks() {
  validating_ = true;
  struct Guard {
    bool* flag;
    ~Guard() { *flag = false; }
  } guard{&validating_};
  // Conservation: the released flows sharing a link never exceed its
  // capacity.  1e-9 relative slack absorbs the waterfilling round-off
  // of summing n equal shares of capacity/n.
  for (std::size_t l = 0; l < capacity_.size(); ++l) {
    const Rate cap = capacity_[l];
    Rate sum = 0;
    for (const FlowId id : link_members_[l])
      sum += flow_rate_[static_cast<std::size_t>(id)];
    RATS_REQUIRE(sum <= cap + cap * 1e-9 + 1e-6,
                 "link " + std::to_string(l) + " oversubscribed at t=" +
                     std::to_string(now_) + ": member rates sum to " +
                     std::to_string(sum) + " B/s, capacity " +
                     std::to_string(cap) + " B/s");
  }
  validation_snapshot_.clear();
  for (const FlowId id : active_ids_) {
    const FlowState& f = flows_[static_cast<std::size_t>(id)];
    if (!f.released) continue;
    const Rate rate = flow_rate_[static_cast<std::size_t>(id)];
    RATS_REQUIRE(rate >= 0 && rate <= f.cap + f.cap * 1e-9,
                 "flow " + std::to_string(id) + " rate " +
                     std::to_string(rate) + " outside [0, cap=" +
                     std::to_string(f.cap) + "]");
    validation_snapshot_.emplace_back(id, rate);
  }
  // Warm ≡ cold: drop every component's warm state and re-solve the
  // whole population from scratch; the incremental rates must match bit
  // for bit.  The re-solve leaves freshly recorded traces behind, so
  // warm paths keep being exercised on the next flush.
  invalidate_all_rates();
  for (const auto& [id, incremental] : validation_snapshot_) {
    const Rate cold = flow_rate_[static_cast<std::size_t>(id)];
    RATS_REQUIRE(cold == incremental,
                 "warm/cold divergence on flow " + std::to_string(id) +
                     " at t=" + std::to_string(now_) + ": incremental rate " +
                     std::to_string(incremental) + " B/s, cold re-solve " +
                     std::to_string(cold) + " B/s");
  }
}

void FluidNetwork::repartition_and_solve(std::int32_t c) {
  auto& comp = components_[static_cast<std::size_t>(c)];
  // Arrivals only merge (the arriving flow bridges what it touches), so
  // a component can only have disconnected if a departure marked it.
  // Singletons are trivially connected.  Large components are walked
  // only every few departure-solves: a missed split just means solving
  // a (still exact) over-approximation for a few events, while walking
  // a big, usually-still-connected component on every departure would
  // cost as much as the solve itself.  Small components always walk —
  // the walk is cheap and a split there shrinks solves the most.
  constexpr std::size_t kEagerSplitSize = 64;
  constexpr std::uint32_t kSplitPeriod = 16;
  const bool walk =
      comp.maybe_split && comp.members.size() > 1 &&
      (comp.members.size() <= kEagerSplitSize ||
       ++comp.solves_since_walk >= kSplitPeriod);
  if (!walk) {
    solve_component(c);
    return;
  }
  comp.maybe_split = false;
  comp.solves_since_walk = 0;

  // Walk the sharing graph over a membership snapshot.  Links are
  // visit-stamped so each member list is scanned once — the walk is
  // O(component incidences), the same order as one solver pass.
  ++visit_epoch_;
  split_scratch_.assign(comp.members.begin(), comp.members.end());
  std::size_t assigned = 0;
  bool first_group = true;
  for (const FlowId root : split_scratch_) {
    if (visit_stamp_[static_cast<std::size_t>(root)] == visit_epoch_) continue;
    group_.clear();
    visit_stamp_[static_cast<std::size_t>(root)] = visit_epoch_;
    bfs_queue_.assign(1, root);
    while (!bfs_queue_.empty()) {
      const FlowId cur = bfs_queue_.back();
      bfs_queue_.pop_back();
      group_.push_back(cur);
      // All released flows on any of `cur`'s links belong to this
      // component (the partition refines link sharing), so the walk
      // never escapes c.
      const auto c_begin = static_cast<std::size_t>(
          route_off_[static_cast<std::size_t>(cur)]);
      const auto c_end = static_cast<std::size_t>(
          route_off_[static_cast<std::size_t>(cur) + 1]);
      for (std::size_t ri = c_begin; ri < c_end; ++ri) {
        const auto li = static_cast<std::size_t>(route_links_[ri]);
        if (link_stamp_[li] == visit_epoch_) continue;
        link_stamp_[li] = visit_epoch_;
        for (const FlowId nb : link_members_[li])
          if (visit_stamp_[static_cast<std::size_t>(nb)] != visit_epoch_) {
            visit_stamp_[static_cast<std::size_t>(nb)] = visit_epoch_;
            bfs_queue_.push_back(nb);
          }
      }
    }
    assigned += group_.size();
    if (first_group && assigned == split_scratch_.size()) {
      // Still one connected component: keep it as is (pending deltas
      // and the trace stay usable — membership did not change here).
      solve_component(c);
      return;
    }
    // Split: the first true sub-component keeps id `c`, later ones get
    // fresh (clean) components.  alloc_component() may reallocate
    // `components_`, so the member list is re-indexed each round.
    const std::int32_t target = first_group ? c : alloc_component();
    if (first_group) {
      // The old trace covers the union, not this part: drop it.  The
      // cold solve below records each part's own trace.
      components_[static_cast<std::size_t>(c)].reset_warm();
    }
    first_group = false;
    auto& members = components_[static_cast<std::size_t>(target)].members;
    members.assign(group_.begin(), group_.end());
    for (std::size_t k = 0; k < members.size(); ++k) {
      component_of_[static_cast<std::size_t>(members[k])] = target;
      member_pos_[static_cast<std::size_t>(members[k])] =
          static_cast<std::int32_t>(k);
    }
    solve_component(target);
  }
}

void FluidNetwork::solve_component(std::int32_t c) {
  auto& comp = components_[static_cast<std::size_t>(c)];
  const std::size_t n = comp.members.size();
  if (n == 1) {
    // Uncontended flow: its rate is the tightest of its own cap and its
    // links' capacities — same value the solver would produce.  No
    // warm trace: the first contended solve will record one.
    if (trace_)
      trace_->record(now_, TraceEventKind::SolveComponent, c, 1,
                     kSolveSingleton);
    solver_stats().singleton.inc();
    comp.reset_warm();
    const FlowId id = comp.members.front();
    Rate r = flows_[static_cast<std::size_t>(id)].cap;
    const auto r_begin = static_cast<std::size_t>(
        route_off_[static_cast<std::size_t>(id)]);
    const auto r_end = static_cast<std::size_t>(
        route_off_[static_cast<std::size_t>(id) + 1]);
    for (std::size_t i = r_begin; i < r_end; ++i)
      r = std::min(r,
                   capacity_[static_cast<std::size_t>(route_links_[i])]);
    if (r != flow_rate_[static_cast<std::size_t>(id)]) set_rate(id, r);
    return;
  }
  if (comp.warm.valid) {
    if (comp.pending_add.empty() && comp.pending_remove.empty()) {
      // A flow arrived and completed within one batch: the population
      // the trace covers is unchanged, so every rate is still exact.
      return;
    }
    arrivals_scratch_.clear();
    for (const FlowId id : comp.pending_add) {
      const auto off = route_off_[static_cast<std::size_t>(id)];
      arrivals_scratch_.push_back(FlowArrival{
          id, route_links_.data() + off,
          route_off_[static_cast<std::size_t>(id) + 1] - off,
          flows_[static_cast<std::size_t>(id)].cap});
    }
    changed_.clear();
    SolverStats& stats = solver_stats();
    obs::PhaseTimer span("solve/warm");
    const auto t0 = stats.enabled() ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
    const bool warm_ok = solver_.solve_warm(
        capacity_, comp.warm, arrivals_scratch_.data(),
        arrivals_scratch_.size(), comp.pending_remove.data(),
        comp.pending_remove.size(), changed_);
    if (stats.enabled())
      stats.ns_warm.add_ns(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    if (warm_ok) {
      if (trace_)
        trace_->record(now_, TraceEventKind::SolveComponent, c,
                       static_cast<std::int32_t>(comp.members.size()),
                       kSolveWarm);
      solver_stats().warm.inc();
      for (const auto& [id, r] : changed_) {
        // Unchanged rates keep their completion prediction; re-keying
        // would just churn the event heap.
        if (r != flow_rate_[static_cast<std::size_t>(id)]) set_rate(id, r);
      }
      comp.clear_pending();
      return;
    }
  }
  solve_cold(c);
}

void FluidNetwork::solve_cold(std::int32_t c) {
  auto& comp = components_[static_cast<std::size_t>(c)];
  comp.clear_pending();
  const FlowId* ids = comp.members.data();
  const std::size_t n = comp.members.size();
  demand_views_.clear();
  if (local_index_.size() < flows_.size()) local_index_.resize(flows_.size());
  bool two_link = true;
  for (std::size_t k = 0; k < n; ++k) {
    const auto fi = static_cast<std::size_t>(ids[k]);
    const std::int32_t off = route_off_[fi];
    const std::int32_t len = route_off_[fi + 1] - off;
    demand_views_.push_back(FlowDemandView{route_links_.data() + off, len,
                                           flows_[fi].cap});
    two_link = two_link && len == 2;
    local_index_[fi] = static_cast<std::int32_t>(k);
  }
  group_rates_.resize(n);
  if (trace_)
    trace_->record(now_, TraceEventKind::SolveComponent, c,
                   static_cast<std::int32_t>(n),
                   two_link ? kSolveBipartite : kSolveGeneral);
  SolverStats& stats = solver_stats();
  (two_link ? stats.bipartite : stats.general).inc();
  obs::PhaseTimer span(two_link ? "solve/bipartite" : "solve/general");
  const auto t0 = stats.enabled() ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
  if (two_link) {
    // A member-order CSR keeps the recorded settle order: same trace bytes.
    solver_.solve(capacity_, demand_views_.data(), n, group_rates_.data(),
                  &comp.warm, ids);
  } else {
    // The live per-link membership lists are exactly this component's
    // adjacency, so the solver can walk them instead of building a CSR.
    solver_.solve(capacity_, demand_views_.data(), n, group_rates_.data(),
                  link_members_, local_index_, &comp.warm, ids);
  }
  if (stats.enabled())
    stats.ns_cold.add_ns(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  for (std::size_t k = 0; k < n; ++k) {
    const FlowId id = ids[k];
    // Unchanged rates keep their completion prediction; re-keying would
    // just churn the event heap.
    if (group_rates_[k] != flow_rate_[static_cast<std::size_t>(id)])
      set_rate(id, group_rates_[k]);
  }
}

}  // namespace rats
