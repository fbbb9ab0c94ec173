// Max-Min fair bandwidth sharing (paper Sections II-B and IV-A).
//
// SimGrid's fluid network model assigns each flow a transfer rate such
// that bandwidth is shared Max-Min fairly: no flow can increase its
// rate without decreasing the rate of a flow with an equal or smaller
// one.  We implement the classic progressive-filling algorithm,
// extended with per-flow rate caps to model the empirical TCP-window
// bandwidth bound beta' = min(beta, W_max / RTT).
//
// ---- solver-strategy layer ---------------------------------------------
//
// Re-solving a sharing component on every flow arrival/departure is the
// simulation's hot path, so two strategies are provided and the fluid
// network dispatches between them per component and per event:
//
//  1. Warm-started re-solve (`MaxMinSolver::solve_warm`).  Progressive
//     filling fixes flows in rounds of non-decreasing binding shares; a
//     single-flow (or small batched) population delta leaves every
//     round before the changed flows' first participation bitwise
//     untouched.  Each traced solve therefore records its *saturation
//     trace* into a caller-owned `MaxMinWarmState`: the rounds (binding
//     share and binding link each), the flows fixed per round, a
//     per-settle undo log of prior link residuals, and the final
//     residuals.  A warm re-solve finds the divergence round (a
//     departed flow's fix round; for an arrival, the first round whose
//     share reaches the arrival's initial link shares or cap) and
//     undoes the trace back to it by replaying the log in reverse.
//     The replay then *splices* rather than re-solving the whole
//     suffix: recorded rounds are consumed in order as a "kept
//     schedule", and a round is committed straight from the record —
//     same settles, same recorded rates, bit-identical by construction
//     — as long as its binding link is outside the *dependency cone*
//     of the delta.  The cone is tracked dynamically as the set of
//     links whose residual/active history diverged: it seeds with the
//     departures' and arrivals' links and grows when a cone-fixed (or
//     transferred) flow crosses new links.  A kept round whose binding
//     link entered the cone transfers its settles into the cone
//     instead; cone flows are re-solved through a share heap + cap
//     heap merged against the kept schedule by the cold solver's
//     (share, link id) order, caps first on ties — which is exactly
//     what keeps the merged round order bit-identical to a cold solve.
//     Cost is O(undone suffix) for the undo/splice plus O(cone) heap
//     work; only structurally stale states decline (returns false,
//     caller cold-solves).
//  2. Cold lazy-heap solve (`MaxMinSolver::solve`): keeps per-link
//     remaining capacity and unfixed-flow counts, and drives
//     progressive filling from a lazy min-heap of link fair shares plus
//     a cap-sorted flow list.  Per-link scratch is epoch-stamped and
//     initialized lazily, so a subset solve costs
//     O(F log F + (F + I) log L_c) with L_c the distinct subset links —
//     independent of `capacity.size()`.  The link->flow adjacency comes
//     from one of two sources, chosen by the fluid network per route
//     shape: a CSR built per solve in member order (two-link
//     components, i.e. flat clusters' {src uplink, dst downlink}
//     routes), or the caller's live per-link membership lists (every
//     other component).  Rates are identical either way; the adjacency
//     order only fixes the order in which a saturated link's flows are
//     settled, and therefore the order of the recorded trace.
//
// Both produce bitwise-identical rates: the heap orders ties by
// link id, settle arithmetic is order-invariant, and the warm
// continuation rebuilds a fresh share heap whose pop order matches the
// lazy heap's.  One subtlety makes that order reproducible: the cold
// solver *fires at the heap key but settles at the current share*, and
// a settle can drop a link's current share a few ULPs below its own
// frozen key (a "dip").  Each traced round therefore records its fire
// key alongside the settled share, and every key-above-share moment is
// logged as a `Dip`; the warm merge mirrors those keys (seeding from
// the spliced residuals, max-merged with surviving dips, refreshed on
// first touch per round) so the merged (key, link id) order — and the
// cap-vs-link tie-breaks — replay the cold solve's event sequence
// exactly.
//
// Hot state is laid out struct-of-arrays: link slots, the share heap
// (share + global/dense link ids in 16 bytes), the warm engine's
// per-dense-link key/touch/active/remaining scratch, and the fluid
// network's per-flow rate/remaining/settled arrays plus a flat route
// arena (`route_off_`/`route_links_`) are all flat indexed vectors, so
// settle loops, rate flushes and event-heap re-keys run over
// contiguous memory.  Max-Min rates decompose exactly over
// connected components of the flow/link sharing graph, so a
// component-scoped solve — by either strategy — reproduces the full
// solve's per-flow rates bit for bit.  The differential test suite
// (tests/maxmin_test.cpp) checks all pairings on randomized instances.
//
// `maxmin_fair_rates_reference` — the straightforward O(R * F * r)
// textbook implementation — is kept as the oracle for differential
// testing and for the solver microbenchmark's old-vs-new grid.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace rats {

/// One flow's demand for the solver: the links it crosses and an
/// optional cap on its own rate (infinity = uncapped).
struct FlowDemand {
  std::vector<std::int32_t> links;
  Rate cap = std::numeric_limits<Rate>::infinity();
};

/// Non-owning view of one flow's demand.  `links` typically points into
/// storage the caller already maintains (e.g. a fluid-network flow's
/// immutable route) and must stay valid for the duration of the solve.
struct FlowDemandView {
  const std::int32_t* links = nullptr;
  std::int32_t count = 0;
  Rate cap = std::numeric_limits<Rate>::infinity();
};

/// One arriving flow for a warm re-solve.  `links` must stay valid for
/// the duration of the call; `id` must be new to the population.
struct FlowArrival {
  std::int32_t id = -1;
  const std::int32_t* links = nullptr;
  std::int32_t count = 0;
  Rate cap = std::numeric_limits<Rate>::infinity();
};

/// Saturation trace of one population's last solve, owned by the caller
/// (the fluid network keeps one per sharing component).  Filled by the
/// traced solve entry points and consumed/updated by
/// `MaxMinSolver::solve_warm`; opaque to everything else.
struct MaxMinWarmState {
  bool valid = false;

  // Dense link table over every distinct link the population touched
  // while this state has been live (links never leave; a link all of
  // whose flows departed keeps `remaining == capacity`).
  std::vector<std::int32_t> links;  ///< dense index -> link id
  std::vector<std::int32_t> act0;   ///< population flows per link
  std::vector<Rate> remaining;      ///< residual capacity after the solve
  Rate max_capacity = 0;            ///< max capacity ever seen in `links`

  /// One fixed flow, in fix order.  Its links (with the link residual
  /// recorded *before* this settle subtracted the rate) live in
  /// `log[link_off .. next settle's link_off)`.
  struct Settle {
    std::int32_t id;        ///< caller-stable flow id
    std::int32_t link_off;  ///< first undo-log entry
    Rate rate;
    Rate cap;
  };
  struct LogEntry {
    std::int32_t link;  ///< dense link index
    Rate before;        ///< link residual before the settle
  };
  /// One filling round: a link saturation or a cap fix; `share` is the
  /// binding value (non-decreasing over rounds up to rounding) and
  /// `link` the binding link (dense index; -1 for cap rounds).  The
  /// binding link is what lets a warm re-solve decide whether a
  /// recorded round is inside the delta's dependency cone.  `key` is
  /// the solver's heap key when the round fired: normally equal to
  /// `share`, but frozen one or two ulps *above* it when the binding
  /// link's share dipped after a tied settle (see the dip log below).
  /// The solver orders events by key and fires at `share`, so a warm
  /// splice needs both to reproduce the cold event order bitwise.
  struct Round {
    std::int32_t first_settle;
    Rate share;
    std::int32_t link;
    Rate key;
  };
  /// Heap-key freeze: settling a flow at a share at-or-above a link's
  /// own share can lower that link's share by an ulp or two below its
  /// heap key, and the key then stays frozen until the link fires.
  /// Cold event order among near-ties depends on these frozen keys, so
  /// they are recorded (they are rare, pure-rounding events) and
  /// replayed when a warm re-solve seeds its cone heap.
  struct Dip {
    std::int32_t round;  ///< round whose settles caused the dip
    std::int32_t link;   ///< dense link index
    Rate key;            ///< the frozen heap key (> current share)
  };
  std::vector<Settle> settles;
  std::vector<LogEntry> log;
  std::vector<Round> rounds;
  std::vector<Dip> dips;

  void invalidate() {
    valid = false;
    links.clear();
    act0.clear();
    remaining.clear();
    max_capacity = 0;
    settles.clear();
    log.clear();
    rounds.clear();
    dips.clear();
  }
};

/// Reusable Max-Min solver.  Keeps adjacency/heap/scratch storage
/// across calls so steady-state solves are allocation-free.  Not
/// thread-safe; use one instance per thread.
class MaxMinSolver {
 public:
  /// Computes Max-Min fair rates into `rates` (resized to flows.size()).
  ///
  /// `capacity[l]` is the bandwidth of link l (bytes/s, must be > 0
  /// when used by any flow).  Flows crossing no link (loopback) receive
  /// their cap (or +infinity when uncapped) — callers treat such
  /// transfers as instantaneous.
  ///
  /// Properties guaranteed (and asserted by the test suite):
  ///  * feasibility: for every link, sum of crossing rates <= capacity;
  ///  * cap respect: rate[f] <= cap[f];
  ///  * max-min optimality: every flow is bottlenecked, i.e. either
  ///    runs at its cap or crosses a saturated link on which it has a
  ///    maximal rate among the link's flows.
  void solve(const std::vector<Rate>& capacity,
             const std::vector<FlowDemand>& flows, std::vector<Rate>& rates);

  /// Subset solve over non-owning route views: `rates[f]` receives the
  /// Max-Min rate of `flows[f]` for f in [0, num_flows).  Only the
  /// links the subset actually crosses are touched.  When `flows` is
  /// (a superset of) a connected component of the sharing graph, the
  /// rates equal the full solve's rates for those flows.
  ///
  /// When `trace` is non-null the solve also records its saturation
  /// trace there, priming warm re-solves; `stable_ids[f]` then names
  /// flow f in the trace (null = use the local index).  The CSR is
  /// built in `flows` order, so a saturated link settles its flows in
  /// that order.
  void solve(const std::vector<Rate>& capacity, const FlowDemandView* flows,
             std::size_t num_flows, Rate* rates,
             MaxMinWarmState* trace = nullptr,
             const std::int32_t* stable_ids = nullptr);

  /// Adjacency-sharing subset solve: identical rates to the overload
  /// above, but walks a caller-maintained link->flow table instead of
  /// building a CSR copy per solve.  `link_flows[l]` must list exactly
  /// the subset's flows crossing link l (as caller-scoped ids), and
  /// `local_of[id]` maps such an id to its index in `flows`.  The
  /// fluid network hands in its live per-link membership lists, saving
  /// the two CSR passes on every contended re-solve.  (The order of a
  /// link's list does not change the rates — every unfixed flow on a
  /// saturated link receives the same share — but it is the settle
  /// order recorded in `trace`.)
  void solve(const std::vector<Rate>& capacity, const FlowDemandView* flows,
             std::size_t num_flows, Rate* rates,
             const std::vector<std::vector<std::int32_t>>& link_flows,
             const std::vector<std::int32_t>& local_of,
             MaxMinWarmState* trace = nullptr,
             const std::int32_t* stable_ids = nullptr);

  /// Warm re-solve of the population recorded in `state` after removing
  /// the flows in `departures` and adding those in `arrivals` (see the
  /// strategy overview in the header comment).  On success, appends
  /// (id, rate) for every flow whose rate was re-solved through the
  /// cone — a superset of the flows whose rate actually changed; flows
  /// committed from the kept schedule retain their recorded rates — to
  /// `changed`, updates `state` to the new population's trace, and
  /// returns true.  Returns false (leaving `state` untouched) when the
  /// state is invalid, a departure is unknown or an arrival has no
  /// links; the caller must then run a traced cold solve.
  bool solve_warm(const std::vector<Rate>& capacity, MaxMinWarmState& state,
                  const FlowArrival* arrivals, std::size_t num_arrivals,
                  const std::int32_t* departures, std::size_t num_departures,
                  std::vector<std::pair<std::int32_t, Rate>>& changed);

 private:
  /// External adjacency for the sharing overload; null = build CSR.
  struct ExtAdjacency {
    const std::vector<std::vector<std::int32_t>>* link_flows;
    const std::vector<std::int32_t>* local_of;
  };
  void solve_impl(const std::vector<Rate>& capacity,
                  const FlowDemandView* flows, std::size_t num_flows,
                  Rate* rates, const ExtAdjacency* ext, MaxMinWarmState* trace,
                  const std::int32_t* stable_ids);
  // A (fair share, link) heap entry; stale entries are detected on pop
  // by re-deriving the share from remaining_/active_.  Ties order by
  // link id so the pop sequence of one sharing component is the same
  // whether it is solved alone or interleaved with other components.
  struct HeapEntry {
    Rate share;
    std::int32_t link;   ///< global link id (the cold tie-break order)
    std::int32_t dense;  ///< index into the trace's dense link table
    bool operator>(const HeapEntry& o) const {
      if (share != o.share) return share > o.share;
      return link > o.link;
    }
  };

  // Per-link state, epoch-stamped: a slot is (re)initialized the first
  // time a solve touches its link, so untouched links cost nothing.
  // One packed struct per link keeps a touch to a single cache line.
  struct LinkSlot {
    std::uint64_t epoch = 0;
    Rate remaining = 0;        ///< unallocated capacity
    std::int32_t active = 0;   ///< unfixed flows crossing the link
    std::int32_t index = 0;    ///< dense index among touched links
    Rate key = 0;              ///< shadow of the link's heap key
  };
  std::vector<LinkSlot> slots_;
  std::vector<std::int32_t> touched_;  ///< distinct links of this solve
  std::uint64_t epoch_ = 0;
  // CSR adjacency over touched links (offsets indexed by dense index).
  std::vector<std::int32_t> link_off_;
  std::vector<std::int32_t> link_flows_;
  // Per-flow state.
  std::vector<char> fixed_;
  std::vector<std::pair<Rate, std::int32_t>> caps_;  ///< (cap, flow) ascending
  // Lazy min-heap of link fair shares (std::*_heap over a reused vector).
  std::vector<HeapEntry> heap_;
  // View scratch for the owning-demand overload.
  std::vector<FlowDemandView> views_;

  // ---- warm re-solve scratch (dense over the state's link table) ----
  std::vector<std::int32_t> warm_active_;   ///< unfixed flows per link
  std::vector<Rate> warm_key_;              ///< mirrored cold heap keys
  std::vector<std::int32_t> warm_last_touch_;  ///< round of last settle
  std::vector<std::int32_t> warm_extra_;    ///< arriving flows per link
  std::vector<char> warm_touched_;          ///< link touched by the suffix?
  std::vector<char> warm_affected_;         ///< link in the dependency cone?
  std::vector<std::int32_t> warm_links_;    ///< suffix links (dense)
  // Suffix work list (SoA): flow w has links in
  // work_flow_links_[work_off_[w] .. work_off_[w + 1]).
  std::vector<std::int32_t> work_ids_;
  std::vector<Rate> work_caps_;
  std::vector<Rate> work_rates_;            ///< recorded rate (kept commits)
  std::vector<std::int32_t> work_off_;
  std::vector<std::int32_t> work_flow_links_;
  std::vector<std::int32_t> work_csr_off_;  ///< per suffix link
  std::vector<std::int32_t> work_csr_;
  std::vector<std::int32_t> csr_slot_;      ///< dense link -> suffix index
  /// Work-index prefix counts per suffix settle (maps recorded rounds
  /// to work ranges).
  std::vector<std::int32_t> warm_suffix_work_;
  /// The kept schedule: recorded suffix rounds, consumed in order and
  /// either committed verbatim or transferred into the cone.
  struct WarmKeptRound {
    Rate share;
    Rate key;           ///< recorded heap key (ordering value)
    std::int32_t link;  ///< dense binding link; -1 for cap rounds
    std::int32_t work_begin;
    std::int32_t work_end;
  };
  std::vector<WarmKeptRound> warm_kept_;
  /// Cone cap min-heap (cap, work index): the sorted cap array of the
  /// cold solve, as a heap so transfers can insert mid-replay.
  std::vector<std::pair<Rate, std::int32_t>> warm_cap_heap_;
};

/// Convenience wrapper around a fresh `MaxMinSolver` (allocates scratch
/// per call; hot paths should hold a `MaxMinSolver` instead).
std::vector<Rate> maxmin_fair_rates(const std::vector<Rate>& capacity,
                                    const std::vector<FlowDemand>& flows);

/// Reference progressive-filling implementation (the seed solver, with
/// the saturated-link set snapshotted before each fixing pass so the
/// result does not depend on flow index order).  O(R * F * r) for R
/// filling rounds and route length r; used for differential testing.
std::vector<Rate> maxmin_fair_rates_reference(
    const std::vector<Rate>& capacity, const std::vector<FlowDemand>& flows);

}  // namespace rats
