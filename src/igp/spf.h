// Link-state IGP shortest-path computation with full ECMP support.
//
// IGP forwarding is destination-based, and every reader of the routing
// state — the forwarder, LDP reachability, RSVP-TE routes — asks about one
// destination (an egress) at a time. So the state is stored as *egress
// columns*: for an egress e, every router's distance to e and its ECMP next
// hops toward e, each identified by the outgoing link (two parallel links to
// the same neighbour are two distinct ECMP next hops, exactly the situation
// behind the paper's "Parallel Links" subclass).
//
// Links are undirected with one cost, so a column is one Dijkstra from the
// egress: the distance from e is the distance to e. It runs over a CSR that
// leaves the down links out, and as each router u settles, the same scan of
// its arcs that relaxes them keeps the tight ones (dist[to] + cost ==
// dist[u]) as u's next hops, in ascending link-id order. Columns are
// independent, so `compute` spreads them over a thread pool with
// byte-identical output at any thread count. Link state (failures, metric
// overrides) is a LinkOverlay; one `reconverge` moves a state from one
// overlay to another, whether the change is a cycle's churn or a snapshot's
// failures. A state may hold only some columns (see `reconverge`); reading
// one it does not hold throws.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "topo/topology.h"

namespace mum::util {
class ThreadPool;
}

namespace mum::igp {

struct NextHop {
  topo::LinkId link = topo::kInvalidLink;
  topo::RouterId neighbor = topo::kInvalidRouter;

  friend bool operator==(const NextHop&, const NextHop&) = default;
};

inline constexpr std::uint32_t kUnreachable = ~std::uint32_t{0};

// The link state of one AS relative to its base topology: which links are
// down and which IGP metrics are overridden. It is the one description of
// link state: a cycle's persistent deltas are an overlay, and a snapshot's
// failures are that overlay with the failed links' `down` bits set. The IGP
// reconverges from one overlay to another (`IgpState::reconverge`).
// Canonical form: each vector is either empty (no deltas of that kind) or
// sized to the AS link count. `down[l]` removes link l entirely;
// `cost[l] != 0` overrides its IGP metric. Value-comparable so cycle
// evolution can detect per-AS overlay changes cheaply.
struct LinkOverlay {
  std::vector<bool> down;
  std::vector<std::uint32_t> cost;  // 0 = keep the base metric

  bool is_down(topo::LinkId l) const noexcept {
    return !down.empty() && down[l];
  }
  std::uint32_t cost_of(const topo::Link& link) const noexcept {
    return !cost.empty() && cost[link.id] != 0 ? cost[link.id] : link.igp_cost;
  }
  bool trivial() const noexcept {
    for (const bool d : down) {
      if (d) return false;
    }
    for (const std::uint32_t c : cost) {
      if (c != 0) return false;
    }
    return true;
  }

  friend bool operator==(const LinkOverlay&, const LinkOverlay&) = default;
};

// One egress column: every router's distance and ECMP next hops toward the
// egress. Owned by the IgpState that produced it.
class EgressColumn {
 public:
  std::uint32_t distance(topo::RouterId r) const { return dist_[r]; }
  bool reachable(topo::RouterId r) const {
    return dist_[r] != kUnreachable;
  }
  // Next hops from `r` toward the egress, in ascending outgoing-link-id
  // order (empty at the egress itself and where it is unreachable).
  std::span<const NextHop> nexthops(topo::RouterId r) const {
    return {nh_.data() + off_[r],
            static_cast<std::size_t>(off_[r + 1] - off_[r])};
  }

  friend bool operator==(const EgressColumn&, const EgressColumn&) = default;

 private:
  friend class IgpState;
  std::vector<std::uint32_t> dist_;  // by router; empty = column not held
  std::vector<std::uint32_t> off_;   // router_count + 1, into nh_
  std::vector<NextHop> nh_;          // grouped by router
};

// Routing state of one AS: one egress column per held egress.
class IgpState {
 public:
  // What an incremental reconvergence actually did (see `reconverge`). A
  // "source" is an egress column: column e's distances are the distances
  // from e.
  struct ReconvergeStats {
    std::size_t sources_total = 0;       // router count
    std::size_t sources_recomputed = 0;  // columns whose Dijkstra re-ran
  };

  // Runs one Dijkstra per egress: all columns. O(R * (L log R)). The
  // overlay's down links are excluded and its cost overrides replace base
  // link metrics. When `pool` is given, columns are computed in parallel;
  // output is byte-identical at any thread count.
  static IgpState compute(const topo::AsTopology& topo,
                          const LinkOverlay& overlay = {},
                          util::ThreadPool* pool = nullptr);

  // Incremental, demand-driven reconvergence across one link-state change:
  // given `prev` computed under `prev_overlay` (holding every `egresses`
  // column), the result holds exactly the (distinct) `egresses` columns,
  // each equal to that column of `compute(topo, now_overlay)`. An empty
  // list holds no columns. Column e re-runs iff (a) a removed or worsened
  // link was tight under its previous distances (it carried one of e's
  // shortest paths), or (b) an added or cheapened link could now reach a
  // router at <= its previous distance (a shorter path or a new ECMP tie);
  // every other column is copied from `prev`. A failure-only transition
  // (`now_overlay` = `prev_overlay` plus down links) reduces to case (a).
  // Serial: its callers run it once per AS inside a per-AS fan-out.
  static IgpState reconverge(const topo::AsTopology& topo,
                             const IgpState& prev,
                             const LinkOverlay& prev_overlay,
                             const LinkOverlay& now_overlay,
                             std::span<const topo::RouterId> egresses,
                             ReconvergeStats* stats = nullptr);

  // The column toward `egress`. Throws std::logic_error when this state
  // does not hold it: a missing column is a demand bug, never "unreachable".
  const EgressColumn& column(topo::RouterId egress) const;
  std::size_t router_count() const noexcept { return n_; }

  // Whole-state equality (test oracle for incremental reconvergence).
  friend bool operator==(const IgpState&, const IgpState&) = default;

 private:
  // One Dijkstra from `egress` over `csr` (down links already left out),
  // recording next hops as routers settle, into `col`.
  static void solve_column(const topo::CsrAdjacency& csr,
                           topo::RouterId egress, EgressColumn& col);

  std::size_t n_ = 0;
  std::vector<EgressColumn> columns_;  // by egress RouterId
};

}  // namespace mum::igp
