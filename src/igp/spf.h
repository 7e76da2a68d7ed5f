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
// egress: the distance from e is the distance to e. A sweep over each
// router's outgoing arcs then keeps every arc that is up and tight
// (dist[to] + cost == dist[u]), in ascending link-id order. Columns are
// independent, so the work spreads over a thread pool with byte-identical
// output at any thread count. A state may hold only some columns (see
// `reconverge`); reading one it does not hold throws.
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

// Persistent per-cycle topology overlay: the long-lived link/router deltas
// that distinguish one monthly cycle's world from the base topology (as
// opposed to the transient intra-month failures `apply_flaps` layers on
// top). Canonical form: each vector is either empty (no deltas of that
// kind) or sized to the AS link count. `down[l]` removes link l entirely;
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

  // Runs one Dijkstra per egress: all columns. O(R * (L log R)). When
  // `link_down` is given (indexed by LinkId), those links are excluded — the
  // state after an IGP reconvergence around failed links. When `overlay` is
  // given, its down links are excluded too and its cost overrides replace
  // base link metrics. When `pool` is given, columns are computed in
  // parallel; output is byte-identical at any thread count.
  static IgpState compute(const topo::AsTopology& topo,
                          const std::vector<bool>* link_down = nullptr,
                          util::ThreadPool* pool = nullptr,
                          const LinkOverlay* overlay = nullptr);

  // Incremental, demand-driven reconvergence: the result holds exactly the
  // (distinct) `egresses` columns, each equal to that column of
  // `compute(topo, &link_down)` given a `baseline` computed on the same
  // topology with no links down (the baseline must hold those columns).
  // Column e re-runs only if a downed link lies on one of its shortest
  // paths, i.e. is "tight" under e's baseline distances; otherwise it is
  // copied from the baseline. Removing links that carry none of e's
  // shortest paths changes neither its distances nor its ECMP sets.
  // When `overlay` is given, `baseline` must have been computed under that
  // same overlay (`compute(topo, nullptr, pool, overlay)`), and `link_down`
  // must be the *full* down set including the overlay's own down links; the
  // tight-link test then skips overlay-down links (already absent from the
  // baseline) and prices the rest with the overlay's cost overrides.
  static IgpState reconverge(const topo::AsTopology& topo,
                             const IgpState& baseline,
                             const std::vector<bool>& link_down,
                             std::span<const topo::RouterId> egresses,
                             util::ThreadPool* pool = nullptr,
                             ReconvergeStats* stats = nullptr,
                             const LinkOverlay* overlay = nullptr);

  // Cross-cycle incremental reconvergence: given `prev` (holding every
  // column) computed under `prev_overlay`, produce all columns under
  // `now_overlay`, recomputing only columns the overlay transition can
  // affect. Column e must be recomputed iff (a) a removed/worsened link was
  // tight under its previous distances (it carried one of e's shortest
  // paths), or (b) an added/cheapened link could now reach a router at <=
  // its previous distance (shorter path or new ECMP tie). Every other
  // column is byte-identical to a full recompute and is copied from `prev`.
  static IgpState reconverge_delta(const topo::AsTopology& topo,
                                   const IgpState& prev,
                                   const LinkOverlay& prev_overlay,
                                   const LinkOverlay& now_overlay,
                                   util::ThreadPool* pool = nullptr,
                                   ReconvergeStats* stats = nullptr);

  // The column toward `egress`. Throws std::logic_error when this state
  // does not hold it: a missing column is a demand bug, never "unreachable".
  const EgressColumn& column(topo::RouterId egress) const;
  std::size_t router_count() const noexcept { return n_; }

  // Number of loop-free shortest paths from src to dst (counts distinct
  // link sequences, saturating at `cap`). Memoized DP over dst's next-hop
  // DAG: O(V + E) regardless of how many paths the DAG encodes.
  std::uint64_t path_count(topo::RouterId src, topo::RouterId dst,
                           std::uint64_t cap = 1u << 20) const;

  // Whole-state equality (test oracle for incremental reconvergence).
  friend bool operator==(const IgpState&, const IgpState&) = default;

 private:
  // One Dijkstra from `egress`, then the tight-arc sweep, into `col`.
  static void solve_column(const topo::CsrAdjacency& csr,
                           topo::RouterId egress,
                           const std::vector<bool>* link_down,
                           EgressColumn& col);
  // Fills the (distinct) `egresses` columns: re-solved where `rerun[i]`,
  // copied from `prev` otherwise.
  void solve_or_copy(const topo::AsTopology& topo, const IgpState& prev,
                     std::span<const topo::RouterId> egresses,
                     const std::vector<std::uint8_t>& rerun,
                     const std::vector<bool>* link_down,
                     const LinkOverlay* overlay, util::ThreadPool* pool);

  std::size_t n_ = 0;
  std::vector<EgressColumn> columns_;  // by egress RouterId
};

}  // namespace mum::igp
