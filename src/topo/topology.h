// Router-level topology of a single Autonomous System.
//
// A topology is a multigraph: routers connected by point-to-point links.
// Parallel links (several links between the same router pair) are first-class
// because the paper's "ECMP Mono-FEC / Parallel Links" subclass hinges on
// them. Every link endpoint carries its own interface address; every router
// carries a loopback address (the LDP FEC anchor for transit traffic).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ipv4.h"

namespace mum::topo {

using RouterId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr RouterId kInvalidRouter = ~RouterId{0};
inline constexpr LinkId kInvalidLink = ~LinkId{0};

// Router hardware vendor; drives label-range allocation and the RSVP-TE
// re-optimization behaviour observed in the paper (Sec. 4.5: the periodic
// label churn "seems to be mainly related to Juniper hardware").
enum class Vendor : std::uint8_t { kCisco, kJuniper };

struct Router {
  RouterId id = kInvalidRouter;
  net::Ipv4Addr loopback;
  Vendor vendor = Vendor::kCisco;
  bool is_border = false;  // candidate LER (BGP edge)
  // Probability this router answers traceroute probes; anonymous routers
  // ([29] in the paper) are modelled by draws against this.
  double response_prob = 1.0;
  std::string name;
};

// A point-to-point link. Directionless storage; each endpoint has its own
// interface address (the address a traceroute reveals when a packet *enters*
// the router through it).
struct Link {
  LinkId id = kInvalidLink;
  RouterId a = kInvalidRouter;
  RouterId b = kInvalidRouter;
  net::Ipv4Addr a_iface;  // address of the interface on router a
  net::Ipv4Addr b_iface;  // address of the interface on router b
  std::uint32_t igp_cost = 1;
  double latency_ms = 1.0;

  RouterId other(RouterId r) const noexcept { return r == a ? b : a; }
  // Address of the interface on `r`'s side.
  net::Ipv4Addr iface_of(RouterId r) const noexcept {
    return r == a ? a_iface : b_iface;
  }
};

// One directed half of a link as seen from a router: the outgoing link id,
// the router it leads to, and the link's IGP cost. 12 bytes, no padding.
struct CsrArc {
  LinkId link = kInvalidLink;
  RouterId to = kInvalidRouter;
  std::uint32_t cost = 1;
};

// Compressed-sparse-row adjacency snapshot of a topology's up links: every
// router's outgoing arcs stored contiguously, in ascending link-id order.
// SPF inner loops walk this instead of the pointer-chasing `links_of` +
// `link(lid)` pair. A snapshot is immutable and independent of the
// AsTopology that produced it (safe to share read-only across threads);
// rebuild after mutating the topology.
class CsrAdjacency {
 public:
  std::size_t router_count() const noexcept { return offsets_.size() - 1; }
  std::size_t arc_count() const noexcept { return arcs_.size(); }

  // `r`'s arcs are [arc_offset(r), arc_offset(r + 1)) of the arc array.
  std::uint32_t arc_offset(RouterId r) const { return offsets_[r]; }
  std::span<const CsrArc> out(RouterId r) const {
    return {arcs_.data() + offsets_[r], arcs_.data() + offsets_[r + 1]};
  }
  // Largest cost among the arcs (0 when there are none). Bounds the distance
  // spread of a Dijkstra frontier, letting the SPF run a cyclic bucket
  // queue instead of a binary heap.
  std::uint32_t max_cost() const noexcept { return max_cost_; }

 private:
  friend class AsTopology;
  std::vector<std::uint32_t> offsets_;  // router_count() + 1
  std::vector<CsrArc> arcs_;            // 2 per up link
  std::uint32_t max_cost_ = 0;
};

class AsTopology {
 public:
  explicit AsTopology(std::uint32_t asn) : asn_(asn) {}

  std::uint32_t asn() const noexcept { return asn_; }

  RouterId add_router(net::Ipv4Addr loopback, Vendor vendor, bool is_border,
                      std::string name = {});
  // Throws std::invalid_argument for an IGP metric of 0: the SPF relies on
  // every arc costing at least 1.
  LinkId add_link(RouterId a, RouterId b, net::Ipv4Addr a_iface,
                  net::Ipv4Addr b_iface, std::uint32_t igp_cost = 1,
                  double latency_ms = 1.0);

  std::size_t router_count() const noexcept { return routers_.size(); }
  std::size_t link_count() const noexcept { return links_.size(); }

  const Router& router(RouterId id) const { return routers_.at(id); }
  Router& router(RouterId id) { return routers_.at(id); }
  const Link& link(LinkId id) const { return links_.at(id); }

  const std::vector<Router>& routers() const noexcept { return routers_; }
  const std::vector<Link>& links() const noexcept { return links_; }

  // Links incident to `r`.
  const std::vector<LinkId>& links_of(RouterId r) const {
    return adjacency_.at(r);
  }

  // All border routers (candidate LERs).
  std::vector<RouterId> border_routers() const;

  // Router owning `addr` (loopback or interface); kInvalidRouter if none.
  RouterId router_of_addr(net::Ipv4Addr addr) const;

  // CSR adjacency snapshot of the current link set (see CsrAdjacency),
  // without mutating the topology. Both vectors are indexed by LinkId and
  // empty means none: `cost_override` prices arcs with metric overrides
  // (0 = keep the base metric), and links set in `down` get no arcs.
  CsrAdjacency make_csr(const std::vector<std::uint32_t>& cost_override = {},
                        const std::vector<bool>& down = {}) const;

  // Number of distinct links between a and b (parallel-link width).
  std::size_t parallel_degree(RouterId a, RouterId b) const;

  // True when the graph is connected (every router reachable from router 0).
  bool connected() const;

 private:
  std::uint32_t asn_;
  std::vector<Router> routers_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> adjacency_;
  std::unordered_map<net::Ipv4Addr, RouterId> addr_to_router_;
};

}  // namespace mum::topo
