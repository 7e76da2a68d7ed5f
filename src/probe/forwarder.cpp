#include "probe/forwarder.h"

#include <span>

#include "util/rng.h"

namespace mum::probe {

namespace {

// /24 prefix key of an address (FEC granularity used throughout).
std::uint64_t slash24(net::Ipv4Addr addr) noexcept {
  return addr.value() >> 8;
}

double to01_local(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void append_plain_hop(WalkResult& out, net::Ipv4Addr addr, double latency) {
  HopRecord hop;
  hop.addr = addr;
  hop.latency_ms = latency;
  out.hops.push_back(std::move(hop));
}

// Walk one AS segment, appending the hops revealed inside it.
// Returns false when forwarding breaks (unreachable egress).
bool walk_segment(const SegmentSpec& seg, net::Ipv4Addr dst,
                  std::uint64_t flow_hash, WalkResult& out) {
  const AsDataPlane& plane = *seg.plane;
  const topo::AsTopology& topo = *plane.topo;

  // Entry hop: the packet arrives from outside, unlabeled.
  {
    HopRecord hop;
    hop.addr = seg.entry_iface;
    hop.response_prob = topo.router(seg.ingress).response_prob;
    hop.rfc4950 = plane.rfc4950;
    hop.latency_ms = 1.0;
    out.hops.push_back(std::move(hop));
  }
  if (seg.ingress == seg.egress) return true;

  // Both tunnel ends must be MPLS-enabled: the ingress pushes the stack and
  // the egress loopback is the FEC anchor LDP distributes labels for.
  const bool use_mpls =
      (plane.ldp != nullptr || plane.rsvp != nullptr) &&
      ler_enabled(plane, seg.ingress) && ler_enabled(plane, seg.egress) &&
      mpls_applies(plane, dst);

  // --- RSVP-TE LSP ------------------------------------------------------
  if (use_mpls) {
    if (const auto lsp_id =
            select_te_lsp(plane, seg.ingress, seg.egress, dst)) {
      const mpls::TeLsp& lsp = plane.rsvp->lsp(*lsp_id);
      const std::span<const mpls::TeHop> te_hops =
          plane.rsvp->active_hops(*lsp_id);
      for (const mpls::TeHop& te_hop : te_hops) {
        const topo::Link& link = topo.link(te_hop.in_link);
        HopRecord hop;
        hop.addr = link.iface_of(te_hop.router);
        hop.response_prob = topo.router(te_hop.router).response_prob;
        hop.rfc4950 = plane.rfc4950;
        hop.ttl_visible = plane.ttl_propagate;
        hop.latency_ms = link.latency_ms;
        if (te_hop.in_label != net::kLabelImplicitNull) {
          hop.labels.push(te_hop.in_label, /*tc=*/0, /*ttl=*/1);
        }
        // The egress LER is always TTL-visible: it forwards as plain IP.
        if (te_hop.router == lsp.egress) hop.ttl_visible = true;
        out.hops.push_back(std::move(hop));
      }
      return !te_hops.empty();
    }
  }

  // --- LDP LSP-tree over IGP ECMP / plain IGP ----------------------------
  const bool ldp_labels =
      use_mpls && plane.ldp != nullptr &&
      plane.ldp->label_of(seg.ingress, seg.egress) != mpls::LdpPlane::kNoLabel;

  topo::RouterId at = seg.ingress;

  // LDP-over-RSVP: the LDP LSP may first ride a TE hub tunnel into the
  // core. Hops inside the tunnel quote a 2-entry stack (outer TE label,
  // inner = the hub's LDP label for the egress FEC); the stack returns to
  // depth 1 at the hub, where plain LDP forwarding resumes.
  if (ldp_labels) {
    if (const auto hub_id =
            select_hub_tunnel(plane, seg.ingress, seg.egress)) {
      const mpls::TeLsp& tunnel = plane.rsvp->lsp(*hub_id);
      const topo::RouterId hub = tunnel.egress;
      const std::uint32_t inner = plane.ldp->label_of(hub, seg.egress);
      if (inner != mpls::LdpPlane::kNoLabel &&
          inner != net::kLabelImplicitNull) {
        for (const mpls::TeHop& te_hop : plane.rsvp->active_hops(*hub_id)) {
          const topo::Link& link = topo.link(te_hop.in_link);
          HopRecord hop;
          hop.addr = link.iface_of(te_hop.router);
          hop.response_prob = topo.router(te_hop.router).response_prob;
          hop.rfc4950 = plane.rfc4950;
          hop.ttl_visible = plane.ttl_propagate;
          hop.latency_ms = link.latency_ms;
          hop.labels.push(inner, /*tc=*/0, /*ttl=*/1);
          if (te_hop.in_label != net::kLabelImplicitNull) {
            hop.labels.push(te_hop.in_label, /*tc=*/0, /*ttl=*/1);
          }
          out.hops.push_back(std::move(hop));
          at = te_hop.router;
        }
      }
    }
  }
  // Destination-based forwarding: every hop reads the egress's column.
  const igp::EgressColumn& toward = plane.igp->column(seg.egress);
  // Bound the walk to avoid infinite loops on inconsistent FIBs.
  for (std::size_t budget = topo.router_count() + 4; at != seg.egress;
       --budget) {
    if (budget == 0) return false;
    const std::span<const igp::NextHop> nhs = toward.nexthops(at);
    if (nhs.empty()) return false;
    const auto& nh =
        nhs[ecmp_pick(flow_hash, at, plane.salt_for(at), nhs.size())];
    const topo::Link& link = topo.link(nh.link);
    const topo::RouterId next = nh.neighbor;

    HopRecord hop;
    hop.addr = link.iface_of(next);
    hop.response_prob = topo.router(next).response_prob;
    hop.rfc4950 = plane.rfc4950;
    hop.latency_ms = link.latency_ms;
    if (ldp_labels) {
      const std::uint32_t label = plane.ldp->label_of(next, seg.egress);
      if (label != mpls::LdpPlane::kNoLabel &&
          label != net::kLabelImplicitNull) {
        hop.labels.push(label, /*tc=*/0, /*ttl=*/1);
        hop.ttl_visible = plane.ttl_propagate;
      }
      // Egress (empty stack after PHP, or implicit-null) stays TTL-visible.
    }
    out.hops.push_back(std::move(hop));
    at = next;
  }
  return true;
}

}  // namespace

std::size_t ecmp_pick(std::uint64_t flow_hash, topo::RouterId router,
                      std::uint64_t salt, std::size_t n_choices) {
  if (n_choices <= 1) return 0;
  // Per-router hash seed: real routers perturb the 5-tuple hash with a
  // device-local key, so consecutive routers make independent choices.
  const std::uint64_t h = util::hash_combine(
      flow_hash, util::hash_combine(router + 1, salt ^ 0xa5a5a5a5a5a5a5a5ull));
  return static_cast<std::size_t>(h % n_choices);
}

bool mpls_applies(const AsDataPlane& plane, net::Ipv4Addr dst) {
  if (plane.mpls_coverage >= 1.0) return true;
  if (plane.mpls_coverage <= 0.0) return false;
  const std::uint64_t h =
      util::hash_combine(slash24(dst), plane.coverage_salt);
  // Map to [0,1) deterministically.
  const double u =
      static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < plane.mpls_coverage;
}

bool ler_enabled(const AsDataPlane& plane, topo::RouterId router) {
  if (plane.ler_share >= 1.0) return true;
  if (plane.ler_share <= 0.0) return false;
  const std::uint64_t h =
      util::mix64(util::hash_combine(router + 1, plane.ler_salt));
  return to01_local(h) < plane.ler_share;
}

std::optional<mpls::LspId> select_hub_tunnel(const AsDataPlane& plane,
                                             topo::RouterId ingress,
                                             topo::RouterId egress) {
  if (plane.rsvp == nullptr || plane.te_policy.ldp_over_te_share <= 0.0) {
    return std::nullopt;
  }
  const auto it = plane.te_policy.hub_tunnels.find(ingress);
  if (it == plane.te_policy.hub_tunnels.end() || it->second.empty()) {
    return std::nullopt;
  }
  const std::uint64_t h = util::hash_combine(
      util::hash_combine(ingress + 1, egress + 1),
      plane.te_policy.salt ^ 0x1d90ull);
  if (to01_local(h) >= plane.te_policy.ldp_over_te_share) {
    return std::nullopt;
  }
  const auto& tunnels = it->second;
  const mpls::LspId id = tunnels[static_cast<std::size_t>(
      util::mix64(h) % tunnels.size())];
  // Only sensible when the hub actually shortens the remaining LDP path.
  const topo::RouterId hub = plane.rsvp->lsp(id).egress;
  if (hub == ingress || hub == egress) return std::nullopt;
  return id;
}

std::optional<mpls::LspId> select_te_lsp(const AsDataPlane& plane,
                                         topo::RouterId ingress,
                                         topo::RouterId egress,
                                         net::Ipv4Addr dst) {
  if (plane.rsvp == nullptr) return std::nullopt;
  const auto it = plane.te_policy.pairs.find({ingress, egress});
  if (it == plane.te_policy.pairs.end() || it->second.empty()) {
    return std::nullopt;
  }
  const std::uint64_t h =
      util::hash_combine(slash24(dst), plane.te_policy.salt);
  if (plane.te_policy.te_share < 1.0) {
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u >= plane.te_policy.te_share) return std::nullopt;
  }
  const auto& lsps = it->second;
  return lsps[static_cast<std::size_t>(util::mix64(h) % lsps.size())];
}

WalkResult walk_path(const PathSpec& path, std::uint64_t flow_hash) {
  WalkResult out;
  walk_path(path, flow_hash, out);
  return out;
}

void walk_path(const PathSpec& path, std::uint64_t flow_hash,
               WalkResult& out) {
  out.hops.clear();
  out.reached = false;
  for (const net::Ipv4Addr addr : path.pre_hops) {
    append_plain_hop(out, addr, 0.8);
  }
  for (const SegmentSpec& seg : path.segments) {
    if (seg.plane == nullptr || seg.plane->topo == nullptr) {
      out.reached = false;
      return;
    }
    if (!walk_segment(seg, path.dst, flow_hash, out)) {
      out.reached = false;
      return;
    }
  }
  for (const net::Ipv4Addr addr : path.post_hops) {
    append_plain_hop(out, addr, 1.2);
  }
  out.reached = path.dst_responds;
}

}  // namespace mum::probe
