#include "topo/topology.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace mum::topo {

RouterId AsTopology::add_router(net::Ipv4Addr loopback, Vendor vendor,
                                bool is_border, std::string name) {
  const RouterId id = static_cast<RouterId>(routers_.size());
  Router r;
  r.id = id;
  r.loopback = loopback;
  r.vendor = vendor;
  r.is_border = is_border;
  r.name = std::move(name);
  routers_.push_back(std::move(r));
  adjacency_.emplace_back();
  addr_to_router_.emplace(loopback, id);
  return id;
}

LinkId AsTopology::add_link(RouterId a, RouterId b, net::Ipv4Addr a_iface,
                            net::Ipv4Addr b_iface, std::uint32_t igp_cost,
                            double latency_ms) {
  if (igp_cost == 0) throw std::invalid_argument("topo: IGP metric 0");
  const LinkId id = static_cast<LinkId>(links_.size());
  Link l;
  l.id = id;
  l.a = a;
  l.b = b;
  l.a_iface = a_iface;
  l.b_iface = b_iface;
  l.igp_cost = igp_cost;
  l.latency_ms = latency_ms;
  links_.push_back(l);
  adjacency_[a].push_back(id);
  adjacency_[b].push_back(id);
  addr_to_router_.emplace(a_iface, a);
  addr_to_router_.emplace(b_iface, b);
  return id;
}

std::vector<RouterId> AsTopology::border_routers() const {
  std::vector<RouterId> out;
  for (const auto& r : routers_) {
    if (r.is_border) out.push_back(r.id);
  }
  return out;
}

RouterId AsTopology::router_of_addr(net::Ipv4Addr addr) const {
  const auto it = addr_to_router_.find(addr);
  return it == addr_to_router_.end() ? kInvalidRouter : it->second;
}

CsrAdjacency AsTopology::make_csr(
    const std::vector<std::uint32_t>& cost_override,
    const std::vector<bool>& down) const {
  CsrAdjacency csr;
  csr.offsets_.resize(routers_.size() + 1);
  csr.arcs_.reserve(links_.size() * 2);
  for (RouterId r = 0; r < routers_.size(); ++r) {
    csr.offsets_[r] = static_cast<std::uint32_t>(csr.arcs_.size());
    // adjacency_ lists are filled in add_link order, i.e. ascending LinkId.
    for (const LinkId lid : adjacency_[r]) {
      if (!down.empty() && down[lid]) continue;
      const Link& l = links_[lid];
      const std::uint32_t over = cost_override.empty() ? 0 : cost_override[lid];
      const std::uint32_t cost = over != 0 ? over : l.igp_cost;
      csr.arcs_.push_back(CsrArc{lid, l.other(r), cost});
      csr.max_cost_ = std::max(csr.max_cost_, cost);
    }
  }
  csr.offsets_.back() = static_cast<std::uint32_t>(csr.arcs_.size());
  return csr;
}

std::size_t AsTopology::parallel_degree(RouterId a, RouterId b) const {
  std::size_t n = 0;
  for (const LinkId lid : adjacency_.at(a)) {
    const Link& l = links_[lid];
    if (l.other(a) == b) ++n;
  }
  return n;
}

bool AsTopology::connected() const {
  if (routers_.empty()) return true;
  std::vector<bool> seen(routers_.size(), false);
  std::vector<RouterId> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const RouterId r = stack.back();
    stack.pop_back();
    for (const LinkId lid : adjacency_[r]) {
      const RouterId peer = links_[lid].other(r);
      if (!seen[peer]) {
        seen[peer] = true;
        ++visited;
        stack.push_back(peer);
      }
    }
  }
  return visited == routers_.size();
}

}  // namespace mum::topo
