#include "core/alias.h"

#include <algorithm>

#include "util/rng.h"

namespace mum::lpr {

// ----------------------------------------------------------------------
// AddressUnionFind
// ----------------------------------------------------------------------

net::Ipv4Addr AddressUnionFind::root(net::Ipv4Addr a) const {
  auto it = parent_.find(a);
  while (it != parent_.end() && it->second != a) {
    a = it->second;
    it = parent_.find(a);
  }
  return a;
}

void AddressUnionFind::merge(net::Ipv4Addr a, net::Ipv4Addr b) {
  const net::Ipv4Addr ra = root(a);
  const net::Ipv4Addr rb = root(b);
  if (ra == rb) return;
  // Keep the lowest address as the canonical representative so find() is
  // stable regardless of merge order.
  const net::Ipv4Addr lo = std::min(ra, rb);
  const net::Ipv4Addr hi = std::max(ra, rb);
  parent_[hi] = lo;
  parent_.try_emplace(lo, lo);
  // Path-compress the two query points.
  parent_[a] = lo;
  parent_[b] = lo;
}

net::Ipv4Addr AddressUnionFind::find(net::Ipv4Addr a) const {
  return root(a);
}

std::vector<std::set<net::Ipv4Addr>> AddressUnionFind::sets() const {
  std::map<net::Ipv4Addr, std::set<net::Ipv4Addr>> by_root;
  for (const auto& [addr, parent] : parent_) {
    by_root[root(addr)].insert(addr);
  }
  std::vector<std::set<net::Ipv4Addr>> out;
  for (auto& [r, members] : by_root) {
    members.insert(r);
    if (members.size() >= 2) out.push_back(std::move(members));
  }
  return out;
}

// ----------------------------------------------------------------------
// LabelAliasResolver
// ----------------------------------------------------------------------

LabelAliasResolver::LabelAliasResolver(
    const std::vector<LspObservation>& observations) {
  // Scope key: (asn, tunnel exit address, top label). Within one scope the
  // label identifies one router (LDP router-scoped labels, one label per
  // FEC); different addresses under the same key are its interfaces.
  std::map<std::tuple<std::uint32_t, net::Ipv4Addr, std::uint32_t>,
           net::Ipv4Addr>
      first_seen;
  for (const LspObservation& obs : observations) {
    if (obs.lsp.egress_labeled) continue;  // possibly FEC-mixed (extract.h)
    for (const LsrHop& hop : obs.lsp.lsrs) {
      if (hop.labels.empty()) continue;
      const auto key = std::make_tuple(obs.lsp.asn, obs.lsp.egress,
                                       hop.labels.front());
      const auto [it, inserted] = first_seen.try_emplace(key, hop.addr);
      if (!inserted && it->second != hop.addr) {
        uf_.merge(it->second, hop.addr);
      }
    }
  }
}

LabelAliasResolver::LabelAliasResolver(
    const std::vector<LspObservation>& observations,
    const dataset::SnapshotBatch& traces)
    : LabelAliasResolver(observations) {
  // Subnet-alignment rule: P -> C adjacency inside one AS implies C's /31
  // mate is an interface of P's router.
  for (const dataset::TraceView trace : traces) {
    for (std::size_t i = 0; i + 1 < trace.hop_count(); ++i) {
      const dataset::HopView prev = trace.hop(i);
      const dataset::HopView cur = trace.hop(i + 1);
      if (prev.anonymous() || cur.anonymous()) continue;
      if (prev.asn() == 0 || prev.asn() != cur.asn()) continue;
      const net::Ipv4Addr mate(cur.addr().value() ^ 1u);
      if (mate == prev.addr()) continue;  // nothing to learn
      uf_.merge(prev.addr(), mate);
    }
  }
}

// ----------------------------------------------------------------------
// router-level rewriting & evaluation
// ----------------------------------------------------------------------

std::vector<LspObservation> to_router_level(
    std::vector<LspObservation> observations,
    const LabelAliasResolver& resolver) {
  for (LspObservation& obs : observations) {
    // Canonicalize ONLY the IOTP endpoints. Interior LSR addresses must
    // stay raw: collapsing bundle interfaces to one router address would
    // dedupe physically distinct branches and erase exactly the Parallel
    // Links diversity the classification is supposed to see. The paper's
    // point is coarser *grouping* (<Ingress router; Egress router>), not a
    // coarser view of the paths themselves.
    obs.lsp.ingress = resolver.canonical(obs.lsp.ingress);
    obs.lsp.egress = resolver.canonical(obs.lsp.egress);
  }
  return observations;
}

AliasAccuracy evaluate_aliases(
    const std::vector<std::set<net::Ipv4Addr>>& inferred,
    const std::map<net::Ipv4Addr, net::Ipv4Addr>& truth) {
  AliasAccuracy acc;
  for (const auto& members : inferred) {
    // Count unordered pairs with known ground truth.
    std::vector<net::Ipv4Addr> known;
    for (const auto addr : members) {
      if (truth.contains(addr)) known.push_back(addr);
    }
    for (std::size_t i = 0; i < known.size(); ++i) {
      for (std::size_t j = i + 1; j < known.size(); ++j) {
        ++acc.inferred_pairs;
        if (truth.at(known[i]) == truth.at(known[j])) ++acc.correct_pairs;
      }
    }
  }
  return acc;
}

}  // namespace mum::lpr
