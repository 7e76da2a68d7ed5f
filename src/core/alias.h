// Alias resolution and router-level IOTPs — the paper's Sec.-5 third
// extension: "define an IOTP at the router level rather than at the IP
// level ... it will reduce the number of IOTPs and so provide more
// consistent results that may be closer to the actual MPLS usage."
//
// The inference implemented here is *label-based* and purely passive,
// generalizing the paper's own Parallel-Links argument: LDP labels have
// router scope, and a router advertises ONE label per FEC to all its
// neighbours. So when two different interface addresses appear inside the
// same AS, toward the same tunnel exit, carrying the SAME label, they are
// overwhelmingly likely to be two interfaces of one router (label collision
// across routers for the same FEC is possible but rare). Alias sets are the
// connected components of that relation.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/model.h"
#include "dataset/trace_batch.h"

namespace mum::lpr {

// Union-find over IPv4 addresses (exposed for tests; used by the
// inference below).
class AddressUnionFind {
 public:
  // Union the sets of a and b.
  void merge(net::Ipv4Addr a, net::Ipv4Addr b);
  // Canonical representative (lowest address of the set). An address never
  // merged is its own representative.
  net::Ipv4Addr find(net::Ipv4Addr a) const;
  // All sets with >= 2 members.
  std::vector<std::set<net::Ipv4Addr>> sets() const;

 private:
  net::Ipv4Addr root(net::Ipv4Addr a) const;
  // Parent pointers; path compression is applied lazily in merge().
  mutable std::map<net::Ipv4Addr, net::Ipv4Addr> parent_;
};

// Passive alias inference over extracted LSP observations, with two rules:
//
//  1. label rule — addresses observed inside the same (asn, tunnel exit)
//     scope with the same top label are one router (LDP router scope).
//     Only PHP-interpreted observations are used (non-PHP runs can mix
//     FECs — see extract.h).
//  2. subnet-alignment rule (APAR-style, optional) — interface addresses
//     are allocated as /31 point-to-point pairs, so for two consecutive
//     responding hops P -> C inside ONE AS, C's /31 mate (C xor 1) sits on
//     P's router: merge(P, C^1).
class LabelAliasResolver {
 public:
  explicit LabelAliasResolver(
      const std::vector<LspObservation>& observations);
  // Same, plus the subnet-alignment rule over the raw (annotated) traces.
  LabelAliasResolver(const std::vector<LspObservation>& observations,
                     const dataset::SnapshotBatch& traces);

  // The canonical router representative of an interface address (the
  // address itself when no alias was inferred).
  net::Ipv4Addr canonical(net::Ipv4Addr addr) const { return uf_.find(addr); }

  // Inferred alias sets with >= 2 members (for accuracy evaluation).
  std::vector<std::set<net::Ipv4Addr>> alias_sets() const {
    return uf_.sets();
  }

 private:
  AddressUnionFind uf_;
};

// Rewrite observations to router level, in place: the IOTP ENDPOINTS are
// replaced by their canonical representatives (interior LSR addresses stay
// raw so the physical branch structure — including Parallel Links —
// survives). Put back into FilteredCycle::observations, the result feeds
// the ordinary classify_cycle tail (report.h), which then operates on
// <Ingress router; Egress router> IOTPs.
std::vector<LspObservation> to_router_level(
    std::vector<LspObservation> observations,
    const LabelAliasResolver& resolver);

// Accuracy of an inference against ground truth (the simulator knows the
// real address->router mapping): precision = share of inferred alias PAIRS
// that are true, recall intentionally not reported (passive inference only
// sees what traceroute reveals).
struct AliasAccuracy {
  std::uint64_t inferred_pairs = 0;
  std::uint64_t correct_pairs = 0;
  double precision() const noexcept {
    return inferred_pairs
               ? static_cast<double>(correct_pairs) /
                     static_cast<double>(inferred_pairs)
               : 1.0;
  }
};

// `truth` maps each address to its true router representative; addresses
// absent from the map are ignored.
AliasAccuracy evaluate_aliases(
    const std::vector<std::set<net::Ipv4Addr>>& inferred,
    const std::map<net::Ipv4Addr, net::Ipv4Addr>& truth);

}  // namespace mum::lpr
