// LDP (Label Distribution Protocol, RFC 5036) control-plane simulation.
//
// LDP semantics that matter for LPR and that we model faithfully:
//  * Downstream allocation: for a given FEC, the label shown at a router R is
//    the label *R itself* chose and advertised upstream.
//  * Router scope: R advertises the SAME label for a FEC to all neighbours.
//    Hence two LDP LSPs converging on the same router interface always carry
//    the same label there — the signature of the paper's Mono-FEC class.
//  * FECs for transit traffic are loopbacks of (border) egress routers; the
//    LSP-tree toward a FEC follows the IGP shortest paths, including every
//    ECMP branch.
//  * PHP: the egress advertises implicit-null, making the penultimate router
//    pop the stack, so traceroute shows no label at the egress LER.
#pragma once

#include <cstdint>
#include <vector>

#include "igp/spf.h"
#include "mpls/label_pool.h"
#include "topo/topology.h"

namespace mum::mpls {

struct LdpConfig {
  bool php = true;  // penultimate hop popping (implicit-null advertisement)
  // When true, allocate FEC labels for every router loopback (Cisco default:
  // all IGP prefixes); when false only border loopbacks get labels (Juniper
  // default: loopbacks — transit FECs are border loopbacks anyway).
  bool fec_all_loopbacks = false;
};

// The full LDP state of one AS: labels[r][fec] = label router r advertised
// for the FEC anchored at router `fec`'s loopback.
class LdpPlane {
 public:
  static constexpr std::uint32_t kNoLabel = ~std::uint32_t{0};

  // Builds label bindings, drawing from the per-router pools (indexed by
  // RouterId; the vector must have one pool per router).
  static LdpPlane build(const topo::AsTopology& topo, const igp::IgpState& igp,
                        const LdpConfig& config,
                        std::vector<LabelPool>& pools);

  const LdpConfig& config() const noexcept { return config_; }

  // Label router `r` advertised for FEC `fec` (an egress RouterId).
  // Returns kLabelImplicitNull at the egress itself when PHP is on,
  // kNoLabel when `r` has no binding for that FEC.
  std::uint32_t label_of(topo::RouterId r, topo::RouterId fec) const;

 private:
  LdpConfig config_;
  // labels_[r * n + fec]
  std::vector<std::uint32_t> labels_;
  std::size_t n_ = 0;
};

}  // namespace mum::mpls
