#include "mpls/ldp.h"

namespace mum::mpls {

LdpPlane LdpPlane::build(const topo::AsTopology& topo,
                         const igp::IgpState& igp, const LdpConfig& config,
                         std::vector<LabelPool>& pools) {
  LdpPlane plane;
  plane.config_ = config;
  plane.n_ = topo.router_count();
  plane.labels_.assign(plane.n_ * plane.n_, kNoLabel);

  std::vector<std::uint8_t> candidate(plane.n_, 0);
  for (topo::RouterId fec = 0; fec < plane.n_; ++fec) {
    candidate[fec] = config.fec_all_loopbacks || topo.router(fec).is_border;
  }

  // Router-major order: contiguous walks over each router's label row. Each
  // per-router pool allocates in ascending-FEC order, so the label
  // assignment is identical to the FEC-major loop.
  for (topo::RouterId r = 0; r < plane.n_; ++r) {
    for (topo::RouterId fec = 0; fec < plane.n_; ++fec) {
      if (!candidate[fec]) continue;
      if (r == fec) {
        plane.labels_[r * plane.n_ + fec] =
            config.php ? net::kLabelImplicitNull
                       : pools[r].allocate();
        continue;
      }
      if (!igp.column(fec).reachable(r)) continue;
      // Downstream unsolicited, liberal retention: every reachable router
      // binds one label per FEC and advertises it to all neighbours.
      plane.labels_[r * plane.n_ + fec] = pools[r].allocate();
    }
  }
  return plane;
}

std::uint32_t LdpPlane::label_of(topo::RouterId r, topo::RouterId fec) const {
  return labels_.at(r * n_ + fec);
}

}  // namespace mum::mpls
