#include "mpls/rsvp.h"

#include <algorithm>
#include <set>
#include <span>

#include "net/lse.h"

namespace mum::mpls {

std::vector<topo::LinkId> RsvpTePlane::compute_route(
    topo::RouterId ingress, topo::RouterId egress,
    std::uint32_t variant) const {
  // Walk the ECMP DAG from ingress to egress, picking among equal-cost next
  // hops with a deterministic index derived from `variant`. variant==0
  // always takes the first next hop (the canonical IGP route); higher
  // variants spread over branches, yielding (possibly) diverse routes.
  const igp::EgressColumn& toward = igp_->column(egress);
  std::vector<topo::LinkId> route;
  topo::RouterId at = ingress;
  std::uint32_t salt = variant;
  while (at != egress) {
    const std::span<const igp::NextHop> nhs = toward.nexthops(at);
    if (nhs.empty()) return {};  // unreachable
    const std::size_t pick =
        nhs.size() == 1 ? 0 : (salt % nhs.size());
    salt = salt * 2654435761u + 17;  // decorrelate successive picks
    const auto& nh = nhs[pick];
    route.push_back(nh.link);
    at = nh.neighbor;
  }
  return route;
}

HopRange RsvpTePlane::sign_route(topo::RouterId ingress, topo::RouterId egress,
                                 const std::vector<topo::LinkId>& route,
                                 std::vector<LabelPool>& pools) {
  const HopRange range{static_cast<std::uint32_t>(hops_.size()),
                       static_cast<std::uint32_t>(route.size())};
  topo::RouterId at = ingress;
  for (const topo::LinkId lid : route) {
    const topo::RouterId next = topo_->link(lid).other(at);
    const bool is_egress = (next == egress);
    hops_.push_back(TeHop{next, lid,
                          (is_egress && config_.php) ? net::kLabelImplicitNull
                                                     : pools[next].allocate()});
    at = next;
  }
  return range;
}

void RsvpTePlane::mark_pristine() {
  pristine_marked_ = true;
  pristine_lsps_ = lsps_;
  pristine_hop_count_ = hops_.size();
}

void RsvpTePlane::restore_pristine() {
  if (!pristine_marked_) return;
  lsps_ = pristine_lsps_;
  hops_.resize(pristine_hop_count_);
}

std::vector<LspId> RsvpTePlane::signal(topo::RouterId ingress,
                                       topo::RouterId egress, int count,
                                       std::vector<LabelPool>& pools,
                                       util::Rng& rng) {
  std::vector<LspId> ids;
  std::uint32_t variant = 0;
  for (int i = 0; i < count; ++i) {
    // First LSP rides the canonical IGP route. Subsequent LSPs usually share
    // it (the paper's "TE paths often take the same IP path") and sometimes
    // take a diverse route.
    if (i > 0 && rng.chance(config_.diverse_route_prob)) ++variant;
    const auto route = compute_route(ingress, egress, variant);
    if (route.empty()) break;
    TeLsp lsp;
    lsp.id = static_cast<LspId>(lsps_.size());
    lsp.ingress = ingress;
    lsp.egress = egress;
    lsp.primary = sign_route(ingress, egress, route, pools);
    if (config_.frr) {
      // Pre-signal a maximally link-disjoint backup: search route variants
      // for the one sharing the fewest links with the primary.
      const std::set<topo::LinkId> primary(route.begin(), route.end());
      std::vector<topo::LinkId> best;
      std::size_t best_shared = ~std::size_t{0};
      for (std::uint32_t v = 1; v <= 8; ++v) {
        const auto candidate = compute_route(ingress, egress, v);
        if (candidate.empty()) continue;
        std::size_t shared = 0;
        for (const topo::LinkId l : candidate) {
          shared += primary.contains(l) ? 1 : 0;
        }
        if (shared < best_shared) {
          best_shared = shared;
          best = candidate;
        }
        if (shared == 0) break;
      }
      if (!best.empty() && best_shared < route.size()) {
        lsp.backup = sign_route(ingress, egress, best, pools);
      }
    }
    ids.push_back(lsp.id);
    lsps_.push_back(std::move(lsp));
  }
  return ids;
}

void RsvpTePlane::resignal_over(LspId id,
                                const std::vector<topo::LinkId>& route,
                                std::vector<LabelPool>& pools) {
  if (route.empty()) return;
  TeLsp& lsp = lsps_.at(id);
  lsp.primary = sign_route(lsp.ingress, lsp.egress, route, pools);
  lsp.on_backup = false;
  ++lsp.resignal_count;
}

bool RsvpTePlane::crosses_down_link(
    LspId id, const std::vector<bool>& link_down) const {
  for (const TeHop& hop : active_hops(id)) {
    if (link_down[hop.in_link]) return true;
  }
  return false;
}

bool RsvpTePlane::backup_intact(LspId id,
                                const std::vector<bool>& link_down) const {
  const std::span<const TeHop> backup = backup_hops(id);
  if (backup.empty()) return false;
  for (const TeHop& hop : backup) {
    if (link_down[hop.in_link]) return false;  // backup broken too
  }
  return true;
}

bool RsvpTePlane::activate_backup(LspId id,
                                  const std::vector<bool>& link_down) {
  if (!backup_intact(id, link_down)) return false;
  lsps_.at(id).on_backup = true;
  return true;
}

void RsvpTePlane::revert_to_primary(LspId id) {
  lsps_.at(id).on_backup = false;
}

void RsvpTePlane::reoptimize(LspId id, std::vector<LabelPool>& pools) {
  // Copy the route out first: signing appends to hops_, which may move it.
  const std::span<const TeHop> current = hops(id);
  std::vector<topo::LinkId> route;
  route.reserve(current.size());
  for (const TeHop& hop : current) route.push_back(hop.in_link);
  TeLsp& lsp = lsps_.at(id);
  lsp.primary = sign_route(lsp.ingress, lsp.egress, route, pools);
  ++lsp.resignal_count;
}

}  // namespace mum::mpls
