// RSVP-TE (RFC 3209) control-plane simulation.
//
// RSVP-TE semantics that matter for LPR:
//  * Labels are allocated per LSP: a router traversed by two TE LSPs of the
//    same <Ingress, Egress> pair hands out two *different* labels — the
//    signature of the paper's Multi-FEC class.
//  * An LSP follows one explicit route (no ECMP spraying inside the LSP).
//    Several LSPs of the same LER pair may follow the same IP route (the
//    paper's striking observation) or physically diverge.
//  * Ingress routers may periodically "re-optimize" an LSP: re-signal it,
//    drawing fresh labels at every hop (Fig. 17's sawtooth; mostly a Juniper
//    timer behaviour per the paper).
//
// Storage: a plane keeps every LSP's hops in one vector; an LSP holds index
// ranges into it. A month rolls back by copying the pristine LSP table in
// and truncating the vector (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "igp/spf.h"
#include "mpls/label_pool.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace mum::mpls {

using LspId = std::uint32_t;

// One signalled hop of a TE LSP: the packet arrives at `router` via `in_link`
// carrying `in_label` (the label `router` allocated for this LSP).
struct TeHop {
  topo::RouterId router = topo::kInvalidRouter;
  topo::LinkId in_link = topo::kInvalidLink;
  std::uint32_t in_label = 0;

  friend bool operator==(const TeHop&, const TeHop&) = default;
};

// A run of hops in the owning RsvpTePlane's hop vector.
struct HopRange {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;

  friend bool operator==(const HopRange&, const HopRange&) = default;
};

struct TeLsp {
  LspId id = 0;
  topo::RouterId ingress = topo::kInvalidRouter;
  topo::RouterId egress = topo::kInvalidRouter;
  // Hops strictly after the ingress, in order; the last entry is the egress
  // (its in_label is implicit-null when PHP applies). Read them through
  // RsvpTePlane::hops(id).
  HopRange primary;
  // Pre-signalled fast-reroute backup (RFC 4090): a maximally link-disjoint
  // path with its own labels, ready before any failure. Empty when FRR is
  // off or no disjoint route exists. Read through RsvpTePlane::backup_hops.
  HopRange backup;
  // How many times this LSP has been re-signalled.
  std::uint32_t resignal_count = 0;
  // True while traffic rides the backup path.
  bool on_backup = false;

  friend bool operator==(const TeLsp&, const TeLsp&) = default;
};

struct RsvpConfig {
  bool php = true;
  // Probability that an extra LSP of a LER pair is signalled over a
  // physically different route instead of re-using the IGP route. The paper
  // finds TE paths usually share the same IP route, so keep this small.
  double diverse_route_prob = 0.25;
  // Pre-compute fast-reroute backups at signalling time (RFC 4090). Under
  // FRR a failure switches to the backup's pre-allocated labels instead of
  // re-signalling with fresh ones — the LSP content the Persistence filter
  // sees changes path but not unpredictably.
  bool frr = false;
};

// Computes and stores TE LSPs for one AS.
class RsvpTePlane {
 public:
  RsvpTePlane(const topo::AsTopology* topo, const igp::IgpState* igp,
              RsvpConfig config)
      : topo_(topo), igp_(igp), config_(config) {}

  // Signal `count` LSPs between the LER pair. The first LSP follows the
  // IGP shortest route; following ones re-use it or take the next-best
  // diverse route according to `diverse_route_prob`.
  std::vector<LspId> signal(topo::RouterId ingress, topo::RouterId egress,
                            int count, std::vector<LabelPool>& pools,
                            util::Rng& rng);

  // Re-signal an existing LSP over its current route with fresh labels
  // (RSVP-TE make-before-break re-optimization).
  void reoptimize(LspId id, std::vector<LabelPool>& pools);

  // Re-signal an existing LSP over a NEW route (reconvergence around a
  // failure). No-op when `route` is empty.
  void resignal_over(LspId id, const std::vector<topo::LinkId>& route,
                     std::vector<LabelPool>& pools);

  // True when the LSP's ACTIVE route traverses any link marked down.
  bool crosses_down_link(LspId id, const std::vector<bool>& link_down) const;

  // True when the LSP has a pre-signalled backup that crosses no down link.
  bool backup_intact(LspId id, const std::vector<bool>& link_down) const;
  // Fast reroute: switch the LSP onto its pre-signalled backup (no new
  // labels). Returns false when no backup exists or it is also broken.
  bool activate_backup(LspId id, const std::vector<bool>& link_down);
  // Revert to the primary path (failure cleared / month ended).
  void revert_to_primary(LspId id);

  const TeLsp& lsp(LspId id) const { return lsps_.at(id); }
  std::size_t lsp_count() const noexcept { return lsps_.size(); }
  const std::vector<TeLsp>& lsps() const noexcept { return lsps_; }

  // An LSP's primary, backup and active (the backup while on_backup and
  // non-empty, else the primary) hops. A span stays valid until the plane's
  // next mutation: signalling appends to the hop vector, which may move it.
  std::span<const TeHop> hops(LspId id) const {
    return view(lsps_.at(id).primary);
  }
  std::span<const TeHop> backup_hops(LspId id) const {
    return view(lsps_.at(id).backup);
  }
  std::span<const TeHop> active_hops(LspId id) const {
    const TeLsp& lsp = lsps_.at(id);
    return view(lsp.on_backup && lsp.backup.length > 0 ? lsp.backup
                                                       : lsp.primary);
  }

  // A loop-free route from ingress to egress as a link sequence. `variant` 0
  // is the IGP shortest route (ECMP ties broken deterministically); higher
  // variants prefer distinct intermediate routers when possible.
  std::vector<topo::LinkId> compute_route(topo::RouterId ingress,
                                          topo::RouterId egress,
                                          std::uint32_t variant) const;

  // --- cycle-evolution support (gen::DeltaEvolver / MonthContext) ---
  //
  // mark_pristine() copies the fully signalled start-of-month LSP table and
  // notes the hop count as the rollback baseline. Later mutations
  // (reoptimize, resignal_over, backup activation) rewrite LSP entries and
  // append fresh hops; restore_pristine() assigns the copy back and
  // truncates the hop vector to the baseline. Both vectors keep their
  // capacity, so a steady month-over-month workload stops allocating once
  // its largest month has been seen.
  void mark_pristine();
  void restore_pristine();

 private:
  std::span<const TeHop> view(HopRange r) const noexcept {
    return {hops_.data() + r.offset, r.length};
  }
  // Append the hops of `route` with fresh labels; returns their range.
  HopRange sign_route(topo::RouterId ingress, topo::RouterId egress,
                      const std::vector<topo::LinkId>& route,
                      std::vector<LabelPool>& pools);

  const topo::AsTopology* topo_;
  const igp::IgpState* igp_;
  RsvpConfig config_;
  std::vector<TeLsp> lsps_;
  std::vector<TeHop> hops_;  // every LSP's primary and backup hops

  bool pristine_marked_ = false;
  std::vector<TeLsp> pristine_lsps_;
  std::size_t pristine_hop_count_ = 0;
};

}  // namespace mum::mpls
