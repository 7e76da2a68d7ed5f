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
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "igp/spf.h"
#include "mpls/label_pool.h"
#include "topo/topology.h"
#include "util/arena.h"
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

// Deep element-wise comparison for hop sequences. TeLsp stores hop views
// into the owning plane's arenas; two views are "the same path" when their
// contents match, wherever they are stored.
bool operator==(std::span<const TeHop> a, std::span<const TeHop> b) noexcept;

struct TeLsp {
  LspId id = 0;
  topo::RouterId ingress = topo::kInvalidRouter;
  topo::RouterId egress = topo::kInvalidRouter;
  // Hops strictly after the ingress, in order; the last entry is the egress
  // (its in_label is implicit-null when PHP applies). Views into the owning
  // RsvpTePlane's hop arenas; valid for the plane's lifetime (re-signalling
  // repoints the view, it never frees the old storage mid-cycle).
  std::span<const TeHop> hops;
  // Pre-signalled fast-reroute backup (RFC 4090): a maximally link-disjoint
  // path with its own labels, ready before any failure. Empty when FRR is
  // off or no disjoint route exists.
  std::span<const TeHop> backup_hops;
  // How many times this LSP has been re-signalled.
  std::uint32_t resignal_count = 0;
  // True while traffic rides the backup path.
  bool on_backup = false;

  std::span<const TeHop> active_hops() const noexcept {
    return on_backup && !backup_hops.empty() ? backup_hops : hops;
  }
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

  // All LSPs of a LER pair.
  std::vector<LspId> lsps_between(topo::RouterId ingress,
                                  topo::RouterId egress) const;

  // A loop-free route from ingress to egress as a link sequence. `variant` 0
  // is the IGP shortest route (ECMP ties broken deterministically); higher
  // variants prefer distinct intermediate routers when possible.
  std::vector<topo::LinkId> compute_route(topo::RouterId ingress,
                                          topo::RouterId egress,
                                          std::uint32_t variant) const;

  // --- cycle-evolution support (gen::DeltaEvolver / MonthContext) ---
  //
  // mark_pristine() freezes the fully signalled start-of-month control plane
  // as the rollback baseline. Later mutations (reoptimize, resignal_over,
  // backup activation) record a one-shot undo entry per LSP and draw their
  // hop storage from a scratch arena; restore_pristine() rolls every LSP
  // back and resets the scratch arena, so a steady month-over-month workload
  // stops allocating once the scratch high-water mark is reached.
  void mark_pristine();
  void restore_pristine();

  // Arena the post-pristine mutations allocate from (capacity observability
  // for the no-growth gate in tests).
  const util::Arena& scratch_arena() const noexcept { return scratch_arena_; }

 private:
  std::span<const TeHop> sign_route(topo::RouterId ingress,
                                    topo::RouterId egress,
                                    const std::vector<topo::LinkId>& route,
                                    std::vector<LabelPool>& pools);
  // Record the pre-mutation state of `lsp` once per restore epoch.
  void save_undo(const TeLsp& lsp);

  const topo::AsTopology* topo_;
  const igp::IgpState* igp_;
  RsvpConfig config_;
  std::vector<TeLsp> lsps_;

  // Hop storage: signalling before mark_pristine() fills base_arena_ (lives
  // until the plane dies); mutations after it fill scratch_arena_ (reset on
  // every restore_pristine()).
  util::Arena base_arena_{16 * 1024};
  util::Arena scratch_arena_{16 * 1024};
  bool pristine_marked_ = false;

  struct Undo {
    LspId id = 0;
    std::span<const TeHop> hops;
    std::uint32_t resignal_count = 0;
    bool on_backup = false;
  };
  std::vector<Undo> undo_;
  std::vector<std::uint32_t> saved_epoch_;  // per LSP; == epoch_ once saved
  std::uint32_t epoch_ = 1;
  std::size_t pristine_lsp_count_ = 0;
};

}  // namespace mum::mpls
