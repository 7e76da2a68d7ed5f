// Synthetic internet: AS graph + router-level topologies for modelled
// transit ASes + per-month MPLS control planes + monitor/destination fleet.
//
// The Internet object is built once per study (topologies and the AS graph
// are time-invariant, as the paper observes for AS3356: "nothing has changed
// [infrastructurally] between Cycle 28 and Cycle 29 ... only the usage ...
// has been modified"). Per month, `instantiate()` materializes label pools,
// LDP/RSVP planes and data-plane configs from each AS's profile snapshot.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "dataset/ip2as.h"
#include "gen/as_graph.h"
#include "gen/probe_plan.h"
#include "gen/profiles.h"
#include "igp/spf.h"
#include "mpls/ldp.h"
#include "mpls/rsvp.h"
#include "probe/forwarder.h"
#include "probe/traceroute.h"
#include "topo/topology.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mum::gen {

struct GenConfig {
  std::uint64_t seed = 20151028;  // IMC'15 opening day
  int background_tier1 = 3;
  int background_transit = 30;
  int stub_ases = 40;
  int monitors = 14;
  // /24 destinations probed by each monitor per snapshot.
  int dests_per_monitor = 880;
  // Each destination is probed by this many monitors (Ark teams overlap in
  // coverage across cycles; >1 exposes each transit AS from several ingress
  // directions, which is where IOTP diversity comes from).
  int dest_overlap = 4;
  // Addresses probed per destination /24. Additional addresses share the
  // FEC (forwarding treats the /24 as one prefix) but carry different Paris
  // flow identifiers — exactly what reveals ECMP branches inside one IOTP.
  int probes_per_dest = 2;
  // Per-snapshot probability that a router's ECMP salt flaps (routing noise
  // removed by the Persistence filter).
  double ecmp_flap_prob = 0.08;
  // Probability that an AS undergoes maintenance in a given month; inside a
  // maintenance month, each link fails with `link_fail_prob`, going down at
  // a random snapshot and staying down. The IGP reconverges around the
  // failure (per-snapshot SPF) and affected RSVP-TE LSPs are re-signalled —
  // this is the "routing changes during the measurement" noise the
  // Persistence filter exists to remove (paper Sec. 3.1).
  double as_maintenance_prob = 1.0;
  double link_fail_prob = 0.05;
  // Probability that a destination never answers (probe still traces).
  double dest_silent_prob = 0.08;
  // Probability a router answers probes (anonymous-router share follows).
  double router_response_prob = 0.96;
  // Probability that a modelled AS has one mis-originated /23 in the IP2AS
  // table (drives the small IntraAS filter hit, paper: ~0.9% of LSPs).
  double ip2as_noise = 0.25;

  // --- cycle-to-cycle churn ------------------------------------------------
  // Long-lived per-cycle topology deltas (distinct from the intra-month
  // maintenance failures above): every knob draws from pure functions of
  // (seed, asn, cycle), so a delta-evolved world and a from-scratch rebuild
  // of the same cycle are byte-identical (the DeltaEvolver oracle contract).
  struct Churn {
    double link_down_prob = 0.0;      // per (link, cycle): link out all month
    double metric_change_prob = 0.0;  // per (link, cycle): IGP cost override
    double router_down_prob = 0.0;    // per (router, cycle): all links down
    // Per (AS, cycle) probability of an LSP re-signalling epoch: every TE
    // LSP of the AS re-signals with fresh labels (Fig. 17 label motion).
    double te_resignal_prob = 0.0;

    bool any() const noexcept {
      return link_down_prob > 0.0 || metric_change_prob > 0.0 ||
             router_down_prob > 0.0 || te_resignal_prob > 0.0;
    }
  } churn;

  // --- scale knobs (`--scale routers=N,lsps=M`) ----------------------------
  // Targets for the synthetic world size. `scale_routers` grows the
  // background transit AS count with ~256-router shapes (per-AS state is
  // O(n^2), so scale the AS count, not the AS size); `scale_lsps` sets TE
  // density so the standing world carries at least that many TE LSPs.
  std::uint64_t scale_routers = 0;  // 0 = off
  std::uint64_t scale_lsps = 0;     // 0 = off
};

struct Destination {
  net::Ipv4Addr addr;
  std::uint32_t asn = 0;
};

// One modelled (router-level) AS.
struct ModeledAs {
  AsShape shape;
  topo::AsTopology topo;
  igp::IgpState igp;
  // Peering points with each neighbour AS: real networks interconnect at
  // several locations, so a neighbour maps to up to kPeeringPoints borders,
  // each with its own entry interface. Which one a given packet uses is a
  // stable function of the destination prefix (BGP next-hop selection).
  static constexpr int kPeeringPoints = 3;
  std::map<std::uint32_t, std::vector<topo::RouterId>> borders_toward;
  std::map<std::uint32_t, std::vector<net::Ipv4Addr>> entry_ifaces_from;
  // Dense position in Internet::modeled_asns() (ASN order): how probe plans
  // name this AS (ProbePlan::Segment::as_index).
  std::uint32_t index = 0;

  // Border router / entry iface serving `neighbor` for a destination whose
  // /24 hashes to `dst_hash`.
  topo::RouterId border_for(std::uint32_t neighbor,
                            std::uint64_t dst_hash) const;
  net::Ipv4Addr entry_iface_for(std::uint32_t neighbor,
                                std::uint64_t dst_hash) const;

  ModeledAs(AsShape s, topo::AsTopology t, igp::IgpState i)
      : shape(std::move(s)), topo(std::move(t)), igp(std::move(i)) {}
};

// Per-month mutable control-plane state of one AS.
struct AsPlanes {
  std::vector<mpls::LabelPool> pools;
  std::optional<mpls::LdpPlane> ldp;
  std::unique_ptr<mpls::RsvpTePlane> rsvp;
  // IGP state after this snapshot's link failures: reconverged from the
  // cycle state below, from `overlay` to `overlay` plus the failed links,
  // holding only the demanded egress columns (unset => no failures,
  // plane.igp points at the cycle state, or the ModeledAs base state when
  // this cycle's overlay is trivial).
  std::optional<igp::IgpState> igp_now;
  probe::AsDataPlane plane;  // pointers reference ModeledAs + this struct

  // --- cycle-evolution state (DeltaEvolver / MonthContext reuse) -----------
  ProfileSnapshot profile;    // profile these planes were built from
  igp::LinkOverlay overlay;   // this cycle's persistent link deltas
  // IGP converged under `overlay` (unset when the overlay is trivial; the
  // base ModeledAs::igp is then the cycle state). TE LSPs signal over this.
  std::optional<igp::IgpState> igp_cycle;
  std::uint32_t label_epoch = 0;  // TE re-signalling epochs up to this cycle
  // Label-counter snapshots: after the LDP build (the base TE-only rebuilds
  // restart from) and after the full pristine build (what restore_pristine
  // rewinds to, undoing intra-month re-signalling draws).
  std::vector<mpls::LabelPool::State> pools_after_ldp;
  std::vector<mpls::LabelPool::State> pools_pristine;

  // The IGP state this cycle's routes are computed against.
  const igp::IgpState& cycle_igp(const ModeledAs& as) const noexcept {
    return igp_cycle ? *igp_cycle : as.igp;
  }
};

class Internet;
class DeltaEvolver;

// The IGP egress columns a snapshot's readers need: per modelled AS (by
// ModeledAs::index), a sorted, unique list of egress RouterIds. Empty means
// every router of every AS.
using EgressDemand = std::vector<std::vector<topo::RouterId>>;

// True when a profile transition requires rebuilding the AS's LDP plane and
// label pools from scratch (fields that change LDP label content).
bool ldp_structural_changed(const ProfileSnapshot& a, const ProfileSnapshot& b);
// True when a profile transition requires re-signalling the AS's RSVP-TE
// plane (fields that change the TE LSP set or its label draws).
bool te_structural_changed(const ProfileSnapshot& a, const ProfileSnapshot& b);

// The control planes of every modelled AS for one month, plus snapshot-level
// observation state (ECMP flaps, coverage ramp days).
class MonthContext {
 public:
  // Re-signals TE LSPs of dynamic-label ASes (between snapshots).
  void advance_dynamics();
  // Sets per-router ECMP salts for snapshot `sub_index` (0 = cycle run) and
  // reconverges each AS around the snapshot's link failures: the snapshot's
  // link state is the cycle overlay with the failed links down, and the IGP
  // reconverges to it from the cycle state. The failure state holds only
  // the `demand` columns (empty demand = every router of every AS), plus
  // the egress of every TE LSP it re-signals; walking toward any other
  // egress throws until the next apply_flaps. One fan-out over the
  // context's pool, one task per AS: a task writes only its own AS's
  // salts, failure IGP state, RSVP hops and label pools, and runs that
  // AS's reconvergence serially. The result is the same at any thread
  // count.
  void apply_flaps(int sub_index, double flap_prob,
                   const EgressDemand& demand = {});

  const probe::AsDataPlane* plane_of(std::uint32_t asn) const;
  // Every modelled AS's data plane, by ModeledAs::index (null where this
  // month has none): the table probe plans resolve against. Refills `out`.
  void plane_table(std::vector<const probe::AsDataPlane*>& out) const;

  int cycle() const noexcept { return cycle_; }

 private:
  friend class Internet;
  friend class DeltaEvolver;
  // Rolls every AS back to its pristine start-of-month control-plane state:
  // undoes flap re-signalling, dynamics re-optimization and failure state
  // (each RSVP-TE plane copies back its pristine LSP table and truncates its
  // hop vector), and rewinds label-pool counters. After
  // this, the context is byte-equivalent to a freshly instantiated month
  // just before its initial apply_flaps(0). DeltaEvolver::step_to starts
  // from it.
  void restore_pristine();

  int cycle_ = 0;
  std::uint64_t month_seed_ = 0;
  std::map<std::uint32_t, std::unique_ptr<AsPlanes>> planes_;
  const Internet* internet_ = nullptr;
  // Pool for the per-AS apply_flaps fan-out (nullable).
  util::ThreadPool* pool_ = nullptr;
};

class Internet {
 public:
  // When `pool` is given, the per-AS IGP all-pairs SPF runs its egress
  // columns in parallel during construction; the built state is
  // byte-identical either way (each column is solved on its own).
  explicit Internet(const GenConfig& config,
                    util::ThreadPool* pool = nullptr);

  const GenConfig& config() const noexcept { return config_; }
  const AsGraph& graph() const noexcept { return graph_; }
  const std::vector<probe::Monitor>& monitors() const noexcept {
    return monitors_;
  }
  const std::vector<Destination>& destinations() const noexcept {
    return destinations_;
  }
  const ModeledAs* modeled(std::uint32_t asn) const;
  std::vector<std::uint32_t> modeled_asns() const;

  // Routeviews-equivalent table (with the configured mis-origination noise).
  dataset::Ip2As build_ip2as() const;

  // Materialize control planes for (cycle, day-of-month). `pool`, when
  // given, fans out the per-AS builds here and the per-AS flaps of every
  // later apply_flaps (output identical at any thread count).
  MonthContext instantiate(int cycle, int day_of_month = 1,
                           util::ThreadPool* pool = nullptr) const;

  // Path from a monitor to a destination through `ctx`'s planes; nullopt
  // when AS-level routing fails. The plan's routing plus a plane lookup.
  std::optional<probe::PathSpec> path_spec(const probe::Monitor& monitor,
                                           const Destination& dest,
                                           const MonthContext& ctx) const;

  // Every probe monitor `monitor_index` sends per snapshot, routed: the
  // Ark-style split of the destination list (destination d goes to the
  // `dest_overlap` monitors following d % N, `dests_per_monitor` per
  // monitor, `probes_per_dest` Paris flows into each /24), in send order.
  ProbePlan probe_plan(std::size_t monitor_index) const;

  // AS hosting monitor `id`.
  std::uint32_t monitor_asn(std::uint32_t monitor_id) const {
    return monitor_asn_.at(monitor_id);
  }

  // Persistent link/metric/router deltas of `asn` at `cycle`: a pure
  // function of (seed, asn, cycle), identical whether the cycle is reached
  // by delta evolution or from-scratch instantiation. Canonical form: the
  // trivial overlay is {} (empty vectors).
  igp::LinkOverlay overlay_at(const ModeledAs& as, std::uint32_t asn,
                              int cycle) const;
  // Number of TE re-signalling epochs of `asn` up to and including `cycle`
  // (monotone in cycle; pure function of seed/asn/cycle).
  std::uint32_t label_epoch_at(std::uint32_t asn, int cycle) const;

 private:
  friend class MonthContext;
  friend class DeltaEvolver;

  void build_graph(util::Rng& rng);
  void build_topologies(util::Rng& rng, util::ThreadPool* pool);
  void place_monitors_and_destinations(util::Rng& rng);

  // The one routing body behind path_spec and probe_plan: appends the
  // probe's route to `plan`, or returns false (plan untouched) when
  // AS-level routing fails.
  bool plan_route(const probe::Monitor& monitor, const Destination& dest,
                  ProbePlan& plan) const;

  // Full per-AS control-plane build for `profile`: pools (with the epoch
  // label burn), LDP, RSVP-TE signalled over the cycle IGP, scalar fields,
  // and the pristine snapshots. Expects planes.overlay / planes.igp_cycle /
  // planes.label_epoch already set for the target cycle.
  void build_as_planes(std::uint32_t asn, const ModeledAs& as,
                       const ProfileSnapshot& profile,
                       AsPlanes& planes) const;
  // TE-only rebuild: rewinds pools to the post-LDP snapshot, replays the
  // epoch burn, and re-signals the RSVP-TE plane; the LDP plane and its
  // label content are untouched.
  void build_te_planes(std::uint32_t asn, const ModeledAs& as,
                       const ProfileSnapshot& profile, AsPlanes& planes) const;
  // Updates the cheap per-snapshot observation scalars from `profile`.
  static void apply_profile_scalars(const ProfileSnapshot& profile,
                                    AsPlanes& planes);

  GenConfig config_;
  AsGraph graph_;
  std::map<std::uint32_t, std::unique_ptr<ModeledAs>> modeled_;
  std::vector<probe::Monitor> monitors_;
  std::vector<std::uint32_t> monitor_asn_;  // by monitor id
  std::vector<Destination> destinations_;
};

}  // namespace mum::gen
