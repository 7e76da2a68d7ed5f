#include "gen/internet.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/telemetry.h"

namespace mum::gen {

namespace {

// Address-block layout, relative to the block size S (see DESIGN.md):
//   [0, S/4)        router loopbacks
//   [S/4, 3S/4)     intra-AS link /31s
//   [3S/4, 7S/8)    inter-AS entry interfaces
//   [7S/8, S)       probed destination /24s
// Modelled (transit) ASes own /15 blocks, stubs /16 — transit networks
// announce more address space, which feeds the TargetAS filter the way the
// real Ark target list does.
std::uint64_t entry_region(const net::Ipv4Prefix& block) {
  return block.size() * 3 / 4;
}
std::uint64_t dest_region(const net::Ipv4Prefix& block) {
  return block.size() * 7 / 8;
}
int dest_slots(const net::Ipv4Prefix& block) {
  return static_cast<int>(block.size() / 8 / 256);
}

double to01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t dst24_hash(net::Ipv4Addr dst) {
  return util::mix64(dst.value() >> 8);
}

}  // namespace

// ---------------------------------------------------------------------
// ModeledAs
// ---------------------------------------------------------------------

topo::RouterId ModeledAs::border_for(std::uint32_t neighbor,
                                     std::uint64_t dst_hash) const {
  const auto& borders = borders_toward.at(neighbor);
  return borders[static_cast<std::size_t>(dst_hash % borders.size())];
}

net::Ipv4Addr ModeledAs::entry_iface_for(std::uint32_t neighbor,
                                         std::uint64_t dst_hash) const {
  const auto& ifaces = entry_ifaces_from.at(neighbor);
  return ifaces[static_cast<std::size_t>(dst_hash % ifaces.size())];
}

// ---------------------------------------------------------------------
// MonthContext
// ---------------------------------------------------------------------

const probe::AsDataPlane* MonthContext::plane_of(std::uint32_t asn) const {
  const auto it = planes_.find(asn);
  return it == planes_.end() ? nullptr : &it->second->plane;
}

void MonthContext::plane_table(
    std::vector<const probe::AsDataPlane*>& out) const {
  out.clear();
  for (const auto& [asn, modeled] : internet_->modeled_) {
    out.push_back(plane_of(asn));
  }
}

namespace {

// Variant-0 route on an arbitrary IGP state (used to re-route TE LSPs after
// failures; RsvpTePlane::compute_route is bound to the base state).
std::vector<topo::LinkId> route_on(const igp::IgpState& igp,
                                   topo::RouterId ingress,
                                   topo::RouterId egress,
                                   std::size_t router_count) {
  const igp::EgressColumn& toward = igp.column(egress);
  std::vector<topo::LinkId> route;
  topo::RouterId at = ingress;
  for (std::size_t guard = router_count + 4; at != egress; --guard) {
    if (guard == 0) return {};
    const auto nhs = toward.nexthops(at);
    if (nhs.empty()) return {};
    route.push_back(nhs.front().link);
    at = nhs.front().neighbor;
  }
  return route;
}

}  // namespace

// Structural-change predicates for cycle evolution: which profile fields
// force a rebuild of which plane. Everything else is an observation scalar
// updated in place (apply_profile_scalars).
bool ldp_structural_changed(const ProfileSnapshot& a,
                            const ProfileSnapshot& b) {
  return a.mpls_enabled != b.mpls_enabled || a.ldp != b.ldp ||
         a.php != b.php || a.fec_all_loopbacks != b.fec_all_loopbacks;
}

bool te_structural_changed(const ProfileSnapshot& a,
                           const ProfileSnapshot& b) {
  return a.te_pair_share != b.te_pair_share ||
         a.te_lsps_min != b.te_lsps_min || a.te_lsps_max != b.te_lsps_max ||
         a.te_diverse_route_prob != b.te_diverse_route_prob ||
         a.te_frr != b.te_frr || a.ldp_over_te_share != b.ldp_over_te_share;
}

void MonthContext::restore_pristine() {
  for (auto& [asn, planes] : planes_) {
    for (std::size_t i = 0; i < planes->pools.size(); ++i) {
      planes->pools[i].restore(planes->pools_pristine[i]);
    }
    if (planes->rsvp) planes->rsvp->restore_pristine();
    planes->igp_now.reset();
    planes->plane.igp = &planes->cycle_igp(*internet_->modeled(asn));
  }
}

void MonthContext::apply_flaps(int sub_index, double flap_prob,
                               const EgressDemand& demand) {
  const GenConfig& config = internet_->config();
  static obs::Counter& recomputed =
      obs::registry().counter("igp.reconverge_sources_recomputed");
  static obs::Counter& skipped =
      obs::registry().counter("igp.reconverge_sources_skipped");
  static obs::Counter& reconverges =
      obs::registry().counter("igp.reconverges");
  // Per-AS flaps are independent: each task writes only its own AS's
  // salts, IGP failure state, RSVP hops and label pools, so the ASes fan
  // out over the pool (the reconvergence inside runs serially).
  std::vector<std::pair<std::uint32_t, AsPlanes*>> ases;
  ases.reserve(planes_.size());
  for (auto& [asn, planes] : planes_) ases.emplace_back(asn, planes.get());
  util::parallel_for(pool_, ases.size(), [&](std::size_t i) {
    const auto [asn, planes] = ases[i];
    const ModeledAs* as = internet_->modeled(asn);

    // --- ECMP hash-salt flaps (cheap per-router churn) -------------------
    auto& salts = planes->plane.ecmp_salts;
    salts.resize(as->topo.router_count());
    for (topo::RouterId r = 0; r < salts.size(); ++r) {
      const std::uint64_t base = util::hash_combine(
          (static_cast<std::uint64_t>(asn) << 32) | r, month_seed_);
      const bool flapped =
          to01(util::hash_combine(base, static_cast<std::uint64_t>(
                                            sub_index + 1))) < flap_prob;
      salts[r] = flapped
                     ? util::hash_combine(base, 0xF1A9ull + sub_index)
                     : base;
    }

    // --- link failures + IGP reconvergence ------------------------------
    // The month's failures layer on top of this cycle's persistent link
    // overlay: `now` is that overlay with the failed links' down bits set,
    // and the reconvergence starts from the overlay-converged state.
    const igp::IgpState& cycle_base = planes->cycle_igp(*as);
    const bool maintenance =
        to01(util::hash_combine(asn, month_seed_ ^ 0x3A17ull)) <
        config.as_maintenance_prob;
    bool any_down = false;
    igp::LinkOverlay now = planes->overlay;
    if (now.down.empty()) now.down.assign(as->topo.link_count(), false);
    if (maintenance) {
      for (topo::LinkId l = 0; l < as->topo.link_count(); ++l) {
        const std::uint64_t h = util::hash_combine(
            (static_cast<std::uint64_t>(asn) << 32) | l,
            month_seed_ ^ 0xD0D0ull);
        if (to01(h) >= config.link_fail_prob) continue;
        // The link goes down at a uniform snapshot of the month and stays
        // down (maintenance windows outlive the probing run).
        const int onset = static_cast<int>(util::mix64(h) % 3);
        if (sub_index >= onset && !now.down[l]) {
          now.down[l] = true;
          any_down = true;
        }
      }
    }
    if (any_down) {
      // The TE LSPs whose active path crosses a downed link: the only ones
      // the RSVP loop below touches. Re-signalling one LSP never moves
      // another's hops, so this one scan serves both that loop and the
      // egress pre-scan.
      std::vector<mpls::LspId> broken;
      if (planes->rsvp) {
        for (const mpls::TeLsp& lsp : planes->rsvp->lsps()) {
          if (planes->rsvp->crosses_down_link(lsp.id, now.down)) {
            broken.push_back(lsp.id);
          }
        }
      }
      // Demand-driven reconvergence: only the columns this snapshot reads,
      // i.e. the demanded egresses plus the egress of every TE LSP the
      // RSVP loop below re-signals (a read-only pre-scan of its decisions).
      // Of those, only columns whose shortest-path DAG crosses a downed
      // link are recomputed; the rest are copied from the cycle state.
      std::vector<topo::RouterId> egresses;
      if (demand.empty()) {
        egresses.resize(as->topo.router_count());
        std::iota(egresses.begin(), egresses.end(), topo::RouterId{0});
      } else {
        egresses = demand.at(as->index);
        if (planes->rsvp) {
          for (const mpls::LspId id : broken) {
            if (!planes->rsvp->backup_intact(id, now.down)) {
              egresses.push_back(planes->rsvp->lsp(id).egress);
            }
          }
          std::sort(egresses.begin(), egresses.end());
          egresses.erase(std::unique(egresses.begin(), egresses.end()),
                         egresses.end());
        }
      }
      igp::IgpState::ReconvergeStats rs;
      planes->igp_now =
          igp::IgpState::reconverge(as->topo, cycle_base, planes->overlay,
                                    now, egresses, &rs);
      reconverges.inc();
      recomputed.add(rs.sources_recomputed);
      skipped.add(rs.sources_total - rs.sources_recomputed);
      planes->plane.igp = &*planes->igp_now;
      // RSVP-TE reconverges too. With fast reroute, a broken LSP switches
      // to its pre-signalled backup (labels stable); otherwise it is
      // re-signalled over the post-failure route with fresh labels.
      for (const mpls::LspId id : broken) {
        if (planes->rsvp->activate_backup(id, now.down)) continue;
        const mpls::TeLsp& lsp = planes->rsvp->lsp(id);
        planes->rsvp->resignal_over(
            id,
            route_on(*planes->igp_now, lsp.ingress, lsp.egress,
                     as->topo.router_count()),
            planes->pools);
      }
    } else {
      planes->igp_now.reset();
      planes->plane.igp = &cycle_base;
    }
  });
}

void MonthContext::advance_dynamics() {
  for (auto& [asn, planes] : planes_) {
    if (!planes->rsvp) continue;
    const ModeledAs* as = internet_->modeled(asn);
    const ProfileSnapshot profile =
        profile_at(asn, as->shape, cycle_, /*day_of_month=*/1);
    if (!profile.dynamic_labels) continue;
    for (const mpls::TeLsp& lsp : planes->rsvp->lsps()) {
      planes->rsvp->reoptimize(lsp.id, planes->pools);
    }
  }
}

// ---------------------------------------------------------------------
// Internet construction
// ---------------------------------------------------------------------

Internet::Internet(const GenConfig& config, util::ThreadPool* pool)
    : config_(config) {
  if (config_.scale_routers > 0) {
    // Scale the AS count, not the AS size: per-AS IGP state is O(n^2), so
    // internet-scale worlds are many ~256-router transit networks.
    constexpr std::uint64_t kScaleAsRouters = 256;
    const auto want = static_cast<int>(
        (config_.scale_routers + kScaleAsRouters - 1) / kScaleAsRouters);
    config_.background_transit = std::max(config_.background_transit, want);
  }
  util::Rng rng(config.seed);
  build_graph(rng);
  build_topologies(rng, pool);
  place_monitors_and_destinations(rng);
}

void Internet::build_graph(util::Rng& rng_in) {
  util::Rng rng = rng_in.fork("as-graph");
  // Blocks carved sequentially from 16.0.0.0 in /16 units; transit ASes
  // take /15s (2 units), stubs /16s.
  std::uint32_t next_unit = 0;
  auto carve_block = [&](bool modeled) {
    const std::uint8_t length = modeled ? 15 : 16;
    if (modeled && (next_unit & 1)) ++next_unit;  // /15 alignment
    const std::uint32_t base = (16u << 24) + (next_unit << 16);
    next_unit += modeled ? 2 : 1;
    return net::Ipv4Prefix(net::Ipv4Addr(base), length);
  };

  auto add_node = [&](std::uint32_t asn, AsTier tier, bool modeled,
                      std::string name) {
    AsNode node;
    node.asn = asn;
    node.tier = tier;
    node.block = carve_block(modeled);
    node.modeled = modeled;
    node.name = std::move(name);
    graph_.add_as(std::move(node));
  };

  // Case-study ASes: four Tier-1s and one large transit network.
  add_node(kAsnAtt, AsTier::kTier1, true, "AT&T");
  add_node(kAsnLevel3, AsTier::kTier1, true, "Level3");
  add_node(kAsnNtt, AsTier::kTier1, true, "NTT");
  add_node(kAsnTata, AsTier::kTier1, true, "Tata");
  add_node(kAsnVodafone, AsTier::kTransit, true, "Vodafone");

  std::vector<std::uint32_t> tier1{kAsnAtt, kAsnLevel3, kAsnNtt, kAsnTata};
  for (int i = 0; i < config_.background_tier1; ++i) {
    const std::uint32_t asn = 100 + static_cast<std::uint32_t>(i);
    add_node(asn, AsTier::kTier1, true, "T1-" + std::to_string(asn));
    tier1.push_back(asn);
  }

  std::vector<std::uint32_t> transit{kAsnVodafone};
  for (int i = 0; i < config_.background_transit; ++i) {
    const std::uint32_t asn = 200 + static_cast<std::uint32_t>(i);
    add_node(asn, AsTier::kTransit, true, "TR-" + std::to_string(asn));
    transit.push_back(asn);
  }

  std::vector<std::uint32_t> stubs;
  for (int i = 0; i < config_.stub_ases; ++i) {
    const std::uint32_t asn = 30000 + static_cast<std::uint32_t>(i);
    add_node(asn, AsTier::kStub, false, "STUB-" + std::to_string(asn));
    stubs.push_back(asn);
  }

  // Tier-1 clique (settlement-free peering).
  for (std::size_t i = 0; i < tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1.size(); ++j) {
      graph_.add_peer_peer(tier1[i], tier1[j]);
    }
  }

  // Transit ASes buy from 1-2 Tier-1s and sometimes peer with each other.
  for (const std::uint32_t asn : transit) {
    const std::size_t first = static_cast<std::size_t>(rng.below(tier1.size()));
    graph_.add_provider_customer(tier1[first], asn);
    if (rng.chance(0.7) && tier1.size() > 1) {
      auto second = static_cast<std::size_t>(rng.below(tier1.size() - 1));
      if (second >= first) ++second;
      graph_.add_provider_customer(tier1[second], asn);
    }
  }
  for (std::size_t i = 0; i < transit.size(); ++i) {
    for (std::size_t j = i + 1; j < transit.size(); ++j) {
      if (rng.chance(0.12)) graph_.add_peer_peer(transit[i], transit[j]);
    }
  }

  // Stubs buy from 1-3 transit/Tier-1 networks.
  std::vector<std::uint32_t> uplinks = transit;
  uplinks.insert(uplinks.end(), tier1.begin(), tier1.end());
  for (const std::uint32_t asn : stubs) {
    const int n_providers = 1 + static_cast<int>(rng.below(3));
    std::vector<std::uint32_t> picked;
    for (int k = 0; k < n_providers; ++k) {
      const std::uint32_t p = rng.pick(uplinks);
      if (std::find(picked.begin(), picked.end(), p) == picked.end()) {
        graph_.add_provider_customer(p, asn);
        picked.push_back(p);
      }
    }
  }

  // Every transit AS must actually provide transit: guarantee stub
  // customers (otherwise a case-study AS could be invisible to probing).
  // Case-study networks get a few more so their longitudinal story rests
  // on a healthy tunnel population.
  auto ensure_stub_customers = [&](std::uint32_t asn, std::size_t want) {
    std::size_t stub_customers = 0;
    for (const std::uint32_t c : graph_.as_node(asn).customers) {
      if (graph_.as_node(c).tier == AsTier::kStub) ++stub_customers;
    }
    for (int guard = 0; stub_customers < want && guard < 200; ++guard) {
      const std::uint32_t stub = rng.pick(stubs);
      const auto& providers = graph_.as_node(stub).providers;
      if (std::find(providers.begin(), providers.end(), asn) ==
          providers.end()) {
        graph_.add_provider_customer(asn, stub);
        ++stub_customers;
      }
    }
  };
  for (const std::uint32_t asn : transit) ensure_stub_customers(asn, 2);
  ensure_stub_customers(kAsnVodafone, 4);
  for (const std::uint32_t asn : tier1) ensure_stub_customers(asn, 3);
}

void Internet::build_topologies(util::Rng& rng_in, util::ThreadPool* pool) {
  for (const std::uint32_t asn : graph_.asns()) {
    const AsNode& node = graph_.as_node(asn);
    if (!node.modeled) continue;

    util::Rng rng = rng_in.fork(util::hash_combine(asn, 0x70D0ull));
    AsShape shape;
    switch (asn) {
      case kAsnVodafone:
      case kAsnAtt:
      case kAsnTata:
      case kAsnNtt:
      case kAsnLevel3:
        shape = case_study_shape(asn);
        break;
      default:
        shape = background_shape(asn, rng);
        if (config_.scale_routers > 0 && asn >= 200 && asn < 30000) {
          // Scaled background transit AS: ~256 routers, half the fleet
          // running a TE mesh (te density set from scale_lsps below), always
          // deployed so the standing world carries the target LSP load.
          shape.scaled = true;
          shape.archetype = (asn % 2 == 0) ? MplsArchetype::kTeMixed
                                           : MplsArchetype::kLdpEcmp;
          shape.adopt_cycle = -1;
          shape.retire_cycle = kCycles + 1;
          shape.topo.core_routers = 32;
          shape.topo.pop_routers = 224;
          shape.topo.border_share = 0.5;
        }
        break;
    }
    shape.topo.asn = asn;
    shape.topo.block = node.block;
    shape.topo.router_response_prob = config_.router_response_prob;

    topo::AsTopology topo = topo::build_as_topology(shape.topo, rng);
    igp::IgpState igp = igp::IgpState::compute(topo, {}, pool);
    auto modeled =
        std::make_unique<ModeledAs>(std::move(shape), std::move(topo),
                                    std::move(igp));

    // Peering points & entry interfaces per neighbour AS, in sorted
    // neighbour order for determinism.
    std::vector<std::uint32_t> neighbors;
    neighbors.insert(neighbors.end(), node.providers.begin(),
                     node.providers.end());
    neighbors.insert(neighbors.end(), node.customers.begin(),
                     node.customers.end());
    neighbors.insert(neighbors.end(), node.peers.begin(), node.peers.end());
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());

    const auto borders = modeled->topo.border_routers();
    const std::uint64_t entry_base = entry_region(node.block);
    std::uint64_t entry_slot = 0;
    const auto& customers = node.customers;
    for (const std::uint32_t neighbor : neighbors) {
      const bool is_customer =
          std::find(customers.begin(), customers.end(), neighbor) !=
          customers.end();
      const int points = static_cast<int>(
          std::min<std::size_t>(ModeledAs::kPeeringPoints, borders.size()));
      std::vector<topo::RouterId> chosen;
      std::vector<net::Ipv4Addr> ifaces;
      // Customers all attach at the same small set of edge PoPs (so one
      // egress border serves many customer ASes — without this, every
      // egress would serve a single destination AS and TransitDiversity
      // would discard the whole tunnel set of small transit networks).
      // Peers and providers interconnect at neighbour-specific points.
      const std::size_t start =
          is_customer ? 0
                      : static_cast<std::size_t>(
                            util::hash_combine(asn, neighbor) %
                            borders.size());
      for (int k = 0; k < points; ++k) {
        chosen.push_back(
            borders[(start + static_cast<std::size_t>(k)) % borders.size()]);
        ifaces.push_back(node.block.nth(entry_base + entry_slot * 2));
        ++entry_slot;
      }
      modeled->borders_toward[neighbor] = std::move(chosen);
      modeled->entry_ifaces_from[neighbor] = std::move(ifaces);
    }

    modeled_.emplace(asn, std::move(modeled));
  }

  // TE density for scaled worlds: size te_pair_share so the scaled TE meshes
  // together carry >= scale_lsps TE LSPs (pair slots counted from the built
  // topologies, so the target holds whatever border counts the builder drew).
  if (config_.scale_routers > 0 && config_.scale_lsps > 0) {
    double total_slots = 0.0;
    for (const auto& [asn, m] : modeled_) {
      if (!m->shape.scaled || m->shape.archetype != MplsArchetype::kTeMixed) {
        continue;
      }
      const double b = static_cast<double>(m->topo.border_routers().size());
      total_slots += b * (b - 1.0);
    }
    if (total_slots > 0.0) {
      constexpr double kShareCap = 0.95;
      const double target = static_cast<double>(config_.scale_lsps);
      const int lsps = std::max(
          1, static_cast<int>(std::ceil(target / (kShareCap * total_slots))));
      const double share =
          std::min(kShareCap, target / (total_slots * static_cast<double>(
                                                          lsps)));
      for (auto& [asn, m] : modeled_) {
        if (!m->shape.scaled ||
            m->shape.archetype != MplsArchetype::kTeMixed) {
          continue;
        }
        m->shape.te_pair_share_override = share;
        m->shape.te_lsps_override = lsps;
      }
    }
  }

  std::uint32_t index = 0;
  for (auto& [asn, m] : modeled_) m->index = index++;
}

void Internet::place_monitors_and_destinations(util::Rng& rng_in) {
  util::Rng rng = rng_in.fork("placement");

  // Monitors live in stub ASes. The fleet is seeded with one stub out of
  // each case-study AS's customer cone (so their tunnels are observed from
  // inside the cone, not only via inbound transit), then filled round-robin.
  std::vector<std::uint32_t> stubs;
  for (const std::uint32_t asn : graph_.asns()) {
    if (graph_.as_node(asn).tier == AsTier::kStub) stubs.push_back(asn);
  }
  std::vector<std::uint32_t> monitor_stubs;
  for (const std::uint32_t asn :
       {kAsnVodafone, kAsnAtt, kAsnTata, kAsnNtt, kAsnLevel3}) {
    for (const std::uint32_t c : graph_.as_node(asn).customers) {
      if (graph_.as_node(c).tier == AsTier::kStub &&
          std::find(monitor_stubs.begin(), monitor_stubs.end(), c) ==
              monitor_stubs.end()) {
        monitor_stubs.push_back(c);
        break;
      }
    }
  }
  for (std::size_t i = 0;
       monitor_stubs.size() <
       static_cast<std::size_t>(config_.monitors) && i < stubs.size();
       ++i) {
    if (std::find(monitor_stubs.begin(), monitor_stubs.end(), stubs[i]) ==
        monitor_stubs.end()) {
      monitor_stubs.push_back(stubs[i]);
    }
  }
  for (int m = 0; m < config_.monitors; ++m) {
    const std::uint32_t asn = monitor_stubs[static_cast<std::size_t>(m) %
                                            monitor_stubs.size()];
    probe::Monitor monitor;
    monitor.id = static_cast<std::uint32_t>(m);
    monitor.addr = graph_.as_node(asn).block.nth(
        9 + 4 * static_cast<std::uint64_t>(m));
    monitor.name = "ark-" + std::to_string(m);
    monitors_.push_back(std::move(monitor));
    monitor_asn_.push_back(asn);
  }

  // Destinations: every /24 of each AS's destination region, first address
  // (transit ASes announce twice the space of stubs — see the block layout).
  for (const std::uint32_t asn : graph_.asns()) {
    const AsNode& node = graph_.as_node(asn);
    const std::uint64_t base = dest_region(node.block);
    for (int k = 0; k < dest_slots(node.block); ++k) {
      Destination d;
      d.addr = node.block.nth(base + static_cast<std::uint64_t>(k) * 256 + 1);
      d.asn = asn;
      destinations_.push_back(d);
    }
  }
  rng.shuffle(destinations_);
}

const ModeledAs* Internet::modeled(std::uint32_t asn) const {
  const auto it = modeled_.find(asn);
  return it == modeled_.end() ? nullptr : it->second.get();
}

std::vector<std::uint32_t> Internet::modeled_asns() const {
  std::vector<std::uint32_t> out;
  out.reserve(modeled_.size());
  for (const auto& [asn, ptr] : modeled_) out.push_back(asn);
  return out;
}

dataset::Ip2As Internet::build_ip2as() const {
  dataset::Ip2As ip2as;
  for (const std::uint32_t asn : graph_.asns()) {
    ip2as.add_prefix(graph_.as_node(asn).block, asn);
  }
  // Mis-origination noise: a sibling ASN announces a /22 inside the link
  // region of a few modelled ASes (MOAS-style), so a small share of LSPs
  // appears to span two ASes and is dropped by the IntraAS filter.
  for (const std::uint32_t asn : graph_.asns()) {
    const AsNode& node = graph_.as_node(asn);
    if (!node.modeled) continue;
    const double u = to01(util::hash_combine(asn, config_.seed ^ 0x51B1ull));
    if (u < config_.ip2as_noise) {
      // A /29 over ~4 actually-used link subnets (around 60% through the
      // allocation order, i.e. PoP links): LSPs crossing one of them mix
      // ASNs and fall to the IntraAS filter.
      const ModeledAs* as = modeled(asn);
      const std::uint64_t used = as->topo.link_count() * 2;
      const std::uint64_t offset = (used * 3 / 5) & ~std::uint64_t{7};
      const net::Ipv4Prefix leaked(
          node.block.nth(node.block.size() / 4 + offset), 29);
      ip2as.add_prefix(leaked, asn + 64500);  // sibling / hijacker ASN
    }
  }
  return ip2as;
}

namespace {

std::vector<mpls::LabelPool::State> pool_states(
    const std::vector<mpls::LabelPool>& pools) {
  std::vector<mpls::LabelPool::State> out;
  out.reserve(pools.size());
  for (const mpls::LabelPool& pool : pools) out.push_back(pool.state());
  return out;
}

// Allocation-history drift between TE re-signalling epochs: every router
// discards a small per-router-constant number of labels per epoch, so a
// rebuilt epoch-k control plane draws from visibly different counter
// positions (Fig. 17 label motion) while staying O(1) to replay.
void burn_epoch_labels(std::uint32_t asn, std::uint64_t seed,
                       std::uint32_t epoch,
                       std::vector<mpls::LabelPool>& pools) {
  if (epoch == 0) return;
  for (std::size_t r = 0; r < pools.size(); ++r) {
    const std::uint64_t per_epoch =
        1 + util::hash_combine((static_cast<std::uint64_t>(asn) << 32) | r,
                               seed ^ 0x7E51ull) %
                7;
    pools[r].burn(std::uint64_t{epoch} * per_epoch);
  }
}

// Signal the full RSVP-TE mesh of one AS over `cycle_igp` (the TE block of a
// from-scratch build; also replayed alone by build_te_planes). Draw order is
// part of the determinism contract — LSP ids and label sequences must match a
// full rebuild exactly.
void signal_te_planes(std::uint32_t asn, const ModeledAs& modeled,
                      const ProfileSnapshot& profile,
                      const igp::IgpState& cycle_igp, AsPlanes& planes) {
  if (profile.te_pair_share <= 0.0 && profile.ldp_over_te_share <= 0.0) {
    return;
  }
  auto& plane = planes.plane;
  mpls::RsvpConfig rsvp_config;
  rsvp_config.php = profile.php;
  rsvp_config.diverse_route_prob = profile.te_diverse_route_prob;
  rsvp_config.frr = profile.te_frr;
  planes.rsvp = std::make_unique<mpls::RsvpTePlane>(&modeled.topo, &cycle_igp,
                                                    rsvp_config);

  // Stable pair selection: a pair joins the TE mesh once the share
  // rises past its fixed draw, so deployments grow monotonically.
  const auto borders = modeled.topo.border_routers();
  for (const topo::RouterId ingress : borders) {
    for (const topo::RouterId egress : borders) {
      if (ingress == egress) continue;
      const std::uint64_t pair_key =
          util::hash_combine(util::hash_combine(asn, ingress), egress);
      if (to01(util::mix64(pair_key)) >= profile.te_pair_share) {
        continue;
      }
      const int count =
          profile.te_lsps_min +
          static_cast<int>(util::mix64(pair_key ^ 0xC0ull) %
                           static_cast<std::uint64_t>(profile.te_lsps_max -
                                                      profile.te_lsps_min +
                                                      1));
      util::Rng pair_rng(pair_key);
      const auto ids =
          planes.rsvp->signal(ingress, egress, count, planes.pools, pair_rng);
      if (!ids.empty()) {
        plane.te_policy.pairs[{ingress, egress}] = ids;
      }
    }
  }
  plane.te_policy.te_share = profile.te_share;
  plane.te_policy.salt = util::hash_combine(asn, 0x7E7E7E7Eull);
  plane.rsvp = planes.rsvp.get();

  // LDP-over-RSVP hub tunnels: each border gets a tunnel to 1-2 core
  // routers (the builder allocates core router ids first).
  if (profile.ldp_over_te_share > 0.0 && profile.ldp) {
    plane.te_policy.ldp_over_te_share = profile.ldp_over_te_share;
    const int n_core = modeled.shape.topo.core_routers;
    for (const topo::RouterId ingress : borders) {
      std::vector<mpls::LspId> tunnels;
      for (int h = 0; h < 2 && h < n_core; ++h) {
        const topo::RouterId hub = static_cast<topo::RouterId>(
            (util::hash_combine(asn, ingress) +
             static_cast<std::uint64_t>(h)) %
            static_cast<std::uint64_t>(n_core));
        if (hub == ingress) continue;
        util::Rng hub_rng(util::hash_combine(ingress, hub));
        const auto hub_ids =
            planes.rsvp->signal(ingress, hub, 1, planes.pools, hub_rng);
        tunnels.insert(tunnels.end(), hub_ids.begin(), hub_ids.end());
      }
      if (!tunnels.empty()) {
        plane.te_policy.hub_tunnels[ingress] = std::move(tunnels);
      }
    }
  }
}

}  // namespace

igp::LinkOverlay Internet::overlay_at(const ModeledAs& as, std::uint32_t asn,
                                      int cycle) const {
  igp::LinkOverlay overlay;
  const GenConfig::Churn& churn = config_.churn;
  if (cycle <= 0 ||
      (churn.link_down_prob <= 0.0 && churn.metric_change_prob <= 0.0 &&
       churn.router_down_prob <= 0.0)) {
    return overlay;
  }
  const std::uint64_t key = util::hash_combine(
      config_.seed ^ 0xE0E1ull,
      util::hash_combine(asn, static_cast<std::uint64_t>(cycle)));
  const std::size_t n_links = as.topo.link_count();
  std::vector<bool> down(n_links, false);
  std::vector<std::uint32_t> cost(n_links, 0);
  bool any_down = false;
  bool any_cost = false;
  for (const topo::Link& link : as.topo.links()) {
    const std::uint64_t h = util::hash_combine(key, 0xD011ull + link.id);
    if (to01(h) < churn.link_down_prob) {
      down[link.id] = true;
      any_down = true;
      continue;
    }
    const std::uint64_t hm = util::hash_combine(key, 0x3E71ull + link.id);
    if (to01(hm) < churn.metric_change_prob) {
      // Re-priced near the base metric; never 0 (0 means "no override") and
      // never the base value, so the override is a real change.
      std::uint32_t priced = 1 + static_cast<std::uint32_t>(
                                     util::mix64(hm) %
                                     (2ull * link.igp_cost + 2));
      if (priced == link.igp_cost) ++priced;
      cost[link.id] = priced;
      any_cost = true;
    }
  }
  if (churn.router_down_prob > 0.0) {
    for (const topo::Router& r : as.topo.routers()) {
      const std::uint64_t h = util::hash_combine(key, 0x4007ull + r.id);
      if (to01(h) >= churn.router_down_prob) continue;
      for (const topo::LinkId l : as.topo.links_of(r.id)) {
        if (!down[l]) {
          down[l] = true;
          any_down = true;
        }
      }
    }
  }
  // Canonical form: the trivial overlay is {} so overlay comparisons and
  // the "no overlay" fast paths stay exact.
  if (any_down) overlay.down = std::move(down);
  if (any_cost) overlay.cost = std::move(cost);
  return overlay;
}

std::uint32_t Internet::label_epoch_at(std::uint32_t asn, int cycle) const {
  const double prob = config_.churn.te_resignal_prob;
  if (prob <= 0.0 || cycle <= 0) return 0;
  std::uint32_t epochs = 0;
  for (int c = 1; c <= cycle; ++c) {
    const std::uint64_t h = util::hash_combine(
        config_.seed ^ 0x7E5Aull,
        util::hash_combine(asn, static_cast<std::uint64_t>(c)));
    if (to01(h) < prob) ++epochs;
  }
  return epochs;
}

void Internet::apply_profile_scalars(const ProfileSnapshot& profile,
                                     AsPlanes& planes) {
  auto& plane = planes.plane;
  plane.ttl_propagate = profile.ttl_propagate;
  plane.rfc4950 = profile.rfc4950;
  plane.mpls_coverage = profile.mpls_enabled ? profile.mpls_coverage : 0.0;
  plane.ler_share = profile.ler_share;
  if (planes.rsvp) plane.te_policy.te_share = profile.te_share;
}

void Internet::build_as_planes(std::uint32_t asn, const ModeledAs& modeled,
                               const ProfileSnapshot& profile,
                               AsPlanes& planes) const {
  const igp::IgpState& cycle_igp = planes.cycle_igp(modeled);

  planes.pools.clear();
  planes.ldp.reset();
  planes.rsvp.reset();
  planes.igp_now.reset();
  planes.plane = probe::AsDataPlane{};
  auto& plane = planes.plane;
  plane.asn = asn;
  plane.topo = &modeled.topo;
  plane.igp = &cycle_igp;
  plane.coverage_salt = util::hash_combine(asn, config_.seed ^ 0xC0Full);
  plane.ler_salt = util::hash_combine(asn, config_.seed ^ 0x1E4ull);

  if (profile.mpls_enabled) {
    planes.pools.reserve(modeled.topo.router_count());
    for (const topo::Router& r : modeled.topo.routers()) {
      // Desynchronized per-router counters (see LabelPool): stable per
      // (seed, asn, router) so labels persist across snapshots/cycles.
      planes.pools.emplace_back(
          r.vendor,
          util::hash_combine(
              (static_cast<std::uint64_t>(asn) << 32) | r.id,
              config_.seed ^ 0x9001ull));
    }
    if (profile.ldp) {
      mpls::LdpConfig ldp_config;
      ldp_config.php = profile.php;
      ldp_config.fec_all_loopbacks = profile.fec_all_loopbacks;
      // LDP binds over the time-invariant base IGP: bindings pre-date this
      // cycle's overlay (a binding exists per (router, FEC) regardless);
      // forwarding follows plane.igp, exactly as with in-month failures.
      planes.ldp = mpls::LdpPlane::build(modeled.topo, modeled.igp,
                                         ldp_config, planes.pools);
      plane.ldp = &*planes.ldp;
    }
    // Counter snapshot the TE-only rebuild restarts from, then the
    // re-signalling epoch drift, then the TE mesh over the cycle IGP.
    planes.pools_after_ldp = pool_states(planes.pools);
    burn_epoch_labels(asn, config_.seed, planes.label_epoch, planes.pools);
    signal_te_planes(asn, modeled, profile, cycle_igp, planes);
  } else {
    planes.pools_after_ldp.clear();
  }

  apply_profile_scalars(profile, planes);
  planes.pools_pristine = pool_states(planes.pools);
  if (planes.rsvp) planes.rsvp->mark_pristine();
  planes.profile = profile;
}

void Internet::build_te_planes(std::uint32_t asn, const ModeledAs& modeled,
                               const ProfileSnapshot& profile,
                               AsPlanes& planes) const {
  const igp::IgpState& cycle_igp = planes.cycle_igp(modeled);
  auto& plane = planes.plane;
  // Rewind label counters to the post-LDP snapshot and replay the epoch
  // drift: the fresh TE mesh then draws exactly the label sequence a full
  // from-scratch build of this profile would.
  for (std::size_t i = 0; i < planes.pools.size(); ++i) {
    planes.pools[i].restore(planes.pools_after_ldp[i]);
  }
  burn_epoch_labels(asn, config_.seed, planes.label_epoch, planes.pools);
  planes.rsvp.reset();
  planes.igp_now.reset();
  plane.igp = &cycle_igp;
  plane.rsvp = nullptr;
  plane.te_policy = probe::TePolicy{};
  if (profile.mpls_enabled) {
    signal_te_planes(asn, modeled, profile, cycle_igp, planes);
  }
  apply_profile_scalars(profile, planes);
  planes.pools_pristine = pool_states(planes.pools);
  if (planes.rsvp) planes.rsvp->mark_pristine();
  planes.profile = profile;
}

MonthContext Internet::instantiate(int cycle, int day_of_month,
                                   util::ThreadPool* pool) const {
  MonthContext ctx;
  ctx.cycle_ = cycle;
  ctx.internet_ = this;
  ctx.pool_ = pool;
  ctx.month_seed_ = util::hash_combine(config_.seed, 0xC1C7Eull + cycle);

  // Per-AS builds are independent: fan out across ASes and assemble the
  // ordered plane map serially, so the result is thread-count invariant.
  std::vector<std::uint32_t> asns;
  asns.reserve(modeled_.size());
  for (const auto& [asn, modeled] : modeled_) asns.push_back(asn);
  std::vector<std::unique_ptr<AsPlanes>> built(asns.size());
  util::parallel_for(pool, asns.size(), [&](std::size_t i) {
    const std::uint32_t asn = asns[i];
    const ModeledAs& as = *modeled_.at(asn);
    auto planes = std::make_unique<AsPlanes>();
    planes->overlay = overlay_at(as, asn, cycle);
    planes->label_epoch = label_epoch_at(asn, cycle);
    if (!planes->overlay.trivial()) {
      // Nested parallel_for runs inline inside a pool worker, so this SPF
      // is effectively single-threaded here; AS-level fan-out saturates.
      planes->igp_cycle = igp::IgpState::compute(as.topo, planes->overlay,
                                                 pool);
    }
    build_as_planes(asn, as, profile_at(asn, as.shape, cycle, day_of_month),
                    *planes);
    built[i] = std::move(planes);
  });
  for (std::size_t i = 0; i < asns.size(); ++i) {
    ctx.planes_.emplace(asns[i], std::move(built[i]));
  }
  ctx.apply_flaps(/*sub_index=*/0, config_.ecmp_flap_prob);
  return ctx;
}

std::optional<probe::PathSpec> Internet::path_spec(
    const probe::Monitor& monitor, const Destination& dest,
    const MonthContext& ctx) const {
  ProbePlan plan;
  if (!plan_route(monitor, dest, plan)) return std::nullopt;
  std::vector<const probe::AsDataPlane*> planes;
  ctx.plane_table(planes);
  probe::PathSpec path;
  if (!plan.resolve(0, planes, path)) return std::nullopt;
  return path;
}

ProbePlan Internet::probe_plan(std::size_t monitor_index) const {
  const probe::Monitor& monitor = monitors_.at(monitor_index);
  const std::size_t n_monitors = monitors_.size();
  const int per_monitor = config_.dests_per_monitor;
  const int overlap = std::max(1, config_.dest_overlap);
  const int per_dest = std::max(1, config_.probes_per_dest);
  ProbePlan plan;
  int probed = 0;
  for (int o = 0; o < overlap && probed < per_monitor; ++o) {
    const std::size_t lane =
        (monitor_index + n_monitors - static_cast<std::size_t>(o)) %
        n_monitors;
    for (std::size_t d = lane; d < destinations_.size() && probed < per_monitor;
         d += n_monitors, ++probed) {
      for (int pp = 0; pp < per_dest; ++pp) {
        // Additional probes land in the same /24 (same FEC) but hash to
        // different Paris flows.
        Destination dest = destinations_[d];
        dest.addr = net::Ipv4Addr(dest.addr.value() +
                                  static_cast<std::uint32_t>(pp) * 128);
        plan_route(monitor, dest, plan);
      }
    }
  }
  return plan;
}

bool Internet::plan_route(const probe::Monitor& monitor,
                          const Destination& dest, ProbePlan& plan) const {
  const std::uint32_t src_asn = monitor_asn_.at(monitor.id);
  const std::vector<std::uint32_t> as_path = graph_.route(src_asn, dest.asn);
  if (as_path.empty()) return false;

  ProbePlan::Probe probe;
  probe.dst = dest.addr;
  probe.dst_responds =
      to01(util::hash_combine(dest.addr.value(),
                              config_.seed ^ 0xDE57ull)) >=
      config_.dest_silent_prob;
  probe.flow_id = probe::paris_flow_id(monitor, dest.addr);
  const std::uint64_t dh = dst24_hash(dest.addr);

  // Source-side stub hops: monitor gateway + stub exit router.
  const AsNode& src_node = graph_.as_node(src_asn);
  plan.pre_hops.push_back(src_node.block.nth(
      src_node.block.size() / 4 + 2 * monitor.id));
  plan.pre_hops.push_back(src_node.block.nth(
      src_node.block.size() / 4 + 64 + 2 *
          (util::hash_combine(monitor.id, as_path.size() > 1 ? as_path[1]
                                                             : 0) % 8)));

  for (std::size_t i = 1; i < as_path.size(); ++i) {
    const std::uint32_t asn = as_path[i];
    const AsNode& node = graph_.as_node(asn);
    const std::uint32_t prev_asn = as_path[i - 1];
    if (!node.modeled) {
      // Stub AS: destination side only (stubs never provide transit).
      const std::uint64_t quarter = node.block.size() / 4;
      plan.post_hops.push_back(node.block.nth(
          quarter + 128 + 2 * (util::hash_combine(prev_asn, asn) % 16)));
      continue;
    }

    const ModeledAs& as = *modeled_.at(asn);
    ProbePlan::Segment seg;
    seg.as_index = as.index;
    // Hot-potato ingress: where a packet enters an AS is fixed by where it
    // comes FROM (the upstream handed it over at the interconnect nearest
    // the source), not by its destination — so one monitor funnels all its
    // traffic through one ingress and IOTPs aggregate many destinations.
    const std::uint64_t ingress_hash =
        util::hash_combine(monitor.id + 1, prev_asn);
    seg.ingress = as.border_for(prev_asn, ingress_hash);
    seg.entry_iface = as.entry_iface_for(prev_asn, ingress_hash);
    if (i + 1 < as_path.size()) {
      // Egress toward the next AS; rotate the hash so ingress and egress
      // peering-point choices decorrelate.
      seg.egress = as.border_for(as_path[i + 1], util::mix64(dh + 1));
    } else {
      // Destination lives inside this modelled AS: route to its
      // (hash-chosen) attachment router.
      seg.egress = static_cast<topo::RouterId>(
          util::mix64(dest.addr.value() >> 8) % as.topo.router_count());
    }
    plan.segments.push_back(seg);
  }
  probe.pre_end = static_cast<std::uint32_t>(plan.pre_hops.size());
  probe.seg_end = static_cast<std::uint32_t>(plan.segments.size());
  probe.post_end = static_cast<std::uint32_t>(plan.post_hops.size());
  plan.probes.push_back(probe);
  return true;
}

}  // namespace mum::gen
