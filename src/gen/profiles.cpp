#include "gen/profiles.h"

#include <algorithm>

namespace mum::gen {

namespace {

double clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

// Linear ramp from `from` to `to` as cycle goes a -> b.
double ramp(int cycle, int a, int b, double from, double to) {
  if (cycle <= a) return from;
  if (cycle >= b) return to;
  const double f = static_cast<double>(cycle - a) / static_cast<double>(b - a);
  return from + f * (to - from);
}

ProfileSnapshot base_ldp() {
  ProfileSnapshot p;
  p.mpls_enabled = true;
  p.ldp = true;
  return p;
}

// --- Case-study timelines (paper Sec. 4.4) -----------------------------

// AS1273 Vodafone: MPLS (transit) usage grows over time; Multi-FEC
// dominates and grows at the expense of Mono-LSP; ECMP almost invisible;
// labels churn at high frequency (Fig. 17) => dynamic tag.
ProfileSnapshot vodafone_at(int cycle) {
  ProfileSnapshot p = base_ldp();
  p.mpls_coverage = ramp(cycle, 0, 50, 0.35, 0.7);
  // RSVP-TE everywhere from the start (so the whole tunnel set churns and
  // the Persistence filter triggers the dynamic tag); what grows over the
  // years is the number of LSPs per LER pair — the Multi-FEC share rises
  // at the expense of Mono-LSP, as Fig. 10 shows.
  p.te_pair_share = 0.92;
  p.te_lsps_min = cycle < 24 ? 1 : 2;
  p.te_lsps_max = 2 + cycle / 15;  // 2 .. 5
  p.te_share = 0.95;
  p.te_diverse_route_prob = 0.15;  // TE LSPs mostly share the IP route
  p.dynamic_labels = true;
  return p;
}

// AS7018 AT&T: MPLS share of the (large) network declines relatively; the
// classification shifts from Mono-FEC (ECMP) toward Multi-FEC; IOTP count
// drops around cycle 22 (a transition in usage).
ProfileSnapshot att_at(int cycle) {
  ProfileSnapshot p = base_ldp();
  p.fec_all_loopbacks = true;
  const bool after_transition = cycle >= 22;
  p.mpls_coverage = after_transition ? ramp(cycle, 22, 59, 0.22, 0.16)
                                     : ramp(cycle, 0, 21, 0.34, 0.32);
  p.te_pair_share = ramp(cycle, 10, 55, 0.05, 0.75);
  p.te_lsps_min = 2;
  p.te_lsps_max = 4;
  p.te_share = 0.85;
  p.te_diverse_route_prob = 0.3;
  return p;
}

// AS6453 Tata: almost no Multi-FEC; strong (though slowly declining)
// Mono-FEC share with 60-70% of it riding parallel links.
ProfileSnapshot tata_at(int cycle) {
  ProfileSnapshot p = base_ldp();
  p.mpls_coverage = ramp(cycle, 0, 59, 0.62, 0.4);
  p.te_pair_share = 0.02;
  p.te_share = 0.5;
  return p;
}

// AS2914 NTT: MPLS usage grows (IOTP count ~ triples); class mix stays
// mostly Mono-LSP with a slight late shift toward Mono-FEC.
ProfileSnapshot ntt_at(int cycle) {
  ProfileSnapshot p = base_ldp();
  p.mpls_coverage = ramp(cycle, 0, 59, 0.2, 0.7);
  // The IOTP population triples over the period because MPLS is enabled on
  // more and more LERs (Table 2's growing MPLS IP counts).
  p.ler_share = ramp(cycle, 0, 59, 0.25, 0.95);
  p.te_pair_share = 0.0;
  return p;
}

// AS3356 Level3: no (visible) MPLS until the April-2012 rollout, deployed
// incrementally from the 15th of that month; stable afterwards; sharp
// decline from cycle 55 (1-based) on.
ProfileSnapshot level3_at(int cycle, int day_of_month) {
  ProfileSnapshot p = base_ldp();
  p.fec_all_loopbacks = true;
  const int ramp_cycle = cycle_of(2012, 4);  // April 2012
  const int decline_cycle = 54;              // 0-based == paper's cycle 55
  if (cycle < ramp_cycle) {
    p.mpls_enabled = false;
    p.mpls_coverage = 0.0;
  } else if (cycle == ramp_cycle) {
    // Incremental intra-month rollout: nothing before the 15th, full
    // deployment by the end of the month (Fig. 16).
    p.mpls_coverage = clamp01((day_of_month - 15) / 14.0);
    p.mpls_enabled = p.mpls_coverage > 0.0;
  } else if (cycle >= decline_cycle) {
    p.mpls_coverage = ramp(cycle, decline_cycle, 57, 0.3, 0.015);
  } else {
    p.mpls_coverage = 0.55;
  }
  p.te_pair_share = 0.04;
  p.te_share = 0.5;
  return p;
}

}  // namespace

std::string cycle_date(int cycle) {
  const int year = kFirstYear + cycle / 12;
  const int month = 1 + cycle % 12;
  std::string out = std::to_string(year);
  out += month < 10 ? "-0" : "-";
  out += std::to_string(month);
  return out;
}

int cycle_of(int year, int month) {
  return (year - kFirstYear) * 12 + (month - 1);
}

ProfileSnapshot profile_at(std::uint32_t asn, const AsShape& shape, int cycle,
                           int day_of_month) {
  switch (asn) {
    case kAsnVodafone: return vodafone_at(cycle);
    case kAsnAtt: return att_at(cycle);
    case kAsnTata: return tata_at(cycle);
    case kAsnNtt: return ntt_at(cycle);
    case kAsnLevel3: return level3_at(cycle, day_of_month);
    default: break;
  }

  ProfileSnapshot p;
  if (shape.archetype == MplsArchetype::kNoMpls || cycle < shape.adopt_cycle ||
      cycle >= shape.retire_cycle) {
    return p;  // MPLS off
  }
  p = base_ldp();
  // Deployments mature over ~a year after adoption.
  const int a = std::max(shape.adopt_cycle, 0);
  p.mpls_coverage = ramp(cycle, a, a + 12, 0.12, 0.42);
  switch (shape.archetype) {
    case MplsArchetype::kLdpMono:
      break;  // diversity (or lack of it) comes from the topology
    case MplsArchetype::kLdpEcmp:
      p.fec_all_loopbacks = true;
      // A third of the ECMP-style deployments tunnel their LDP traffic
      // over RSVP hub tunnels in the core (visible as 2-entry stacks).
      if (asn % 3 == 0) p.ldp_over_te_share = 0.4;
      break;
    case MplsArchetype::kTeMixed:
      p.te_pair_share = ramp(cycle, a, a + 18, 0.1, 0.5);
      p.te_lsps_min = 2;
      p.te_lsps_max = 3;
      p.te_share = 0.8;
      // Half the TE deployments protect their LSPs with fast reroute.
      p.te_frr = (asn % 2) == 0;
      break;
    case MplsArchetype::kTeDynamic:
      p.te_pair_share = 0.7;
      p.te_share = 0.9;
      p.dynamic_labels = true;
      break;
    case MplsArchetype::kNoMpls:
      break;  // unreachable
  }
  if (shape.te_pair_share_override >= 0.0 && shape.te_lsps_override > 0) {
    // Scaled worlds pin TE density (the fleet-wide LSP target) and keep the
    // per-cycle signalling cost predictable: no FRR backups, no per-snapshot
    // re-optimization.
    p.te_pair_share = shape.te_pair_share_override;
    p.te_lsps_min = shape.te_lsps_override;
    p.te_lsps_max = shape.te_lsps_override;
    p.te_frr = false;
    p.dynamic_labels = false;
  }
  return p;
}

AsShape case_study_shape(std::uint32_t asn) {
  AsShape shape;
  auto& t = shape.topo;
  t.asn = asn;
  switch (asn) {
    case kAsnVodafone:
      // Small transit network; sparse topology => essentially no ECMP, so
      // the diversity that shows is Multi-FEC (RSVP-TE).
      shape.archetype = MplsArchetype::kTeDynamic;
      t.core_routers = 6;
      t.pop_routers = 12;
      t.border_share = 0.6;
      t.juniper_share = 0.95;  // Fig. 17 dynamics are Juniper-flavoured
      t.parallel_link_prob = 0.0;
      t.shortcut_share = 0.0;
      t.core_chord_prob = 0.08;
      t.uniform_costs = false;  // unique shortest paths
      break;
    case kAsnAtt:
      // Very large network, moderate ECMP.
      shape.archetype = MplsArchetype::kTeMixed;
      t.core_routers = 14;
      t.pop_routers = 60;
      t.border_share = 0.45;
      t.juniper_share = 0.3;
      t.parallel_link_prob = 0.28;
      t.heavy_cost_share = 0.2;
      t.shortcut_share = 0.15;
      t.core_chord_prob = 0.08;
      t.uniform_costs = true;
      break;
    case kAsnTata:
      // ECMP-rich with heavy link bundling (parallel links dominate).
      shape.archetype = MplsArchetype::kLdpEcmp;
      t.core_routers = 10;
      t.pop_routers = 26;
      t.border_share = 0.5;
      t.juniper_share = 0.4;
      t.parallel_link_prob = 0.6;
      t.max_parallel_links = 3;
      t.shortcut_share = 0.12;
      t.core_chord_prob = 0.08;
      t.uniform_costs = true;
      // Bias ECMP toward bundles: cost noise breaks most router-level ties,
      // so the diversity that remains is mostly Parallel Links (Fig. 13).
      t.heavy_cost_share = 0.5;
      break;
    case kAsnNtt:
      // Mostly unique shortest paths => Mono-LSP; mild late-period ECMP.
      shape.archetype = MplsArchetype::kLdpMono;
      t.core_routers = 10;
      t.pop_routers = 24;
      t.border_share = 0.5;
      t.juniper_share = 0.5;
      t.parallel_link_prob = 0.07;
      t.shortcut_share = 0.15;
      t.core_chord_prob = 0.08;
      t.uniform_costs = false;
      break;
    case kAsnLevel3:
      // Large network, ECMP-rich (Mono-FEC once MPLS appears).
      shape.archetype = MplsArchetype::kLdpEcmp;
      t.core_routers = 12;
      t.pop_routers = 48;
      t.border_share = 0.5;
      t.juniper_share = 0.35;
      t.parallel_link_prob = 0.3;
      t.shortcut_share = 0.12;
      t.core_chord_prob = 0.08;
      t.uniform_costs = true;
      t.heavy_cost_share = 0.3;
      break;
    default:
      break;
  }
  return shape;
}

AsShape background_shape(std::uint32_t asn, util::Rng& rng) {
  AsShape shape;
  auto& t = shape.topo;
  t.asn = asn;

  // Background Tier-1s (ASN < 200) carry a large share of transit traffic;
  // keep them mono-path-ish so the global class mix stays Mono-LSP-heavy
  // (paper: ~56% of IOTPs have width 1).
  if (asn < 200) {
    t.core_routers = 8 + static_cast<int>(rng.below(3));
    t.pop_routers = 20 + static_cast<int>(rng.below(10));
    t.border_share = 0.5;
    t.juniper_share = rng.uniform01();
    t.shortcut_share = rng.uniform01() * 0.15;
    t.core_chord_prob = 0.08;
    switch (asn % 3) {
      case 0:
        shape.archetype = MplsArchetype::kLdpMono;
        t.uniform_costs = false;
        t.parallel_link_prob = 0.02;
        break;
      case 1:
        shape.archetype = MplsArchetype::kNoMpls;
        break;
      default:
        shape.archetype = MplsArchetype::kTeMixed;
        t.uniform_costs = false;
        t.parallel_link_prob = 0.05;
        break;
    }
    if (shape.archetype != MplsArchetype::kNoMpls) {
      shape.adopt_cycle = rng.chance(0.5) ? -1 : static_cast<int>(rng.below(36));
    }
    return shape;
  }
  t.core_routers = 5 + static_cast<int>(rng.below(6));
  t.pop_routers = 8 + static_cast<int>(rng.below(16));
  t.border_share = 0.35 + rng.uniform01() * 0.3;
  t.juniper_share = rng.uniform01();
  t.shortcut_share = rng.uniform01() * 0.15;
  t.core_chord_prob = 0.06 + rng.uniform01() * 0.08;

  // Archetype mix tuned so that, globally, LDP (with and without ECMP)
  // dominates and TE stays ~20% of IOTPs (paper Fig. 6(b)).
  const double draw = rng.uniform01();
  if (draw < 0.48) {
    shape.archetype = MplsArchetype::kNoMpls;
  } else if (draw < 0.74) {
    shape.archetype = MplsArchetype::kLdpMono;
    t.uniform_costs = false;
    t.parallel_link_prob = 0.02;
  } else if (draw < 0.84) {
    shape.archetype = MplsArchetype::kLdpEcmp;
    t.uniform_costs = true;
    t.parallel_link_prob = 0.1 + rng.uniform01() * 0.3;
    t.heavy_cost_share = 0.15 + rng.uniform01() * 0.2;
  } else if (draw < 0.95) {
    shape.archetype = MplsArchetype::kTeMixed;
    t.uniform_costs = rng.chance(0.5);
    t.parallel_link_prob = rng.uniform01() * 0.2;
  } else {
    shape.archetype = MplsArchetype::kTeDynamic;
    t.uniform_costs = false;
    t.juniper_share = 0.9;
  }

  // Staggered adoption dates drive the global growth of Fig. 5; a few ASes
  // adopt before the observation window, a few late, a couple retire.
  if (shape.archetype != MplsArchetype::kNoMpls) {
    shape.adopt_cycle =
        rng.chance(0.45) ? -1 : static_cast<int>(rng.below(48));
    if (rng.chance(0.08)) {
      shape.retire_cycle = 45 + static_cast<int>(rng.below(15));
    }
  }
  return shape;
}

}  // namespace mum::gen
