// Per-AS MPLS deployment profiles and their evolution over the 60 monthly
// cycles (January 2010 .. December 2014).
//
// A profile snapshot says, for one AS at one point in time, how MPLS is
// configured: whether LDP and/or RSVP-TE run, which share of destination
// prefixes is labelled, how many TE LSPs a LER pair gets, whether labels
// churn ("dynamic" ASes), and which visibility options (ttl-propagate,
// RFC 4950) are on. The five case-study ASes of the paper's Sec. 4.4 are
// scripted so their longitudinal stories can be regenerated; background
// transit ASes draw an archetype + adoption date from a seeded RNG.
#pragma once

#include <cstdint>
#include <string>

#include "topo/builder.h"
#include "util/rng.h"

namespace mum::gen {

// Well-known ASNs used by the case studies (paper Figs. 10-16, Table 2).
inline constexpr std::uint32_t kAsnVodafone = 1273;
inline constexpr std::uint32_t kAsnAtt = 7018;
inline constexpr std::uint32_t kAsnTata = 6453;
inline constexpr std::uint32_t kAsnNtt = 2914;
inline constexpr std::uint32_t kAsnLevel3 = 3356;

inline constexpr int kCycles = 60;            // Jan 2010 .. Dec 2014
inline constexpr int kFirstYear = 2010;

// "YYYY-MM" for a 0-based cycle index.
std::string cycle_date(int cycle);
// 0-based cycle index of a (year, month).
int cycle_of(int year, int month);

// Deployment archetypes. Case-study ASes get bespoke timelines; background
// ASes get one of these.
enum class MplsArchetype : std::uint8_t {
  kNoMpls,        // plain IP transit
  kLdpMono,       // LDP, topology with unique shortest paths => Mono-LSP
  kLdpEcmp,       // LDP over rich ECMP => Mono-FEC (disjoint + parallel)
  kTeMixed,       // LDP base + RSVP-TE on a share of LER pairs
  kTeDynamic,     // RSVP-TE with frequent re-optimization (dynamic labels)
};

struct ProfileSnapshot {
  bool mpls_enabled = false;
  double mpls_coverage = 1.0;   // share of labelled destination prefixes
  // Share of border routers acting as MPLS ingress LERs (deployment
  // breadth; rollouts enable LERs incrementally, which is what grows the
  // IOTP population of an AS over time).
  double ler_share = 1.0;
  bool ldp = true;
  bool php = true;
  bool ttl_propagate = true;    // off => invisible/implicit tunnels
  bool rfc4950 = true;
  bool fec_all_loopbacks = false;  // Cisco-style LDP default
  // RSVP-TE knobs.
  double te_pair_share = 0.0;   // share of border pairs carrying TE LSPs
  int te_lsps_min = 2;
  int te_lsps_max = 4;
  double te_share = 0.9;        // share of prefixes steered into TE LSPs
  double te_diverse_route_prob = 0.25;
  // RFC 4090 fast reroute: failures switch LSPs to pre-signalled backups
  // (stable labels) instead of re-signalling with fresh ones.
  bool te_frr = false;
  // LDP-over-RSVP: share of <ingress, egress> pairs whose LDP traffic rides
  // a TE hub tunnel into the core (2-entry label stacks on the wire).
  double ldp_over_te_share = 0.0;
  bool dynamic_labels = false;  // re-signal between snapshots (Sec. 4.5)
};

// Static (time-invariant) shape of an AS: topology sizing knobs.
struct AsShape {
  topo::BuildParams topo;
  MplsArchetype archetype = MplsArchetype::kNoMpls;
  // Background ASes: cycle at which MPLS turns on (-1 = from the start,
  // kCycles = never) and optional cycle at which it turns off.
  int adopt_cycle = -1;
  int retire_cycle = kCycles + 1;

  // --- scale-campaign overrides (set by the Internet `--scale` knobs) ------
  // When `scaled`, the TE overrides (if >= 0 / > 0) pin the pair share and
  // per-pair LSP count so the fleet hits a global TE LSP target.
  bool scaled = false;
  double te_pair_share_override = -1.0;
  int te_lsps_override = -1;
};

// Profile of one AS at (cycle, day_of_month). The day matters only for ramp
// months (Fig. 16: Level3 deploys incrementally across April 2012).
ProfileSnapshot profile_at(std::uint32_t asn, const AsShape& shape, int cycle,
                           int day_of_month = 1);

// Topology + archetype for the five case-study ASes.
AsShape case_study_shape(std::uint32_t asn);

// Topology + archetype for a background transit AS (draws from `rng`).
AsShape background_shape(std::uint32_t asn, util::Rng& rng);

}  // namespace mum::gen
