// Tests for the failure/reconvergence machinery: SPF with excluded links,
// RSVP-TE re-signalling over new routes, LER-enablement gating, and the
// month-context failure application.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "dataset/warts_lite.h"
#include "gen/campaign.h"
#include "gen/internet.h"
#include "gen/profiles.h"
#include "igp/spf.h"
#include "mpls/rsvp.h"
#include "probe/forwarder.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mum {
namespace {

using topo::AsTopology;
using topo::RouterId;
using topo::Vendor;

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

// Diamond: a-b-d / a-c-d, all cost 1.
struct Diamond {
  Diamond() : topo(1) {
    a = topo.add_router(ip(1), Vendor::kJuniper, true);
    b = topo.add_router(ip(2), Vendor::kJuniper, false);
    c = topo.add_router(ip(3), Vendor::kJuniper, false);
    d = topo.add_router(ip(4), Vendor::kJuniper, true);
    ab = topo.add_link(a, b, ip(101), ip(102), 1);
    ac = topo.add_link(a, c, ip(103), ip(104), 1);
    bd = topo.add_link(b, d, ip(105), ip(106), 1);
    cd = topo.add_link(c, d, ip(107), ip(108), 1);
  }
  AsTopology topo;
  RouterId a, b, c, d;
  topo::LinkId ab, ac, bd, cd;
};

TEST(SpfLinkDown, FailureRemovesEcmpBranch) {
  Diamond f;
  igp::LinkOverlay down;
  down.down.assign(f.topo.link_count(), false);
  down.down[f.ab] = true;
  const auto igp = igp::IgpState::compute(f.topo, down);
  const auto& nhs = igp.column(f.d).nexthops(f.a);
  ASSERT_EQ(nhs.size(), 1u);
  EXPECT_EQ(nhs[0].neighbor, f.c);
  EXPECT_EQ(igp.column(f.d).distance(f.a), 2u);
}

TEST(SpfLinkDown, FailureLengthensPath) {
  Diamond f;
  igp::LinkOverlay down;
  down.down.assign(f.topo.link_count(), false);
  down.down[f.ab] = true;
  down.down[f.ac] = true;
  const auto igp = igp::IgpState::compute(f.topo, down);
  EXPECT_FALSE(igp.column(f.d).reachable(f.a));  // both arms cut
}

TEST(SpfLinkDown, NullFailureVectorMatchesBase) {
  Diamond f;
  const auto base = igp::IgpState::compute(f.topo);
  igp::LinkOverlay none;
  none.down.assign(f.topo.link_count(), false);
  const auto same = igp::IgpState::compute(f.topo, none);
  for (RouterId s = 0; s < f.topo.router_count(); ++s) {
    for (RouterId t = 0; t < f.topo.router_count(); ++t) {
      EXPECT_EQ(base.column(t).distance(s), same.column(t).distance(s));
    }
  }
}

TEST(RsvpResignal, CrossesDownLinkDetection) {
  Diamond f;
  const auto igp = igp::IgpState::compute(f.topo);
  mpls::RsvpConfig config;
  config.diverse_route_prob = 0.0;
  mpls::RsvpTePlane plane(&f.topo, &igp, config);
  std::vector<mpls::LabelPool> pools(4, mpls::LabelPool(Vendor::kJuniper));
  util::Rng rng(1);
  const auto ids = plane.signal(f.a, f.d, 1, pools, rng);
  ASSERT_EQ(ids.size(), 1u);

  std::vector<bool> down(f.topo.link_count(), false);
  // LSP takes a->?->d; mark whichever first link it uses as down.
  const auto first_link = plane.hops(ids[0])[0].in_link;
  down[first_link] = true;
  EXPECT_TRUE(plane.crosses_down_link(ids[0], down));
  down[first_link] = false;
  EXPECT_FALSE(plane.crosses_down_link(ids[0], down));
}

TEST(RsvpResignal, ResignalOverNewRouteChangesPathAndLabels) {
  Diamond f;
  const auto igp = igp::IgpState::compute(f.topo);
  mpls::RsvpTePlane plane(&f.topo, &igp, {});
  std::vector<mpls::LabelPool> pools(4, mpls::LabelPool(Vendor::kJuniper));
  util::Rng rng(1);
  const auto ids = plane.signal(f.a, f.d, 1, pools, rng);
  // Re-route via the other arm.
  const RouterId old_mid = plane.hops(ids[0])[0].router;
  const RouterId new_mid = old_mid == f.b ? f.c : f.b;
  const topo::LinkId l1 = old_mid == f.b ? f.ac : f.ab;
  const topo::LinkId l2 = old_mid == f.b ? f.cd : f.bd;
  plane.resignal_over(ids[0], {l1, l2}, pools);
  const auto after = plane.hops(ids[0]);
  EXPECT_EQ(after[0].router, new_mid);
  EXPECT_EQ(after.back().router, f.d);
  EXPECT_EQ(plane.lsp(ids[0]).resignal_count, 1u);
}

TEST(RsvpResignal, EmptyRouteIsNoop) {
  Diamond f;
  const auto igp = igp::IgpState::compute(f.topo);
  mpls::RsvpTePlane plane(&f.topo, &igp, {});
  std::vector<mpls::LabelPool> pools(4, mpls::LabelPool(Vendor::kJuniper));
  util::Rng rng(1);
  const auto ids = plane.signal(f.a, f.d, 1, pools, rng);
  const std::size_t hops_before = plane.hops(ids[0]).size();
  plane.resignal_over(ids[0], {}, pools);
  EXPECT_EQ(plane.lsp(ids[0]).resignal_count, 0u);
  EXPECT_EQ(plane.hops(ids[0]).size(), hops_before);
}

// --- LER gating ---------------------------------------------------------

TEST(LerGating, FullShareAlwaysEnabled) {
  probe::AsDataPlane plane;
  plane.ler_share = 1.0;
  for (RouterId r = 0; r < 64; ++r) {
    EXPECT_TRUE(probe::ler_enabled(plane, r));
  }
}

TEST(LerGating, ZeroShareAlwaysDisabled) {
  probe::AsDataPlane plane;
  plane.ler_share = 0.0;
  for (RouterId r = 0; r < 64; ++r) {
    EXPECT_FALSE(probe::ler_enabled(plane, r));
  }
}

TEST(LerGating, ShareApproximatesFraction) {
  probe::AsDataPlane plane;
  plane.ler_share = 0.4;
  plane.ler_salt = 99;
  int enabled = 0;
  const int n = 4000;
  for (RouterId r = 0; r < static_cast<RouterId>(n); ++r) {
    enabled += probe::ler_enabled(plane, r) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(enabled) / n, 0.4, 0.04);
}

TEST(LerGating, MonotoneInShare) {
  // A router enabled at share s stays enabled at any s' > s.
  probe::AsDataPlane lo, hi;
  lo.ler_share = 0.3;
  hi.ler_share = 0.7;
  lo.ler_salt = hi.ler_salt = 7;
  for (RouterId r = 0; r < 500; ++r) {
    if (probe::ler_enabled(lo, r)) {
      EXPECT_TRUE(probe::ler_enabled(hi, r));
    }
  }
}

// --- MonthContext failures ----------------------------------------------

gen::GenConfig small_config() {
  gen::GenConfig c;
  c.background_tier1 = 1;
  c.background_transit = 6;
  c.stub_ases = 8;
  c.monitors = 4;
  c.dests_per_monitor = 60;
  return c;
}

TEST(MonthFailures, FailuresMonotoneWithinMonth) {
  // A link down at sub s stays down at sub s' > s, so the set of ASes with
  // an IGP override can only grow within a month.
  gen::GenConfig config = small_config();
  config.as_maintenance_prob = 1.0;
  config.link_fail_prob = 0.3;
  gen::Internet internet(config);
  gen::MonthContext ctx = internet.instantiate(50);

  auto overridden = [&](int sub) {
    ctx.apply_flaps(sub, 0.0);
    std::set<std::uint32_t> out;
    for (const std::uint32_t asn : internet.modeled_asns()) {
      const auto* plane = ctx.plane_of(asn);
      const auto* base = &internet.modeled(asn)->igp;
      if (plane->igp != base) out.insert(asn);
    }
    return out;
  };
  const auto at0 = overridden(0);
  const auto at2 = overridden(2);
  for (const std::uint32_t asn : at0) {
    EXPECT_TRUE(at2.contains(asn)) << "AS" << asn;
  }
  EXPECT_GE(at2.size(), at0.size());
}

TEST(MonthFailures, NoMaintenanceNoOverride) {
  gen::GenConfig config = small_config();
  config.as_maintenance_prob = 0.0;
  gen::Internet internet(config);
  gen::MonthContext ctx = internet.instantiate(50);
  ctx.apply_flaps(2, 0.0);
  for (const std::uint32_t asn : internet.modeled_asns()) {
    EXPECT_EQ(ctx.plane_of(asn)->igp, &internet.modeled(asn)->igp);
  }
}

// Per-AS RSVP state a failure snapshot leaves behind: every LSP's active
// hops (routers, links, labels) and re-signal count.
std::vector<std::vector<std::pair<std::vector<mpls::TeHop>, std::uint32_t>>>
rsvp_state(const gen::Internet& internet, const gen::MonthContext& ctx) {
  std::vector<std::vector<std::pair<std::vector<mpls::TeHop>, std::uint32_t>>>
      out;
  for (const std::uint32_t asn : internet.modeled_asns()) {
    out.emplace_back();
    const probe::AsDataPlane* plane = ctx.plane_of(asn);
    if (plane == nullptr || plane->rsvp == nullptr) continue;
    for (const mpls::TeLsp& lsp : plane->rsvp->lsps()) {
      const auto hops = plane->rsvp->active_hops(lsp.id);
      out.back().emplace_back(
          std::vector<mpls::TeHop>(hops.begin(), hops.end()),
          lsp.resignal_count);
    }
  }
  return out;
}

// The runner reconverges failure snapshots only for the egress columns its
// plans walk toward. A TE LSP re-signalled around a failure is routed on
// the post-failure IGP toward ITS egress, which need not be a plan egress:
// apply_flaps must add those egresses to the demand, or the re-signal reads
// a column the state does not hold (and throws).
TEST(MonthFailures, RunnerDemandCoversReSignalledEgresses) {
  gen::GenConfig config = small_config();
  config.as_maintenance_prob = 1.0;
  config.link_fail_prob = 0.1;
  const gen::Internet internet(config);
  const dataset::Ip2As ip2as = internet.build_ip2as();
  const gen::CampaignRunner runner(internet, ip2as);
  const gen::EgressDemand& demand = runner.egress_demand();
  ASSERT_EQ(demand.size(), internet.modeled_asns().size());
  constexpr int kCycle = 50;
  const double flap = config.ecmp_flap_prob;

  // Premise: at some sub-index, an AS without fast reroute re-signals an
  // LSP whose egress no plan segment ends at.
  int sub = -1;
  for (int s = 1; s <= 2 && sub < 0; ++s) {
    gen::MonthContext ctx = internet.instantiate(kCycle);
    const auto before = rsvp_state(internet, ctx);
    ctx.apply_flaps(s, flap);
    const auto after = rsvp_state(internet, ctx);
    const auto asns = internet.modeled_asns();
    for (std::size_t i = 0; i < asns.size() && sub < 0; ++i) {
      const gen::ModeledAs& as = *internet.modeled(asns[i]);
      if (gen::profile_at(asns[i], as.shape, kCycle, 1).te_frr) continue;
      const mpls::RsvpTePlane* rsvp = ctx.plane_of(asns[i])->rsvp;
      for (std::size_t l = 0; l < after[i].size(); ++l) {
        const topo::RouterId egress = rsvp->lsp(l).egress;
        if (after[i][l].second > before[i][l].second &&
            !std::binary_search(demand[as.index].begin(),
                                demand[as.index].end(), egress)) {
          sub = s;
          break;
        }
      }
    }
  }
  ASSERT_GE(sub, 1) << "no re-signal toward a non-plan egress to test";

  // The runner's demand leaves the same RSVP hops and labels as the
  // all-router demand...
  gen::MonthContext with_demand = internet.instantiate(kCycle);
  gen::MonthContext with_all = internet.instantiate(kCycle);
  with_demand.apply_flaps(sub, flap, demand);
  with_all.apply_flaps(sub, flap);
  EXPECT_EQ(rsvp_state(internet, with_demand), rsvp_state(internet, with_all));

  // ...and the same snapshot: probing a context whose re-signal ran under
  // the runner's demand (inside snapshot()) gives the bytes of one whose
  // re-signal ran under the all-router demand beforehand.
  gen::MonthContext fresh = internet.instantiate(kCycle);
  EXPECT_EQ(dataset::serialize_snapshot(runner.snapshot(fresh, kCycle, sub)),
            dataset::serialize_snapshot(
                runner.snapshot(with_all, kCycle, sub)));
}

// apply_flaps fans out one task per AS over the context's pool. Each task
// writes only its own AS's state, so a 4-thread context must end every
// failure snapshot exactly where a serial one does: the same RSVP hops,
// labels and re-signal counts, the same ECMP salts, the same demanded IGP
// columns, and the same snapshot bytes through a pooled runner.
TEST(MonthFailures, FanOutMatchesSerial) {
  gen::GenConfig config = small_config();
  config.as_maintenance_prob = 1.0;
  config.link_fail_prob = 0.3;
  const gen::Internet internet(config);
  const dataset::Ip2As ip2as = internet.build_ip2as();
  util::ThreadPool pool4(4);
  const gen::CampaignRunner serial_runner(internet, ip2as);
  const gen::CampaignRunner pooled_runner(internet, ip2as, {}, &pool4);
  constexpr int kCycle = 50;
  const double flap = config.ecmp_flap_prob;

  for (const bool all_routers : {false, true}) {
    const gen::EgressDemand demand =
        all_routers ? gen::EgressDemand{} : serial_runner.egress_demand();
    for (int sub = 0; sub <= 2; ++sub) {
      SCOPED_TRACE("all_routers=" + std::to_string(all_routers) +
                   " sub=" + std::to_string(sub));
      gen::MonthContext fanned = internet.instantiate(kCycle, 1, &pool4);
      gen::MonthContext serial = internet.instantiate(kCycle);
      fanned.apply_flaps(sub, flap, demand);
      serial.apply_flaps(sub, flap, demand);
      EXPECT_EQ(rsvp_state(internet, fanned), rsvp_state(internet, serial));
      for (const std::uint32_t asn : internet.modeled_asns()) {
        const gen::ModeledAs& as = *internet.modeled(asn);
        const probe::AsDataPlane& a = *fanned.plane_of(asn);
        const probe::AsDataPlane& b = *serial.plane_of(asn);
        EXPECT_EQ(a.ecmp_salts, b.ecmp_salts) << "AS" << asn;
        for (topo::RouterId e = 0; e < as.topo.router_count(); ++e) {
          if (!all_routers &&
              !std::binary_search(demand[as.index].begin(),
                                  demand[as.index].end(), e)) {
            continue;
          }
          EXPECT_TRUE(a.igp->column(e) == b.igp->column(e))
              << "AS" << asn << " egress " << e;
        }
      }
      EXPECT_EQ(dataset::serialize_snapshot(
                    pooled_runner.snapshot(fanned, kCycle, sub)),
                dataset::serialize_snapshot(
                    serial_runner.snapshot(serial, kCycle, sub)));
    }
  }
}

TEST(MonthFailures, CampaignSurvivesHeavyFailures) {
  // Even with aggressive failures, the campaign must produce annotatable
  // traces (walks truncate gracefully, never crash or loop).
  gen::GenConfig config = small_config();
  config.as_maintenance_prob = 1.0;
  config.link_fail_prob = 0.5;
  gen::Internet internet(config);
  const auto ip2as = internet.build_ip2as();
  const auto month = gen::CampaignRunner(internet, ip2as).month(50);
  EXPECT_GT(month.cycle().trace_count(), 100u);
}

}  // namespace
}  // namespace mum
