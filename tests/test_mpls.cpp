#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "mpls/label_pool.h"
#include "mpls/ldp.h"
#include "mpls/rsvp.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace mum::mpls {
namespace {

using topo::AsTopology;
using topo::RouterId;
using topo::Vendor;

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

// --- LabelPool ----------------------------------------------------------

TEST(LabelPool, SequentialAllocation) {
  LabelPool pool(LabelRange{100, 105});
  EXPECT_EQ(pool.allocate(), 100u);
  EXPECT_EQ(pool.allocate(), 101u);
  EXPECT_EQ(pool.allocated(), 2u);
}

TEST(LabelPool, WrapsAtRangeEnd) {
  LabelPool pool(LabelRange{100, 102});
  pool.allocate();  // 100
  pool.allocate();  // 101
  pool.allocate();  // 102
  EXPECT_EQ(pool.allocate(), 100u);  // the Fig. 17 sawtooth wrap
}

TEST(LabelPool, VendorDefaultRanges) {
  EXPECT_EQ(default_range(Vendor::kCisco).first, 16u);
  EXPECT_EQ(default_range(Vendor::kCisco).last, 100000u);
  // Juniper window matches the Fig. 17 observable range.
  EXPECT_EQ(default_range(Vendor::kJuniper).first, 300000u);
  EXPECT_EQ(default_range(Vendor::kJuniper).last, 800000u);
}

TEST(LabelPool, VendorPoolsDontCollide) {
  LabelPool cisco(Vendor::kCisco), juniper(Vendor::kJuniper);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(cisco.allocate(), 300000u);
    EXPECT_GE(juniper.allocate(), 300000u);
  }
}

// --- LDP ----------------------------------------------------------------

// a - b - c (line). c and a are borders.
struct LineFixture {
  LineFixture() : topo(1) {
    a = topo.add_router(ip(1), Vendor::kCisco, true);
    b = topo.add_router(ip(2), Vendor::kCisco, false);
    c = topo.add_router(ip(3), Vendor::kCisco, true);
    topo.add_link(a, b, ip(101), ip(102), 1);
    topo.add_link(b, c, ip(103), ip(104), 1);
    igp = igp::IgpState::compute(topo);
    for (std::size_t i = 0; i < topo.router_count(); ++i) {
      pools.emplace_back(Vendor::kCisco);
    }
  }
  AsTopology topo;
  igp::IgpState igp;
  std::vector<LabelPool> pools;
  RouterId a, b, c;
};

// True when some router of the line binds a label for `fec`, i.e. an
// LSP-tree exists toward it.
bool bound_anywhere(const LdpPlane& plane, const LineFixture& f,
                    RouterId fec) {
  for (const RouterId r : {f.a, f.b, f.c}) {
    if (plane.label_of(r, fec) != LdpPlane::kNoLabel) return true;
  }
  return false;
}

TEST(Ldp, BordersGetFecsByDefault) {
  LineFixture f;
  const LdpPlane plane = LdpPlane::build(f.topo, f.igp, {}, f.pools);
  EXPECT_TRUE(bound_anywhere(plane, f, f.a));
  EXPECT_FALSE(bound_anywhere(plane, f, f.b));  // not a border
  EXPECT_TRUE(bound_anywhere(plane, f, f.c));
}

TEST(Ldp, AllLoopbacksModeBindsEverything) {
  LineFixture f;
  LdpConfig config;
  config.fec_all_loopbacks = true;
  const LdpPlane plane = LdpPlane::build(f.topo, f.igp, config, f.pools);
  EXPECT_TRUE(bound_anywhere(plane, f, f.b));
}

TEST(Ldp, PhpAdvertisesImplicitNullAtEgress) {
  LineFixture f;
  const LdpPlane plane = LdpPlane::build(f.topo, f.igp, {}, f.pools);
  EXPECT_EQ(plane.label_of(f.c, f.c), net::kLabelImplicitNull);
}

TEST(Ldp, NoPhpAllocatesRealLabelAtEgress) {
  LineFixture f;
  LdpConfig config;
  config.php = false;
  const LdpPlane plane = LdpPlane::build(f.topo, f.igp, config, f.pools);
  EXPECT_GE(plane.label_of(f.c, f.c), net::kLabelFirstUnreserved);
}

TEST(Ldp, TransitRoutersGetRealLabels) {
  LineFixture f;
  const LdpPlane plane = LdpPlane::build(f.topo, f.igp, {}, f.pools);
  const auto label_b = plane.label_of(f.b, f.c);
  const auto label_a = plane.label_of(f.a, f.c);
  EXPECT_GE(label_b, net::kLabelFirstUnreserved);
  EXPECT_GE(label_a, net::kLabelFirstUnreserved);
  // Labels are router-local: different routers, independent values.
  EXPECT_NE(label_a, plane.label_of(f.a, f.a));
}

TEST(Ldp, LabelsUniquePerRouterFec) {
  LineFixture f;
  LdpConfig config;
  config.fec_all_loopbacks = true;
  const LdpPlane plane = LdpPlane::build(f.topo, f.igp, config, f.pools);
  // Within one router, each FEC gets a distinct label.
  std::set<std::uint32_t> labels;
  for (const RouterId fec : {f.a, f.b, f.c}) {
    if (fec == f.b) continue;  // own loopback may be implicit-null
    const auto label = plane.label_of(f.b, fec);
    EXPECT_TRUE(labels.insert(label).second);
  }
}

TEST(Ldp, NoLabelForUnboundFec) {
  LineFixture f;
  const LdpPlane plane = LdpPlane::build(f.topo, f.igp, {}, f.pools);
  EXPECT_EQ(plane.label_of(f.a, f.b), LdpPlane::kNoLabel);
}

TEST(Ldp, UnreachableFecUnbound) {
  AsTopology topo(1);
  const auto a = topo.add_router(ip(1), Vendor::kCisco, true);
  const auto b = topo.add_router(ip(2), Vendor::kCisco, true);
  (void)b;
  const auto igp = igp::IgpState::compute(topo);
  std::vector<LabelPool> pools(2, LabelPool(Vendor::kCisco));
  const LdpPlane plane = LdpPlane::build(topo, igp, {}, pools);
  EXPECT_EQ(plane.label_of(a, 1), LdpPlane::kNoLabel);
}

// --- RSVP-TE ------------------------------------------------------------

struct DiamondFixture {
  DiamondFixture() : topo(1) {
    a = topo.add_router(ip(1), Vendor::kJuniper, true);
    b = topo.add_router(ip(2), Vendor::kJuniper, false);
    c = topo.add_router(ip(3), Vendor::kJuniper, false);
    d = topo.add_router(ip(4), Vendor::kJuniper, true);
    topo.add_link(a, b, ip(101), ip(102), 1);
    topo.add_link(a, c, ip(103), ip(104), 1);
    topo.add_link(b, d, ip(105), ip(106), 1);
    topo.add_link(c, d, ip(107), ip(108), 1);
    igp = igp::IgpState::compute(topo);
    for (std::size_t i = 0; i < topo.router_count(); ++i) {
      pools.emplace_back(Vendor::kJuniper);
    }
  }
  AsTopology topo;
  igp::IgpState igp;
  std::vector<LabelPool> pools;
  RouterId a, b, c, d;
};

TEST(Rsvp, SignalsRequestedNumberOfLsps) {
  DiamondFixture f;
  RsvpTePlane plane(&f.topo, &f.igp, {});
  util::Rng rng(1);
  const auto ids = plane.signal(f.a, f.d, 3, f.pools, rng);
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(plane.lsp_count(), 3u);
  const auto between = std::count_if(
      plane.lsps().begin(), plane.lsps().end(), [&](const TeLsp& lsp) {
        return lsp.ingress == f.a && lsp.egress == f.d;
      });
  EXPECT_EQ(between, 3);
}

TEST(Rsvp, LspEndsAtEgress) {
  DiamondFixture f;
  RsvpTePlane plane(&f.topo, &f.igp, {});
  util::Rng rng(1);
  const auto ids = plane.signal(f.a, f.d, 1, f.pools, rng);
  const auto hops = plane.hops(ids[0]);
  ASSERT_FALSE(hops.empty());
  EXPECT_EQ(hops.back().router, f.d);
  EXPECT_EQ(plane.lsp(ids[0]).ingress, f.a);
}

TEST(Rsvp, PhpGivesImplicitNullAtEgressOnly) {
  DiamondFixture f;
  RsvpTePlane plane(&f.topo, &f.igp, {});
  util::Rng rng(1);
  const auto ids = plane.signal(f.a, f.d, 1, f.pools, rng);
  const auto hops = plane.hops(ids[0]);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (i + 1 == hops.size()) {
      EXPECT_EQ(hops[i].in_label, net::kLabelImplicitNull);
    } else {
      EXPECT_GE(hops[i].in_label, net::kLabelFirstUnreserved);
    }
  }
}

TEST(Rsvp, NoPhpAllocatesEgressLabel) {
  DiamondFixture f;
  RsvpConfig config;
  config.php = false;
  RsvpTePlane plane(&f.topo, &f.igp, config);
  util::Rng rng(1);
  const auto ids = plane.signal(f.a, f.d, 1, f.pools, rng);
  EXPECT_GE(plane.hops(ids[0]).back().in_label,
            net::kLabelFirstUnreserved);
}

TEST(Rsvp, PerLspLabelsDiffer) {
  // Two LSPs over the same route must carry different labels at shared
  // routers — the Multi-FEC signature.
  DiamondFixture f;
  RsvpConfig config;
  config.diverse_route_prob = 0.0;  // force same route
  RsvpTePlane plane(&f.topo, &f.igp, config);
  util::Rng rng(1);
  const auto ids = plane.signal(f.a, f.d, 2, f.pools, rng);
  const auto l1 = plane.hops(ids[0]);
  const auto l2 = plane.hops(ids[1]);
  ASSERT_EQ(l1.size(), l2.size());
  ASSERT_GE(l1.size(), 2u);
  EXPECT_EQ(l1[0].router, l2[0].router);  // same route
  EXPECT_NE(l1[0].in_label, l2[0].in_label);
}

TEST(Rsvp, ComputeRouteVariantZeroFollowsIgp) {
  DiamondFixture f;
  RsvpTePlane plane(&f.topo, &f.igp, {});
  const auto route = plane.compute_route(f.a, f.d, 0);
  ASSERT_EQ(route.size(), 2u);  // a -> {b|c} -> d
}

TEST(Rsvp, ComputeRouteUnreachableEmpty) {
  AsTopology topo(1);
  const auto a = topo.add_router(ip(1), Vendor::kCisco, true);
  const auto b = topo.add_router(ip(2), Vendor::kCisco, true);
  const auto igp = igp::IgpState::compute(topo);
  RsvpTePlane plane(&topo, &igp, {});
  EXPECT_TRUE(plane.compute_route(a, b, 0).empty());
}

TEST(Rsvp, DiverseVariantsCanDiffer) {
  DiamondFixture f;
  RsvpTePlane plane(&f.topo, &f.igp, {});
  std::set<std::vector<topo::LinkId>> routes;
  for (std::uint32_t v = 0; v < 8; ++v) {
    routes.insert(plane.compute_route(f.a, f.d, v));
  }
  EXPECT_GE(routes.size(), 2u);  // the diamond offers two ECMP routes
}

TEST(Rsvp, ReoptimizeKeepsRouteChangesLabels) {
  DiamondFixture f;
  RsvpTePlane plane(&f.topo, &f.igp, {});
  util::Rng rng(1);
  const auto ids = plane.signal(f.a, f.d, 1, f.pools, rng);
  const auto signed_hops = plane.hops(ids[0]);
  const std::vector<TeHop> before(signed_hops.begin(), signed_hops.end());
  plane.reoptimize(ids[0], f.pools);
  const auto after = plane.hops(ids[0]);
  ASSERT_EQ(before.size(), after.size());
  EXPECT_EQ(plane.lsp(ids[0]).resignal_count, 1u);
  bool some_label_changed = false;
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].router, after[i].router);
    EXPECT_EQ(before[i].in_link, after[i].in_link);
    if (before[i].in_label != after[i].in_label) {
      some_label_changed = true;
    }
  }
  EXPECT_TRUE(some_label_changed);
}

TEST(Rsvp, ReoptimizedLabelsGrowUntilWrap) {
  // Juniper-style monotone label consumption (Fig. 17 sawtooth).
  DiamondFixture f;
  RsvpTePlane plane(&f.topo, &f.igp, {});
  util::Rng rng(1);
  const auto ids = plane.signal(f.a, f.d, 1, f.pools, rng);
  std::uint32_t prev = plane.hops(ids[0])[0].in_label;
  for (int i = 0; i < 5; ++i) {
    plane.reoptimize(ids[0], f.pools);
    const std::uint32_t cur = plane.hops(ids[0])[0].in_label;
    EXPECT_GT(cur, prev);  // far from the wrap point in this test
    prev = cur;
  }
}

}  // namespace
}  // namespace mum::mpls
