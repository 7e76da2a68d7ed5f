#include "probe/forwarder.h"

#include <gtest/gtest.h>

#include <set>

#include "mpls/ldp.h"
#include "mpls/rsvp.h"
#include "util/rng.h"

namespace mum::probe {
namespace {

using topo::AsTopology;
using topo::RouterId;
using topo::Vendor;

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

// A reusable AS fixture: diamond + parallel bundle on one arm.
//
//        b
//      /   \       a=ingress border, d=egress border
//    a       d     (a-c is a 2-link bundle)
//      \\   /
//        c
struct PlaneFixture {
  PlaneFixture() : topo(65001) {
    a = topo.add_router(ip(0x10000001), Vendor::kCisco, true);
    b = topo.add_router(ip(0x10000002), Vendor::kCisco, false);
    c = topo.add_router(ip(0x10000003), Vendor::kCisco, false);
    d = topo.add_router(ip(0x10000004), Vendor::kCisco, true);
    ab = topo.add_link(a, b, ip(0x10010001), ip(0x10010002), 1);
    ac1 = topo.add_link(a, c, ip(0x10010003), ip(0x10010004), 1);
    ac2 = topo.add_link(a, c, ip(0x10010005), ip(0x10010006), 1);
    bd = topo.add_link(b, d, ip(0x10010007), ip(0x10010008), 1);
    cd = topo.add_link(c, d, ip(0x10010009), ip(0x1001000A), 1);
    igp = igp::IgpState::compute(topo);
    for (std::size_t i = 0; i < topo.router_count(); ++i) {
      pools.emplace_back(Vendor::kCisco);
    }
    plane.asn = 65001;
    plane.topo = &topo;
    plane.igp = &igp;
  }

  void enable_ldp(bool php = true) {
    mpls::LdpConfig config;
    config.php = php;
    ldp = mpls::LdpPlane::build(topo, igp, config, pools);
    plane.ldp = &*ldp;
  }

  void enable_te(int lsps, double diverse_prob = 0.0) {
    mpls::RsvpConfig config;
    config.diverse_route_prob = diverse_prob;
    rsvp.emplace(&topo, &igp, config);
    util::Rng rng(5);
    const auto ids = rsvp->signal(a, d, lsps, pools, rng);
    plane.rsvp = &*rsvp;
    plane.te_policy.pairs[{a, d}] = ids;
    plane.te_policy.te_share = 1.0;
  }

  SegmentSpec segment() const {
    SegmentSpec seg;
    seg.plane = &plane;
    seg.ingress = a;
    seg.egress = d;
    seg.entry_iface = ip(0x10020000);
    return seg;
  }

  PathSpec path() const {
    PathSpec p;
    p.segments.push_back(segment());
    p.dst = ip(0x20000001);
    return p;
  }

  AsTopology topo;
  igp::IgpState igp;
  std::vector<mpls::LabelPool> pools;
  std::optional<mpls::LdpPlane> ldp;
  std::optional<mpls::RsvpTePlane> rsvp;
  AsDataPlane plane;
  RouterId a, b, c, d;
  topo::LinkId ab, ac1, ac2, bd, cd;
};

TEST(EcmpPick, DeterministicAndInRange) {
  for (std::uint64_t flow = 0; flow < 50; ++flow) {
    const auto pick = ecmp_pick(flow, 3, 99, 4);
    EXPECT_LT(pick, 4u);
    EXPECT_EQ(pick, ecmp_pick(flow, 3, 99, 4));
  }
  EXPECT_EQ(ecmp_pick(123, 1, 1, 1), 0u);
  EXPECT_EQ(ecmp_pick(123, 1, 1, 0), 0u);
}

TEST(EcmpPick, RoutersChooseIndependently) {
  // The same flow must not always take branch 0 at every router.
  std::set<std::size_t> picks;
  for (RouterId r = 0; r < 32; ++r) picks.insert(ecmp_pick(42, r, 7, 2));
  EXPECT_EQ(picks.size(), 2u);
}

TEST(EcmpPick, FlowsSpreadAcrossBranches) {
  int first = 0;
  const int n = 2000;
  for (std::uint64_t flow = 0; flow < n; ++flow) {
    if (ecmp_pick(util::mix64(flow), 5, 9, 2) == 0) ++first;
  }
  EXPECT_NEAR(first, n / 2, n / 10);
}

TEST(Forwarder, PlainIgpWalkShowsNoLabels) {
  PlaneFixture f;  // no LDP, no TE
  const auto result = walk_path(f.path(), /*flow=*/1);
  EXPECT_TRUE(result.reached);
  ASSERT_GE(result.hops.size(), 3u);
  for (const auto& hop : result.hops) EXPECT_TRUE(hop.labels.empty());
}

TEST(Forwarder, EntryHopIsEntryIface) {
  PlaneFixture f;
  const auto result = walk_path(f.path(), 1);
  ASSERT_FALSE(result.hops.empty());
  EXPECT_EQ(result.hops[0].addr, ip(0x10020000));
}

TEST(Forwarder, LdpLabelsAppearOnInteriorHopsOnly) {
  PlaneFixture f;
  f.enable_ldp();
  const auto result = walk_path(f.path(), 1);
  ASSERT_EQ(result.hops.size(), 3u);  // entry, interior, egress
  EXPECT_TRUE(result.hops[0].labels.empty());           // ingress LER
  EXPECT_FALSE(result.hops[1].labels.empty());          // LSR
  EXPECT_TRUE(result.hops[2].labels.empty());           // PHP: egress clean
}

TEST(Forwarder, LdpLabelIsDownstreamAllocated) {
  PlaneFixture f;
  f.enable_ldp();
  const auto result = walk_path(f.path(), 1);
  const auto& interior = result.hops[1];
  // The label shown at a router is the label that router itself advertised
  // for the FEC (egress d).
  const RouterId lsr = f.topo.router_of_addr(interior.addr);
  EXPECT_EQ(interior.labels.top().label(), f.ldp->label_of(lsr, f.d));
}

TEST(Forwarder, NoPhpShowsLabelAtEgress) {
  PlaneFixture f;
  f.enable_ldp(/*php=*/false);
  const auto result = walk_path(f.path(), 1);
  ASSERT_EQ(result.hops.size(), 3u);
  EXPECT_FALSE(result.hops[2].labels.empty());
  EXPECT_EQ(result.hops[2].labels.top().label(),
            f.ldp->label_of(f.d, f.d));
}

TEST(Forwarder, DifferentFlowsExploreEcmpBranches) {
  PlaneFixture f;
  f.enable_ldp();
  std::set<net::Ipv4Addr> interior_addrs;
  for (std::uint64_t flow = 0; flow < 64; ++flow) {
    const auto result = walk_path(f.path(), util::mix64(flow));
    ASSERT_EQ(result.hops.size(), 3u);
    interior_addrs.insert(result.hops[1].addr);
  }
  // Branches via b, via c-link1 and via c-link2 are all reachable.
  EXPECT_GE(interior_addrs.size(), 3u);
}

TEST(Forwarder, SameFlowAlwaysSamePath) {
  PlaneFixture f;
  f.enable_ldp();
  const auto r1 = walk_path(f.path(), 777);
  const auto r2 = walk_path(f.path(), 777);
  ASSERT_EQ(r1.hops.size(), r2.hops.size());
  for (std::size_t i = 0; i < r1.hops.size(); ++i) {
    EXPECT_EQ(r1.hops[i].addr, r2.hops[i].addr);
  }
}

TEST(Forwarder, ParallelLinksShareLdpLabel) {
  PlaneFixture f;
  f.enable_ldp();
  // Find two flows taking the two a-c bundle links.
  std::optional<net::LabelStack> labels1, labels2;
  net::Ipv4Addr addr1, addr2;
  for (std::uint64_t flow = 0; flow < 256; ++flow) {
    const auto result = walk_path(f.path(), util::mix64(flow));
    const auto& hop = result.hops[1];
    if (hop.addr == f.topo.link(f.ac1).iface_of(f.c)) {
      labels1 = hop.labels;
      addr1 = hop.addr;
    } else if (hop.addr == f.topo.link(f.ac2).iface_of(f.c)) {
      labels2 = hop.labels;
      addr2 = hop.addr;
    }
  }
  ASSERT_TRUE(labels1.has_value());
  ASSERT_TRUE(labels2.has_value());
  EXPECT_NE(addr1, addr2);             // different interface addresses...
  EXPECT_EQ(*labels1, *labels2);       // ...same (router-scoped) label
}

TEST(Forwarder, TeLspFollowsSignalledRoute) {
  PlaneFixture f;
  f.enable_ldp();
  f.enable_te(/*lsps=*/1);
  const auto result = walk_path(f.path(), 1);
  const auto te_hops = f.rsvp->hops(0);
  ASSERT_EQ(result.hops.size(), 1 + te_hops.size());
  for (std::size_t i = 0; i < te_hops.size(); ++i) {
    const auto& te_hop = te_hops[i];
    EXPECT_EQ(result.hops[i + 1].addr,
              f.topo.link(te_hop.in_link).iface_of(te_hop.router));
  }
}

TEST(Forwarder, TeLspsGiveDifferentLabelsPerDestination) {
  PlaneFixture f;
  f.enable_ldp();
  f.enable_te(/*lsps=*/3, /*diverse=*/0.0);
  std::set<std::uint32_t> labels_at_interior;
  for (std::uint32_t d = 0; d < 32; ++d) {
    PathSpec p = f.path();
    p.dst = ip(0x20000000 + (d << 8));  // distinct /24s
    const auto result = walk_path(p, 1);
    ASSERT_EQ(result.hops.size(), 3u);
    if (!result.hops[1].labels.empty()) {
      labels_at_interior.insert(result.hops[1].labels.top().label());
    }
  }
  // Three LSPs over the same route: up to 3 distinct labels at the shared
  // interior router — at least 2 must show with 32 destination prefixes.
  EXPECT_GE(labels_at_interior.size(), 2u);
}

TEST(Forwarder, TeShareZeroFallsBackToLdp) {
  PlaneFixture f;
  f.enable_ldp();
  f.enable_te(2);
  f.plane.te_policy.te_share = 0.0;
  const auto result = walk_path(f.path(), 1);
  const RouterId lsr = f.topo.router_of_addr(result.hops[1].addr);
  EXPECT_EQ(result.hops[1].labels.top().label(),
            f.ldp->label_of(lsr, f.d));
}

TEST(Forwarder, CoverageZeroDisablesMpls) {
  PlaneFixture f;
  f.enable_ldp();
  f.plane.mpls_coverage = 0.0;
  const auto result = walk_path(f.path(), 1);
  for (const auto& hop : result.hops) EXPECT_TRUE(hop.labels.empty());
}

TEST(Forwarder, CoverageSelectsDeterministicSubset) {
  PlaneFixture f;
  f.enable_ldp();
  f.plane.mpls_coverage = 0.5;
  int labeled = 0;
  const int n = 400;
  for (int d = 0; d < n; ++d) {
    PathSpec p = f.path();
    p.dst = ip(0x20000000 + (static_cast<std::uint32_t>(d) << 8));
    const bool first = !walk_path(p, 1).hops[1].labels.empty();
    const bool second = !walk_path(p, 1).hops[1].labels.empty();
    EXPECT_EQ(first, second);  // deterministic per destination
    labeled += first ? 1 : 0;
  }
  EXPECT_NEAR(labeled, n / 2, n / 8);
}

TEST(Forwarder, CoverageMonotoneInclusion) {
  // Raising coverage must only add labelled prefixes, never drop them —
  // the property the Fig. 16 ramp relies on.
  PlaneFixture f;
  f.enable_ldp();
  for (int d = 0; d < 100; ++d) {
    PathSpec p = f.path();
    p.dst = ip(0x20000000 + (static_cast<std::uint32_t>(d) << 8));
    f.plane.mpls_coverage = 0.3;
    const bool low = !walk_path(p, 1).hops[1].labels.empty();
    f.plane.mpls_coverage = 0.8;
    const bool high = !walk_path(p, 1).hops[1].labels.empty();
    if (low) {
      EXPECT_TRUE(high);
    }
  }
}

TEST(Forwarder, TtlPropagateOffHidesInteriorLsrs) {
  PlaneFixture f;
  f.enable_ldp();
  f.plane.ttl_propagate = false;
  const auto result = walk_path(f.path(), 1);
  ASSERT_EQ(result.hops.size(), 3u);
  EXPECT_TRUE(result.hops[0].ttl_visible);   // ingress LER (no label yet)
  EXPECT_FALSE(result.hops[1].ttl_visible);  // hidden LSR
  EXPECT_TRUE(result.hops[2].ttl_visible);   // egress after PHP
}

TEST(Forwarder, Rfc4950FlagPropagatedToHops) {
  PlaneFixture f;
  f.enable_ldp();
  f.plane.rfc4950 = false;
  const auto result = walk_path(f.path(), 1);
  for (const auto& hop : result.hops) EXPECT_FALSE(hop.rfc4950);
}

TEST(Forwarder, PreAndPostHopsSurroundSegments) {
  PlaneFixture f;
  PathSpec p = f.path();
  p.pre_hops = {ip(1), ip(2)};
  p.post_hops = {ip(3)};
  const auto result = walk_path(p, 1);
  ASSERT_EQ(result.hops.size(), 2 + 3 + 1u);
  EXPECT_EQ(result.hops[0].addr, ip(1));
  EXPECT_EQ(result.hops[1].addr, ip(2));
  EXPECT_EQ(result.hops.back().addr, ip(3));
}

TEST(Forwarder, SameIngressEgressSegmentIsOneHop) {
  PlaneFixture f;
  PathSpec p = f.path();
  p.segments[0].egress = p.segments[0].ingress;
  const auto result = walk_path(p, 1);
  EXPECT_EQ(result.hops.size(), 1u);
  EXPECT_TRUE(result.reached);
}

TEST(Forwarder, UnreachableEgressTruncatesWalk) {
  PlaneFixture f;
  // Island router unreachable from a.
  const RouterId island =
      f.topo.add_router(ip(0x100000FF), Vendor::kCisco, true);
  f.igp = igp::IgpState::compute(f.topo);  // recompute with the island
  PathSpec p = f.path();
  p.segments[0].egress = island;
  const auto result = walk_path(p, 1);
  EXPECT_FALSE(result.reached);
}

TEST(Forwarder, NullPlaneFailsSafely) {
  PathSpec p;
  SegmentSpec seg;  // null plane
  p.segments.push_back(seg);
  p.dst = ip(1);
  const auto result = walk_path(p, 1);
  EXPECT_FALSE(result.reached);
  EXPECT_TRUE(result.hops.empty());
}

TEST(Forwarder, SilentDestinationNotReached) {
  PlaneFixture f;
  PathSpec p = f.path();
  p.dst_responds = false;
  const auto result = walk_path(p, 1);
  EXPECT_FALSE(result.reached);
  EXPECT_FALSE(result.hops.empty());  // path still traced
}

}  // namespace
}  // namespace mum::probe
