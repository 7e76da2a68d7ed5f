// LDP-over-RSVP tests: hub-tunnel selection, 2-entry stacks on the wire,
// and LPR's robustness to stacked tunnels (classification keys on the top
// label, which is what real LSRs base forwarding on).
#include <gtest/gtest.h>

#include "batch_testing.h"
#include "core/extract.h"
#include "core/filters.h"
#include "core/classify.h"
#include "mpls/ldp.h"
#include "mpls/rsvp.h"
#include "probe/traceroute.h"
#include "util/rng.h"

namespace mum::probe {
namespace {

using topo::AsTopology;
using topo::RouterId;
using topo::Vendor;

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

// Line a - h - m - e: ingress a, hub h, egress e; TE tunnel a=>h,
// LDP everywhere.
struct StackFixture {
  StackFixture() : topo(65001) {
    a = topo.add_router(ip(0x10000001), Vendor::kCisco, true);
    h = topo.add_router(ip(0x10000002), Vendor::kCisco, false);
    m = topo.add_router(ip(0x10000003), Vendor::kCisco, false);
    e = topo.add_router(ip(0x10000004), Vendor::kCisco, true);
    ah = topo.add_link(a, h, ip(0x10010001), ip(0x10010002), 1);
    hm = topo.add_link(h, m, ip(0x10010003), ip(0x10010004), 1);
    me = topo.add_link(m, e, ip(0x10010005), ip(0x10010006), 1);
    igp = igp::IgpState::compute(topo);
    for (std::size_t i = 0; i < topo.router_count(); ++i) {
      pools.emplace_back(Vendor::kCisco);
    }
    ldp = mpls::LdpPlane::build(topo, igp, {}, pools);
    rsvp.emplace(&topo, &igp, mpls::RsvpConfig{});
    util::Rng rng(3);
    hub_ids = rsvp->signal(a, h, 1, pools, rng);

    plane.asn = 65001;
    plane.topo = &topo;
    plane.igp = &igp;
    plane.ldp = &*ldp;
    plane.rsvp = &*rsvp;
    plane.te_policy.hub_tunnels[a] = hub_ids;
    plane.te_policy.ldp_over_te_share = 1.0;  // every pair rides the hub
  }

  PathSpec path() const {
    PathSpec p;
    SegmentSpec seg;
    seg.plane = &plane;
    seg.ingress = a;
    seg.egress = e;
    seg.entry_iface = ip(0x10020000);
    p.segments.push_back(seg);
    p.dst = ip(0x20000001);
    return p;
  }

  AsTopology topo;
  igp::IgpState igp;
  std::vector<mpls::LabelPool> pools;
  std::optional<mpls::LdpPlane> ldp;
  std::optional<mpls::RsvpTePlane> rsvp;
  std::vector<mpls::LspId> hub_ids;
  AsDataPlane plane;
  RouterId a, h, m, e;
  topo::LinkId ah, hm, me;
};

TEST(LdpOverTe, HubSelectionRespectsShare) {
  StackFixture f;
  EXPECT_TRUE(select_hub_tunnel(f.plane, f.a, f.e).has_value());
  f.plane.te_policy.ldp_over_te_share = 0.0;
  EXPECT_FALSE(select_hub_tunnel(f.plane, f.a, f.e).has_value());
}

TEST(LdpOverTe, HubSkippedWhenHubIsEndpoint) {
  StackFixture f;
  // Egress == hub: riding the tunnel would be pointless.
  EXPECT_FALSE(select_hub_tunnel(f.plane, f.a, f.h).has_value());
}

TEST(LdpOverTe, TunnelHopCarriesTwoEntryStack) {
  StackFixture f;
  const auto result = walk_path(f.path(), 5);
  ASSERT_TRUE(result.reached);
  // hops: entry(a), h (tunnel end, PHP popped outer => inner only? No: the
  // a=>h tunnel is ONE hop, so h is the tunnel PHP point AND tail: stack
  // shows just the inner LDP label), m (plain LDP), e (PHP, clean).
  ASSERT_EQ(result.hops.size(), 4u);
  EXPECT_TRUE(result.hops[0].labels.empty());
  EXPECT_EQ(result.hops[1].labels.depth(), 1u);  // inner label at the hub
  EXPECT_EQ(result.hops[1].labels.top().label(),
            f.ldp->label_of(f.h, f.e));
  EXPECT_EQ(result.hops[2].labels.depth(), 1u);  // plain LDP afterwards
  EXPECT_EQ(result.hops[2].labels.top().label(),
            f.ldp->label_of(f.m, f.e));
  EXPECT_TRUE(result.hops[3].labels.empty());    // egress PHP
}

TEST(LdpOverTe, LongerTunnelShowsDepthTwoInside) {
  // Move the hub one hop further: tunnel a=>m crosses h with a full stack.
  StackFixture f;
  util::Rng rng(4);
  const auto ids = f.rsvp->signal(f.a, f.m, 1, f.pools, rng);
  f.plane.te_policy.hub_tunnels[f.a] = ids;
  const auto result = walk_path(f.path(), 5);
  ASSERT_EQ(result.hops.size(), 4u);
  // h is INSIDE the tunnel: outer TE label over inner LDP label.
  EXPECT_EQ(result.hops[1].labels.depth(), 2u);
  EXPECT_EQ(result.hops[1].labels.entries()[1].label(),
            f.ldp->label_of(f.m, f.e));  // inner = hub's label for egress
  EXPECT_TRUE(result.hops[1].labels.entries()[1].bottom_of_stack());
  EXPECT_FALSE(result.hops[1].labels.entries()[0].bottom_of_stack());
  // m: tunnel tail after PHP => inner only.
  EXPECT_EQ(result.hops[2].labels.depth(), 1u);
}

TEST(LdpOverTe, ExtractionHandlesStackedRuns) {
  StackFixture f;
  util::Rng rng(4);
  const auto ids = f.rsvp->signal(f.a, f.m, 1, f.pools, rng);
  f.plane.te_policy.hub_tunnels[f.a] = ids;

  Monitor monitor;
  monitor.id = 0;
  monitor.addr = ip(0x30000001);
  TraceOptions options;
  options.reply_loss = 0.0;
  util::Rng obs_rng(1);
  dataset::SnapshotBatch snap;
  testing::trace_into(monitor, f.path(), options, obs_rng, snap);

  dataset::Ip2As ip2as;
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x10000000), 8), 65001);
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x20000000), 8), 65099);
  ip2as.annotate(snap);

  const auto extracted = lpr::extract_lsps(snap, ip2as);
  ASSERT_EQ(extracted.observations.size(), 1u);
  const auto& lsp = extracted.observations[0].lsp;
  ASSERT_EQ(lsp.lsrs.size(), 2u);
  EXPECT_EQ(lsp.lsrs[0].labels.size(), 2u);  // stacked hop preserved
  EXPECT_EQ(lsp.lsrs[1].labels.size(), 1u);
}

TEST(LdpOverTe, SameTunnelForAllDestsKeepsIotpMonoLsp) {
  // Pair-granular hub selection: every destination of the <a, e> pair rides
  // the same tunnel, so the IOTP stays Mono-LSP (no spurious Multi-FEC).
  StackFixture f;
  util::Rng rng(4);
  const auto ids = f.rsvp->signal(f.a, f.m, 1, f.pools, rng);
  f.plane.te_policy.hub_tunnels[f.a] = ids;

  std::vector<lpr::LspObservation> observations;
  Monitor monitor;
  monitor.id = 0;
  monitor.addr = ip(0x30000001);
  dataset::Ip2As ip2as;
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x10000000), 8), 65001);
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x20000000), 8), 65098);
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x30000000), 8), 65099);

  dataset::SnapshotBatch snap;
  TraceOptions options;
  options.reply_loss = 0.0;
  util::Rng obs_rng(1);
  for (std::uint32_t d = 0; d < 8; ++d) {
    PathSpec p = f.path();
    p.dst = ip((d % 2 ? 0x20000000u : 0x30000000u) + (d << 8) + 1);
    testing::trace_into(monitor, p, options, obs_rng, snap);
  }
  ip2as.annotate(snap);
  const auto extracted = lpr::extract_lsps(snap, ip2as);
  auto iotps = lpr::group_iotps(extracted.observations);
  const auto counts = lpr::classify_all(iotps);
  EXPECT_EQ(counts.total(), 1u);
  EXPECT_EQ(counts.mono_lsp, 1u);
  EXPECT_EQ(counts.multi_fec, 0u);
}

}  // namespace
}  // namespace mum::probe
