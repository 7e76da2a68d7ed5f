#include "gen/internet.h"

#include <gtest/gtest.h>

#include <set>

#include "gen/campaign.h"

namespace mum::gen {
namespace {

GenConfig small_config() {
  GenConfig c;
  c.background_tier1 = 1;
  c.background_transit = 6;
  c.stub_ases = 8;
  c.monitors = 4;
  c.dests_per_monitor = 60;
  return c;
}

class InternetTest : public ::testing::Test {
 protected:
  InternetTest() : internet(small_config()), ip2as(internet.build_ip2as()) {}
  Internet internet;
  dataset::Ip2As ip2as;
};

TEST_F(InternetTest, GraphIsFullyConnected) {
  EXPECT_TRUE(internet.graph().fully_connected());
}

TEST_F(InternetTest, CaseStudyAsesPresentAndModeled) {
  for (const std::uint32_t asn :
       {kAsnVodafone, kAsnAtt, kAsnTata, kAsnNtt, kAsnLevel3}) {
    ASSERT_TRUE(internet.graph().contains(asn));
    EXPECT_NE(internet.modeled(asn), nullptr);
  }
}

TEST_F(InternetTest, StubsAreNotModeled) {
  for (const std::uint32_t asn : internet.graph().asns()) {
    const auto& node = internet.graph().as_node(asn);
    EXPECT_EQ(node.modeled, internet.modeled(asn) != nullptr);
    if (node.tier == AsTier::kStub) {
      EXPECT_FALSE(node.modeled);
    }
  }
}

TEST_F(InternetTest, ModeledTopologiesConnectedWithBorders) {
  for (const std::uint32_t asn : internet.modeled_asns()) {
    const ModeledAs* as = internet.modeled(asn);
    EXPECT_TRUE(as->topo.connected()) << "AS" << asn;
    EXPECT_GE(as->topo.border_routers().size(), 2u) << "AS" << asn;
  }
}

TEST_F(InternetTest, BorderSelectionCoversAllNeighbors) {
  for (const std::uint32_t asn : internet.modeled_asns()) {
    const ModeledAs* as = internet.modeled(asn);
    const AsNode& node = internet.graph().as_node(asn);
    std::set<std::uint32_t> neighbors;
    for (const auto& list : {node.providers, node.customers, node.peers}) {
      neighbors.insert(list.begin(), list.end());
    }
    for (const std::uint32_t n : neighbors) {
      ASSERT_TRUE(as->borders_toward.contains(n)) << asn << "->" << n;
      for (const auto border : as->borders_toward.at(n)) {
        EXPECT_TRUE(as->topo.router(border).is_border);
      }
      ASSERT_TRUE(as->entry_ifaces_from.contains(n));
      EXPECT_EQ(as->entry_ifaces_from.at(n).size(),
                as->borders_toward.at(n).size());
      // Entry interfaces must map back to this AS (IntraAS filter depends
      // on it) and the selector must stay within the peering set.
      for (const auto addr : as->entry_ifaces_from.at(n)) {
        EXPECT_TRUE(node.block.contains(addr));
      }
      for (std::uint64_t h = 0; h < 10; ++h) {
        const auto border = as->border_for(n, h);
        const auto& set = as->borders_toward.at(n);
        EXPECT_NE(std::find(set.begin(), set.end(), border), set.end());
      }
    }
  }
}

TEST_F(InternetTest, EntryIfacesUniquePerAs) {
  for (const std::uint32_t asn : internet.modeled_asns()) {
    const ModeledAs* as = internet.modeled(asn);
    std::set<net::Ipv4Addr> seen;
    for (const auto& [n, addrs] : as->entry_ifaces_from) {
      for (const auto addr : addrs) EXPECT_TRUE(seen.insert(addr).second);
    }
  }
}

TEST_F(InternetTest, Ip2AsMapsEveryBlock) {
  for (const std::uint32_t asn : internet.graph().asns()) {
    const auto& node = internet.graph().as_node(asn);
    EXPECT_EQ(ip2as.lookup(node.block.nth(1234)), asn);
  }
}

TEST_F(InternetTest, MonitorsPlacedInStubs) {
  ASSERT_EQ(internet.monitors().size(), 4u);
  for (const auto& m : internet.monitors()) {
    const std::uint32_t asn = internet.monitor_asn(m.id);
    EXPECT_EQ(internet.graph().as_node(asn).tier, AsTier::kStub);
    EXPECT_TRUE(internet.graph().as_node(asn).block.contains(m.addr));
  }
}

TEST_F(InternetTest, DestinationsCoverTransitAndStubAses) {
  std::set<std::uint32_t> dest_ases;
  for (const auto& d : internet.destinations()) dest_ases.insert(d.asn);
  EXPECT_TRUE(dest_ases.contains(kAsnAtt));        // transit dest
  bool some_stub = false;
  for (const std::uint32_t asn : dest_ases) {
    if (internet.graph().as_node(asn).tier == AsTier::kStub) some_stub = true;
  }
  EXPECT_TRUE(some_stub);
}

TEST_F(InternetTest, DeterministicConstruction) {
  Internet other(small_config());
  EXPECT_EQ(other.destinations().size(), internet.destinations().size());
  for (std::size_t i = 0; i < internet.destinations().size(); ++i) {
    EXPECT_EQ(other.destinations()[i].addr, internet.destinations()[i].addr);
  }
  const auto* a = internet.modeled(kAsnTata);
  const auto* b = other.modeled(kAsnTata);
  ASSERT_EQ(a->topo.link_count(), b->topo.link_count());
}

TEST_F(InternetTest, InstantiateRespectsProfiles) {
  const MonthContext early = internet.instantiate(0);
  const MonthContext late = internet.instantiate(40);
  // Level3: MPLS off in 2010, on in 2013.
  EXPECT_DOUBLE_EQ(early.plane_of(kAsnLevel3)->mpls_coverage, 0.0);
  EXPECT_GT(late.plane_of(kAsnLevel3)->mpls_coverage, 0.5);
  EXPECT_EQ(early.plane_of(kAsnLevel3)->ldp, nullptr);
  EXPECT_NE(late.plane_of(kAsnLevel3)->ldp, nullptr);
  // Vodafone: TE LSPs exist.
  EXPECT_NE(late.plane_of(kAsnVodafone)->rsvp, nullptr);
  EXPECT_FALSE(late.plane_of(kAsnVodafone)->te_policy.pairs.empty());
  // NTT: LDP only.
  EXPECT_EQ(late.plane_of(kAsnNtt)->rsvp, nullptr);
  EXPECT_NE(late.plane_of(kAsnNtt)->ldp, nullptr);
}

TEST_F(InternetTest, PathSpecConnectsMonitorToDestination) {
  const MonthContext ctx = internet.instantiate(50);
  const auto& monitor = internet.monitors()[0];
  int checked = 0;
  for (const auto& dest : internet.destinations()) {
    const auto path = internet.path_spec(monitor, dest, ctx);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->dst, dest.addr);
    if (++checked > 200) break;
  }
}

TEST_F(InternetTest, PathSegmentsAreModeledAsesInRouteOrder) {
  const MonthContext ctx = internet.instantiate(50);
  const auto& monitor = internet.monitors()[0];
  const std::uint32_t src_asn = internet.monitor_asn(monitor.id);
  for (int i = 0; i < 50; ++i) {
    const auto& dest = internet.destinations()[static_cast<std::size_t>(i)];
    const auto route = internet.graph().route(src_asn, dest.asn);
    const auto path = internet.path_spec(monitor, dest, ctx);
    ASSERT_TRUE(path.has_value());
    std::vector<std::uint32_t> modeled_on_route;
    for (const std::uint32_t asn : route) {
      if (internet.modeled(asn) != nullptr) modeled_on_route.push_back(asn);
    }
    ASSERT_EQ(path->segments.size(), modeled_on_route.size());
    for (std::size_t s = 0; s < path->segments.size(); ++s) {
      EXPECT_EQ(path->segments[s].plane->asn, modeled_on_route[s]);
    }
  }
}

TEST_F(InternetTest, FlapsChangeSaltsBetweenSubIndexes) {
  MonthContext ctx = internet.instantiate(50);
  ctx.apply_flaps(0, /*flap_prob=*/0.5);
  const auto salts0 = ctx.plane_of(kAsnTata)->ecmp_salts;
  ctx.apply_flaps(1, 0.5);
  const auto salts1 = ctx.plane_of(kAsnTata)->ecmp_salts;
  ASSERT_EQ(salts0.size(), salts1.size());
  int differing = 0;
  for (std::size_t i = 0; i < salts0.size(); ++i) {
    if (salts0[i] != salts1[i]) ++differing;
  }
  EXPECT_GT(differing, 0);
  EXPECT_LT(differing, static_cast<int>(salts0.size()));
}

TEST_F(InternetTest, FlapsZeroProbabilityKeepsSaltsStable) {
  MonthContext ctx = internet.instantiate(50);
  ctx.apply_flaps(0, 0.0);
  const auto salts0 = ctx.plane_of(kAsnTata)->ecmp_salts;
  ctx.apply_flaps(5, 0.0);
  EXPECT_EQ(salts0, ctx.plane_of(kAsnTata)->ecmp_salts);
}

TEST_F(InternetTest, DynamicsRelabelVodafoneLsps) {
  MonthContext ctx = internet.instantiate(50);
  const auto* rsvp = ctx.plane_of(kAsnVodafone)->rsvp;
  ASSERT_NE(rsvp, nullptr);
  ASSERT_GT(rsvp->lsp_count(), 0u);
  std::vector<std::uint32_t> labels_before;
  for (const auto& lsp : rsvp->lsps()) {
    for (const auto& hop : rsvp->hops(lsp.id)) labels_before.push_back(hop.in_label);
  }
  ctx.advance_dynamics();
  std::vector<std::uint32_t> labels_after;
  for (const auto& lsp : rsvp->lsps()) {
    for (const auto& hop : rsvp->hops(lsp.id)) labels_after.push_back(hop.in_label);
  }
  EXPECT_NE(labels_before, labels_after);
}

TEST_F(InternetTest, DynamicsLeaveStaticAsesAlone) {
  MonthContext ctx = internet.instantiate(50);
  const auto* att_rsvp = ctx.plane_of(kAsnAtt)->rsvp;
  ASSERT_NE(att_rsvp, nullptr);
  std::vector<std::uint32_t> before;
  for (const auto& lsp : att_rsvp->lsps()) {
    for (const auto& hop : att_rsvp->hops(lsp.id)) {
      before.push_back(hop.in_label);
    }
  }
  ctx.advance_dynamics();
  std::vector<std::uint32_t> after;
  for (const auto& lsp : att_rsvp->lsps()) {
    for (const auto& hop : att_rsvp->hops(lsp.id)) {
      after.push_back(hop.in_label);
    }
  }
  EXPECT_EQ(before, after);
}

TEST_F(InternetTest, Ip2AsNoiseAddsLeakedPrefixes) {
  GenConfig noisy = small_config();
  noisy.ip2as_noise = 1.0;  // every modeled AS leaks
  Internet net(noisy);
  const auto table = net.build_ip2as();
  EXPECT_GT(table.prefix_count(), net.graph().size());
}

}  // namespace
}  // namespace mum::gen
