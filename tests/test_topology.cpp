#include "topo/topology.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "topo/builder.h"
#include "util/rng.h"

namespace mum::topo {
namespace {

AsTopology two_router_pair() {
  AsTopology topo(65000);
  const RouterId a =
      topo.add_router(net::Ipv4Addr(10, 0, 0, 1), Vendor::kCisco, true, "a");
  const RouterId b =
      topo.add_router(net::Ipv4Addr(10, 0, 0, 2), Vendor::kJuniper, true, "b");
  topo.add_link(a, b, net::Ipv4Addr(10, 0, 1, 0), net::Ipv4Addr(10, 0, 1, 1),
                5, 2.0);
  return topo;
}

TEST(AsTopology, RoutersAndLinksRegistered) {
  const AsTopology topo = two_router_pair();
  EXPECT_EQ(topo.asn(), 65000u);
  EXPECT_EQ(topo.router_count(), 2u);
  EXPECT_EQ(topo.link_count(), 1u);
  EXPECT_EQ(topo.router(0).name, "a");
  EXPECT_EQ(topo.router(1).vendor, Vendor::kJuniper);
  EXPECT_EQ(topo.link(0).igp_cost, 5u);
}

TEST(AsTopology, LinkEndpointHelpers) {
  const AsTopology topo = two_router_pair();
  const Link& l = topo.link(0);
  EXPECT_EQ(l.other(0), 1u);
  EXPECT_EQ(l.other(1), 0u);
  EXPECT_EQ(l.iface_of(0), net::Ipv4Addr(10, 0, 1, 0));
  EXPECT_EQ(l.iface_of(1), net::Ipv4Addr(10, 0, 1, 1));
}

TEST(AsTopology, AdjacencyListsBothDirections) {
  const AsTopology topo = two_router_pair();
  ASSERT_EQ(topo.links_of(0).size(), 1u);
  ASSERT_EQ(topo.links_of(1).size(), 1u);
  EXPECT_EQ(topo.links_of(0)[0], topo.links_of(1)[0]);
}

TEST(AsTopology, BorderRouters) {
  AsTopology topo(1);
  topo.add_router(net::Ipv4Addr(1, 0, 0, 1), Vendor::kCisco, false);
  topo.add_router(net::Ipv4Addr(1, 0, 0, 2), Vendor::kCisco, true);
  topo.add_router(net::Ipv4Addr(1, 0, 0, 3), Vendor::kCisco, true);
  EXPECT_EQ(topo.border_routers(), (std::vector<RouterId>{1, 2}));
}

TEST(AsTopology, RouterOfAddrCoversLoopbacksAndIfaces) {
  const AsTopology topo = two_router_pair();
  EXPECT_EQ(topo.router_of_addr(net::Ipv4Addr(10, 0, 0, 1)), 0u);
  EXPECT_EQ(topo.router_of_addr(net::Ipv4Addr(10, 0, 1, 1)), 1u);
  EXPECT_EQ(topo.router_of_addr(net::Ipv4Addr(99, 0, 0, 1)), kInvalidRouter);
}

TEST(AsTopology, ParallelDegreeCountsBundles) {
  AsTopology topo(1);
  const RouterId a = topo.add_router(net::Ipv4Addr(1, 0, 0, 1),
                                     Vendor::kCisco, false);
  const RouterId b = topo.add_router(net::Ipv4Addr(1, 0, 0, 2),
                                     Vendor::kCisco, false);
  EXPECT_EQ(topo.parallel_degree(a, b), 0u);
  topo.add_link(a, b, net::Ipv4Addr(1, 0, 1, 0), net::Ipv4Addr(1, 0, 1, 1));
  topo.add_link(a, b, net::Ipv4Addr(1, 0, 1, 2), net::Ipv4Addr(1, 0, 1, 3));
  EXPECT_EQ(topo.parallel_degree(a, b), 2u);
  EXPECT_EQ(topo.parallel_degree(b, a), 2u);
}

TEST(AsTopology, ConnectedDetection) {
  AsTopology topo(1);
  const RouterId a = topo.add_router(net::Ipv4Addr(1, 0, 0, 1),
                                     Vendor::kCisco, false);
  const RouterId b = topo.add_router(net::Ipv4Addr(1, 0, 0, 2),
                                     Vendor::kCisco, false);
  topo.add_router(net::Ipv4Addr(1, 0, 0, 3), Vendor::kCisco, false);
  topo.add_link(a, b, net::Ipv4Addr(1, 0, 1, 0), net::Ipv4Addr(1, 0, 1, 1));
  EXPECT_FALSE(topo.connected());
}

TEST(AsTopology, EmptyTopologyIsConnected) {
  const AsTopology topo(1);
  EXPECT_TRUE(topo.connected());
}

TEST(AsTopology, ZeroIgpMetricRejected) {
  AsTopology topo = two_router_pair();
  EXPECT_THROW(topo.add_link(0, 1, net::Ipv4Addr(10, 0, 1, 2),
                             net::Ipv4Addr(10, 0, 1, 3), 0),
               std::invalid_argument);
  EXPECT_EQ(topo.link_count(), 1u);
  EXPECT_EQ(topo.links_of(0).size(), 1u);
}

TEST(AsTopology, CsrLeavesDownLinksOut) {
  // A triangle plus a bundle member: links 0 (a-b, 1), 1 (b-c, 7),
  // 2 (a-c, 3), 3 (a-b, 9).
  AsTopology topo(1);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    topo.add_router(net::Ipv4Addr(1, 0, 0, i), Vendor::kCisco, false);
  }
  const std::uint32_t cost[] = {1, 7, 3, 9};
  const RouterId ends[][2] = {{0, 1}, {1, 2}, {0, 2}, {0, 1}};
  for (std::uint32_t l = 0; l < 4; ++l) {
    topo.add_link(ends[l][0], ends[l][1], net::Ipv4Addr(1, 0, 1, 2 * l),
                  net::Ipv4Addr(1, 0, 1, 2 * l + 1), cost[l]);
  }
  const auto links_out = [](const CsrAdjacency& csr, RouterId r) {
    std::vector<LinkId> out;
    for (const CsrArc& arc : csr.out(r)) out.push_back(arc.link);
    return out;
  };

  const CsrAdjacency all = topo.make_csr();
  EXPECT_EQ(all.arc_count(), 8u);
  EXPECT_EQ(all.max_cost(), 9u);
  EXPECT_EQ(links_out(all, 0), (std::vector<LinkId>{0, 2, 3}));

  // Down 1 and 3: exactly their arcs go, the rest keep ascending link
  // order, and max_cost is taken over what remains (9 and 7 are gone).
  const std::vector<bool> down = {false, true, false, true};
  const CsrAdjacency pruned = topo.make_csr({}, down);
  EXPECT_EQ(pruned.arc_count(), 4u);
  EXPECT_EQ(pruned.max_cost(), 3u);
  EXPECT_EQ(links_out(pruned, 0), (std::vector<LinkId>{0, 2}));
  EXPECT_EQ(links_out(pruned, 1), (std::vector<LinkId>{0}));
  EXPECT_EQ(links_out(pruned, 2), (std::vector<LinkId>{2}));
  EXPECT_EQ(pruned.arc_offset(1), 2u);

  // An override on an up link prices it; one on a down link is moot.
  const std::vector<std::uint32_t> over = {0, 50, 5, 0};
  const CsrAdjacency priced = topo.make_csr(over, down);
  EXPECT_EQ(priced.max_cost(), 5u);
  EXPECT_EQ(priced.out(2)[0].cost, 5u);

  // Everything down: no arcs, max_cost 0.
  const CsrAdjacency none = topo.make_csr({}, std::vector<bool>(4, true));
  EXPECT_EQ(none.arc_count(), 0u);
  EXPECT_EQ(none.max_cost(), 0u);
  EXPECT_TRUE(none.out(0).empty());
}

// --- builder ------------------------------------------------------------

BuildParams small_params() {
  BuildParams p;
  p.asn = 64512;
  p.block = net::Ipv4Prefix(net::Ipv4Addr(16, 0, 0, 0), 16);
  p.core_routers = 4;
  p.pop_routers = 8;
  return p;
}

TEST(Builder, ProducesConnectedTopology) {
  util::Rng rng(1);
  const AsTopology topo = build_as_topology(small_params(), rng);
  EXPECT_EQ(topo.router_count(), 12u);
  EXPECT_TRUE(topo.connected());
}

TEST(Builder, AtLeastTwoBorders) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::Rng rng(seed);
    BuildParams p = small_params();
    p.border_share = 0.0;  // would yield zero borders without the guarantee
    const AsTopology topo = build_as_topology(p, rng);
    EXPECT_GE(topo.border_routers().size(), 2u) << "seed " << seed;
  }
}

TEST(Builder, CoreRoutersAreNeverBorders) {
  util::Rng rng(2);
  BuildParams p = small_params();
  p.border_share = 1.0;
  const AsTopology topo = build_as_topology(p, rng);
  for (RouterId r = 0; r < static_cast<RouterId>(p.core_routers); ++r) {
    EXPECT_FALSE(topo.router(r).is_border);
  }
  for (RouterId r = static_cast<RouterId>(p.core_routers);
       r < topo.router_count(); ++r) {
    EXPECT_TRUE(topo.router(r).is_border);
  }
}

TEST(Builder, DeterministicForSameSeed) {
  util::Rng rng_a(77), rng_b(77);
  const AsTopology a = build_as_topology(small_params(), rng_a);
  const AsTopology b = build_as_topology(small_params(), rng_b);
  ASSERT_EQ(a.router_count(), b.router_count());
  ASSERT_EQ(a.link_count(), b.link_count());
  for (LinkId l = 0; l < a.link_count(); ++l) {
    EXPECT_EQ(a.link(l).a, b.link(l).a);
    EXPECT_EQ(a.link(l).b, b.link(l).b);
    EXPECT_EQ(a.link(l).a_iface, b.link(l).a_iface);
    EXPECT_EQ(a.link(l).igp_cost, b.link(l).igp_cost);
  }
}

TEST(Builder, ParallelLinksAppearWhenRequested) {
  util::Rng rng(3);
  BuildParams p = small_params();
  p.parallel_link_prob = 0.8;
  p.max_parallel_links = 4;
  const AsTopology topo = build_as_topology(p, rng);
  bool found_bundle = false;
  for (RouterId a = 0; a < topo.router_count() && !found_bundle; ++a) {
    for (RouterId b = a + 1; b < topo.router_count(); ++b) {
      if (topo.parallel_degree(a, b) >= 2) {
        found_bundle = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_bundle);
}

TEST(Builder, NoParallelLinksWhenDisabled) {
  util::Rng rng(4);
  BuildParams p = small_params();
  p.parallel_link_prob = 0.0;
  const AsTopology topo = build_as_topology(p, rng);
  for (RouterId a = 0; a < topo.router_count(); ++a) {
    for (RouterId b = a + 1; b < topo.router_count(); ++b) {
      EXPECT_LE(topo.parallel_degree(a, b), 1u);
    }
  }
}

TEST(Builder, UniqueInterfaceAndLoopbackAddresses) {
  util::Rng rng(5);
  BuildParams p = small_params();
  p.parallel_link_prob = 0.5;
  const AsTopology topo = build_as_topology(p, rng);
  std::set<net::Ipv4Addr> addrs;
  for (const Router& r : topo.routers()) {
    EXPECT_TRUE(addrs.insert(r.loopback).second);
  }
  for (const Link& l : topo.links()) {
    EXPECT_TRUE(addrs.insert(l.a_iface).second);
    EXPECT_TRUE(addrs.insert(l.b_iface).second);
  }
}

TEST(Builder, AddressesStayInsideBlock) {
  util::Rng rng(6);
  const BuildParams p = small_params();
  const AsTopology topo = build_as_topology(p, rng);
  for (const Router& r : topo.routers()) {
    EXPECT_TRUE(p.block.contains(r.loopback));
  }
  for (const Link& l : topo.links()) {
    EXPECT_TRUE(p.block.contains(l.a_iface));
    EXPECT_TRUE(p.block.contains(l.b_iface));
  }
}

TEST(Builder, UniformCostsWhenConfigured) {
  util::Rng rng(7);
  BuildParams p = small_params();
  p.uniform_costs = true;
  p.heavy_cost_share = 0.0;
  const AsTopology topo = build_as_topology(p, rng);
  for (const Link& l : topo.links()) EXPECT_EQ(l.igp_cost, 1u);
}

TEST(Builder, HeavyCostShareInjectsCost2Links) {
  util::Rng rng(7);
  BuildParams p = small_params();
  p.uniform_costs = true;
  p.heavy_cost_share = 0.5;
  const AsTopology topo = build_as_topology(p, rng);
  int heavy = 0;
  for (const Link& l : topo.links()) {
    EXPECT_LE(l.igp_cost, 2u);
    heavy += l.igp_cost == 2 ? 1 : 0;
  }
  EXPECT_GT(heavy, 0);
}

TEST(Builder, LoopbackHelperMatchesLayout) {
  const net::Ipv4Prefix block(net::Ipv4Addr(16, 5, 0, 0), 16);
  EXPECT_EQ(loopback_addr(block, 0), block.nth(1));
  EXPECT_EQ(loopback_addr(block, 3), block.nth(13));
}

// Parameterized: builder output is connected across a sweep of shapes.
struct ShapeCase {
  int core;
  int pops;
  double parallel;
};

class BuilderShapes : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(BuilderShapes, AlwaysConnectedWithBorders) {
  const auto& c = GetParam();
  for (std::uint64_t seed = 10; seed < 15; ++seed) {
    util::Rng rng(seed);
    BuildParams p = small_params();
    p.core_routers = c.core;
    p.pop_routers = c.pops;
    p.parallel_link_prob = c.parallel;
    const AsTopology topo = build_as_topology(p, rng);
    EXPECT_TRUE(topo.connected());
    EXPECT_GE(topo.border_routers().size(), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BuilderShapes,
    ::testing::Values(ShapeCase{2, 3, 0.0}, ShapeCase{3, 10, 0.3},
                      ShapeCase{8, 20, 0.55}, ShapeCase{10, 50, 0.15}));

}  // namespace
}  // namespace mum::topo
