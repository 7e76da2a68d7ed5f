#include "igp/spf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <queue>
#include <set>
#include <stdexcept>

#include "topo/builder.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mum::igp {
namespace {

using topo::AsTopology;
using topo::RouterId;
using topo::Vendor;

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

// a --1-- b --1-- c, plus a --3-- c (worse).
AsTopology triangle() {
  AsTopology topo(1);
  const auto a = topo.add_router(ip(1), Vendor::kCisco, true);
  const auto b = topo.add_router(ip(2), Vendor::kCisco, false);
  const auto c = topo.add_router(ip(3), Vendor::kCisco, true);
  topo.add_link(a, b, ip(101), ip(102), 1);
  topo.add_link(b, c, ip(103), ip(104), 1);
  topo.add_link(a, c, ip(105), ip(106), 3);
  return topo;
}

TEST(Spf, ShortestDistances) {
  const auto topo = triangle();
  const IgpState igp = IgpState::compute(topo);
  EXPECT_EQ(igp.column(0).distance(0), 0u);
  EXPECT_EQ(igp.column(1).distance(0), 1u);
  EXPECT_EQ(igp.column(2).distance(0), 2u);  // via b, not the cost-3 direct link
  EXPECT_EQ(igp.column(0).distance(2), 2u);
}

TEST(Spf, SingleNextHopOnUniquePath) {
  const auto topo = triangle();
  const IgpState igp = IgpState::compute(topo);
  const auto& nhs = igp.column(2).nexthops(0);
  ASSERT_EQ(nhs.size(), 1u);
  EXPECT_EQ(nhs[0].neighbor, 1u);
}

TEST(Spf, EqualCostDirectAndIndirect) {
  // a-b-c all cost 1, plus direct a-c cost 2: both routes tie.
  AsTopology topo(1);
  const auto a = topo.add_router(ip(1), Vendor::kCisco, false);
  const auto b = topo.add_router(ip(2), Vendor::kCisco, false);
  const auto c = topo.add_router(ip(3), Vendor::kCisco, false);
  topo.add_link(a, b, ip(101), ip(102), 1);
  topo.add_link(b, c, ip(103), ip(104), 1);
  topo.add_link(a, c, ip(105), ip(106), 2);
  const IgpState igp = IgpState::compute(topo);
  const auto& nhs = igp.column(c).nexthops(a);
  ASSERT_EQ(nhs.size(), 2u);
  std::set<RouterId> neighbors;
  for (const auto& nh : nhs) neighbors.insert(nh.neighbor);
  EXPECT_EQ(neighbors, (std::set<RouterId>{b, c}));
}

TEST(Spf, ParallelLinksAreDistinctNextHops) {
  AsTopology topo(1);
  const auto a = topo.add_router(ip(1), Vendor::kCisco, false);
  const auto b = topo.add_router(ip(2), Vendor::kCisco, false);
  topo.add_link(a, b, ip(101), ip(102), 1);
  topo.add_link(a, b, ip(103), ip(104), 1);
  const IgpState igp = IgpState::compute(topo);
  const auto& nhs = igp.column(b).nexthops(a);
  ASSERT_EQ(nhs.size(), 2u);
  EXPECT_NE(nhs[0].link, nhs[1].link);
  EXPECT_EQ(nhs[0].neighbor, b);
  EXPECT_EQ(nhs[1].neighbor, b);
}

TEST(Spf, UnequalParallelLinksNotEcmp) {
  AsTopology topo(1);
  const auto a = topo.add_router(ip(1), Vendor::kCisco, false);
  const auto b = topo.add_router(ip(2), Vendor::kCisco, false);
  topo.add_link(a, b, ip(101), ip(102), 1);
  topo.add_link(a, b, ip(103), ip(104), 2);  // worse bundle member
  const IgpState igp = IgpState::compute(topo);
  ASSERT_EQ(igp.column(b).nexthops(a).size(), 1u);
  EXPECT_EQ(igp.column(b).nexthops(a)[0].link, 0u);
}

TEST(Spf, DisconnectedIsUnreachable) {
  AsTopology topo(1);
  topo.add_router(ip(1), Vendor::kCisco, false);
  topo.add_router(ip(2), Vendor::kCisco, false);
  const IgpState igp = IgpState::compute(topo);
  EXPECT_FALSE(igp.column(1).reachable(0));
  EXPECT_EQ(igp.column(1).distance(0), kUnreachable);
  EXPECT_TRUE(igp.column(1).nexthops(0).empty());
}

TEST(Spf, SelfDistanceZeroNoNextHops) {
  const auto topo = triangle();
  const IgpState igp = IgpState::compute(topo);
  EXPECT_EQ(igp.column(1).distance(1), 0u);
  EXPECT_TRUE(igp.column(1).nexthops(1).empty());
}

TEST(Spf, DiamondEcmp) {
  //    b
  //  /   \    all costs 1: two equal paths,
  // a     d   a-b-d and a-c-d
  //  \   /
  //    c
  AsTopology topo(1);
  const auto a = topo.add_router(ip(1), Vendor::kCisco, false);
  const auto b = topo.add_router(ip(2), Vendor::kCisco, false);
  const auto c = topo.add_router(ip(3), Vendor::kCisco, false);
  const auto d = topo.add_router(ip(4), Vendor::kCisco, false);
  topo.add_link(a, b, ip(101), ip(102), 1);
  topo.add_link(a, c, ip(103), ip(104), 1);
  topo.add_link(b, d, ip(105), ip(106), 1);
  topo.add_link(c, d, ip(107), ip(108), 1);
  const IgpState igp = IgpState::compute(topo);
  // a branches over both b and c; each branch then has one next hop, d.
  const EgressColumn& toward = igp.column(d);
  const auto branches = toward.nexthops(a);
  ASSERT_EQ(branches.size(), 2u);
  EXPECT_NE(branches[0].neighbor, branches[1].neighbor);
  for (const NextHop& nh : branches) {
    EXPECT_TRUE(nh.neighbor == b || nh.neighbor == c);
    ASSERT_EQ(toward.nexthops(nh.neighbor).size(), 1u);
    EXPECT_EQ(toward.nexthops(nh.neighbor)[0].neighbor, d);
  }
}

TEST(Spf, PathCountMultiplies) {
  // Two diamonds in series: 2 * 2 = 4 shortest paths, one branch point per
  // diamond and a single next hop everywhere else.
  AsTopology topo(1);
  std::vector<RouterId> r;
  for (std::uint32_t i = 0; i < 7; ++i) {
    r.push_back(topo.add_router(ip(i + 1), Vendor::kCisco, false));
  }
  std::uint32_t next_ip = 100;
  auto link = [&](RouterId x, RouterId y) {
    const net::Ipv4Addr x_ip = ip(next_ip++);
    const net::Ipv4Addr y_ip = ip(next_ip++);
    topo.add_link(x, y, x_ip, y_ip, 1);
  };
  link(r[0], r[1]);
  link(r[0], r[2]);
  link(r[1], r[3]);
  link(r[2], r[3]);
  link(r[3], r[4]);
  link(r[3], r[5]);
  link(r[4], r[6]);
  link(r[5], r[6]);
  const IgpState igp = IgpState::compute(topo);
  const EgressColumn& toward = igp.column(r[6]);
  EXPECT_EQ(toward.nexthops(r[0]).size(), 2u);
  EXPECT_EQ(toward.nexthops(r[3]).size(), 2u);
  for (const RouterId v : {r[1], r[2], r[4], r[5]}) {
    EXPECT_EQ(toward.nexthops(v).size(), 1u) << "router " << v;
  }
  // Walking every branch reaches r[6] along four distinct link sequences.
  std::vector<std::vector<topo::LinkId>> paths;
  std::vector<topo::LinkId> walk;
  auto visit = [&](auto&& self, RouterId at) -> void {
    if (at == r[6]) {
      paths.push_back(walk);
      return;
    }
    for (const NextHop& nh : toward.nexthops(at)) {
      walk.push_back(nh.link);
      self(self, nh.neighbor);
      walk.pop_back();
    }
  };
  visit(visit, r[0]);
  std::sort(paths.begin(), paths.end());
  EXPECT_EQ(std::unique(paths.begin(), paths.end()), paths.end());
  EXPECT_EQ(paths.size(), 4u);
}

// Property tests over random builder topologies.
class SpfProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpfProperty, InvariantsHold) {
  util::Rng rng(GetParam());
  topo::BuildParams params;
  params.asn = 1;
  params.block = net::Ipv4Prefix(net::Ipv4Addr(16, 0, 0, 0), 16);
  params.core_routers = 4 + static_cast<int>(rng.below(4));
  params.pop_routers = 6 + static_cast<int>(rng.below(10));
  params.parallel_link_prob = 0.3;
  const AsTopology topo = topo::build_as_topology(params, rng);
  const IgpState igp = IgpState::compute(topo);

  for (RouterId s = 0; s < topo.router_count(); ++s) {
    for (RouterId d = 0; d < topo.router_count(); ++d) {
      if (s == d) continue;
      // Connected builder output: everything reachable.
      ASSERT_TRUE(igp.column(d).reachable(s));
      const auto dist = igp.column(d).distance(s);
      // Symmetric distances (undirected links, symmetric costs).
      EXPECT_EQ(dist, igp.column(s).distance(d));
      for (const NextHop& nh : igp.column(d).nexthops(s)) {
        // Every next hop strictly decreases the remaining distance by the
        // traversed link's cost (the ECMP DAG property).
        const auto& link = topo.link(nh.link);
        EXPECT_EQ(link.other(s), nh.neighbor);
        EXPECT_EQ(igp.column(d).distance(nh.neighbor) + link.igp_cost, dist);
      }
      EXPECT_FALSE(igp.column(d).nexthops(s).empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpfProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Reference parity: the egress-column SPF must reproduce, byte for byte,
// what the original per-source, per-destination reverse-BFS implementation
// computed. The reference below is that original algorithm, kept verbatim
// (modulo the return type, and link state read from a LinkOverlay: down
// links skipped, overridden metrics priced) as the independent ground
// truth: it reads row (source) s, the production state reads column
// (egress) d.
// ---------------------------------------------------------------------------

struct ReferenceRib {
  std::vector<std::uint32_t> dist;
  std::vector<std::vector<NextHop>> nexthops;
};

struct RefQueueItem {
  std::uint32_t dist;
  RouterId router;
  friend bool operator>(const RefQueueItem& a, const RefQueueItem& b) {
    return a.dist > b.dist;
  }
};

ReferenceRib reference_spf(const AsTopology& topo, RouterId src,
                           const LinkOverlay& overlay) {
  const std::size_t n = topo.router_count();
  std::vector<std::uint32_t> dist(n, kUnreachable);
  std::vector<std::vector<topo::LinkId>> predecessors(n);
  std::priority_queue<RefQueueItem, std::vector<RefQueueItem>,
                      std::greater<>> pq;
  dist[src] = 0;
  pq.push({0, src});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (const topo::LinkId lid : topo.links_of(u)) {
      if (overlay.is_down(lid)) continue;
      const topo::Link& l = topo.link(lid);
      const RouterId v = l.other(u);
      const std::uint32_t nd = d + overlay.cost_of(l);
      if (nd < dist[v]) {
        dist[v] = nd;
        predecessors[v].clear();
        predecessors[v].push_back(lid);
        pq.push({nd, v});
      } else if (nd == dist[v]) {
        predecessors[v].push_back(lid);
      }
    }
  }
  std::vector<std::vector<NextHop>> nexthops(n);
  std::vector<std::uint8_t> mark(n, 0);
  std::vector<RouterId> stack;
  for (RouterId dst = 0; dst < n; ++dst) {
    if (dst == src || dist[dst] == kUnreachable) continue;
    std::fill(mark.begin(), mark.end(), 0);
    stack.clear();
    stack.push_back(dst);
    mark[dst] = 1;
    std::vector<topo::LinkId> first_links;
    while (!stack.empty()) {
      const RouterId v = stack.back();
      stack.pop_back();
      for (const topo::LinkId lid : predecessors[v]) {
        const RouterId u = topo.link(lid).other(v);
        if (u == src) {
          first_links.push_back(lid);
        } else if (!mark[u]) {
          mark[u] = 1;
          stack.push_back(u);
        }
      }
    }
    std::sort(first_links.begin(), first_links.end());
    first_links.erase(std::unique(first_links.begin(), first_links.end()),
                      first_links.end());
    for (const topo::LinkId lid : first_links) {
      nexthops[dst].push_back(NextHop{lid, topo.link(lid).other(src)});
    }
  }
  return ReferenceRib{std::move(dist), std::move(nexthops)};
}

std::vector<RouterId> all_routers(const AsTopology& topo) {
  std::vector<RouterId> all(topo.router_count());
  for (RouterId r = 0; r < all.size(); ++r) all[r] = r;
  return all;
}

// Asserts exact equality on the `egresses` columns — distances AND next-hop
// sequences in order.
void expect_matches_reference(const AsTopology& topo, const IgpState& igp,
                              const LinkOverlay& overlay,
                              const std::vector<RouterId>& egresses) {
  for (RouterId s = 0; s < topo.router_count(); ++s) {
    const ReferenceRib ref = reference_spf(topo, s, overlay);
    for (const RouterId d : egresses) {
      const EgressColumn& col = igp.column(d);
      ASSERT_EQ(col.distance(s), ref.dist[d])
          << "dist mismatch src=" << s << " dst=" << d;
      const auto nhs = col.nexthops(s);
      ASSERT_EQ(nhs.size(), ref.nexthops[d].size())
          << "ECMP width mismatch src=" << s << " dst=" << d;
      for (std::size_t i = 0; i < nhs.size(); ++i) {
        ASSERT_EQ(nhs[i], ref.nexthops[d][i])
            << "next hop mismatch src=" << s << " dst=" << d << " i=" << i;
      }
    }
  }
}

void expect_matches_reference(const AsTopology& topo, const IgpState& igp,
                              const LinkOverlay& overlay = {}) {
  expect_matches_reference(topo, igp, overlay, all_routers(topo));
}

// Each link goes down independently with probability 1/`one_in`.
LinkOverlay random_down(const AsTopology& topo, util::Rng& rng,
                        std::uint64_t one_in) {
  LinkOverlay overlay;
  overlay.down.assign(topo.link_count(), false);
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    overlay.down[l] = rng.below(one_in) == 0;
  }
  return overlay;
}

AsTopology random_topology(std::uint64_t seed) {
  util::Rng rng(seed);
  topo::BuildParams params;
  params.asn = 1;
  params.block = net::Ipv4Prefix(net::Ipv4Addr(16, 0, 0, 0), 16);
  params.core_routers = 4 + static_cast<int>(rng.below(5));
  params.pop_routers = 8 + static_cast<int>(rng.below(16));
  // Every other seed: parallel bundles (distinct ECMP next hops to one
  // neighbour) and non-uniform costs (asymmetric-cost relaxations).
  params.parallel_link_prob = (seed % 2 == 0) ? 0.4 : 0.0;
  params.uniform_costs = (seed % 3 != 0);
  params.heavy_cost_share = 0.25;
  return topo::build_as_topology(params, rng);
}

class SpfReferenceParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpfReferenceParity, FullTopology) {
  const AsTopology topo = random_topology(GetParam());
  expect_matches_reference(topo, IgpState::compute(topo));
}

TEST_P(SpfReferenceParity, WithDownedLinks) {
  const AsTopology topo = random_topology(GetParam());
  util::Rng rng(GetParam() * 7919 + 1);
  // Down ~10% of links: may partition the topology, which the parity check
  // must handle (unreachable destinations on both sides).
  const LinkOverlay down = random_down(topo, rng, 10);
  expect_matches_reference(topo, IgpState::compute(topo, down), down);
}

TEST_P(SpfReferenceParity, ReconvergeMatchesFullRecompute) {
  const AsTopology topo = random_topology(GetParam());
  const IgpState baseline = IgpState::compute(topo);
  util::Rng rng(GetParam() * 104729 + 3);
  const LinkOverlay down = random_down(topo, rng, 12);
  IgpState::ReconvergeStats stats;
  const IgpState inc = IgpState::reconverge(
      topo, baseline, {}, down, all_routers(topo), &stats);
  EXPECT_EQ(stats.sources_total, topo.router_count());
  EXPECT_LE(stats.sources_recomputed, stats.sources_total);
  expect_matches_reference(topo, inc, down);
}

TEST_P(SpfReferenceParity, MetricOverridesOnHeapPath) {
  // Overrides above the dial queue's cost bound (4096) send every column
  // to the binary-heap queue. 8194 = 2 * 4097, so paths over the heavy
  // links still tie and form ECMP sets.
  const AsTopology topo = random_topology(GetParam());
  util::Rng rng(GetParam() * 6151 + 5);
  LinkOverlay priced;
  priced.cost.assign(topo.link_count(), 0);
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    const std::uint32_t pick[] = {0, 4097, 8194};
    priced.cost[l] = pick[rng.below(3)];
  }
  priced.cost[0] = 8194;
  const IgpState full = IgpState::compute(topo, priced);
  expect_matches_reference(topo, full, priced);

  LinkOverlay failed = priced;
  failed.down = random_down(topo, rng, 10).down;
  failed.down[0] = false;  // keeps an arc above the bound
  expect_matches_reference(topo, IgpState::compute(topo, failed), failed);
  expect_matches_reference(
      topo,
      IgpState::reconverge(topo, full, priced, failed, all_routers(topo)),
      failed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpfReferenceParity,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

TEST(SpfReferenceParity, UnreachablePartition) {
  // Two disconnected triangles: cross-component destinations unreachable.
  AsTopology topo(1);
  std::vector<RouterId> r;
  for (std::uint32_t i = 0; i < 6; ++i) {
    r.push_back(topo.add_router(ip(i + 1), Vendor::kCisco, false));
  }
  std::uint32_t next_ip = 100;
  auto link = [&](RouterId x, RouterId y, std::uint32_t cost) {
    const net::Ipv4Addr x_ip = ip(next_ip++);
    const net::Ipv4Addr y_ip = ip(next_ip++);
    topo.add_link(x, y, x_ip, y_ip, cost);
  };
  link(r[0], r[1], 1);
  link(r[1], r[2], 1);
  link(r[0], r[2], 2);
  link(r[3], r[4], 1);
  link(r[4], r[5], 1);
  link(r[3], r[5], 2);
  const IgpState igp = IgpState::compute(topo);
  expect_matches_reference(topo, igp);
  EXPECT_FALSE(igp.column(r[3]).reachable(r[0]));
  EXPECT_TRUE(igp.column(r[3]).nexthops(r[0]).empty());
}

TEST(SpfReferenceParity, RouterWithMoreThanSixtyFourLinks) {
  // A hub with 80 incident links: 40 spokes, each over a two-link bundle,
  // every spoke also tied to one far router, and the spokes ringed at cost
  // 2. The hub reaches the far router over 80 equal-cost next hops — more
  // first hops than one 64-bit word holds.
  AsTopology topo(1);
  std::uint32_t next_ip = 1;
  auto router = [&] {
    return topo.add_router(ip(next_ip++), Vendor::kCisco, false);
  };
  std::uint32_t link_ip = 100000;
  auto link = [&](RouterId x, RouterId y, std::uint32_t cost) {
    link_ip += 2;
    topo.add_link(x, y, ip(link_ip - 2), ip(link_ip - 1), cost);
  };
  const RouterId hub = router();
  const RouterId far = router();
  std::vector<RouterId> spokes;
  for (int i = 0; i < 40; ++i) spokes.push_back(router());
  for (const RouterId s : spokes) {
    link(hub, s, 1);
    link(hub, s, 1);
    link(s, far, 1);
  }
  for (std::size_t i = 0; i < spokes.size(); ++i) {
    link(spokes[i], spokes[(i + 1) % spokes.size()], 2);
  }
  ASSERT_GT(topo.links_of(hub).size(), 64u);

  const IgpState igp = IgpState::compute(topo);
  EXPECT_EQ(igp.column(far).nexthops(hub).size(), 80u);
  expect_matches_reference(topo, igp);

  LinkOverlay down;
  down.down.assign(topo.link_count(), false);
  down.down[0] = true;                      // one hub--spoke bundle member
  down.down[5] = true;                      // a spoke--far link
  down.down[topo.link_count() - 1] = true;  // a ring link
  expect_matches_reference(
      topo, IgpState::reconverge(topo, igp, {}, down, all_routers(topo)),
      down);
}

// ---------------------------------------------------------------------------
// Incremental reconvergence: only egress columns whose shortest-path DAG
// uses a downed link may be recomputed.
// ---------------------------------------------------------------------------

// A failure-only transition: no overlay, `links` down.
LinkOverlay down_links(const AsTopology& topo,
                       std::initializer_list<topo::LinkId> links) {
  LinkOverlay overlay;
  overlay.down.assign(topo.link_count(), false);
  for (const topo::LinkId l : links) overlay.down[l] = true;
  return overlay;
}

TEST(SpfReconverge, UnusedLinkRecomputesNothing) {
  // triangle(): the a--c cost-3 link carries no shortest path from any
  // router (a-b-c costs 2), so downing it must leave every column as a
  // baseline copy.
  const AsTopology topo = triangle();
  const IgpState baseline = IgpState::compute(topo);
  const LinkOverlay down = down_links(topo, {2});  // the cost-3 a--c link
  IgpState::ReconvergeStats stats;
  const IgpState inc = IgpState::reconverge(
      topo, baseline, {}, down, all_routers(topo), &stats);
  EXPECT_EQ(stats.sources_total, 3u);
  EXPECT_EQ(stats.sources_recomputed, 0u);
  expect_matches_reference(topo, inc, down);
}

TEST(SpfReconverge, FailureIsolatedToItsComponent) {
  // Two disconnected triangles; failing the r0--r1 edge of the first must
  // only recompute r0 and r1: from r2 both neighbours are reached over the
  // direct links, so the failed edge carries none of r2's shortest paths,
  // and triangle B is untouched entirely.
  AsTopology topo(1);
  std::vector<RouterId> r;
  for (std::uint32_t i = 0; i < 6; ++i) {
    r.push_back(topo.add_router(ip(i + 1), Vendor::kCisco, false));
  }
  std::uint32_t next_ip = 100;
  auto link = [&](RouterId x, RouterId y) {
    const net::Ipv4Addr x_ip = ip(next_ip++);
    const net::Ipv4Addr y_ip = ip(next_ip++);
    topo.add_link(x, y, x_ip, y_ip, 1);
  };
  link(r[0], r[1]);  // link 0: in every triangle-A shortest-path DAG
  link(r[1], r[2]);
  link(r[0], r[2]);
  link(r[3], r[4]);
  link(r[4], r[5]);
  link(r[3], r[5]);
  const IgpState baseline = IgpState::compute(topo);
  const LinkOverlay down = down_links(topo, {0});
  IgpState::ReconvergeStats stats;
  const IgpState inc = IgpState::reconverge(
      topo, baseline, {}, down, all_routers(topo), &stats);
  EXPECT_EQ(stats.sources_total, 6u);
  EXPECT_EQ(stats.sources_recomputed, 2u);  // r0 and r1 only
  expect_matches_reference(topo, inc, down);
}

TEST(SpfReconverge, EgressSubsetEqualsComputeOnThoseColumns) {
  const AsTopology topo = random_topology(16);
  const IgpState baseline = IgpState::compute(topo);
  util::Rng rng(99);
  const LinkOverlay down = random_down(topo, rng, 8);
  const IgpState full = IgpState::compute(topo, down);
  const RouterId last = static_cast<RouterId>(topo.router_count() - 1);
  const std::vector<RouterId> egresses{0, 3, 5, last};
  IgpState::ReconvergeStats stats;
  const IgpState inc = IgpState::reconverge(topo, baseline, {}, down,
                                            egresses, &stats);
  EXPECT_EQ(stats.sources_total, topo.router_count());
  EXPECT_LE(stats.sources_recomputed, egresses.size());
  for (RouterId e = 0; e < topo.router_count(); ++e) {
    if (std::find(egresses.begin(), egresses.end(), e) != egresses.end()) {
      EXPECT_EQ(inc.column(e), full.column(e)) << "egress " << e;
    } else {
      EXPECT_THROW(inc.column(e), std::logic_error) << "egress " << e;
    }
  }
}

// One transition that mixes every kind of link-state change: from a cycle
// overlay (one link down, some metrics overridden) to the next cycle's
// overlay (other metrics, a second link down) plus snapshot failures, over
// an egress subset. The held columns equal a full compute under the new
// overlay and the independent reference; the rest are not held.
TEST(SpfReconverge, MixedTransitionOverEgressSubset) {
  const AsTopology topo = random_topology(17);
  const std::size_t n_links = topo.link_count();
  LinkOverlay prev;
  prev.down.assign(n_links, false);
  prev.cost.assign(n_links, 0);
  prev.down[1] = true;
  prev.cost[2] = 7;
  prev.cost[n_links / 2] = 3;
  const IgpState baseline = IgpState::compute(topo, prev);

  LinkOverlay now = prev;
  now.cost[2] = 0;               // metric back to base
  now.cost[n_links / 2] = 1;     // metric cheapened
  now.cost[n_links - 3] = 12;    // metric raised
  now.down[n_links - 1] = true;  // overlay link-down
  util::Rng rng(4242);           // snapshot failures on top
  for (std::size_t l = 0; l < n_links; ++l) {
    if (rng.below(9) == 0) now.down[l] = true;
  }

  const RouterId last = static_cast<RouterId>(topo.router_count() - 1);
  const std::vector<RouterId> egresses{1, 2, 7, last};
  IgpState::ReconvergeStats stats;
  const IgpState inc = IgpState::reconverge(topo, baseline, prev, now,
                                            egresses, &stats);
  EXPECT_EQ(stats.sources_total, topo.router_count());
  EXPECT_LE(stats.sources_recomputed, egresses.size());
  const IgpState full = IgpState::compute(topo, now);
  for (const RouterId e : egresses) {
    EXPECT_EQ(inc.column(e), full.column(e)) << "egress " << e;
  }
  expect_matches_reference(topo, inc, now, egresses);
  EXPECT_THROW(inc.column(0), std::logic_error);
}

// An empty egress list holds no columns: it never means "every router".
TEST(SpfReconverge, EmptyEgressListHoldsNoColumns) {
  const AsTopology topo = random_topology(12);
  const IgpState baseline = IgpState::compute(topo);
  const LinkOverlay down = down_links(topo, {0, 1});
  IgpState::ReconvergeStats stats;
  const IgpState none = IgpState::reconverge(
      topo, baseline, {}, down, std::vector<RouterId>{}, &stats);
  EXPECT_EQ(stats.sources_total, topo.router_count());
  EXPECT_EQ(stats.sources_recomputed, 0u);
  EXPECT_EQ(none.router_count(), topo.router_count());
  for (RouterId e = 0; e < topo.router_count(); ++e) {
    EXPECT_THROW(none.column(e), std::logic_error) << "egress " << e;
  }
}

TEST(SpfReconverge, ColumnNotHeldThrows) {
  const AsTopology topo = triangle();
  const IgpState baseline = IgpState::compute(topo);
  const LinkOverlay down = down_links(topo, {0});  // a--b
  const std::vector<RouterId> only_c{2};
  const IgpState inc = IgpState::reconverge(topo, baseline, {}, down, only_c);
  EXPECT_EQ(inc.column(2).distance(0), 3u);  // the direct cost-3 link
  // A column the state does not hold is an error, never "unreachable".
  EXPECT_THROW(inc.column(0), std::logic_error);
  EXPECT_THROW(inc.column(1), std::logic_error);
  EXPECT_THROW(baseline.column(3), std::logic_error);  // no such router
  const IgpState none = IgpState::reconverge(topo, baseline, {}, down, {});
  EXPECT_THROW(none.column(2), std::logic_error);
}

// compute's per-column fan-out gives the serial state at any thread count
// (reconverge has no pool: its callers fan out per AS).
TEST(SpfReconverge, ParallelOutputMatchesSerial) {
  const AsTopology topo = random_topology(14);
  const LinkOverlay down =
      down_links(topo, {1, static_cast<topo::LinkId>(topo.link_count() - 2)});
  util::ThreadPool pool(4);
  EXPECT_TRUE(IgpState::compute(topo, {}, &pool) == IgpState::compute(topo));
  EXPECT_TRUE(IgpState::compute(topo, down, &pool) ==
              IgpState::compute(topo, down));
}

}  // namespace
}  // namespace mum::igp
