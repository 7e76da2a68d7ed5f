// Fast-reroute (RFC 4090) tests: backup pre-signalling, failure switchover
// with stable labels, and the persistence consequence (FRR-protected LSPs
// keep their label content across intra-month failures).
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "mpls/rsvp.h"
#include "util/rng.h"

namespace mum::mpls {
namespace {

using topo::AsTopology;
using topo::RouterId;
using topo::Vendor;

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

// A plane's hop spans are only valid until its next mutation; compare copies.
std::vector<TeHop> copy_of(std::span<const TeHop> hops) {
  return {hops.begin(), hops.end()};
}

// Diamond with disjoint arms: a-b-d and a-c-d.
struct FrrFixture {
  FrrFixture() : topo(1) {
    a = topo.add_router(ip(1), Vendor::kJuniper, true);
    b = topo.add_router(ip(2), Vendor::kJuniper, false);
    c = topo.add_router(ip(3), Vendor::kJuniper, false);
    d = topo.add_router(ip(4), Vendor::kJuniper, true);
    ab = topo.add_link(a, b, ip(101), ip(102), 1);
    ac = topo.add_link(a, c, ip(103), ip(104), 1);
    bd = topo.add_link(b, d, ip(105), ip(106), 1);
    cd = topo.add_link(c, d, ip(107), ip(108), 1);
    igp = igp::IgpState::compute(topo);
    for (std::size_t i = 0; i < topo.router_count(); ++i) {
      pools.emplace_back(Vendor::kJuniper);
    }
  }

  RsvpTePlane make_plane(bool frr) {
    RsvpConfig config;
    config.frr = frr;
    config.diverse_route_prob = 0.0;
    return RsvpTePlane(&topo, &igp, config);
  }

  AsTopology topo;
  igp::IgpState igp;
  std::vector<LabelPool> pools;
  RouterId a, b, c, d;
  topo::LinkId ab, ac, bd, cd;
};

TEST(Frr, BackupPreSignalledAndDisjoint) {
  FrrFixture f;
  auto plane = f.make_plane(true);
  util::Rng rng(1);
  const auto ids = plane.signal(f.a, f.d, 1, f.pools, rng);
  const auto backup = plane.backup_hops(ids[0]);
  ASSERT_FALSE(backup.empty());
  // Link-disjoint on the diamond: primary and backup share no link.
  std::set<topo::LinkId> primary_links;
  for (const auto& hop : plane.hops(ids[0])) primary_links.insert(hop.in_link);
  for (const auto& hop : backup) {
    EXPECT_FALSE(primary_links.contains(hop.in_link));
  }
  EXPECT_EQ(backup.back().router, f.d);
}

TEST(Frr, NoBackupWhenDisabled) {
  FrrFixture f;
  auto plane = f.make_plane(false);
  util::Rng rng(1);
  const auto ids = plane.signal(f.a, f.d, 1, f.pools, rng);
  EXPECT_TRUE(plane.backup_hops(ids[0]).empty());
}

TEST(Frr, ActivateSwitchesActiveHopsWithoutNewLabels) {
  FrrFixture f;
  auto plane = f.make_plane(true);
  util::Rng rng(1);
  const auto ids = plane.signal(f.a, f.d, 1, f.pools, rng);
  const std::uint64_t allocated_before = f.pools[f.b].allocated() +
                                         f.pools[f.c].allocated() +
                                         f.pools[f.d].allocated();
  const auto backup_before = copy_of(plane.backup_hops(ids[0]));

  std::vector<bool> down(f.topo.link_count(), false);
  down[plane.hops(ids[0])[0].in_link] = true;  // break the primary
  ASSERT_TRUE(plane.crosses_down_link(ids[0], down));
  ASSERT_TRUE(plane.activate_backup(ids[0], down));

  EXPECT_TRUE(plane.lsp(ids[0]).on_backup);
  EXPECT_EQ(copy_of(plane.active_hops(ids[0])),
            copy_of(plane.backup_hops(ids[0])));
  EXPECT_EQ(copy_of(plane.backup_hops(ids[0])),
            backup_before);  // labels unchanged
  EXPECT_EQ(f.pools[f.b].allocated() + f.pools[f.c].allocated() +
                f.pools[f.d].allocated(),
            allocated_before);  // no fresh labels drawn
  EXPECT_FALSE(plane.crosses_down_link(ids[0], down));  // active path is up
}

TEST(Frr, ActivateFailsWhenBackupAlsoBroken) {
  FrrFixture f;
  auto plane = f.make_plane(true);
  util::Rng rng(1);
  const auto ids = plane.signal(f.a, f.d, 1, f.pools, rng);
  std::vector<bool> down(f.topo.link_count(), true);  // everything down
  EXPECT_FALSE(plane.activate_backup(ids[0], down));
  EXPECT_FALSE(plane.lsp(ids[0]).on_backup);
}

TEST(Frr, RevertToPrimary) {
  FrrFixture f;
  auto plane = f.make_plane(true);
  util::Rng rng(1);
  const auto ids = plane.signal(f.a, f.d, 1, f.pools, rng);
  std::vector<bool> down(f.topo.link_count(), false);
  down[plane.hops(ids[0])[0].in_link] = true;
  ASSERT_TRUE(plane.activate_backup(ids[0], down));
  plane.revert_to_primary(ids[0]);
  EXPECT_FALSE(plane.lsp(ids[0]).on_backup);
  EXPECT_EQ(copy_of(plane.active_hops(ids[0])), copy_of(plane.hops(ids[0])));
}

TEST(Frr, ResignalClearsBackupState) {
  FrrFixture f;
  auto plane = f.make_plane(true);
  util::Rng rng(1);
  const auto ids = plane.signal(f.a, f.d, 1, f.pools, rng);
  std::vector<bool> down(f.topo.link_count(), false);
  down[plane.hops(ids[0])[0].in_link] = true;
  ASSERT_TRUE(plane.activate_backup(ids[0], down));
  std::vector<topo::LinkId> route;
  for (const auto& hop : plane.backup_hops(ids[0])) {
    route.push_back(hop.in_link);
  }
  plane.resignal_over(ids[0], route, f.pools);
  EXPECT_FALSE(plane.lsp(ids[0]).on_backup);
}

TEST(Frr, LineTopologyHasNoDisjointBackup) {
  // a - b - d only: no alternative route => no backup.
  AsTopology topo(1);
  const auto a = topo.add_router(ip(1), Vendor::kCisco, true);
  const auto b = topo.add_router(ip(2), Vendor::kCisco, false);
  const auto d = topo.add_router(ip(3), Vendor::kCisco, true);
  topo.add_link(a, b, ip(101), ip(102), 1);
  topo.add_link(b, d, ip(103), ip(104), 1);
  const auto igp = igp::IgpState::compute(topo);
  RsvpConfig config;
  config.frr = true;
  RsvpTePlane plane(&topo, &igp, config);
  std::vector<LabelPool> pools(3, LabelPool(Vendor::kCisco));
  util::Rng rng(1);
  const auto ids = plane.signal(a, d, 1, pools, rng);
  EXPECT_TRUE(plane.backup_hops(ids[0]).empty());
}

}  // namespace
}  // namespace mum::mpls
