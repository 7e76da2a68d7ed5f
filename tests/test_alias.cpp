// Alias-resolution tests: union-find behaviour, the label-based inference,
// router-level IOTP rewriting, and end-to-end accuracy against the
// simulator's ground-truth address->router mapping.
#include "core/alias.h"

#include <gtest/gtest.h>

#include "core/classify.h"
#include "core/extract.h"
#include "core/filters.h"
#include "gen/campaign.h"
#include "gen/internet.h"

namespace mum::lpr {
namespace {

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

// --- union-find -----------------------------------------------------------

TEST(AddressUnionFind, IdentityByDefault) {
  AddressUnionFind uf;
  EXPECT_EQ(uf.find(ip(5)), ip(5));
  EXPECT_TRUE(uf.sets().empty());
}

TEST(AddressUnionFind, MergeAndFind) {
  AddressUnionFind uf;
  uf.merge(ip(10), ip(20));
  EXPECT_EQ(uf.find(ip(10)), uf.find(ip(20)));
  EXPECT_EQ(uf.find(ip(10)), ip(10));  // lowest address is canonical
  EXPECT_EQ(uf.find(ip(30)), ip(30));
}

TEST(AddressUnionFind, TransitiveMerge) {
  AddressUnionFind uf;
  uf.merge(ip(30), ip(20));
  uf.merge(ip(20), ip(10));
  uf.merge(ip(50), ip(40));
  EXPECT_EQ(uf.find(ip(30)), ip(10));
  EXPECT_EQ(uf.find(ip(40)), ip(40));
  const auto sets = uf.sets();
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0], (std::set<net::Ipv4Addr>{ip(10), ip(20), ip(30)}));
  EXPECT_EQ(sets[1], (std::set<net::Ipv4Addr>{ip(40), ip(50)}));
}

TEST(AddressUnionFind, CanonicalStableUnderMergeOrder) {
  AddressUnionFind a, b;
  a.merge(ip(1), ip(2));
  a.merge(ip(2), ip(3));
  b.merge(ip(3), ip(2));
  b.merge(ip(1), ip(3));
  for (const auto addr : {ip(1), ip(2), ip(3)}) {
    EXPECT_EQ(a.find(addr), ip(1));
    EXPECT_EQ(b.find(addr), ip(1));
  }
}

// --- label-based inference --------------------------------------------------

LspObservation obs(std::uint32_t egress,
                   std::vector<std::pair<std::uint32_t, std::uint32_t>> hops) {
  LspObservation o;
  o.lsp.asn = 65001;
  o.lsp.ingress = ip(1);
  o.lsp.egress = ip(egress);
  for (const auto& [addr, label] : hops) {
    o.lsp.lsrs.push_back(LsrHop{ip(addr), {label}});
  }
  o.dst_asn = 9;
  return o;
}

TEST(LabelAlias, SameLabelSameScopeMerges) {
  // Two bundle interfaces of one router: same label toward same exit.
  const LabelAliasResolver resolver(
      {obs(100, {{10, 500}}), obs(100, {{11, 500}})});
  EXPECT_EQ(resolver.canonical(ip(10)), resolver.canonical(ip(11)));
  ASSERT_EQ(resolver.alias_sets().size(), 1u);
}

TEST(LabelAlias, DifferentExitScopesDoNotMerge) {
  // Same label value toward DIFFERENT exits: different routers' counters
  // colliding — must not merge.
  const LabelAliasResolver resolver(
      {obs(100, {{10, 500}}), obs(200, {{11, 500}})});
  EXPECT_NE(resolver.canonical(ip(10)), resolver.canonical(ip(11)));
  EXPECT_TRUE(resolver.alias_sets().empty());
}

TEST(LabelAlias, DifferentLabelsDoNotMerge) {
  const LabelAliasResolver resolver(
      {obs(100, {{10, 500}}), obs(100, {{11, 501}})});
  EXPECT_TRUE(resolver.alias_sets().empty());
}

TEST(LabelAlias, NonPhpObservationsIgnored) {
  auto risky = obs(100, {{10, 500}});
  risky.lsp.egress_labeled = true;  // FEC-mixed interpretation
  const LabelAliasResolver resolver({risky, obs(100, {{11, 500}})});
  EXPECT_TRUE(resolver.alias_sets().empty());
}

// --- router-level rewriting --------------------------------------------------

TEST(RouterLevel, RewriteCanonicalizesEndpointsOnly) {
  // 100/101 are aliases (same label toward exit 200 in the teaching set).
  const LabelAliasResolver resolver(
      {obs(200, {{100, 700}}), obs(200, {{101, 700}})});
  auto o = obs(101, {{11, 500}});
  const auto rewritten = to_router_level({o}, resolver);
  ASSERT_EQ(rewritten.size(), 1u);
  EXPECT_EQ(rewritten[0].lsp.egress, ip(100));       // endpoint merged
  EXPECT_EQ(rewritten[0].lsp.lsrs[0].addr, ip(11));  // interior untouched
}

TEST(RouterLevel, MergesParallelLinkIotps) {
  // Two IOTPs that differ only by bundle interfaces at the egress side
  // collapse into one router-level IOTP, classified Parallel Links.
  auto o1 = obs(100, {{10, 500}});
  auto o2 = obs(101, {{11, 500}});  // different exit iface, same router
  o2.dst_asn = 10;
  // Teach the resolver that exits 100/101 are aliases (same label seen at
  // both from a second vantage... emulate with a manual merge scope):
  const LabelAliasResolver base({obs(200, {{100, 700}}),
                                 obs(200, {{101, 700}})});
  ASSERT_EQ(base.canonical(ip(100)), base.canonical(ip(101)));

  const auto ip_level = group_iotps({o1, o2});
  EXPECT_EQ(ip_level.size(), 2u);
  auto router_level = group_iotps(to_router_level({o1, o2}, base));
  ASSERT_EQ(router_level.size(), 1u);
  classify_iotp(router_level[0]);
  EXPECT_EQ(router_level[0].dst_asns.size(), 2u);
}

// --- accuracy ----------------------------------------------------------------

TEST(AliasAccuracy, PrecisionComputation) {
  std::map<net::Ipv4Addr, net::Ipv4Addr> truth{
      {ip(1), ip(100)}, {ip(2), ip(100)}, {ip(3), ip(200)}};
  const std::vector<std::set<net::Ipv4Addr>> inferred{
      {ip(1), ip(2), ip(3)}};
  const auto acc = evaluate_aliases(inferred, truth);
  EXPECT_EQ(acc.inferred_pairs, 3u);
  EXPECT_EQ(acc.correct_pairs, 1u);  // only (1,2) is true
  EXPECT_NEAR(acc.precision(), 1.0 / 3.0, 1e-12);
}

TEST(AliasAccuracy, EmptyInferenceIsVacuouslyPrecise) {
  EXPECT_DOUBLE_EQ(evaluate_aliases({}, {}).precision(), 1.0);
}

// --- end-to-end against simulator ground truth -------------------------------

TEST(AliasEndToEnd, LabelInferencePrecisionHighOnSyntheticInternet) {
  gen::GenConfig config;
  config.background_tier1 = 2;
  config.background_transit = 10;
  config.stub_ases = 14;
  config.monitors = 6;
  config.dests_per_monitor = 250;
  gen::Internet internet(config);
  const auto ip2as = internet.build_ip2as();
  auto ctx = internet.instantiate(50);
  const auto snap = gen::CampaignRunner(internet, ip2as).snapshot(ctx, 50, 0);
  const auto extracted = extract_lsps(snap, ip2as);

  const LabelAliasResolver resolver(extracted.observations, snap);
  const auto sets = resolver.alias_sets();

  // Ground truth from the simulator: every interface address -> loopback
  // of its owning router.
  std::map<net::Ipv4Addr, net::Ipv4Addr> truth;
  for (const std::uint32_t asn : internet.modeled_asns()) {
    const auto* as = internet.modeled(asn);
    for (const auto& link : as->topo.links()) {
      truth[link.a_iface] = as->topo.router(link.a).loopback;
      truth[link.b_iface] = as->topo.router(link.b).loopback;
    }
  }

  const auto acc = evaluate_aliases(sets, truth);
  ASSERT_GT(acc.inferred_pairs, 50u);  // inference actually fires
  EXPECT_GT(acc.precision(), 0.9);     // and is nearly always right
}

TEST(AliasEndToEnd, RouterLevelReducesIotpCount) {
  gen::GenConfig config;
  config.background_tier1 = 2;
  config.background_transit = 10;
  config.stub_ases = 14;
  config.monitors = 6;
  config.dests_per_monitor = 250;
  gen::Internet internet(config);
  const auto ip2as = internet.build_ip2as();
  const auto month = gen::CampaignRunner(internet, ip2as).month(50);
  ExtractedMonth extracted = extract_month(month, ip2as);
  const auto filtered = apply_filters(std::move(extracted.cycle),
                                      extracted.following, FilterConfig{});

  auto ip_level = group_iotps(filtered.observations);
  const LabelAliasResolver resolver(filtered.observations,
                                    month.cycle());
  auto router_level =
      group_iotps(to_router_level(filtered.observations, resolver));

  // The paper's expectation: fewer IOTPs at router level.
  EXPECT_LT(router_level.size(), ip_level.size());

  const auto ip_counts = classify_all(ip_level);
  const auto router_counts = classify_all(router_level);
  // No class may be lost; TE must not be inflated by the merge.
  EXPECT_GT(router_counts.total(), 0u);
  EXPECT_LE(router_counts.total(), ip_counts.total());
}

}  // namespace
}  // namespace mum::lpr
