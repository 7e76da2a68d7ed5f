#include "core/filters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>

namespace mum::lpr {
namespace {

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

LspObservation obs(std::uint32_t asn, std::uint32_t ingress,
                   std::uint32_t egress, std::vector<std::uint32_t> labels,
                   std::uint32_t dst_asn) {
  LspObservation o;
  o.lsp.asn = asn;
  o.lsp.ingress = ip(ingress);
  o.lsp.egress = ip(egress);
  std::uint32_t addr = ingress + 1000;
  for (const std::uint32_t label : labels) {
    o.lsp.lsrs.push_back(LsrHop{ip(addr++), {label}});
  }
  o.dst_asn = dst_asn;
  return o;
}

ExtractedSnapshot snap_of(std::vector<LspObservation> observations,
                          std::uint32_t cycle = 5) {
  ExtractedSnapshot s;
  s.cycle_id = cycle;
  s.observations = std::move(observations);
  s.stats.lsps_observed = s.observations.size();
  return s;
}

// Persistence sets of hand-built following snapshots.
std::vector<PersistenceSet> sets_of(
    std::initializer_list<ExtractedSnapshot> snapshots) {
  std::vector<PersistenceSet> out;
  for (const ExtractedSnapshot& snap : snapshots) {
    out.push_back(persistence_set(snap));
  }
  return out;
}

bool is_dynamic(const FilteredCycle& result, std::uint32_t asn) {
  return std::ranges::binary_search(result.dynamic_asns, asn);
}

// Each filter test isolates its filter by its FilterStats stage counter:
// the other inputs pass every other filter, and without following sets
// Persistence does not run.

TEST(Filters, IntraAsDropsAsnZero) {
  auto cycle = snap_of({obs(0, 1, 2, {100}, 9),      // inter-domain
                        obs(65001, 1, 2, {100}, 9),
                        obs(65001, 1, 2, {100}, 10)});
  const auto result = apply_filters(cycle, {}, {});
  EXPECT_EQ(result.stats.complete, 3u);
  EXPECT_EQ(result.stats.after_intra_as, 2u);
  EXPECT_EQ(result.stats.after_target_as, 2u);
  EXPECT_EQ(result.stats.after_transit_diversity, 2u);
  EXPECT_EQ(result.stats.after_persistence, 2u);
  ASSERT_EQ(result.observations.size(), 2u);
  for (const auto& o : result.observations) EXPECT_EQ(o.lsp.asn, 65001u);
}

TEST(Filters, TargetAsDropsTunnelsTowardOwnAs) {
  auto cycle = snap_of({obs(65001, 1, 2, {100}, 65001),   // dst inside
                        obs(65001, 1, 2, {100}, 65099),   // dst outside
                        obs(65001, 1, 2, {100}, 65098)}); // dst outside
  const auto result = apply_filters(cycle, {}, {});
  EXPECT_EQ(result.stats.after_intra_as, 3u);
  EXPECT_EQ(result.stats.after_target_as, 2u);
  EXPECT_EQ(result.stats.after_transit_diversity, 2u);
  EXPECT_EQ(result.stats.after_persistence, 2u);
  ASSERT_EQ(result.observations.size(), 2u);
  EXPECT_EQ(result.observations[0].dst_asn, 65099u);
  EXPECT_EQ(result.observations[1].dst_asn, 65098u);
}

TEST(Filters, TransitDiversityNeedsTwoDestAses) {
  auto cycle = snap_of({obs(65001, 1, 2, {100}, 9),
                        obs(65001, 1, 2, {100}, 9),     // same dst AS
                        obs(65001, 5, 6, {200}, 9),
                        obs(65001, 5, 6, {200}, 10)});  // two dst ASes
  const auto result = apply_filters(cycle, {}, {});
  EXPECT_EQ(result.stats.after_target_as, 4u);
  EXPECT_EQ(result.stats.after_transit_diversity, 2u);
  EXPECT_EQ(result.stats.after_persistence, 2u);
  for (const auto& o : result.observations) {
    EXPECT_EQ(o.lsp.ingress, ip(5));
  }
}

TEST(Filters, TransitDiversityIsPerIotpNotPerLsp) {
  // Two different LSPs of one IOTP, each seen toward ONE dst AS, but the
  // IOTP overall reaches two => both kept.
  auto cycle = snap_of({obs(65001, 1, 2, {100}, 9),
                        obs(65001, 1, 2, {101}, 10)});
  const auto result = apply_filters(cycle, {}, {});
  EXPECT_EQ(result.stats.after_target_as, 2u);
  EXPECT_EQ(result.stats.after_transit_diversity, 2u);
  EXPECT_EQ(result.observations.size(), 2u);
}

TEST(Filters, PersistenceKeepsLspSeenInNextSnapshot) {
  const auto persistent_obs = obs(65001, 1, 2, {100}, 9);
  const auto transient_obs = obs(65001, 1, 2, {777}, 10);
  auto cycle = snap_of({persistent_obs, transient_obs,
                        obs(65001, 1, 2, {100}, 10)});  // ensure diversity
  const auto next1 = snap_of({persistent_obs});
  const auto next2 = snap_of({});
  FilterConfig config;
  config.persistence_j = 2;
  const auto result = apply_filters(cycle, sets_of({next1, next2}), config);
  EXPECT_EQ(result.stats.after_transit_diversity, 3u);
  EXPECT_EQ(result.stats.after_persistence, 2u);
  for (const auto& o : result.observations) {
    EXPECT_EQ(o.lsp.lsrs[0].labels[0], 100u);
  }
}

TEST(Filters, PersistenceSeenOnlyInSecondFollowUpStillKept) {
  const auto o1 = obs(65001, 1, 2, {100}, 9);
  auto cycle = snap_of({o1, obs(65001, 1, 2, {100}, 10)});
  const auto next1 = snap_of({});
  const auto next2 = snap_of({o1});
  const auto result =
      apply_filters(cycle, sets_of({next1, next2}), FilterConfig{});
  EXPECT_EQ(result.observations.size(), 2u);
}

TEST(Filters, PersistenceJLimitsSnapshotsConsulted) {
  const auto o1 = obs(65001, 1, 2, {100}, 9);
  const auto stable = obs(65001, 3, 4, {300}, 9);
  auto cycle = snap_of({o1, obs(65001, 1, 2, {100}, 10),
                        stable, obs(65001, 3, 4, {300}, 10)});
  const auto empty = snap_of({});
  const auto with_lsp = snap_of({o1});
  const auto with_stable = snap_of({stable});
  // o1 reappears only in snapshot X+2, but j=1 only looks at X+1. Half of
  // the AS's LSPs persist there, so reinjection does not fire.
  FilterConfig config;
  config.persistence_j = 1;
  const auto result =
      apply_filters(cycle, sets_of({with_stable, with_lsp}), config);
  EXPECT_EQ(result.stats.after_transit_diversity, 4u);
  EXPECT_EQ(result.stats.after_persistence, 2u);
  EXPECT_FALSE(is_dynamic(result, 65001));
  for (const auto& o : result.observations) EXPECT_EQ(o.lsp, stable.lsp);
  // j=2 also consults X+2, where o1 reappears.
  config.persistence_j = 2;
  EXPECT_EQ(apply_filters(cycle, sets_of({with_stable, with_lsp}), config)
                .stats.after_persistence,
            4u);
  // With X+1 empty, j=1 would leave nothing of the AS: reinjection.
  config.persistence_j = 1;
  EXPECT_TRUE(is_dynamic(
      apply_filters(cycle, sets_of({empty, with_lsp}), config), 65001));
}

TEST(Filters, DynamicAsReinjectedAndTagged) {
  // All of AS 65001's LSPs vanish in the follow-ups (label churn):
  // reinjection restores them and the AS is tagged dynamic.
  auto cycle = snap_of({obs(65001, 1, 2, {100}, 9),
                        obs(65001, 1, 2, {101}, 10),
                        obs(65002, 5, 6, {300}, 9),
                        obs(65002, 5, 6, {300}, 10)});
  const auto next1 = snap_of({obs(65001, 1, 2, {200}, 9),   // new labels
                              obs(65002, 5, 6, {300}, 9)}); // stable
  const auto result = apply_filters(cycle, sets_of({next1}), FilterConfig{});
  EXPECT_TRUE(is_dynamic(result, 65001));
  EXPECT_FALSE(is_dynamic(result, 65002));
  EXPECT_EQ(result.stats.after_persistence, 4u);  // everything kept
}

TEST(Filters, PartialChurnIsNotDynamic) {
  // Half of the AS's LSPs persist: normal routing noise, no reinjection.
  auto cycle = snap_of({obs(65001, 1, 2, {100}, 9),
                        obs(65001, 1, 2, {101}, 10)});
  const auto next1 = snap_of({obs(65001, 1, 2, {100}, 9)});
  const auto result = apply_filters(cycle, sets_of({next1}), FilterConfig{});
  EXPECT_FALSE(is_dynamic(result, 65001));
  EXPECT_EQ(result.stats.after_persistence, 1u);
}

TEST(Filters, PersistenceNeedsFollowUpsAndPositiveJ) {
  // Persistence runs only with j > 0 and at least one following set; else
  // nothing is dropped and no AS is tagged dynamic.
  auto cycle = snap_of({obs(65001, 1, 2, {100}, 9),
                        obs(65001, 1, 2, {101}, 10)});
  const auto no_follow_ups = apply_filters(cycle, {}, FilterConfig{});
  FilterConfig j0;
  j0.persistence_j = 0;
  const auto zero_j = apply_filters(cycle, sets_of({snap_of({})}), j0);
  for (const FilteredCycle* result : {&no_follow_ups, &zero_j}) {
    EXPECT_TRUE(result->dynamic_asns.empty());
    EXPECT_EQ(result->stats.after_transit_diversity, 2u);
    EXPECT_EQ(result->stats.after_persistence,
              result->stats.after_transit_diversity);
    EXPECT_EQ(result->observations.size(), 2u);
  }
}

TEST(Filters, StatsChainMonotone) {
  auto cycle = snap_of({obs(0, 1, 2, {1}, 9),
                        obs(65001, 1, 2, {2}, 65001),
                        obs(65001, 3, 4, {3}, 9),
                        obs(65001, 3, 4, {3}, 10),
                        obs(65001, 7, 8, {4}, 9)});
  const auto result =
      apply_filters(cycle, sets_of({snap_of({})}), FilterConfig{});
  const auto& s = result.stats;
  EXPECT_GE(s.complete, s.after_intra_as);
  EXPECT_GE(s.after_intra_as, s.after_target_as);
  EXPECT_GE(s.after_target_as, s.after_transit_diversity);
}

TEST(Filters, PersistenceSetMatchesHashes) {
  const auto o1 = obs(65001, 1, 2, {100}, 9);
  const auto o2 = obs(65001, 1, 2, {101}, 9);
  const auto o1_again = obs(65001, 1, 2, {100}, 10);
  const auto set = persistence_set(snap_of({o1, o2, o1_again}));
  PersistenceSet expected{o1.lsp.content_hash(), o2.lsp.content_hash()};
  std::ranges::sort(expected);
  EXPECT_EQ(set, expected);  // sorted, one entry per distinct LSP
}

// --- group_iotps --------------------------------------------------------

TEST(GroupIotps, DeduplicatesVariantsAndAccumulatesDests) {
  const auto o1 = obs(65001, 1, 2, {100}, 9);
  const auto o1_again = obs(65001, 1, 2, {100}, 10);
  const auto o2 = obs(65001, 1, 2, {101}, 11);
  const auto records = group_iotps({o1, o1_again, o2});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].variants.size(), 2u);  // {100} and {101}
  EXPECT_EQ(records[0].dst_asns, (std::vector<std::uint32_t>{9, 10, 11}));
}

TEST(GroupIotps, SeparatesByEndpointsAndAs) {
  const auto records = group_iotps({obs(65001, 1, 2, {100}, 9),
                                    obs(65001, 1, 3, {100}, 9),
                                    obs(65002, 1, 2, {100}, 9)});
  EXPECT_EQ(records.size(), 3u);
}

TEST(GroupIotps, DeterministicOrder) {
  const auto a = group_iotps({obs(65002, 1, 2, {1}, 9),
                              obs(65001, 5, 6, {2}, 9),
                              obs(65001, 3, 4, {3}, 9)});
  ASSERT_EQ(a.size(), 3u);
  EXPECT_LT(a[0].key, a[1].key);
  EXPECT_LT(a[1].key, a[2].key);
}

TEST(GroupIotps, EmptyInput) {
  EXPECT_TRUE(group_iotps({}).empty());
}

}  // namespace
}  // namespace mum::lpr
