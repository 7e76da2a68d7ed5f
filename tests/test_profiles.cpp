#include "gen/profiles.h"

#include <gtest/gtest.h>

namespace mum::gen {
namespace {

TEST(Cycles, DateMapping) {
  EXPECT_EQ(cycle_date(0), "2010-01");
  EXPECT_EQ(cycle_date(11), "2010-12");
  EXPECT_EQ(cycle_date(27), "2012-04");
  EXPECT_EQ(cycle_date(59), "2014-12");
}

TEST(Cycles, InverseMapping) {
  EXPECT_EQ(cycle_of(2010, 1), 0);
  EXPECT_EQ(cycle_of(2012, 4), 27);
  EXPECT_EQ(cycle_of(2014, 12), 59);
  for (int c = 0; c < kCycles; ++c) {
    const int year = kFirstYear + c / 12;
    const int month = 1 + c % 12;
    EXPECT_EQ(cycle_of(year, month), c);
  }
}

TEST(Profiles, VodafoneIsDynamicTeAllAlong) {
  const AsShape shape = case_study_shape(kAsnVodafone);
  for (const int c : {0, 30, 59}) {
    const auto p = profile_at(kAsnVodafone, shape, c);
    EXPECT_TRUE(p.mpls_enabled);
    EXPECT_TRUE(p.dynamic_labels);
    EXPECT_GT(p.te_pair_share, 0.3);
  }
  // TE usage deepens over time: more LSPs per LER pair.
  EXPECT_GT(profile_at(kAsnVodafone, shape, 59).te_lsps_max,
            profile_at(kAsnVodafone, shape, 0).te_lsps_max);
  EXPECT_GT(profile_at(kAsnVodafone, shape, 59).te_lsps_min,
            profile_at(kAsnVodafone, shape, 0).te_lsps_min);
}

TEST(Profiles, AttTransitionAtCycle22) {
  const AsShape shape = case_study_shape(kAsnAtt);
  const auto before = profile_at(kAsnAtt, shape, 21);
  const auto after = profile_at(kAsnAtt, shape, 22);
  EXPECT_GT(before.mpls_coverage, after.mpls_coverage);
  // TE share keeps growing across the transition.
  EXPECT_GT(profile_at(kAsnAtt, shape, 55).te_pair_share,
            before.te_pair_share);
}

TEST(Profiles, TataIsEcmpHeavyNotTe) {
  const AsShape shape = case_study_shape(kAsnTata);
  EXPECT_GT(shape.topo.parallel_link_prob, 0.4);
  EXPECT_TRUE(shape.topo.uniform_costs);
  const auto p = profile_at(kAsnTata, shape, 30);
  EXPECT_LT(p.te_pair_share, 0.1);
  // Declining coverage over the years.
  EXPECT_GT(profile_at(kAsnTata, shape, 0).mpls_coverage,
            profile_at(kAsnTata, shape, 59).mpls_coverage);
}

TEST(Profiles, NttGrowsButStaysMonoPath) {
  const AsShape shape = case_study_shape(kAsnNtt);
  EXPECT_FALSE(shape.topo.uniform_costs);  // unique shortest paths
  const auto early = profile_at(kAsnNtt, shape, 0);
  const auto late = profile_at(kAsnNtt, shape, 59);
  EXPECT_LT(early.mpls_coverage, late.mpls_coverage);
  EXPECT_DOUBLE_EQ(late.te_pair_share, 0.0);
}

TEST(Profiles, Level3Timeline) {
  const AsShape shape = case_study_shape(kAsnLevel3);
  // Nothing before April 2012.
  EXPECT_FALSE(profile_at(kAsnLevel3, shape, 0).mpls_enabled);
  EXPECT_FALSE(profile_at(kAsnLevel3, shape, 26).mpls_enabled);
  // April 2012: off on the 1st, ramping after the 15th, high by the 29th.
  const int april = cycle_of(2012, 4);
  EXPECT_FALSE(profile_at(kAsnLevel3, shape, april, 1).mpls_enabled);
  EXPECT_FALSE(profile_at(kAsnLevel3, shape, april, 15).mpls_enabled);
  const auto mid = profile_at(kAsnLevel3, shape, april, 22);
  EXPECT_TRUE(mid.mpls_enabled);
  EXPECT_GT(mid.mpls_coverage, 0.2);
  EXPECT_LT(mid.mpls_coverage, 0.8);
  EXPECT_GE(profile_at(kAsnLevel3, shape, april, 29).mpls_coverage, 0.9);
  // Stable plateau, then decline from cycle 55 (1-based).
  EXPECT_GT(profile_at(kAsnLevel3, shape, 40).mpls_coverage, 0.5);
  EXPECT_LT(profile_at(kAsnLevel3, shape, 57).mpls_coverage, 0.5);
  EXPECT_LT(profile_at(kAsnLevel3, shape, 59).mpls_coverage, 0.05);
}

TEST(Profiles, RampCoverageMonotoneInDay) {
  const AsShape shape = case_study_shape(kAsnLevel3);
  const int april = cycle_of(2012, 4);
  double prev = -1.0;
  for (int day = 1; day <= 30; ++day) {
    const double cov = profile_at(kAsnLevel3, shape, april, day).mpls_coverage;
    EXPECT_GE(cov, prev);
    prev = cov;
  }
}

TEST(Profiles, BackgroundNoMplsStaysOff) {
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    util::Rng r = rng.fork(static_cast<std::uint64_t>(i));
    const AsShape shape = background_shape(200 + i, r);
    if (shape.archetype == MplsArchetype::kNoMpls) {
      for (const int c : {0, 30, 59}) {
        EXPECT_FALSE(profile_at(200 + i, shape, c).mpls_enabled);
      }
    }
  }
}

TEST(Profiles, BackgroundAdoptionRespected) {
  util::Rng rng(2);
  for (int i = 0; i < 80; ++i) {
    util::Rng r = rng.fork(static_cast<std::uint64_t>(i));
    const AsShape shape = background_shape(300 + i, r);
    if (shape.archetype == MplsArchetype::kNoMpls) continue;
    if (shape.adopt_cycle > 0) {
      EXPECT_FALSE(
          profile_at(300 + i, shape, shape.adopt_cycle - 1).mpls_enabled);
      if (shape.adopt_cycle < shape.retire_cycle) {
        EXPECT_TRUE(
            profile_at(300 + i, shape, shape.adopt_cycle).mpls_enabled);
      }
    }
    if (shape.retire_cycle <= kCycles - 1) {
      EXPECT_FALSE(
          profile_at(300 + i, shape, shape.retire_cycle).mpls_enabled);
    }
  }
}

TEST(Profiles, BackgroundArchetypeMixCoversAll) {
  util::Rng rng(3);
  int counts[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 300; ++i) {
    util::Rng r = rng.fork(static_cast<std::uint64_t>(i) + 1000);
    const AsShape shape = background_shape(400, r);
    ++counts[static_cast<int>(shape.archetype)];
  }
  for (const int c : counts) EXPECT_GT(c, 0);
  // LDP variants together must dominate (paper: LDP is the rule).
  EXPECT_GT(counts[1] + counts[2],
            counts[3] + counts[4]);
}

TEST(Profiles, CoverageAlwaysInUnitInterval) {
  for (const std::uint32_t asn :
       {kAsnVodafone, kAsnAtt, kAsnTata, kAsnNtt, kAsnLevel3}) {
    const AsShape shape = case_study_shape(asn);
    for (int c = 0; c < kCycles; ++c) {
      const auto p = profile_at(asn, shape, c);
      EXPECT_GE(p.mpls_coverage, 0.0);
      EXPECT_LE(p.mpls_coverage, 1.0);
      EXPECT_GE(p.te_pair_share, 0.0);
      EXPECT_LE(p.te_pair_share, 1.0);
      EXPECT_LE(p.te_lsps_min, p.te_lsps_max);
    }
  }
}

}  // namespace
}  // namespace mum::gen
