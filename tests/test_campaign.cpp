#include "gen/campaign.h"

#include <gtest/gtest.h>

#include "core/filters.h"

#include <set>

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

class CampaignTest : public ::testing::Test {
 protected:
  CampaignTest()
      : internet(small_config()),
        ip2as(internet.build_ip2as()),
        runner(internet, ip2as) {}
  Internet internet;
  dataset::Ip2As ip2as;
  CampaignRunner runner;
};

TEST_F(CampaignTest, SnapshotHasExpectedTraceVolume) {
  MonthContext ctx = internet.instantiate(50);
  const auto snap = runner.snapshot(ctx, 50, 0);
  // 4 monitors x 60 destination /24s x probes_per_dest addresses.
  EXPECT_EQ(snap.trace_count(),
            4u * 60u *
                static_cast<std::size_t>(internet.config().probes_per_dest));
  EXPECT_EQ(snap.cycle_id, 50u);
  EXPECT_EQ(snap.date, "2014-03");
}

TEST_F(CampaignTest, TracesAreAnnotated) {
  MonthContext ctx = internet.instantiate(50);
  const auto snap = runner.snapshot(ctx, 50, 0);
  int annotated_hops = 0;
  for (const dataset::TraceView t : snap.traces) {
    EXPECT_NE(t.dst_asn(), 0u);
    for (std::size_t k = 0; k < t.hop_count(); ++k) {
      if (!t.hop(k).anonymous() && t.hop(k).asn() != 0) ++annotated_hops;
    }
  }
  EXPECT_GT(annotated_hops, 500);
}

TEST_F(CampaignTest, SomeTracesCrossExplicitTunnels) {
  MonthContext ctx = internet.instantiate(50);
  const auto snap = runner.snapshot(ctx, 50, 0);
  int tunneled = 0;
  for (const dataset::TraceView t : snap.traces) {
    tunneled += t.crosses_explicit_tunnel() ? 1 : 0;
  }
  EXPECT_GT(tunneled, 20);
  EXPECT_LT(tunneled, static_cast<int>(snap.trace_count()));
}

TEST_F(CampaignTest, MonitorShareReducesFleet) {
  MonthContext ctx = internet.instantiate(50);
  CampaignConfig half;
  half.monitor_share = 0.5;
  const auto snap = runner.snapshot(ctx, 50, 0, half);
  std::set<std::uint32_t> monitors;
  for (const dataset::TraceView t : snap.traces) {
    monitors.insert(t.monitor_id());
  }
  EXPECT_EQ(monitors.size(), 2u);
}

TEST_F(CampaignTest, MonthHasCyclePlusExtras) {
  const auto month = runner.month(50);
  ASSERT_EQ(month.snapshots.size(), 3u);  // cycle + 2
  EXPECT_EQ(month.cycle().sub_index, 0u);
  EXPECT_EQ(month.snapshots[1].sub_index, 1u);
  EXPECT_EQ(month.cycle_id, 50u);
  // Snapshots probe the same destination list.
  EXPECT_EQ(month.snapshots[0].trace_count(),
            month.snapshots[1].trace_count());
}

TEST_F(CampaignTest, CampaignDeterministicForSameSeed) {
  const auto m1 = runner.month(40);
  Internet other(small_config());
  const auto other_ip2as = other.build_ip2as();
  const auto m2 = CampaignRunner(other, other_ip2as).month(40);
  ASSERT_EQ(m1.cycle().trace_count(), m2.cycle().trace_count());
  for (std::size_t i = 0; i < m1.cycle().trace_count(); ++i) {
    const dataset::TraceView a = m1.cycle().traces.view(i);
    const dataset::TraceView b = m2.cycle().traces.view(i);
    ASSERT_EQ(a.hop_count(), b.hop_count());
    for (std::size_t h = 0; h < a.hop_count(); ++h) {
      EXPECT_EQ(a.hop(h).addr(), b.hop(h).addr());
      EXPECT_EQ(a.hop(h).labels(), b.hop(h).labels());
    }
  }
}

TEST_F(CampaignTest, MostLspContentPersistsAcrossSnapshots) {
  // The Persistence filter depends on high-but-not-total overlap between a
  // month's snapshots.
  const auto month = runner.month(50);
  const auto c0 = ::mum::lpr::extract_lsps(month.snapshots[0], ip2as);
  const auto c1 = ::mum::lpr::extract_lsps(month.snapshots[1], ip2as);
  const auto set1 = ::mum::lpr::lsp_content_set(c1);
  std::size_t kept = 0;
  std::size_t total = 0;
  for (const auto& obs : c0.observations) {
    if (obs.lsp.asn == kAsnVodafone) continue;  // dynamic labels churn
    ++total;
    kept += set1.contains(obs.lsp.content_hash()) ? 1 : 0;
  }
  ASSERT_GT(total, 50u);
  const double share = static_cast<double>(kept) / static_cast<double>(total);
  EXPECT_GT(share, 0.45);  // high, but below 1: churn exists to be filtered
  EXPECT_LT(share, 1.0);
}

TEST_F(CampaignTest, VodafoneLabelsChurnBetweenSnapshots) {
  const auto month = runner.month(50);
  const auto c0 = ::mum::lpr::extract_lsps(month.snapshots[0], ip2as);
  const auto c1 = ::mum::lpr::extract_lsps(month.snapshots[1], ip2as);
  const auto set1 = ::mum::lpr::lsp_content_set(c1);
  std::size_t kept = 0, total = 0;
  for (const auto& obs : c0.observations) {
    if (obs.lsp.asn != kAsnVodafone) continue;
    ++total;
    kept += set1.contains(obs.lsp.content_hash()) ? 1 : 0;
  }
  if (total > 0) {
    EXPECT_LT(static_cast<double>(kept) / static_cast<double>(total), 0.2);
  }
}

TEST_F(CampaignTest, DailyMonthGeneratesPerDaySnapshots) {
  const auto days = runner.daily_month(cycle_of(2012, 4), 10);
  ASSERT_EQ(days.size(), 10u);
  EXPECT_EQ(days[0].date, "2012-04-01");
  EXPECT_EQ(days[9].date, "2012-04-10");
  // Fleet size wobbles day to day.
  std::set<std::size_t> volumes;
  for (const auto& d : days) volumes.insert(d.trace_count());
  EXPECT_GT(volumes.size(), 1u);
}

TEST_F(CampaignTest, Level3AppearsMidApril2012) {
  const auto days = runner.daily_month(cycle_of(2012, 4), 30);
  auto level3_lsps = [&](const dataset::SnapshotBatch& snap) {
    const auto extracted = ::mum::lpr::extract_lsps(snap, ip2as);
    std::size_t n = 0;
    for (const auto& obs : extracted.observations) {
      if (obs.lsp.asn == kAsnLevel3) ++n;
    }
    return n;
  };
  EXPECT_EQ(level3_lsps(days[0]), 0u);    // April 1st
  EXPECT_EQ(level3_lsps(days[13]), 0u);   // April 14th
  EXPECT_GT(level3_lsps(days[29]), 10u);  // April 30th: deployed
  // Ramp: day 20 strictly between the extremes.
  const auto mid = level3_lsps(days[20]);
  EXPECT_GT(mid, 0u);
  EXPECT_LT(mid, level3_lsps(days[29]));
}

}  // namespace
}  // namespace mum::gen
