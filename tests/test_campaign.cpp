#include "gen/campaign.h"

#include <gtest/gtest.h>

#include "core/filters.h"
#include "dataset/warts_lite.h"
#include "util/thread_pool.h"

#include <algorithm>
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
  for (const dataset::TraceView t : snap) {
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
  for (const dataset::TraceView t : snap) {
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
  for (const dataset::TraceView t : snap) {
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
  auto next_b = m2.cycle().begin();
  for (const dataset::TraceView a : m1.cycle()) {
    const dataset::TraceView b = *next_b;
    ++next_b;
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
  const auto set1 = ::mum::lpr::persistence_set(month.snapshots[1]);
  std::size_t kept = 0;
  std::size_t total = 0;
  for (const auto& obs : c0.observations) {
    if (obs.lsp.asn == kAsnVodafone) continue;  // dynamic labels churn
    ++total;
    kept += std::ranges::binary_search(set1, obs.lsp.content_hash()) ? 1 : 0;
  }
  ASSERT_GT(total, 50u);
  const double share = static_cast<double>(kept) / static_cast<double>(total);
  EXPECT_GT(share, 0.45);  // high, but below 1: churn exists to be filtered
  EXPECT_LT(share, 1.0);
}

TEST_F(CampaignTest, VodafoneLabelsChurnBetweenSnapshots) {
  const auto month = runner.month(50);
  const auto c0 = ::mum::lpr::extract_lsps(month.snapshots[0], ip2as);
  const auto set1 = ::mum::lpr::persistence_set(month.snapshots[1]);
  std::size_t kept = 0, total = 0;
  for (const auto& obs : c0.observations) {
    if (obs.lsp.asn != kAsnVodafone) continue;
    ++total;
    kept += std::ranges::binary_search(set1, obs.lsp.content_hash()) ? 1 : 0;
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

// --- probe plan --------------------------------------------------------------

// Every probe a monitor's plan holds, resolved against a month's planes, is
// the path Internet::path_spec derives for it, field by field; the probes
// path_spec cannot route are the ones the plan leaves out. The campaign's
// destination split is re-derived here independently of probe_plan.
TEST(ProbePlan, ResolvesToPathSpecOnDefaultWorld) {
  const Internet internet(GenConfig{});
  const GenConfig& config = internet.config();
  const auto& monitors = internet.monitors();
  const auto& dests = internet.destinations();
  std::vector<ProbePlan> plans;
  for (std::size_t mi = 0; mi < monitors.size(); ++mi) {
    plans.push_back(internet.probe_plan(mi));
  }

  for (const int cycle : {1, 22, 57}) {
    const MonthContext ctx = internet.instantiate(cycle);
    std::vector<const probe::AsDataPlane*> planes;
    ctx.plane_table(planes);
    probe::PathSpec resolved;
    std::size_t routed = 0;
    for (std::size_t mi = 0; mi < monitors.size(); ++mi) {
      const ProbePlan& plan = plans[mi];
      std::size_t next = 0;  // the plan probe the next routable one must be
      int probed = 0;
      for (int o = 0;
           o < config.dest_overlap && probed < config.dests_per_monitor;
           ++o) {
        const std::size_t lane =
            (mi + monitors.size() - static_cast<std::size_t>(o)) %
            monitors.size();
        for (std::size_t d = lane;
             d < dests.size() && probed < config.dests_per_monitor;
             d += monitors.size(), ++probed) {
          for (int pp = 0; pp < config.probes_per_dest; ++pp) {
            Destination dest = dests[d];
            dest.addr = net::Ipv4Addr(dest.addr.value() +
                                      static_cast<std::uint32_t>(pp) * 128);
            const auto path = internet.path_spec(monitors[mi], dest, ctx);
            if (!path) {
              if (next < plan.size()) {
                EXPECT_NE(plan.probes[next].dst, dest.addr);
              }
              continue;
            }
            ASSERT_LT(next, plan.size()) << "monitor " << mi;
            const ProbePlan::Probe& probe = plan.probes[next];
            EXPECT_EQ(probe.dst, dest.addr);
            EXPECT_EQ(probe.flow_id,
                      probe::paris_flow_id(monitors[mi], dest.addr));
            ASSERT_TRUE(plan.resolve(next, planes, resolved));
            EXPECT_EQ(resolved.pre_hops, path->pre_hops);
            EXPECT_EQ(resolved.post_hops, path->post_hops);
            EXPECT_EQ(resolved.dst, path->dst);
            EXPECT_EQ(resolved.dst_responds, path->dst_responds);
            ASSERT_EQ(resolved.segments.size(), path->segments.size());
            for (std::size_t s = 0; s < path->segments.size(); ++s) {
              const probe::SegmentSpec& a = resolved.segments[s];
              const probe::SegmentSpec& b = path->segments[s];
              EXPECT_EQ(a.plane, b.plane);
              EXPECT_EQ(a.ingress, b.ingress);
              EXPECT_EQ(a.egress, b.egress);
              EXPECT_EQ(a.entry_iface, b.entry_iface);
            }
            ++next;
            ++routed;
          }
        }
      }
      EXPECT_EQ(next, plan.size()) << "monitor " << mi;
    }
    EXPECT_GT(routed, 20000u) << "cycle " << cycle;
  }
}

// One runner kept for a whole campaign (plans, block sizes, walk scratch
// and asn memo warm from cycle to cycle, the fleet dips included) generates
// the same bytes as a fresh runner per cycle; so does daily_month on the
// warm runner. Monitors fan out over a pool, where plans are built lazily.
TEST(CampaignRunnerReuse, MatchesFreshRunnerPerCycle) {
  const Internet internet(small_config());
  const dataset::Ip2As ip2as = internet.build_ip2as();
  util::ThreadPool pool(4);
  const CampaignRunner warm(internet, ip2as, CampaignConfig{}, &pool);
  DeltaEvolver warm_world(internet, &pool);
  DeltaEvolver cold_world(internet, &pool);
  const auto same = [](const dataset::SnapshotBatch& a,
                       const dataset::SnapshotBatch& b) {
    return dataset::serialize_snapshot(a) == dataset::serialize_snapshot(b);
  };

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const double fleet_share = cycle == 22 ? 0.55 : cycle == 57 ? 0.6 : 1.0;
    const auto reused = warm.month(warm_world, cycle, fleet_share);
    const auto fresh = CampaignRunner(internet, ip2as, CampaignConfig{}, &pool)
                           .month(cold_world, cycle, fleet_share);
    ASSERT_EQ(reused.snapshots.size(), fresh.snapshots.size());
    for (std::size_t s = 0; s < fresh.snapshots.size(); ++s) {
      ASSERT_TRUE(same(reused.snapshots[s], fresh.snapshots[s]))
          << "cycle " << cycle << " snapshot " << s;
    }
  }

  const auto reused_days = warm.daily_month(cycle_of(2012, 4), 5);
  const auto fresh_days =
      CampaignRunner(internet, ip2as, CampaignConfig{}, &pool)
          .daily_month(cycle_of(2012, 4), 5);
  ASSERT_EQ(reused_days.size(), fresh_days.size());
  for (std::size_t d = 0; d < fresh_days.size(); ++d) {
    ASSERT_TRUE(same(reused_days[d], fresh_days[d])) << "day " << d + 1;
  }
}

}  // namespace
}  // namespace mum::gen
