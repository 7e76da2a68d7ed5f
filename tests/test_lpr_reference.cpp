// The production LPR front end (extract_month's one fan-out, the flat
// filters, grouping) against the naive reference in lpr_reference.h, on
// campaign months with and without dataset chaos, serially and on a pool.
#include <gtest/gtest.h>

#include <string>

#include "chaos/chaos.h"
#include "core/report.h"
#include "lpr_reference.h"
#include "run/runner.h"
#include "util/thread_pool.h"

namespace mum::lpr {
namespace {

run::RunnerConfig small_study() {
  run::RunnerConfig config;
  config.gen.background_transit = 8;
  config.gen.stub_ases = 12;
  config.gen.monitors = 6;
  config.gen.dests_per_monitor = 150;
  config.threads = 1;
  return config;
}

// Months at cycles 0, 30 and 59: clean, then with scrambled ASNs (runs
// that turn multi-AS, egresses that lose PHP) and truncated stacks (runs
// that split or vanish).
template <class F>
void for_each_month(F&& check) {
  const run::Runner runner(small_study());
  chaos::ChaosConfig faults;
  faults.bogus_ip2as = 0.05;
  faults.truncate_stack = 0.3;
  for (const int cycle : {0, 30, 59}) {
    dataset::MonthData month = runner.month_data(cycle);
    check(month, runner.ip2as(), "cycle " + std::to_string(cycle));
    chaos::Corruptor corruptor(faults);
    for (dataset::SnapshotBatch& snap : month.snapshots) {
      corruptor.corrupt(snap);
    }
    ASSERT_GT(corruptor.stats().asns_scrambled, 0u);
    ASSERT_GT(corruptor.stats().stacks_truncated, 0u);
    check(month, runner.ip2as(), "cycle " + std::to_string(cycle) + " chaos");
  }
}

TEST(LprReference, PipelineMatchesReferenceOnCampaignMonths) {
  util::ThreadPool pool(4);
  for_each_month([&](const dataset::MonthData& month,
                     const dataset::Ip2As& ip2as, const std::string& where) {
    SCOPED_TRACE(where);
    const reference::Result want = reference::run(month, ip2as);
    ASSERT_GT(want.iotps.size(), 10u);
    ASSERT_GT(want.filter_stats.after_persistence, 0u);
    for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                &pool}) {
      SCOPED_TRACE(p ? "4 threads" : "1 thread");
      reference::expect_matches_reference(want,
                                          run_pipeline(month, ip2as, {}, p));
    }
  });
}

TEST(LprReference, PersistenceSetAgreesWithExtraction) {
  for_each_month([](const dataset::MonthData& month,
                    const dataset::Ip2As& ip2as, const std::string& where) {
    for (const dataset::SnapshotBatch& snap : month.snapshots) {
      SCOPED_TRACE(where + " sub " + std::to_string(snap.sub_index));
      const PersistenceSet set = persistence_set(snap);
      EXPECT_FALSE(set.empty());
      EXPECT_EQ(set, persistence_set(extract_lsps(snap, ip2as)));
      EXPECT_EQ(set, persistence_set(reference::extract(snap, ip2as)));
    }
  });
}

}  // namespace
}  // namespace mum::lpr
