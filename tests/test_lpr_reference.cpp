// The production LPR (extract_month's one fan-out, the flat filters,
// grouping, Algorithm 1 in classify_all) against the naive reference in
// lpr_reference.h: on campaign months with and without dataset chaos, and
// on seeded random IOTP sets; serially and on a pool, with the Sec. 5
// alias heuristic off and on.
#include <gtest/gtest.h>

#include <string>

#include "chaos/chaos.h"
#include "core/report.h"
#include "lpr_reference.h"
#include "run/runner.h"
#include "util/rng.h"
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
      for (const bool alias : {false, true}) {
        SCOPED_TRACE(std::string(p ? "4 threads" : "1 thread") +
                     (alias ? ", alias heuristic" : ""));
        PipelineConfig config;
        config.classify.alias_resolution_heuristic = alias;
        const CycleReport got = run_pipeline(month, ip2as, config, p);
        reference::expect_matches_reference(want, got);
        reference::expect_same_classes(got.iotps, alias);
        reference::expect_same_tallies(want, got, alias);
      }
    }
  });
}

// Random IOTPs: 1-5 distinct branches of 0-4 LSRs over 6 addresses and 4
// labels (stacks of 0-2), so common IPs, label collisions at them and
// branches that meet only at the PHP egress (no common IP) all occur. Some
// branches copy the first branch's label stacks onto fresh addresses, so
// identical label sequences (Parallel Links) occur too.
std::vector<IotpRecord> random_iotps(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  const auto addr = [&] {
    return net::Ipv4Addr(static_cast<std::uint32_t>(rng.uniform(1, 6)));
  };
  std::vector<IotpRecord> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    IotpRecord& rec = out[i];
    rec.key = {65001, net::Ipv4Addr(static_cast<std::uint32_t>(i)),
               net::Ipv4Addr(99)};
    const std::uint64_t branches = rng.uniform(1, 5);
    for (std::uint64_t b = 0; b < branches; ++b) {
      Lsp lsp;
      lsp.asn = rec.key.asn;
      lsp.ingress = rec.key.ingress;
      lsp.egress = rec.key.egress;
      lsp.egress_labeled = rng.chance(0.3);
      if (!rec.variants.empty() && rng.chance(0.4)) {
        lsp.lsrs = rec.variants.front().lsrs;
        for (LsrHop& hop : lsp.lsrs) hop.addr = addr();
      } else {
        const std::uint64_t hops = rng.uniform(0, 4);
        for (std::uint64_t h = 0; h < hops; ++h) {
          LsrHop& hop = lsp.lsrs.emplace_back(LsrHop{addr(), {}});
          const std::uint64_t depth =
              rng.chance(0.05) ? 0 : rng.uniform(1, 2);
          for (std::uint64_t d = 0; d < depth; ++d) {
            hop.labels.push_back(
                static_cast<std::uint32_t>(rng.uniform(16, 19)));
          }
        }
      }
      if (std::ranges::find(rec.variants, lsp) == rec.variants.end()) {
        rec.variants.push_back(std::move(lsp));
      }
    }
  }
  return out;
}

TEST(LprReference, ClassifyMatchesReferenceOnRandomIotps) {
  util::ThreadPool pool(4);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const bool alias : {false, true}) {
      for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                  &pool}) {
        SCOPED_TRACE("seed " + std::to_string(seed) +
                     (p ? ", 4 threads" : ", 1 thread") +
                     (alias ? ", alias heuristic" : ""));
        std::vector<IotpRecord> records = random_iotps(seed, 2500);
        const ClassCounts counts =
            classify_all(records, {.alias_resolution_heuristic = alias}, p);
        reference::expect_same_classes(records, alias);
        reference::Tallies want{};
        for (const IotpRecord& rec : records) {
          reference::count(want, reference::classify(rec.variants, alias));
        }
        EXPECT_EQ(want, reference::tallies_of(counts));
        // Every branch of Algorithm 1 is exercised.
        for (const std::uint64_t n : want) EXPECT_GT(n, 20u);
        const auto by_alias = std::ranges::count_if(
            records, &IotpRecord::classified_by_alias_heuristic);
        if (alias) {
          EXPECT_GT(by_alias, 20);
        } else {
          EXPECT_EQ(by_alias, 0);
        }
      }
    }
  }
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
