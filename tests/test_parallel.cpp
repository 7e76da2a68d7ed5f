// Determinism contract of the parallel execution layer: any thread count
// must produce byte-identical output to the serial run, and the ThreadPool
// primitives must behave (every index exactly once, exceptions propagate,
// nested regions run inline).
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/classify.h"
#include "core/extract.h"
#include "core/report.h"
#include "dataset/warts_lite.h"
#include "gen/campaign.h"
#include "gen/internet.h"
#include "lpr_reference.h"
#include "run/runner.h"

namespace mum {
namespace {

gen::GenConfig small_config() {
  gen::GenConfig c;
  c.background_tier1 = 1;
  c.background_transit = 6;
  c.stub_ases = 8;
  c.monitors = 4;
  c.dests_per_monitor = 60;
  return c;
}

// --- ThreadPool primitives ---------------------------------------------------

TEST(ThreadPool, VisitsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  pool.for_each_index(kN, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  util::ThreadPool pool(3);
  bool ran = false;
  pool.for_each_index(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::size_t sum = 0;
  pool.for_each_index(10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 45u);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.for_each_index(
                   100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  // The pool survives a failed job and accepts new work.
  std::atomic<int> count{0};
  pool.for_each_index(50, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, NestedRegionsRunInlineAndComplete) {
  util::ThreadPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> counts(kOuter);
  pool.for_each_index(kOuter, [&](std::size_t o) {
    // Would deadlock or oversubscribe if nested calls queued on the pool;
    // they must run inline on the calling worker instead.
    pool.for_each_index(kInner, [&](std::size_t) { ++counts[o]; });
  });
  for (std::size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(counts[o].load(), static_cast<int>(kInner));
  }
}

TEST(ThreadPool, ParallelForWithNullPoolRunsInline) {
  std::size_t sum = 0;
  util::parallel_for(nullptr, 10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 45u);
}

// --- deterministic merges ----------------------------------------------------

TEST(Merge, ExtractStatsSumsAllCounters) {
  lpr::ExtractStats a, b;
  a.traces_total = 10;
  a.traces_with_explicit_tunnel = 4;
  a.lsps_observed = 6;
  a.lsps_incomplete = 1;
  a.mpls_ips = 3;
  a.non_mpls_ips = 7;
  b.traces_total = 5;
  b.traces_with_explicit_tunnel = 2;
  b.lsps_observed = 3;
  b.lsps_incomplete = 2;
  b.mpls_ips = 1;
  b.non_mpls_ips = 4;
  a.merge(b);
  EXPECT_EQ(a.traces_total, 15u);
  EXPECT_EQ(a.traces_with_explicit_tunnel, 6u);
  EXPECT_EQ(a.lsps_observed, 9u);
  EXPECT_EQ(a.lsps_incomplete, 3u);
  EXPECT_EQ(a.mpls_ips, 4u);
  EXPECT_EQ(a.non_mpls_ips, 11u);
}

// --- serial vs parallel bit-identity -----------------------------------------

std::string snapshot_bytes(const dataset::SnapshotBatch& snap) {
  return dataset::serialize_snapshot(snap);
}

TEST(Determinism, SnapshotIdenticalAcrossThreadCounts) {
  const gen::Internet internet(small_config());
  const auto ip2as = internet.build_ip2as();

  auto ctx_serial = internet.instantiate(50);
  const auto serial = gen::CampaignRunner(internet, ip2as)
                          .snapshot(ctx_serial, 50, 0);

  util::ThreadPool pool(4);
  auto ctx_parallel = internet.instantiate(50);
  const auto parallel =
      gen::CampaignRunner(internet, ip2as, gen::CampaignConfig{}, &pool)
          .snapshot(ctx_parallel, 50, 0);

  EXPECT_EQ(snapshot_bytes(serial), snapshot_bytes(parallel));
}

TEST(Determinism, ExtractedSnapshotIdenticalAcrossThreadCounts) {
  const gen::Internet internet(small_config());
  const auto ip2as = internet.build_ip2as();
  util::ThreadPool pool(4);

  const auto serial = gen::CampaignRunner(internet, ip2as).month(50);
  const auto parallel =
      gen::CampaignRunner(internet, ip2as, gen::CampaignConfig{}, &pool)
          .month(50);

  // A month generated and extracted serially vs one generated and
  // extracted (chunks + census partitions) on the pool.
  ASSERT_EQ(serial.snapshots.size(), parallel.snapshots.size());
  for (std::size_t i = 0; i < serial.snapshots.size(); ++i) {
    lpr::reference::expect_same_extraction(
        lpr::extract_lsps(serial.snapshots[i], ip2as),
        lpr::extract_lsps(parallel.snapshots[i], ip2as, &pool));
  }
}

TEST(Determinism, RunnerCycleReportIdenticalAcrossThreadCounts) {
  run::RunnerConfig serial_config;
  serial_config.gen = small_config();
  serial_config.threads = 1;
  run::RunnerConfig parallel_config = serial_config;
  parallel_config.threads = 4;

  const run::Runner serial(serial_config);
  const run::Runner parallel(parallel_config);
  EXPECT_EQ(serial.threads(), 1);
  EXPECT_EQ(parallel.threads(), 4);

  const auto rs = serial.run_cycle(50);
  const auto rp = parallel.run_cycle(50);
  EXPECT_EQ(rs.to_json(true), rp.to_json(true));
}

TEST(Determinism, RunnerLongitudinalIdenticalAcrossThreadCounts) {
  run::RunnerConfig serial_config;
  serial_config.gen = small_config();
  serial_config.first_cycle = 50;
  serial_config.last_cycle = 52;
  serial_config.threads = 1;
  run::RunnerConfig parallel_config = serial_config;
  parallel_config.threads = 4;

  const auto rs = run::Runner(serial_config).run_all_contained().report;
  const auto rp = run::Runner(parallel_config).run_all_contained().report;
  ASSERT_EQ(rs.cycles.size(), 3u);
  EXPECT_EQ(rs.to_json(), rp.to_json());
}

TEST(Determinism, ClassifyAllShardedMatchesSerial) {
  const gen::Internet internet(small_config());
  const auto ip2as = internet.build_ip2as();
  util::ThreadPool pool(4);

  // Two independent pipeline runs over the same month, one sharded.
  const auto month = gen::CampaignRunner(internet, ip2as).month(50);
  const auto serial = lpr::run_pipeline(month, ip2as, {});
  const auto parallel = lpr::run_pipeline(month, ip2as, {}, &pool);
  EXPECT_EQ(serial.to_json(true), parallel.to_json(true));
}

}  // namespace
}  // namespace mum
