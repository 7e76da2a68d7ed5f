// Delta-based cycle evolution: the DeltaEvolver oracle contract and the
// allocation machinery underneath it.
//
// The load-bearing property: a delta-evolved cycle is byte-identical to a
// from-scratch `instantiate(cycle)` — at any thread count, from any starting
// cycle, with every churn knob turned on. The full rebuild (`instantiate`,
// and Runner::run_cycle above it) is the oracle; these tests hold the two
// paths against each other at every layer (arena, label pools, incremental
// SPF, evolver, runner, resume).
#include "gen/evolve.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "dataset/warts_lite.h"
#include "gen/campaign.h"
#include "gen/internet.h"
#include "igp/spf.h"
#include "mpls/label_pool.h"
#include "mpls/rsvp.h"
#include "run/checkpoint.h"
#include "run/manifest.h"
#include "run/runner.h"
#include "topo/builder.h"
#include "topo/topology.h"
#include "util/arena.h"
#include "util/rng.h"

namespace mum {
namespace {

namespace fs = std::filesystem;

net::Ipv4Addr ip(std::uint32_t low) { return net::Ipv4Addr(10, 0, 0, low); }

// --- util::Arena -----------------------------------------------------------

TEST(Arena, BumpAllocatesZeroedAlignedArrays) {
  util::Arena arena(256);
  auto a = arena.make_array<std::uint32_t>(10);
  ASSERT_EQ(a.size(), 10u);
  for (const std::uint32_t v : a) EXPECT_EQ(v, 0u);
  auto b = arena.make_array<std::uint64_t>(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) %
                alignof(std::uint64_t),
            0u);
  EXPECT_GE(arena.used(), 10 * sizeof(std::uint32_t) + 3 * sizeof(std::uint64_t));
}

// Chunks are not zero-filled when allocated, so make_array alone owes its
// callers zeroes: a chunk dirtied, reset and carved again still hands out
// zeroed arrays.
TEST(Arena, MakeArrayZeroesDirtiedChunkAfterReset) {
  util::Arena arena(256);
  const auto dirty = arena.make_array<std::uint64_t>(64);
  std::fill(dirty.begin(), dirty.end(), ~std::uint64_t{0});
  arena.reset();
  const auto clean = arena.make_array<std::uint64_t>(64);
  EXPECT_EQ(clean.data(), dirty.data());  // the same bytes, carved again
  for (const std::uint64_t v : clean) EXPECT_EQ(v, 0u);
}

TEST(Arena, ResetRetainsChunksAndTracksHighWater) {
  util::Arena arena(64);
  // Force growth across several chunks.
  for (int i = 0; i < 50; ++i) arena.make_array<std::uint64_t>(16);
  const std::size_t cap = arena.capacity();
  const std::size_t used = arena.used();
  EXPECT_GT(cap, 64u);
  EXPECT_GE(cap, used);
  EXPECT_GE(used, 50 * 16 * sizeof(std::uint64_t));

  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.capacity(), cap);  // chunks retained, not freed

  // A same-sized workload after reset fits in the retained chunks: the
  // capacity is reached once, then allocation stops, and the bytes handed
  // out (the high water) repeat.
  for (int i = 0; i < 50; ++i) arena.make_array<std::uint64_t>(16);
  EXPECT_EQ(arena.capacity(), cap);
  EXPECT_EQ(arena.used(), used);
}

// --- mpls::LabelPool state/burn --------------------------------------------

TEST(LabelPool, BurnMatchesRepeatedAllocateIncludingWrap) {
  // The Juniper range is 500001 wide; 1000003 burns wrap it twice — burn's
  // O(1) arithmetic must land exactly where the allocate loop does.
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{499999},
        std::uint64_t{500001}, std::uint64_t{1000003}}) {
    mpls::LabelPool looped(topo::Vendor::kJuniper, /*seed=*/42);
    mpls::LabelPool burned = looped;
    for (std::uint64_t i = 0; i < n; ++i) looped.allocate();
    burned.burn(n);
    EXPECT_EQ(burned.state().next, looped.state().next) << "n=" << n;
    EXPECT_EQ(burned.state().count, looped.state().count) << "n=" << n;
    // And the next real draw agrees.
    EXPECT_EQ(burned.allocate(), looped.allocate()) << "n=" << n;
  }
}

TEST(LabelPool, RestoreRewindsToTheExactDrawSequence) {
  mpls::LabelPool pool(topo::Vendor::kCisco, /*seed=*/7);
  pool.burn(123);
  const mpls::LabelPool::State snap = pool.state();
  std::vector<std::uint32_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(pool.allocate());
  pool.restore(snap);
  EXPECT_EQ(pool.allocated(), snap.count);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(pool.allocate(), first[i]);
}

// --- igp::IgpState::reconverge across overlay transitions -------------------

topo::AsTopology random_topology(std::uint64_t seed) {
  util::Rng rng(seed);
  topo::BuildParams params;
  params.asn = 1;
  params.block = net::Ipv4Prefix(net::Ipv4Addr(16, 0, 0, 0), 16);
  params.core_routers = 4 + static_cast<int>(rng.below(5));
  params.pop_routers = 8 + static_cast<int>(rng.below(16));
  params.parallel_link_prob = (seed % 2 == 0) ? 0.4 : 0.0;
  params.uniform_costs = (seed % 3 != 0);
  params.heavy_cost_share = 0.25;
  return topo::build_as_topology(params, rng);
}

std::vector<topo::RouterId> all_routers(const topo::AsTopology& topo) {
  std::vector<topo::RouterId> all(topo.router_count());
  for (topo::RouterId r = 0; r < all.size(); ++r) all[r] = r;
  return all;
}

igp::LinkOverlay random_overlay(const topo::AsTopology& topo, util::Rng& rng) {
  igp::LinkOverlay overlay;
  overlay.down.assign(topo.link_count(), false);
  overlay.cost.assign(topo.link_count(), 0);
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    if (rng.below(12) == 0) overlay.down[l] = true;
    if (rng.below(8) == 0) {
      overlay.cost[l] = 1 + static_cast<std::uint32_t>(rng.below(10));
    }
  }
  if (overlay.trivial()) overlay = igp::LinkOverlay{};  // canonical form
  return overlay;
}

// Walks a chain of random overlay transitions (downs appearing/clearing,
// metrics rising/falling, back to trivial) and checks every delta-reconverged
// state against a from-scratch compute under the same overlay. May partition
// the topology — delta reconvergence must survive unreachable regions.
TEST(ReconvergeDelta, MatchesFullRecomputeAcrossOverlayTransitions) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const topo::AsTopology topo = random_topology(seed);
    util::Rng rng(seed * 977 + 5);

    igp::LinkOverlay prev;  // start trivial
    igp::IgpState state = igp::IgpState::compute(topo);
    for (int step = 0; step < 5; ++step) {
      // Last step returns to trivial: the "failure repaired" transition.
      igp::LinkOverlay now =
          step == 4 ? igp::LinkOverlay{} : random_overlay(topo, rng);
      igp::IgpState::ReconvergeStats stats;
      const igp::IgpState delta = igp::IgpState::reconverge(
          topo, state, prev, now, all_routers(topo), &stats);
      const igp::IgpState full = igp::IgpState::compute(topo, now);
      ASSERT_TRUE(delta == full) << "seed=" << seed << " step=" << step;
      EXPECT_EQ(stats.sources_total, topo.router_count());
      EXPECT_LE(stats.sources_recomputed, stats.sources_total);
      state = full;
      prev = std::move(now);
    }
  }
}

TEST(ReconvergeDelta, IdenticalOverlayRecomputesNothing) {
  const topo::AsTopology topo = random_topology(3);
  util::Rng rng(99);
  const igp::LinkOverlay overlay = random_overlay(topo, rng);
  const igp::IgpState base = igp::IgpState::compute(topo, overlay);
  igp::IgpState::ReconvergeStats stats;
  const igp::IgpState same = igp::IgpState::reconverge(
      topo, base, overlay, overlay, all_routers(topo), &stats);
  EXPECT_TRUE(same == base);
  EXPECT_EQ(stats.sources_recomputed, 0u);
}

// --- RsvpTePlane arena reuse ------------------------------------------------

// A steady month-over-month mutation workload must stop allocating once the
// scratch arena's high-water mark is reached: capacity after a couple of
// cycles equals capacity after a hundred.
TEST(RsvpArena, ScratchCapacityStopsGrowingAcrossRestoreCycles) {
  topo::AsTopology topo(1);
  const auto a = topo.add_router(ip(1), topo::Vendor::kJuniper, true);
  const auto b = topo.add_router(ip(2), topo::Vendor::kJuniper, false);
  const auto c = topo.add_router(ip(3), topo::Vendor::kJuniper, false);
  const auto d = topo.add_router(ip(4), topo::Vendor::kJuniper, true);
  topo.add_link(a, b, ip(101), ip(102), 1);
  topo.add_link(a, c, ip(103), ip(104), 1);
  topo.add_link(b, d, ip(105), ip(106), 1);
  topo.add_link(c, d, ip(107), ip(108), 1);
  const igp::IgpState igp = igp::IgpState::compute(topo);
  std::vector<mpls::LabelPool> pools;
  for (std::size_t i = 0; i < topo.router_count(); ++i) {
    pools.emplace_back(topo::Vendor::kJuniper, i * 17 + 1);
  }

  mpls::RsvpTePlane plane(&topo, &igp, {});
  util::Rng rng(5);
  const auto ids = plane.signal(a, d, 6, pools, rng);
  plane.mark_pristine();

  std::size_t cap_after_warmup = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (const mpls::LspId id : ids) plane.reoptimize(id, pools);
    EXPECT_GT(plane.scratch_arena().used(), 0u);
    plane.restore_pristine();
    EXPECT_EQ(plane.scratch_arena().used(), 0u);
    if (cycle == 1) cap_after_warmup = plane.scratch_arena().capacity();
  }
  EXPECT_GT(cap_after_warmup, 0u);
  EXPECT_EQ(plane.scratch_arena().capacity(), cap_after_warmup);
}

TEST(RsvpArena, RestorePristineRewindsLspState) {
  topo::AsTopology topo(1);
  const auto a = topo.add_router(ip(1), topo::Vendor::kJuniper, true);
  const auto b = topo.add_router(ip(2), topo::Vendor::kJuniper, false);
  const auto d = topo.add_router(ip(3), topo::Vendor::kJuniper, true);
  topo.add_link(a, b, ip(101), ip(102), 1);
  topo.add_link(b, d, ip(103), ip(104), 1);
  const igp::IgpState igp = igp::IgpState::compute(topo);
  std::vector<mpls::LabelPool> pools;
  for (std::size_t i = 0; i < topo.router_count(); ++i) {
    pools.emplace_back(topo::Vendor::kJuniper, i + 3);
  }

  mpls::RsvpTePlane plane(&topo, &igp, {});
  util::Rng rng(2);
  const auto ids = plane.signal(a, d, 2, pools, rng);
  plane.mark_pristine();

  std::vector<std::vector<mpls::TeHop>> pristine_hops;
  for (const mpls::LspId id : ids) {
    const auto hops = plane.lsp(id).hops;
    pristine_hops.emplace_back(hops.begin(), hops.end());
  }

  // Mutate twice (double reoptimize exercises the one-shot undo guard),
  // then roll back.
  for (const mpls::LspId id : ids) {
    plane.reoptimize(id, pools);
    plane.reoptimize(id, pools);
  }
  EXPECT_EQ(plane.lsp(ids[0]).resignal_count, 2u);
  plane.restore_pristine();

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const mpls::TeLsp& lsp = plane.lsp(ids[i]);
    EXPECT_EQ(lsp.resignal_count, 0u);
    ASSERT_EQ(lsp.hops.size(), pristine_hops[i].size());
    for (std::size_t h = 0; h < lsp.hops.size(); ++h) {
      EXPECT_EQ(lsp.hops[h], pristine_hops[i][h]);
    }
  }
}

// --- DeltaEvolver vs instantiate oracle ------------------------------------

gen::GenConfig churny_config() {
  gen::GenConfig c;
  c.background_tier1 = 1;
  c.background_transit = 6;
  c.stub_ases = 8;
  c.monitors = 4;
  c.dests_per_monitor = 60;
  c.churn.link_down_prob = 0.02;
  c.churn.metric_change_prob = 0.03;
  c.churn.router_down_prob = 0.01;
  c.churn.te_resignal_prob = 0.2;
  return c;
}

std::string snapshot_bytes(const gen::CampaignRunner& runner,
                           gen::MonthContext& ctx, int cycle) {
  return dataset::serialize_snapshot(runner.snapshot(ctx, cycle, 0));
}

// Evolving through cycles — contiguously and across gaps — lands on a world
// byte-identical to a from-scratch instantiate of the same cycle.
TEST(DeltaEvolver, EvolvedWorldMatchesInstantiateOracle) {
  const gen::GenConfig config = churny_config();
  const gen::Internet internet(config);
  const dataset::Ip2As ip2as = internet.build_ip2as();
  const gen::CampaignRunner runner(internet, ip2as);

  gen::DeltaEvolver evolver(internet);
  int prev_cycle = -1;
  for (const int cycle : {0, 1, 2, 3, 9, 10, 30}) {  // gaps included
    gen::MonthContext& evolved = evolver.evolve_to(cycle);
    EXPECT_EQ(evolver.last_stats().cycle, cycle);
    EXPECT_EQ(evolver.last_stats().full_build, prev_cycle < 0);
    if (prev_cycle >= 0) {
      EXPECT_EQ(evolver.last_stats().ases_total,
                evolver.last_stats().ases_rebuilt +
                    evolver.last_stats().ases_te_rebuilt +
                    evolver.last_stats().ases_restored);
    }
    gen::MonthContext fresh = internet.instantiate(cycle);
    EXPECT_EQ(snapshot_bytes(runner, evolved, cycle),
              snapshot_bytes(runner, fresh, cycle))
        << "cycle=" << cycle;
    prev_cycle = cycle;
  }
}

// A backward jump cannot be expressed as a delta; the evolver must fall back
// to a full rebuild and still be correct.
TEST(DeltaEvolver, BackwardJumpFallsBackToFullBuild) {
  const gen::GenConfig config = churny_config();
  const gen::Internet internet(config);
  const dataset::Ip2As ip2as = internet.build_ip2as();
  const gen::CampaignRunner runner(internet, ip2as);

  gen::DeltaEvolver evolver(internet);
  evolver.evolve_to(5);
  gen::MonthContext& back = evolver.evolve_to(2);
  EXPECT_TRUE(evolver.last_stats().full_build);
  gen::MonthContext fresh = internet.instantiate(2);
  EXPECT_EQ(snapshot_bytes(runner, back, 2), snapshot_bytes(runner, fresh, 2));
}

// The full month (cycle snapshot + extra snapshots + label dynamics) agrees
// between the evolver path and the from-scratch path.
TEST(DeltaEvolver, MonthDataMatchesFreshMonth) {
  const gen::GenConfig config = churny_config();
  const gen::Internet internet(config);
  const dataset::Ip2As ip2as = internet.build_ip2as();
  const gen::CampaignRunner runner(internet, ip2as);

  gen::DeltaEvolver evolver(internet);
  for (const int cycle : {1, 2, 6}) {
    const dataset::MonthData evolved = runner.month(evolver, cycle);
    const dataset::MonthData fresh = runner.month(cycle);
    ASSERT_EQ(evolved.snapshots.size(), fresh.snapshots.size());
    for (std::size_t i = 0; i < fresh.snapshots.size(); ++i) {
      EXPECT_EQ(dataset::serialize_snapshot(evolved.snapshots[i]),
                dataset::serialize_snapshot(fresh.snapshots[i]))
          << "cycle=" << cycle << " snapshot=" << i;
    }
  }
}

// Asking for the current cycle again (a retried cycle) must not hand back
// the world the previous month's flaps, re-signals and dynamics mutated: the
// second month of the same cycle equals the fresh one, snapshot for snapshot.
TEST(DeltaEvolver, SameCycleTwiceMatchesFreshMonth) {
  const gen::GenConfig config = churny_config();
  const gen::Internet internet(config);
  const dataset::Ip2As ip2as = internet.build_ip2as();
  const gen::CampaignRunner runner(internet, ip2as);

  gen::DeltaEvolver evolver(internet);
  for (const int cycle : {6, 30, 50}) {
    const dataset::MonthData fresh = runner.month(cycle);
    for (int attempt = 0; attempt < 2; ++attempt) {
      const dataset::MonthData evolved = runner.month(evolver, cycle);
      ASSERT_EQ(evolved.snapshots.size(), fresh.snapshots.size());
      for (std::size_t i = 0; i < fresh.snapshots.size(); ++i) {
        EXPECT_EQ(dataset::serialize_snapshot(evolved.snapshots[i]),
                  dataset::serialize_snapshot(fresh.snapshots[i]))
            << "cycle=" << cycle << " attempt=" << attempt
            << " snapshot=" << i;
      }
    }
  }
}

// --- Runner-level parity ----------------------------------------------------

run::RunnerConfig evolve_runner(int cycles, int threads) {
  run::RunnerConfig c;
  c.gen = churny_config();
  c.first_cycle = 0;
  c.last_cycle = cycles - 1;
  c.threads = threads;
  return c;
}

// Delta-vs-rebuild parity across seeds: the whole longitudinal report, not
// just one snapshot, is byte-identical to the per-cycle from-scratch
// rebuild of Runner::run_cycle, the campaign loop's oracle.
TEST(EvolveRunner, ReportMatchesRebuildOracleAcrossSeeds) {
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{20151028}}) {
    auto config = evolve_runner(/*cycles=*/6, /*threads=*/1);
    config.gen.seed = seed;
    const run::Runner oracle(config);
    lpr::LongitudinalReport rebuilt;
    for (int c = config.first_cycle; c <= config.last_cycle; ++c) {
      rebuilt.cycles.push_back(oracle.run_cycle(c));
    }
    const std::string expected = rebuilt.to_json();
    for (const int threads : {1, 2}) {
      config.threads = threads;
      const auto evolved = run::Runner(config).run_all_contained().report;
      EXPECT_EQ(evolved.to_json(), expected)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

// The delta path runs cycles serially against one standing world; its output
// must not depend on how much the inner stages parallelize.
TEST(EvolveRunner, ByteIdenticalAtAnyThreadCount) {
  const auto baseline =
      run::Runner(evolve_runner(5, /*threads=*/1))
          .run_all_contained()
          .report;
  const std::string expected = baseline.to_json();
  for (const int threads : {4, 16}) {
    const auto got = run::Runner(evolve_runner(5, threads))
                         .run_all_contained()
                         .report;
    EXPECT_EQ(got.to_json(), expected) << "threads=" << threads;
  }
}

TEST(EvolveRunner, ManifestRecordsDeltaAccounting) {
  const auto outcome =
      run::Runner(evolve_runner(4, /*threads=*/1)).run_all_contained();
  ASSERT_EQ(outcome.manifest.cycles.size(), 4u);
  EXPECT_EQ(outcome.manifest.cycles[0].delta.cycle, 0);
  EXPECT_TRUE(outcome.manifest.cycles[0].delta.full_build);
  for (int c = 1; c < 4; ++c) {
    const gen::CycleDeltaStats& delta = outcome.manifest.cycles[c].delta;
    EXPECT_EQ(delta.cycle, c);
    EXPECT_FALSE(delta.full_build) << "cycle " << c << " rebuilt from scratch";
    EXPECT_GT(delta.ases_total, 0u);
  }
}

// --- resume onto an evolved world -------------------------------------------

class EvolveResumeTest : public ::testing::Test {
 protected:
  // Pid-suffixed: ctest -j runs each discovered test as its own process,
  // and concurrent same-fixture processes must not share a dir.
  EvolveResumeTest()
      : dir_(fs::temp_directory_path() /
             ("mum_evolve_resume_" + std::to_string(::getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~EvolveResumeTest() override { fs::remove_all(dir_); }
  fs::path dir_;
};

// Interrupt a campaign mid-way, resume it, and require (a) byte-identical
// final report and (b) that the recomputed tail runs on an *evolved* world:
// the first recomputed cycle is the only full build, every later one a delta.
TEST_F(EvolveResumeTest, ResumeLandsOnEvolvedWorldByteIdentically) {
  auto config = evolve_runner(/*cycles=*/8, /*threads=*/1);
  config.checkpoint_dir = dir_.string();
  const auto uninterrupted = run::Runner(config).run_all_contained();
  ASSERT_TRUE(uninterrupted.manifest.complete());

  // Drop the tail half of the checkpoints, as if the run died at cycle 4.
  for (int cycle = 4; cycle < 8; ++cycle) {
    fs::remove(dir_ / run::checkpoint_filename(cycle));
  }

  auto resume_config = config;
  resume_config.resume = true;
  const auto resumed = run::Runner(resume_config).run_all_contained();

  EXPECT_EQ(resumed.report.to_json(), uninterrupted.report.to_json());
  ASSERT_EQ(resumed.manifest.cycles.size(), 8u);
  for (int cycle = 0; cycle < 4; ++cycle) {
    EXPECT_EQ(resumed.manifest.cycles[cycle].outcome,
              run::CycleOutcome::kFromCheckpoint);
  }
  // Cycle 4 seeds the standing world (full build); 5..7 evolve from it.
  EXPECT_EQ(resumed.manifest.cycles[4].outcome, run::CycleOutcome::kOk);
  EXPECT_TRUE(resumed.manifest.cycles[4].delta.full_build);
  for (int cycle = 5; cycle < 8; ++cycle) {
    EXPECT_EQ(resumed.manifest.cycles[cycle].outcome, run::CycleOutcome::kOk);
    EXPECT_EQ(resumed.manifest.cycles[cycle].delta.cycle, cycle);
    EXPECT_FALSE(resumed.manifest.cycles[cycle].delta.full_build)
        << "resumed cycle " << cycle << " should be a delta step";
  }
}

// --- daily_month standing-context reuse --------------------------------------

// daily_month now rolls one standing context through the days; it must stay
// byte-identical to the per-day re-instantiate it replaced.
TEST(DailyMonth, MatchesPerDayReinstantiation) {
  gen::GenConfig config = churny_config();
  const gen::Internet internet(config);
  const dataset::Ip2As ip2as = internet.build_ip2as();
  const gen::CampaignRunner runner(internet, ip2as);

  // Cycle 27 (April 2012) sits inside a deployment ramp, so day-resolved
  // profiles actually differ day to day — set_day takes the rebuild path.
  const int cycle = 27;
  const int days = 5;
  const auto daily = runner.daily_month(cycle, days);
  ASSERT_EQ(daily.size(), static_cast<std::size_t>(days));

  for (int day = 1; day <= days; ++day) {
    gen::MonthContext ctx = internet.instantiate(cycle, day);
    if (day > 1) ctx.advance_dynamics();

    gen::CampaignConfig day_config = runner.config();
    const double wobble =
        0.7 + 0.3 * (static_cast<double>(
                         util::mix64(util::hash_combine(cycle, day)) % 1000) /
                     999.0);
    day_config.monitor_share = runner.config().monitor_share * wobble;
    dataset::SnapshotBatch ref =
        runner.snapshot(ctx, cycle, day - 1, day_config);
    ref.date = daily[static_cast<std::size_t>(day - 1)].date;

    EXPECT_EQ(dataset::serialize_snapshot(daily[static_cast<std::size_t>(
                  day - 1)]),
              dataset::serialize_snapshot(ref))
        << "day=" << day;
  }
}

// --- scale knobs -------------------------------------------------------------

// `--scale routers=N,lsps=M` must actually deliver the targets: enough
// background routers, and a TE mesh dense enough to carry the LSP count.
TEST(Scale, WorldReachesRouterAndLspTargets) {
  gen::GenConfig config;
  config.background_tier1 = 1;
  config.stub_ases = 8;
  config.monitors = 2;
  config.dests_per_monitor = 20;
  config.scale_routers = 2000;
  config.scale_lsps = 20000;
  const gen::Internet internet(config);

  std::uint64_t routers = 0;
  for (const std::uint32_t asn : internet.modeled_asns()) {
    routers += internet.modeled(asn)->topo.router_count();
  }
  EXPECT_GE(routers, 2000u * 8 / 10);

  const gen::MonthContext ctx = internet.instantiate(0);
  std::uint64_t lsps = 0;
  for (const std::uint32_t asn : internet.modeled_asns()) {
    const probe::AsDataPlane* plane = ctx.plane_of(asn);
    if (plane != nullptr && plane->rsvp != nullptr) {
      lsps += plane->rsvp->lsp_count();
    }
  }
  EXPECT_GE(lsps, 20000u * 8 / 10);
}

}  // namespace
}  // namespace mum
