// Delta-based cycle evolution: the DeltaEvolver oracle contract and the
// allocation machinery underneath it.
//
// The load-bearing property: a delta-evolved cycle is byte-identical to a
// from-scratch `instantiate(cycle)` — at any thread count, from any starting
// cycle, with every churn knob turned on. The full rebuild (`instantiate`,
// and Runner::run_cycle above it) is the oracle; these tests hold the two
// paths against each other at every layer (RSVP-TE hops, label pools,
// incremental SPF, evolver, runner, resume).
#include "gen/evolve.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <span>
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
#include "util/rng.h"

namespace mum {
namespace {

namespace fs = std::filesystem;

net::Ipv4Addr ip(std::uint32_t low) { return net::Ipv4Addr(10, 0, 0, low); }

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

// --- RsvpTePlane hop vector and pristine rollback -------------------------

// Diamond a-{b,c}-d with per-router Juniper pools: two disjoint arms, so
// FRR backups exist and a re-signal can move an LSP to the other arm.
struct TeDiamond {
  TeDiamond() : topo(1) {
    a = topo.add_router(ip(1), topo::Vendor::kJuniper, true);
    b = topo.add_router(ip(2), topo::Vendor::kJuniper, false);
    c = topo.add_router(ip(3), topo::Vendor::kJuniper, false);
    d = topo.add_router(ip(4), topo::Vendor::kJuniper, true);
    topo.add_link(a, b, ip(101), ip(102), 1);
    topo.add_link(a, c, ip(103), ip(104), 1);
    topo.add_link(b, d, ip(105), ip(106), 1);
    topo.add_link(c, d, ip(107), ip(108), 1);
    igp = igp::IgpState::compute(topo);
    for (std::size_t i = 0; i < topo.router_count(); ++i) {
      pools.emplace_back(topo::Vendor::kJuniper, i * 17 + 1);
    }
  }

  // A plane signalled with `count` LSPs from a to d and marked pristine.
  // Identical calls give identical planes (labels included): each draws
  // from its own copy of the start pools.
  mpls::RsvpTePlane signalled(int count, bool frr,
                              std::vector<mpls::LabelPool>& own_pools) const {
    mpls::RsvpConfig config;
    config.frr = frr;
    mpls::RsvpTePlane plane(&topo, &igp, config);
    own_pools = pools;
    util::Rng rng(5);
    plane.signal(a, d, count, own_pools, rng);
    plane.mark_pristine();
    return plane;
  }

  topo::AsTopology topo;
  igp::IgpState igp;
  std::vector<mpls::LabelPool> pools;
  topo::RouterId a, b, c, d;
};

std::vector<mpls::TeHop> copy_of(std::span<const mpls::TeHop> hops) {
  return {hops.begin(), hops.end()};
}

// Every LSP's primary, backup and active hops, copied out of the plane.
std::vector<std::vector<mpls::TeHop>> all_hops(
    const mpls::RsvpTePlane& plane) {
  std::vector<std::vector<mpls::TeHop>> out;
  for (const mpls::TeLsp& lsp : plane.lsps()) {
    out.push_back(copy_of(plane.hops(lsp.id)));
    out.push_back(copy_of(plane.backup_hops(lsp.id)));
    out.push_back(copy_of(plane.active_hops(lsp.id)));
  }
  return out;
}

// After every kind of mutation, restore_pristine() gives back the exact
// pristine LSP table: every TeLsp field (hop ranges, re-signal count,
// backup flag) and every hop.
TEST(RsvpHops, RestorePristineRewindsLspState) {
  const TeDiamond f;
  std::vector<mpls::LabelPool> pools;
  mpls::RsvpTePlane plane = f.signalled(3, /*frr=*/true, pools);
  ASSERT_EQ(plane.lsp_count(), 3u);
  const std::vector<mpls::TeLsp> table = plane.lsps();
  const auto hops = all_hops(plane);

  // Double reoptimize: the second re-signal replaces the first's hops.
  for (const mpls::TeLsp& lsp : table) {
    plane.reoptimize(lsp.id, pools);
    plane.reoptimize(lsp.id, pools);
  }
  // Move LSP 1 onto its backup's links with fresh labels.
  std::vector<topo::LinkId> other_arm;
  for (const mpls::TeHop& hop : plane.backup_hops(1)) {
    other_arm.push_back(hop.in_link);
  }
  ASSERT_FALSE(other_arm.empty());
  plane.resignal_over(1, other_arm, pools);
  // Fast reroute: LSP 0 switches to its backup and back; LSP 2 stays on it.
  for (const mpls::LspId id : {0u, 2u}) {
    std::vector<bool> down(f.topo.link_count(), false);
    down[plane.hops(id)[0].in_link] = true;
    ASSERT_TRUE(plane.activate_backup(id, down)) << "lsp " << id;
  }
  plane.revert_to_primary(0);
  EXPECT_TRUE(plane.lsp(2).on_backup);
  EXPECT_EQ(plane.lsp(0).resignal_count, 2u);
  EXPECT_EQ(plane.lsp(1).resignal_count, 3u);
  EXPECT_FALSE(plane.lsps() == table);

  plane.restore_pristine();
  EXPECT_TRUE(plane.lsps() == table);
  EXPECT_EQ(all_hops(plane), hops);
}

// Re-signals that outgrow the hop vector's capacity move it mid-month. A
// plane that moved must end up with exactly the hops of an identical plane
// whose vector was already large enough: no re-signal may read hops
// through a span taken before the move.
TEST(RsvpHops, ReallocationMidMonthKeepsEveryLspsHops) {
  const TeDiamond f;
  const auto month = [](mpls::RsvpTePlane& plane,
                        std::vector<mpls::LabelPool>& pools) {
    for (int round = 0; round < 8; ++round) {
      for (mpls::LspId id = 0; id < plane.lsp_count(); ++id) {
        plane.reoptimize(id, pools);
      }
    }
    std::vector<topo::LinkId> other_arm;
    for (const mpls::TeHop& hop : plane.backup_hops(0)) {
      other_arm.push_back(hop.in_link);
    }
    plane.resignal_over(0, other_arm, pools);
  };

  // `warm` lives through one month and its rollback first, so its hop
  // vector already holds a whole month.
  std::vector<mpls::LabelPool> warm_pools, cold_pools;
  mpls::RsvpTePlane warm = f.signalled(6, /*frr=*/true, warm_pools);
  mpls::RsvpTePlane cold = f.signalled(6, /*frr=*/true, cold_pools);
  const std::vector<mpls::LabelPool> pristine_pools = warm_pools;
  month(warm, warm_pools);
  warm.restore_pristine();
  warm_pools = pristine_pools;
  ASSERT_TRUE(warm.lsps() == cold.lsps());
  ASSERT_EQ(all_hops(warm), all_hops(cold));

  // Re-signals leave backups where they are, so a backup's address moves
  // only with the whole vector.
  ASSERT_FALSE(warm.backup_hops(0).empty());
  const mpls::TeHop* warm_storage = warm.backup_hops(0).data();
  const mpls::TeHop* cold_storage = cold.backup_hops(0).data();
  month(warm, warm_pools);
  month(cold, cold_pools);
  EXPECT_EQ(warm.backup_hops(0).data(), warm_storage);  // did not move
  ASSERT_NE(cold.backup_hops(0).data(), cold_storage);  // moved mid-month
  EXPECT_TRUE(warm.lsps() == cold.lsps());
  EXPECT_EQ(all_hops(warm), all_hops(cold));
}

// A steady month-over-month mutation workload stops allocating once the
// hop vector has held its largest month: the storage the vector holds
// after two restore cycles is the storage it holds after a hundred (a
// regrowth would move it, since the new block is taken while the old one
// is live).
TEST(RsvpHops, CapacityStopsGrowingAcrossRestoreCycles) {
  const TeDiamond f;
  std::vector<mpls::LabelPool> pools;
  mpls::RsvpTePlane plane = f.signalled(6, /*frr=*/false, pools);
  const std::vector<mpls::TeLsp> table = plane.lsps();

  const mpls::TeHop* storage_after_warmup = nullptr;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (const mpls::TeLsp& lsp : table) plane.reoptimize(lsp.id, pools);
    EXPECT_EQ(plane.lsp(0).resignal_count, 1u);
    plane.restore_pristine();
    EXPECT_TRUE(plane.lsps() == table);
    if (cycle == 1) storage_after_warmup = plane.hops(0).data();
    if (cycle >= 1) {
      ASSERT_EQ(plane.hops(0).data(), storage_after_warmup)
          << "cycle " << cycle;
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
