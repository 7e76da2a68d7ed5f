#include "chaos/chaos.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dataset/pack.h"
#include "dataset/warts_lite.h"
#include "gen/campaign.h"
#include "run/checkpoint.h"
#include "run/runner.h"

namespace mum {
namespace {

namespace fs = std::filesystem;

gen::GenConfig small_gen() {
  gen::GenConfig c;
  c.background_tier1 = 1;
  c.background_transit = 6;
  c.stub_ases = 8;
  c.monitors = 4;
  c.dests_per_monitor = 60;
  return c;
}

run::RunnerConfig small_runner(int cycles, int threads = 1) {
  run::RunnerConfig c;
  c.gen = small_gen();
  c.first_cycle = 0;
  c.last_cycle = cycles - 1;
  c.threads = threads;
  return c;
}

dataset::SnapshotBatch sample_snapshot() {
  gen::Internet internet(small_gen());
  const auto ip2as = internet.build_ip2as();
  gen::CampaignRunner runner(internet, ip2as);
  auto ctx = internet.instantiate(50);
  return runner.snapshot(ctx, 50, 0);
}

// --- spec parsing ----------------------------------------------------------

TEST(ChaosSpec, ParsesNamedRatesAndSeed) {
  std::string error;
  const auto config =
      chaos::parse_chaos_spec("flip=0.01,blackout=5%,fail=0.1,seed=7", &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_DOUBLE_EQ(config->flip_byte, 0.01);
  EXPECT_DOUBLE_EQ(config->monitor_blackout, 0.05);
  EXPECT_DOUBLE_EQ(config->cycle_failure, 0.1);
  EXPECT_EQ(config->seed, 7u);
  EXPECT_DOUBLE_EQ(config->truncate_stack, 0.0);
  EXPECT_TRUE(config->enabled());
}

TEST(ChaosSpec, AllSetsEveryDatasetFaultButNotFail) {
  const auto config = chaos::parse_chaos_spec("all=2%");
  ASSERT_TRUE(config.has_value());
  EXPECT_DOUBLE_EQ(config->truncate_stack, 0.02);
  EXPECT_DOUBLE_EQ(config->drop_extension, 0.02);
  EXPECT_DOUBLE_EQ(config->duplicate_ttl, 0.02);
  EXPECT_DOUBLE_EQ(config->reorder_ttl, 0.02);
  EXPECT_DOUBLE_EQ(config->bogus_ip2as, 0.02);
  EXPECT_DOUBLE_EQ(config->monitor_blackout, 0.02);
  EXPECT_DOUBLE_EQ(config->flip_byte, 0.02);
  EXPECT_DOUBLE_EQ(config->cycle_failure, 0.0);

  // A bare rate is shorthand for all=<rate>.
  const auto bare = chaos::parse_chaos_spec("2%");
  ASSERT_TRUE(bare.has_value());
  EXPECT_DOUBLE_EQ(bare->truncate_stack, 0.02);
  EXPECT_DOUBLE_EQ(bare->flip_byte, 0.02);
}

TEST(ChaosSpec, ParsesIoFaultKeys) {
  std::string error;
  const auto config = chaos::parse_chaos_spec(
      "io.eio=1%,io.enospc=2%,io.shortwrite=3%,io.torn=4%,"
      "io.stalerename=5%,io.slow=6%,io.slow_ms=50,seed=9",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_DOUBLE_EQ(config->io.eio, 0.01);
  EXPECT_DOUBLE_EQ(config->io.enospc, 0.02);
  EXPECT_DOUBLE_EQ(config->io.short_write, 0.03);
  EXPECT_DOUBLE_EQ(config->io.torn_temp, 0.04);
  EXPECT_DOUBLE_EQ(config->io.stale_rename, 0.05);
  EXPECT_DOUBLE_EQ(config->io.slow_op, 0.06);
  EXPECT_EQ(config->io.slow_ms, 50u);
  EXPECT_EQ(config->seed, 9u);
  EXPECT_TRUE(config->io.any());
  EXPECT_TRUE(config->enabled());
  // io faults alone leave the data-chaos knobs untouched.
  EXPECT_DOUBLE_EQ(config->flip_byte, 0.0);
  EXPECT_FALSE(config->any_structural());
}

TEST(ChaosSpec, IoAllSetsEveryIoClassButNotDataFaults) {
  const auto config = chaos::parse_chaos_spec("io.all=2%");
  ASSERT_TRUE(config.has_value());
  EXPECT_DOUBLE_EQ(config->io.eio, 0.02);
  EXPECT_DOUBLE_EQ(config->io.enospc, 0.02);
  EXPECT_DOUBLE_EQ(config->io.short_write, 0.02);
  EXPECT_DOUBLE_EQ(config->io.torn_temp, 0.02);
  EXPECT_DOUBLE_EQ(config->io.stale_rename, 0.02);
  EXPECT_DOUBLE_EQ(config->io.slow_op, 0.02);
  EXPECT_DOUBLE_EQ(config->flip_byte, 0.0);
  EXPECT_DOUBLE_EQ(config->truncate_stack, 0.0);
}

TEST(ChaosSpec, ParsesKillHarnessKnobs) {
  const auto kill = chaos::parse_chaos_spec("io.kill_at=7");
  ASSERT_TRUE(kill.has_value());
  EXPECT_EQ(kill->io.kill_at_op, 7u);
  EXPECT_EQ(kill->io.kill_mode, util::io::FaultConfig::KillMode::kKill);
  EXPECT_TRUE(kill->io.any());  // the harness alone enables the plan

  const auto dead = chaos::parse_chaos_spec("io.kill_at=3,io.kill_mode=dead");
  ASSERT_TRUE(dead.has_value());
  EXPECT_EQ(dead->io.kill_mode, util::io::FaultConfig::KillMode::kDead);

  std::string error;
  EXPECT_FALSE(
      chaos::parse_chaos_spec("io.kill_mode=maybe", &error).has_value());
  EXPECT_FALSE(chaos::parse_chaos_spec("io.bogus=1", &error).has_value());
  EXPECT_NE(error.find("unknown fault"), std::string::npos);
}

TEST(ChaosSpec, RejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(chaos::parse_chaos_spec("bogus=1", &error).has_value());
  EXPECT_NE(error.find("unknown fault"), std::string::npos);
  EXPECT_FALSE(chaos::parse_chaos_spec("stack=abc", &error).has_value());
  EXPECT_FALSE(chaos::parse_chaos_spec("stack=1.5", &error).has_value());
  EXPECT_FALSE(chaos::parse_chaos_spec("stack=-0.1", &error).has_value());
  EXPECT_FALSE(chaos::parse_chaos_spec("seed=banana", &error).has_value());

  // Empty spec parses to a disabled config.
  const auto empty = chaos::parse_chaos_spec("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_FALSE(empty->enabled());
}

// --- structural corruption -------------------------------------------------

TEST(Corruptor, StructuralFaultsAreDeterministic) {
  chaos::ChaosConfig config;
  config.truncate_stack = 0.3;
  config.drop_extension = 0.2;
  config.duplicate_ttl = 0.1;
  config.reorder_ttl = 0.1;
  config.bogus_ip2as = 0.1;
  config.monitor_blackout = 0.2;

  dataset::SnapshotBatch a = sample_snapshot();
  dataset::SnapshotBatch b = sample_snapshot();
  chaos::Corruptor ca(config);
  chaos::Corruptor cb(config);
  ca.corrupt(a);
  cb.corrupt(b);
  EXPECT_EQ(dataset::serialize_snapshot(a), dataset::serialize_snapshot(b));
  EXPECT_GT(ca.stats().total(), 0u);
  EXPECT_EQ(ca.stats().total(), cb.stats().total());

  // A different seed corrupts differently.
  config.seed ^= 0x5EEDull;
  dataset::SnapshotBatch c = sample_snapshot();
  chaos::Corruptor cc(config);
  cc.corrupt(c);
  EXPECT_NE(dataset::serialize_snapshot(a), dataset::serialize_snapshot(c));
}

TEST(Corruptor, DropExtensionRemovesLabelStacks) {
  chaos::ChaosConfig config;
  config.drop_extension = 1.0;
  dataset::SnapshotBatch snap = sample_snapshot();
  chaos::Corruptor corruptor(config);
  corruptor.corrupt(snap);
  EXPECT_GT(corruptor.stats().extensions_dropped, 0u);
  EXPECT_EQ(snap.lse_count(), 0u);  // no hop quotes a stack
}

TEST(Corruptor, BlackoutDropsWholeMonitors) {
  chaos::ChaosConfig config;
  config.monitor_blackout = 1.0;
  dataset::SnapshotBatch snap = sample_snapshot();
  ASSERT_GT(snap.trace_count(), 0u);
  const std::size_t before = snap.trace_count();
  chaos::Corruptor corruptor(config);
  corruptor.corrupt(snap);
  EXPECT_EQ(snap.trace_count(), 0u);
  EXPECT_EQ(corruptor.stats().monitors_blacked_out, 4u);
  EXPECT_EQ(corruptor.stats().traces_dropped, before);
}

TEST(Corruptor, BogusIp2AsRemapsIntoPrivateRange) {
  chaos::ChaosConfig config;
  config.bogus_ip2as = 1.0;
  dataset::SnapshotBatch snap = sample_snapshot();
  chaos::Corruptor corruptor(config);
  corruptor.corrupt(snap);
  EXPECT_GT(corruptor.stats().asns_scrambled, 0u);
  ASSERT_EQ(snap.blocks.size(), 1u);  // the corruptor writes one block
  const auto addrs = snap.blocks.front().hop_addr_col();
  const auto asns = snap.blocks.front().hop_asn_col();
  for (std::size_t h = 0; h < addrs.size(); ++h) {
    if (addrs[h] != 0 && asns[h] != 0) {
      EXPECT_GE(asns[h], 64512u);
      EXPECT_LT(asns[h], 64512u + 1024u);
    }
  }
}

// --- wire corruption -------------------------------------------------------

TEST(Corruptor, FlippedBytesSpareTheContainerHeader) {
  chaos::ChaosConfig config;
  config.flip_byte = 0.02;
  dataset::SnapshotBatch snap = sample_snapshot();
  const std::string clean = dataset::serialize_snapshot(snap);
  std::string dirty = clean;
  chaos::Corruptor corruptor(config);
  corruptor.corrupt_bytes(dirty, /*key=*/42);
  ASSERT_NE(dirty, clean);
  EXPECT_GT(corruptor.stats().bytes_flipped, 0u);
  EXPECT_EQ(dirty.substr(0, 5), clean.substr(0, 5));

  // Same key: identical corruption. Different key: different corruption.
  std::string again = clean;
  chaos::Corruptor c2(config);
  c2.corrupt_bytes(again, 42);
  EXPECT_EQ(again, dirty);
  std::string other = clean;
  chaos::Corruptor c3(config);
  c3.corrupt_bytes(other, 43);
  EXPECT_NE(other, dirty);
}

TEST(Corruptor, TolerantDecodeSalvagesFlippedSnapshot) {
  chaos::ChaosConfig config;
  config.flip_byte = 0.005;
  dataset::SnapshotBatch snap = sample_snapshot();
  std::string bytes = dataset::serialize_snapshot(snap);
  chaos::Corruptor corruptor(config);
  corruptor.corrupt_bytes(bytes, 7);

  dataset::DecodeOptions tolerant;
  tolerant.tolerant = true;
  dataset::DecodeDiagnostics diag;
  const auto salvaged = dataset::parse_snapshot(bytes, tolerant, &diag);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_GT(diag.records_decoded, 0u);
  EXPECT_EQ(salvaged->trace_count(), diag.records_decoded);
}

// --- execution faults ------------------------------------------------------

TEST(Corruptor, CycleFailureIsDeterministicPerCycle) {
  chaos::ChaosConfig config;
  config.cycle_failure = 0.5;
  chaos::Corruptor a(config);
  chaos::Corruptor b(config);
  std::vector<bool> draws_a;
  std::uint64_t fails = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    const bool f = a.should_fail_cycle(cycle);
    draws_a.push_back(f);
    fails += f ? 1u : 0u;
    EXPECT_EQ(b.should_fail_cycle(cycle), f);
  }
  EXPECT_GT(fails, 20u);
  EXPECT_LT(fails, 80u);
  EXPECT_EQ(a.stats().cycles_failed, fails);
}

// --- checkpoints -----------------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  // Pid-suffixed: concurrent ctest -j same-fixture processes must not
  // clobber each other's dirs.
  CheckpointTest()
      : dir_(fs::temp_directory_path() /
             ("mum_chaos_ckpt_" + std::to_string(::getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~CheckpointTest() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(CheckpointTest, CycleReportRoundTripsByteIdentically) {
  run::Runner runner(small_runner(1));
  const lpr::CycleReport report = runner.run_cycle(0);
  ASSERT_GT(report.global.total(), 0u);

  const std::string bytes = run::serialize_cycle_report(report);
  const auto parsed = run::parse_cycle_report(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(run::serialize_cycle_report(*parsed), bytes);
  EXPECT_EQ(parsed->to_json(true), report.to_json(true));
}

TEST_F(CheckpointTest, CorruptBytesAreRejected) {
  run::Runner runner(small_runner(1));
  const lpr::CycleReport report = runner.run_cycle(0);
  const std::string bytes = run::serialize_cycle_report(report);

  EXPECT_FALSE(run::parse_cycle_report("").has_value());
  EXPECT_FALSE(run::parse_cycle_report("garbage").has_value());
  EXPECT_FALSE(
      run::parse_cycle_report(bytes.substr(0, bytes.size() / 2)).has_value());
  std::string flipped = bytes;
  flipped[flipped.size() / 2] =
      static_cast<char>(static_cast<unsigned char>(flipped[flipped.size() / 2]) ^
                        0x10u);
  EXPECT_FALSE(run::parse_cycle_report(flipped).has_value());
  std::string padded = bytes + "x";
  EXPECT_FALSE(run::parse_cycle_report(padded).has_value());
}

TEST_F(CheckpointTest, FileRoundTripAndCorruptFileRecovery) {
  run::Runner runner(small_runner(1));
  const lpr::CycleReport report = runner.run_cycle(0);
  ASSERT_TRUE(run::write_checkpoint_file(dir_.string(), 0, report));
  const auto loaded = run::load_checkpoint_file(dir_.string(), 0);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(run::serialize_cycle_report(*loaded),
            run::serialize_cycle_report(report));

  // Missing and corrupt files both read back as "recompute".
  EXPECT_FALSE(run::load_checkpoint_file(dir_.string(), 1).has_value());
  std::ofstream(dir_ / run::checkpoint_filename(0), std::ios::binary)
      << "truncated";
  EXPECT_FALSE(run::load_checkpoint_file(dir_.string(), 0).has_value());
}

// --- containment -----------------------------------------------------------

TEST(Containment, KeepGoingContainsEveryInjectedFailure) {
  auto config = small_runner(4);
  config.chaos.cycle_failure = 1.0;
  config.keep_going = true;
  run::Runner runner(config);
  const auto outcome = runner.run_all_contained();

  EXPECT_EQ(outcome.manifest.count(run::CycleOutcome::kFailed), 4u);
  EXPECT_FALSE(outcome.manifest.complete());
  EXPECT_FALSE(outcome.manifest.failure_budget_exceeded);
  ASSERT_EQ(outcome.report.cycles.size(), 4u);
  for (int cycle = 0; cycle < 4; ++cycle) {
    const auto& status = outcome.manifest.cycles[cycle];
    EXPECT_EQ(status.cycle, cycle);
    EXPECT_NE(status.error.find("injected failure"), std::string::npos);
    // Placeholder slot: labeled but empty.
    const auto& slot = outcome.report.cycles[static_cast<std::size_t>(cycle)];
    EXPECT_EQ(slot.cycle_id, static_cast<std::uint32_t>(cycle));
    EXPECT_FALSE(slot.date.empty());
    EXPECT_EQ(slot.global.total(), 0u);
  }
}

TEST(Containment, FailFastSkipsRemainingCycles) {
  auto config = small_runner(6);
  config.chaos.cycle_failure = 1.0;
  config.keep_going = false;
  run::Runner runner(config);
  const auto outcome = runner.run_all_contained();

  const auto failed = outcome.manifest.count(run::CycleOutcome::kFailed);
  const auto skipped = outcome.manifest.count(run::CycleOutcome::kSkipped);
  EXPECT_GE(failed, 1u);
  EXPECT_EQ(failed + skipped, 6u);
  EXPECT_FALSE(outcome.manifest.complete());
}

TEST(Containment, FailureBudgetAbortsTheRun) {
  auto config = small_runner(6);
  config.chaos.cycle_failure = 1.0;
  config.keep_going = true;
  config.failure_budget = 1;
  run::Runner runner(config);
  const auto outcome = runner.run_all_contained();

  EXPECT_TRUE(outcome.manifest.failure_budget_exceeded);
  EXPECT_GE(outcome.manifest.count(run::CycleOutcome::kFailed), 2u);
  EXPECT_GE(outcome.manifest.count(run::CycleOutcome::kSkipped), 1u);
}

// The oracle is per-cycle run_cycle(): a from-scratch rebuild with no
// evolver, no containment and no manifest — an independent path to the
// bytes the campaign loop must produce at any thread count.
TEST(Containment, CleanRunMatchesRunAllAcrossThreadCounts) {
  auto config = small_runner(3);
  run::Runner serial(config);
  lpr::LongitudinalReport baseline;
  for (int c = config.first_cycle; c <= config.last_cycle; ++c) {
    baseline.cycles.push_back(serial.run_cycle(c));
  }
  const auto contained = serial.run_all_contained();
  EXPECT_TRUE(contained.manifest.complete());
  EXPECT_EQ(contained.report.to_json(), baseline.to_json());

  config.threads = 3;
  run::Runner threaded(config);
  const auto parallel = threaded.run_all_contained();
  EXPECT_TRUE(parallel.manifest.complete());
  EXPECT_EQ(parallel.report.to_json(), baseline.to_json());
}

// --- resume ----------------------------------------------------------------

class ResumeTest : public ::testing::Test {
 protected:
  ResumeTest()
      : dir_(fs::temp_directory_path() /
             ("mum_chaos_resume_" + std::to_string(::getpid()))) {
    fs::remove_all(dir_);
  }
  ~ResumeTest() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(ResumeTest, ResumedRunIsByteIdenticalAtAnyThreadCount) {
  constexpr int kCycles = 6;
  auto config = small_runner(kCycles, /*threads=*/2);
  ASSERT_TRUE(chaos::parse_chaos_spec("stack=2%,noext=2%,flip=0.0005")
                  .has_value());
  config.chaos = *chaos::parse_chaos_spec("stack=2%,noext=2%,flip=0.0005");
  config.checkpoint_dir = dir_.string();

  run::Runner first(config);
  const auto full = first.run_all_contained();
  ASSERT_TRUE(full.manifest.complete());
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    EXPECT_TRUE(fs::exists(dir_ / run::checkpoint_filename(cycle)));
  }

  // Simulate a killed run: two checkpoints never got written, one was cut
  // off mid-write. Resume must recompute exactly those cycles and produce a
  // byte-identical report — here at a different thread count than the
  // original run.
  fs::remove(dir_ / run::checkpoint_filename(1));
  fs::remove(dir_ / run::checkpoint_filename(4));
  {
    const fs::path damaged = dir_ / run::checkpoint_filename(2);
    std::string bytes;
    {
      std::ifstream is(damaged, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(is), {});
    }
    std::ofstream(damaged, std::ios::binary)
        << bytes.substr(0, bytes.size() / 3);
  }

  config.threads = 3;
  config.resume = true;
  run::Runner second(config);
  const auto resumed = second.run_all_contained();
  EXPECT_TRUE(resumed.manifest.complete());
  EXPECT_EQ(resumed.manifest.count(run::CycleOutcome::kFromCheckpoint), 3u);
  EXPECT_EQ(resumed.manifest.count(run::CycleOutcome::kOk), 3u);
  EXPECT_EQ(resumed.report.to_json(), full.report.to_json());

  // Resuming a finished run restores every cycle from disk.
  run::Runner third(config);
  const auto restored = third.run_all_contained();
  EXPECT_EQ(restored.manifest.count(run::CycleOutcome::kFromCheckpoint),
            static_cast<std::size_t>(kCycles));
  EXPECT_EQ(restored.report.to_json(), full.report.to_json());
}

TEST_F(ResumeTest, ResumeReingestsMixedFormatDataShards) {
  constexpr int kCycles = 4;
  auto config = small_runner(kCycles, /*threads=*/2);
  config.checkpoint_dir = dir_.string();
  config.checkpoint_data = true;  // persist per-snapshot shards (v2 default)
  run::Runner first(config);
  const auto full = first.run_all_contained();
  ASSERT_TRUE(full.manifest.complete());
  ASSERT_TRUE(fs::exists(
      dir_ / run::data_shard_filename(1, 0, dataset::kWartsLiteVersion)));

  // Rewrite cycle 2's shards as v3 packs — the directory now mixes formats.
  const auto shard_paths = run::find_data_shards(dir_.string(), 2);
  ASSERT_FALSE(shard_paths.empty());
  for (std::size_t sub = 0; sub < shard_paths.size(); ++sub) {
    std::string bytes;
    {
      std::ifstream is(shard_paths[sub], std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(is), {});
    }
    const auto snap = dataset::parse_snapshot(bytes);
    ASSERT_TRUE(snap.has_value());
    fs::remove(shard_paths[sub]);
    ASSERT_TRUE(run::write_data_shard(dir_.string(), 2, sub, *snap,
                                      dataset::kPackVersion));
  }
  // Kill two report checkpoints: cycle 1 (v2 shards) and cycle 2 (now v3).
  fs::remove(dir_ / run::checkpoint_filename(1));
  fs::remove(dir_ / run::checkpoint_filename(2));

  // Resume re-ingests both cycles from their shards — sniffing the magic
  // per shard — and the report comes out identical to the original run.
  config.resume = true;
  config.threads = 3;
  run::Runner second(config);
  const auto resumed = second.run_all_contained();
  ASSERT_TRUE(resumed.manifest.complete());
  EXPECT_EQ(resumed.manifest.count(run::CycleOutcome::kFromCheckpoint), 2u);
  EXPECT_EQ(resumed.manifest.count(run::CycleOutcome::kFromData), 2u);
  EXPECT_EQ(resumed.manifest.count(run::CycleOutcome::kOk), 0u);
  EXPECT_EQ(resumed.report.to_json(), full.report.to_json());

  // The from-data path rewrote the missing report checkpoints, so a third
  // resume restores every cycle from disk without touching the shards.
  run::Runner third(config);
  const auto restored = third.run_all_contained();
  EXPECT_EQ(restored.manifest.count(run::CycleOutcome::kFromCheckpoint),
            static_cast<std::size_t>(kCycles));
  EXPECT_EQ(restored.report.to_json(), full.report.to_json());
}

// --- chaos soak ------------------------------------------------------------

// The headline robustness guarantee (DESIGN.md "Failure model &
// diagnostics"): a 60-cycle campaign with every dataset fault at 2% (plus
// light wire corruption) completes every cycle and degrades boundedly.
// Blackouts are catastrophic for individual cycles by construction — a dead
// monitor plus the Persistence filter legitimately wipes that monitor's
// LSPs, the same mechanism behind the paper's cycle-23/58 dips — so the
// per-cycle bound is quantile-based, with a hard envelope on the corpus.
TEST(ChaosSoak, SixtyCyclesAtTwoPercentDegradeBoundedly) {
  constexpr int kCycles = 60;
  run::RunnerConfig config;
  // The CLI's --small scale: big enough for ~20 IOTPs per cycle, cheap
  // enough for a 60-cycle soak in a unit test.
  config.gen.background_transit = 8;
  config.gen.stub_ases = 12;
  config.gen.monitors = 6;
  config.gen.dests_per_monitor = 150;
  config.first_cycle = 0;
  config.last_cycle = kCycles - 1;
  config.threads = 0;

  run::Runner clean(config);
  const auto baseline = clean.run_all_contained();
  ASSERT_TRUE(baseline.manifest.complete());

  config.chaos = *chaos::parse_chaos_spec(
      "stack=2%,noext=2%,dupttl=2%,reorder=2%,ip2as=2%,blackout=2%,"
      "flip=0.0005");
  run::Runner chaotic(config);
  const auto soak = chaotic.run_all_contained();

  // Every cycle completes despite the faults.
  ASSERT_TRUE(soak.manifest.complete());
  EXPECT_EQ(soak.manifest.count(run::CycleOutcome::kOk),
            static_cast<std::size_t>(kCycles));
  EXPECT_GT(soak.manifest.chaos_total().total(), 0u);

  std::uint64_t clean_total = 0;
  std::uint64_t chaos_total = 0;
  std::vector<double> ratios;
  int collapsed = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const auto& c = baseline.report.cycles[static_cast<std::size_t>(cycle)];
    const auto& x = soak.report.cycles[static_cast<std::size_t>(cycle)];
    ASSERT_GT(c.global.total(), 0u);
    // Upper bound is per-cycle hard: duplication can only inflate so much.
    EXPECT_LT(x.global.total(), c.global.total() * 2)
        << "cycle " << cycle << " inflated";
    if (x.global.total() * 4 <= c.global.total()) ++collapsed;
    ratios.push_back(static_cast<double>(x.global.total()) /
                     static_cast<double>(c.global.total()));
    clean_total += c.global.total();
    chaos_total += x.global.total();
  }
  // Documented bounds: at most 15% of cycles lose over three quarters of
  // their IOTPs, the median cycle retains at least 60%, and the corpus-wide
  // IOTP count stays within [50%, 110%] of the clean run.
  EXPECT_LE(collapsed, kCycles * 15 / 100);
  std::sort(ratios.begin(), ratios.end());
  EXPECT_GE(ratios[ratios.size() / 2], 0.6);
  EXPECT_GT(chaos_total * 10, clean_total * 5);
  EXPECT_LT(chaos_total * 10, clean_total * 11);
}

}  // namespace
}  // namespace mum
