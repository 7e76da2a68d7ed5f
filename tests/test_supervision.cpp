// Tests for the fault-injectable I/O layer (util::io) and the run
// supervision built on it: deterministic failpoint draws, per-class fault
// semantics, cooperative deadlines, retry accounting, quarantine, ENOSPC
// degradation — and the crash/resume torture loop (kill at the K-th I/O op
// in kDead mode, resume, assert the final report is byte-identical to an
// uninterrupted run, for a few hundred sampled K).
#include "util/io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "dataset/warts_lite.h"
#include "run/checkpoint.h"
#include "run/runner.h"

namespace mum {
namespace {

namespace fs = std::filesystem;
using util::io::CycleScope;
using util::io::FaultClass;
using util::io::FaultConfig;
using util::io::FailpointPlan;
using util::io::OpKind;
using util::io::ScopedFailpoints;

gen::GenConfig tiny_gen() {
  gen::GenConfig c;
  c.background_tier1 = 1;
  c.background_transit = 6;
  c.stub_ases = 8;
  c.monitors = 4;
  c.dests_per_monitor = 60;
  return c;
}

run::RunnerConfig tiny_runner(int cycles, int threads = 1) {
  run::RunnerConfig c;
  c.gen = tiny_gen();
  c.first_cycle = 0;
  c.last_cycle = cycles - 1;
  c.threads = threads;
  return c;
}

// --- failpoint plan determinism -----------------------------------------

TEST(FailpointPlan, DrawsAreDeterministic) {
  FaultConfig config;
  config.eio = 0.3;
  config.torn_temp = 0.2;
  FailpointPlan a(config, 42);
  FailpointPlan b(config, 42);
  for (std::uint64_t ord = 0; ord < 500; ++ord) {
    EXPECT_EQ(a.draw(OpKind::kWrite, 3, 0, ord),
              b.draw(OpKind::kWrite, 3, 0, ord));
  }
}

TEST(FailpointPlan, ClassStreamsAreIndependent) {
  // Adding a second fault class must not re-roll the first class's stream:
  // the eio-firing set is identical with and without slow ops configured.
  // (eio is drawn before slow, so where both fire, eio still wins.)
  FaultConfig just_eio;
  just_eio.eio = 0.25;
  FaultConfig both = just_eio;
  both.slow_op = 0.5;
  FailpointPlan a(just_eio, 7);
  FailpointPlan b(both, 7);
  int eio_hits = 0;
  for (std::uint64_t ord = 0; ord < 1000; ++ord) {
    const auto da = a.draw(OpKind::kRead, 0, 0, ord);
    const auto db = b.draw(OpKind::kRead, 0, 0, ord);
    if (da == FaultClass::kEio) {
      ++eio_hits;
      EXPECT_EQ(db, FaultClass::kEio) << "ordinal " << ord;
    } else {
      EXPECT_NE(db, FaultClass::kEio) << "ordinal " << ord;
    }
  }
  EXPECT_GT(eio_hits, 100);  // the rate actually bites
}

TEST(FailpointPlan, AttemptKeysTheDraw) {
  // A fault storm on attempt 0 does not deterministically recur on attempt
  // 1 — this is what makes cycle-level retry worth anything.
  FaultConfig config;
  config.eio = 0.5;
  FailpointPlan plan(config, 11);
  int differs = 0;
  for (std::uint64_t ord = 0; ord < 200; ++ord) {
    if (plan.draw(OpKind::kWrite, 2, 0, ord) !=
        plan.draw(OpKind::kWrite, 2, 1, ord)) {
      ++differs;
    }
  }
  EXPECT_GT(differs, 20);
}

TEST(FailpointPlan, InapplicableClassesNeverFire) {
  FaultConfig config;
  config.enospc = 1.0;
  config.stale_rename = 1.0;
  FailpointPlan plan(config, 1);
  for (std::uint64_t ord = 0; ord < 100; ++ord) {
    // ENOSPC only fires on writes, stale renames only on renames.
    EXPECT_EQ(plan.draw(OpKind::kRead, 0, 0, ord), std::nullopt);
    EXPECT_EQ(plan.draw(OpKind::kMap, 0, 0, ord), std::nullopt);
    EXPECT_EQ(plan.draw(OpKind::kWrite, 0, 0, ord), FaultClass::kEnospc);
    EXPECT_EQ(plan.draw(OpKind::kRename, 0, 0, ord),
              FaultClass::kStaleRename);
  }
}

// --- per-class IoEnv semantics ------------------------------------------

class IoEnvFaults : public ::testing::Test {
 protected:
  // Suffix the pid: ctest -j runs each discovered test as its own process,
  // and concurrent processes must not clobber each other's fixture dirs.
  IoEnvFaults()
      : dir_(fs::temp_directory_path() /
             ("mum_ioenv_faults_" + std::to_string(::getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~IoEnvFaults() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(IoEnvFaults, PassthroughWithoutPlan) {
  auto& env = util::io::env();
  ASSERT_TRUE(env.write_file(path("a.bin"), "hello"));
  const auto back = env.read_file(path("a.bin"));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "hello");
  EXPECT_TRUE(env.rename_file(path("a.bin"), path("b.bin")));
  EXPECT_FALSE(fs::exists(path("a.bin")));
  const auto mapped = env.map_file(path("b.bin"));
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(mapped->view(), "hello");
  EXPECT_FALSE(env.read_file(path("missing.bin")).has_value());
  EXPECT_EQ(env.last_error(), util::io::Error::kNone);  // absent, not failed
}

TEST_F(IoEnvFaults, EioFailsTheOp) {
  FaultConfig config;
  config.eio = 1.0;
  FailpointPlan plan(config, 5);
  const ScopedFailpoints scoped(&plan);
  const CycleScope scope(0, 0, 0);
  auto& env = util::io::env();
  EXPECT_FALSE(env.write_file(path("x.bin"), "data"));
  EXPECT_EQ(env.last_error(), util::io::Error::kEio);
  EXPECT_FALSE(fs::exists(path("x.bin")));
  EXPECT_GT(plan.counts().injected[static_cast<std::size_t>(
                FaultClass::kEio)],
            0u);
}

TEST_F(IoEnvFaults, EnospcClassifiesAsDiskFull) {
  FaultConfig config;
  config.enospc = 1.0;
  FailpointPlan plan(config, 5);
  const ScopedFailpoints scoped(&plan);
  const CycleScope scope(0, 0, 0);
  auto& env = util::io::env();
  EXPECT_FALSE(env.write_file(path("x.bin"), "data"));
  EXPECT_EQ(env.last_error(), util::io::Error::kEnospc);
}

TEST_F(IoEnvFaults, ShortWriteReportsSuccessWithTornFile) {
  FaultConfig config;
  config.short_write = 1.0;
  FailpointPlan plan(config, 5);
  const ScopedFailpoints scoped(&plan);
  const CycleScope scope(0, 0, 0);
  const std::string data(256, 'z');
  // The lie is the point: success reported, strict prefix on disk. The
  // checksum layer downstream must catch it.
  EXPECT_TRUE(util::io::env().write_file(path("x.bin"), data));
  ASSERT_TRUE(fs::exists(path("x.bin")));
  EXPECT_LT(fs::file_size(path("x.bin")), data.size());
}

TEST_F(IoEnvFaults, TornTempFailsWithPrefixOnDisk) {
  FaultConfig config;
  config.torn_temp = 1.0;
  FailpointPlan plan(config, 5);
  const ScopedFailpoints scoped(&plan);
  const CycleScope scope(0, 0, 0);
  const std::string data(256, 'q');
  EXPECT_FALSE(util::io::env().write_file(path("x.tmp"), data));
  ASSERT_TRUE(fs::exists(path("x.tmp")));
  EXPECT_LT(fs::file_size(path("x.tmp")), data.size());
}

TEST_F(IoEnvFaults, StaleRenameReportsSuccessMovingNothing) {
  auto& env = util::io::env();
  ASSERT_TRUE(env.write_file(path("src.bin"), "old"));
  FaultConfig config;
  config.stale_rename = 1.0;
  FailpointPlan plan(config, 5);
  const ScopedFailpoints scoped(&plan);
  const CycleScope scope(0, 0, 0);
  EXPECT_TRUE(env.rename_file(path("src.bin"), path("dst.bin")));
  EXPECT_TRUE(fs::exists(path("src.bin")));
  EXPECT_FALSE(fs::exists(path("dst.bin")));
}

TEST_F(IoEnvFaults, CorruptCheckpointLoadReportsCorrupt) {
  // Valid magic + garbage payload: load must classify kCorrupt (quarantine
  // policy), not kMissing or kIoError.
  std::ofstream(dir_ / run::checkpoint_filename(0), std::ios::binary)
      << "MUMC" << '\x01' << "garbage garbage garbage";
  run::LoadStatus status = run::LoadStatus::kOk;
  EXPECT_FALSE(
      run::load_checkpoint_file(dir_.string(), 0, &status).has_value());
  EXPECT_EQ(status, run::LoadStatus::kCorrupt);
  status = run::LoadStatus::kOk;
  EXPECT_FALSE(
      run::load_checkpoint_file(dir_.string(), 1, &status).has_value());
  EXPECT_EQ(status, run::LoadStatus::kMissing);
}

// --- cooperative deadline -----------------------------------------------

TEST(Deadline, CheckDeadlineThrowsOncePassed) {
  const CycleScope scope(0, 0, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_THROW(util::io::check_deadline(), util::io::DeadlineExceeded);
}

TEST(Deadline, IoOpsThrowOncePassed) {
  const CycleScope scope(0, 0, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_THROW(util::io::env().read_file("/nonexistent"),
               util::io::DeadlineExceeded);
}

TEST(Deadline, NoScopeOrNoDeadlineNeverThrows) {
  EXPECT_NO_THROW(util::io::check_deadline());
  const CycleScope scope(0, 0, 0);
  EXPECT_NO_THROW(util::io::check_deadline());
}

// --- kill harness (kDead mode) ------------------------------------------

TEST_F(IoEnvFaults, DeadModeTearsTheKillOpAndFailsAllLaterOps) {
  FaultConfig config;
  config.kill_at_op = 3;
  config.kill_mode = FaultConfig::KillMode::kDead;
  FailpointPlan plan(config, 5);
  const ScopedFailpoints scoped(&plan);
  const CycleScope scope(0, 0, 0);
  auto& env = util::io::env();
  const std::string data(128, 'k');
  EXPECT_TRUE(env.write_file(path("w1.bin"), data));   // op 1
  EXPECT_TRUE(env.write_file(path("w2.bin"), data));   // op 2
  EXPECT_FALSE(env.write_file(path("w3.bin"), data));  // op 3: the kill
  // The kill op tears the file, like a real crash mid-write.
  ASSERT_TRUE(fs::exists(path("w3.bin")));
  EXPECT_LT(fs::file_size(path("w3.bin")), data.size());
  EXPECT_TRUE(plan.dead());
  // Everything after the death fails silently, touching nothing.
  EXPECT_FALSE(env.write_file(path("w4.bin"), data));
  EXPECT_FALSE(fs::exists(path("w4.bin")));
  EXPECT_FALSE(env.read_file(path("w1.bin")).has_value());
}

// --- runner supervision --------------------------------------------------

class SupervisionRun : public ::testing::Test {
 protected:
  // Pid-suffixed for the same ctest -j process-isolation reason as above.
  SupervisionRun()
      : dir_(fs::temp_directory_path() /
             ("mum_supervision_" + std::to_string(::getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~SupervisionRun() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(SupervisionRun, InjectedCycleFailureBurnsEveryAttempt) {
  // Data chaos keys off (seed, cycle), not attempt: a chaos-failed cycle
  // fails every retry, and the retry accounting lands in the manifest.
  auto config = tiny_runner(4);
  config.chaos.cycle_failure = 0.5;
  config.chaos.seed = 3;
  config.keep_going = true;
  config.retries = 2;
  const run::Runner runner(config);
  const auto outcome = runner.run_all_contained();
  const auto failed = outcome.manifest.count(run::CycleOutcome::kFailed);
  ASSERT_GT(failed, 0u);
  EXPECT_FALSE(outcome.manifest.complete());
  for (const auto& status : outcome.manifest.cycles) {
    if (status.outcome == run::CycleOutcome::kFailed) {
      EXPECT_EQ(status.attempts, 3);
    } else {
      EXPECT_EQ(status.attempts, 1);
    }
  }
  EXPECT_EQ(outcome.manifest.retries_total(), 2 * failed);

  // Report bytes never depend on how many attempts were configured.
  auto no_retry = config;
  no_retry.retries = 0;
  const auto baseline = run::Runner(no_retry).run_all_contained();
  EXPECT_EQ(outcome.report.to_json(), baseline.report.to_json());
}

TEST_F(SupervisionRun, SlowIoPastDeadlineRecordsTimedOut) {
  auto config = tiny_runner(2);
  config.checkpoint_dir = dir_.string();
  config.keep_going = true;
  config.cycle_deadline_ms = 5;
  config.chaos.io.slow_op = 1.0;   // every io op stalls...
  config.chaos.io.slow_ms = 200;   // ...far past the deadline
  const run::Runner runner(config);
  const auto outcome = runner.run_all_contained();
  EXPECT_EQ(outcome.manifest.count(run::CycleOutcome::kTimedOut), 2u);
  EXPECT_FALSE(outcome.manifest.complete());
  for (const auto& status : outcome.manifest.cycles) {
    EXPECT_EQ(status.outcome, run::CycleOutcome::kTimedOut);
    EXPECT_FALSE(status.error.empty());
    EXPECT_EQ(status.attempts, 1);  // deadlines are never retried
  }
  // Timed-out cycles keep deterministic placeholder slots.
  for (const auto& cycle : outcome.report.cycles) {
    EXPECT_EQ(cycle.iotps.size(), 0u);
  }
}

TEST_F(SupervisionRun, CorruptCheckpointIsQuarantinedAndRecomputed) {
  auto config = tiny_runner(3);
  const auto baseline = run::Runner(config).run_all_contained();

  // Populate checkpoints, then smash one.
  auto write_config = config;
  write_config.checkpoint_dir = dir_.string();
  const run::Runner writer(write_config);
  ASSERT_TRUE(writer.run_all_contained().manifest.complete());
  const fs::path victim = dir_ / run::checkpoint_filename(1);
  ASSERT_TRUE(fs::exists(victim));
  std::ofstream(victim, std::ios::binary) << "MUMC\x01 not a checkpoint";

  auto resume_config = write_config;
  resume_config.resume = true;
  const auto resumed = run::Runner(resume_config).run_all_contained();

  // Byte-identical science, honest manifest: cycle 1 recomputed, the bad
  // bytes preserved in quarantine/ (never deleted), run degraded.
  EXPECT_EQ(resumed.report.to_json(), baseline.report.to_json());
  EXPECT_TRUE(resumed.manifest.complete());
  EXPECT_TRUE(resumed.manifest.degraded());
  EXPECT_EQ(resumed.manifest.quarantined_total(), 1u);
  EXPECT_EQ(resumed.manifest.cycles[1].outcome, run::CycleOutcome::kOk);
  ASSERT_EQ(resumed.manifest.cycles[1].quarantined.size(), 1u);
  EXPECT_EQ(resumed.manifest.cycles[1].quarantined[0].file,
            run::checkpoint_filename(1));
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / run::checkpoint_filename(1)));
  EXPECT_EQ(resumed.manifest.cycles[0].outcome,
            run::CycleOutcome::kFromCheckpoint);
  // The recomputed cycle rewrote a valid checkpoint in place.
  run::LoadStatus status = run::LoadStatus::kOk;
  EXPECT_TRUE(
      run::load_checkpoint_file(dir_.string(), 1, &status).has_value());
}

TEST_F(SupervisionRun, PersistentEnospcDegradesButCompletes) {
  auto config = tiny_runner(6);
  config.checkpoint_dir = dir_.string();
  config.chaos.io.enospc = 1.0;  // disk full for every write, forever
  const run::Runner runner(config);
  const auto outcome = runner.run_all_contained();

  // Science intact, persistence dropped, record honest.
  EXPECT_TRUE(outcome.manifest.complete());
  EXPECT_TRUE(outcome.manifest.checkpoints_degraded);
  EXPECT_TRUE(outcome.manifest.degraded());
  EXPECT_FALSE(outcome.manifest.degraded_reason.empty());
  // Exactly the degrade threshold (3 consecutive ENOSPC failures) was
  // recorded before persistence stopped (disk-full is never retried;
  // serial cycles, one checkpoint write each).
  EXPECT_EQ(outcome.manifest.checkpoint_write_failures_total(), 3u);
  for (const auto& cycle : outcome.report.cycles) {
    EXPECT_FALSE(cycle.date.empty());
  }
  const auto baseline = run::Runner(tiny_runner(6)).run_all_contained();
  EXPECT_EQ(outcome.report.to_json(), baseline.report.to_json());
  // The manifest carries the injected-fault totals.
  EXPECT_GT(outcome.manifest.io.injected[static_cast<std::size_t>(
                FaultClass::kEnospc)],
            0u);
}

TEST_F(SupervisionRun, ReportBytesImmuneToIoChaosAndThreads) {
  const auto baseline = run::Runner(tiny_runner(4)).run_all_contained();
  for (const int threads : {1, 4}) {
    auto config = tiny_runner(4, threads);
    config.checkpoint_dir =
        (dir_ / ("t" + std::to_string(threads))).string();
    config.checkpoint_data = true;
    config.chaos.io.eio = 0.02;
    config.chaos.io.enospc = 0.02;
    config.chaos.io.short_write = 0.02;
    config.chaos.io.torn_temp = 0.02;
    config.chaos.io.stale_rename = 0.02;
    config.chaos.seed = 99;
    config.retries = 2;
      const auto outcome = run::Runner(config).run_all_contained();
    EXPECT_TRUE(outcome.manifest.complete());
    EXPECT_EQ(outcome.report.to_json(), baseline.report.to_json())
        << "threads=" << threads;
    // Same seed, same plan: identical injection record at any thread count.
    EXPECT_GT(outcome.manifest.io.ops, 0u);
  }
}

// --- crash/resume torture -------------------------------------------------

TEST_F(SupervisionRun, KillAtEveryIoOpResumesByteIdentical) {
  // The crash-consistency claim, proven by exhaustion: for every I/O op K
  // in a checkpointed campaign, kill the run at op K (kDead mode: the op
  // tears like a real crash and everything after fails), then resume with
  // a healthy environment and require the final report byte-identical to
  // an uninterrupted run. Two phases double the sample: kills during the
  // first (writing) run and kills during a resume over a full directory.
  // Sized for the acceptance bar: 10 cycles x 6 shards x 3 ops + 3
  // checkpoint ops each = 210 write-phase ops, plus 10 resume-phase reads.
  auto config = tiny_runner(10);
  config.campaign.extra_snapshots = 5;
  config.checkpoint_dir = dir_.string();
  config.checkpoint_data = true;
  config.keep_going = true;
  const run::Runner writer(config);
  auto resume_config = config;
  resume_config.resume = true;
  const run::Runner resumer(resume_config);

  auto baseline_config = tiny_runner(10);
  baseline_config.campaign.extra_snapshots = 5;
  const std::string baseline =
      run::Runner(baseline_config).run_all_contained().report.to_json();

  // Count the ops of one uninterrupted pass of each phase.
  const auto count_ops = [](const run::Runner& runner) {
    FailpointPlan probe(FaultConfig{}, 0);
    const ScopedFailpoints scoped(&probe);
    runner.run_all_contained();
    return probe.counts().ops;
  };
  fs::remove_all(dir_);
  const std::uint64_t write_ops = count_ops(writer);
  const std::uint64_t resume_ops = count_ops(resumer);
  ASSERT_GT(write_ops, 20u);
  ASSERT_GT(resume_ops, 5u);

  std::uint64_t trials = 0;
  const auto torture = [&](const run::Runner& victim, std::uint64_t ops,
                           bool prepopulate) {
    for (std::uint64_t k = 1; k <= ops; ++k) {
      fs::remove_all(dir_);
      if (prepopulate) writer.run_all_contained();
      FaultConfig config;
      config.kill_at_op = k;
      config.kill_mode = FaultConfig::KillMode::kDead;
      {
        FailpointPlan plan(config, 0);
        const ScopedFailpoints scoped(&plan);
        victim.run_all_contained();  // "crashes" at op k; output discarded
      }
      const auto recovered = resumer.run_all_contained();
      ASSERT_EQ(recovered.report.to_json(), baseline)
          << (prepopulate ? "resume" : "write") << " phase, kill at op "
          << k;
      ASSERT_TRUE(recovered.manifest.complete());
      ++trials;
    }
  };
  torture(writer, write_ops, /*prepopulate=*/false);
  torture(resumer, resume_ops, /*prepopulate=*/true);
  // The acceptance bar: a few hundred sampled kill points.
  EXPECT_GE(trials, 200u) << "write_ops=" << write_ops
                          << " resume_ops=" << resume_ops;
}

// --- mixed-failure resume -------------------------------------------------

TEST_F(SupervisionRun, MixedFailureResumeByteIdenticalAcrossThreads) {
  // One directory holding every kind of damage at once: a valid checkpoint,
  // a corrupt one (quarantined), a missing one with complete shards
  // (kFromData), a missing one with an incomplete shard set (regenerated),
  // and a cycle whose shards were rewritten in the v3 pack format (readers
  // sniff the magic). Resume at 1, 4 and 16 threads must agree byte for
  // byte with the uninterrupted run, and say what happened in the manifest.
  constexpr int kCycles = 5;
  const std::string baseline =
      run::Runner(tiny_runner(kCycles)).run_all_contained().report.to_json();

  const fs::path pristine = dir_ / "pristine";
  auto write_config = tiny_runner(kCycles);
  write_config.checkpoint_dir = pristine.string();
  write_config.checkpoint_data = true;
  ASSERT_TRUE(
      run::Runner(write_config).run_all_contained().manifest.complete());

  const auto damage = [&](const fs::path& dir) {
    fs::remove_all(dir);
    fs::copy(pristine, dir, fs::copy_options::recursive);
    // Cycle 1: corrupt checkpoint (shards intact -> quarantine + kFromData).
    std::ofstream(dir / run::checkpoint_filename(1), std::ios::binary)
        << "MUMC\x01 smashed";
    // Cycle 2: checkpoint missing, shards intact -> kFromData.
    fs::remove(dir / run::checkpoint_filename(2));
    // Cycle 3: checkpoint missing AND a shard missing -> incomplete set,
    // full recompute (a thinned month must never be silently accepted).
    fs::remove(dir / run::checkpoint_filename(3));
    fs::remove(dir / run::data_shard_filename(3, 1, 2));
    // Cycle 4: checkpoint missing, shards re-encoded as v3 packs.
    fs::remove(dir / run::checkpoint_filename(4));
    for (const auto& path : run::find_data_shards(dir.string(), 4)) {
      std::ifstream is(path, std::ios::binary);
      std::stringstream ss;
      ss << is.rdbuf();
      const auto snap = dataset::parse_snapshot(ss.str());
      ASSERT_TRUE(snap.has_value()) << path;
      const std::size_t sub = snap->sub_index;
      ASSERT_TRUE(run::write_data_shard(dir.string(), 4, sub, *snap, 3));
      fs::remove(path);
    }
  };

  for (const int threads : {1, 4, 16}) {
    const fs::path dir = dir_ / ("resume_t" + std::to_string(threads));
    damage(dir);
    auto config = tiny_runner(kCycles, threads);
    config.checkpoint_dir = dir.string();
    config.checkpoint_data = true;
    config.resume = true;
    const auto outcome = run::Runner(config).run_all_contained();
    EXPECT_EQ(outcome.report.to_json(), baseline) << "threads=" << threads;
    EXPECT_TRUE(outcome.manifest.complete());
    EXPECT_TRUE(outcome.manifest.degraded());  // quarantine happened
    const auto& cycles = outcome.manifest.cycles;
    EXPECT_EQ(cycles[0].outcome, run::CycleOutcome::kFromCheckpoint);
    EXPECT_EQ(cycles[1].outcome, run::CycleOutcome::kFromData);
    EXPECT_EQ(cycles[1].quarantined.size(), 1u);
    EXPECT_EQ(cycles[2].outcome, run::CycleOutcome::kFromData);
    EXPECT_EQ(cycles[3].outcome, run::CycleOutcome::kOk);
    EXPECT_EQ(cycles[4].outcome, run::CycleOutcome::kFromData);
    EXPECT_TRUE(
        fs::exists(dir / "quarantine" / run::checkpoint_filename(1)));
  }
}

}  // namespace
}  // namespace mum
