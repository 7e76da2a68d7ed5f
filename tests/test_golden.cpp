// Golden report digests: every cycle's run::serialize_cycle_report bytes,
// pinned as FNV-1a digests.
//
// serialize_cycle_report covers every CycleReport field — including the
// ExtractStats address census (mpls_ips / non_mpls_ips), the filter stats
// and the decode diagnostics that the CLI's --json report leaves out — so a
// digest match means the whole measurement path (generate -> chaos ->
// persist/ingest -> annotate -> extract -> filter -> classify) produced the
// same science, byte for byte. Three campaigns, each at 1, 4 and 16
// threads:
//
//   * DefaultStudy: the paper study, all 60 cycles, default world.
//   * Chaos: every structural dataset fault at 2% plus light wire
//     corruption (0.05% of payload bytes flipped), 60 cycles on the CLI
//     --small world, once through a v2 stream round trip and once through
//     a v3 pack round trip.
//   * MixedFormatResume: a checkpointed campaign whose data shards mix v2
//     streams and v3 packs, resumed after losing report checkpoints, so
//     cycles come back from checkpoints, from re-ingested shards of either
//     format, and from regeneration.
//
// On a mismatch the test prints the digests it computed as a ready-to-paste
// table; only replace the pinned values for a change that is meant to alter
// report bytes, and say so in the change log.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/chaos.h"
#include "dataset/pack.h"
#include "dataset/warts_lite.h"
#include "run/checkpoint.h"
#include "run/runner.h"

namespace mum {
namespace {

namespace fs = std::filesystem;

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<std::uint64_t> cycle_digests(
    const lpr::LongitudinalReport& report) {
  std::vector<std::uint64_t> out;
  out.reserve(report.cycles.size());
  for (const lpr::CycleReport& cycle : report.cycles) {
    out.push_back(fnv1a(run::serialize_cycle_report(cycle)));
  }
  return out;
}

std::string format_table(const std::vector<std::uint64_t>& digests) {
  std::string out;
  char buf[32];
  for (std::size_t i = 0; i < digests.size(); ++i) {
    std::snprintf(buf, sizeof buf, "0x%016llxull,",
                  static_cast<unsigned long long>(digests[i]));
    out += (i % 3 == 0 ? "\n    " : " ");
    out += buf;
  }
  return out;
}

void expect_digests(const std::vector<std::uint64_t>& got,
                    const std::vector<std::uint64_t>& want,
                    const std::string& what) {
  if (got == want) return;
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    if (got[i] != want[i]) {
      ADD_FAILURE() << what << ": cycle " << i + 1 << " report digest";
    }
  }
  ADD_FAILURE() << what << ": " << got.size() << " cycles computed, "
                << want.size() << " pinned; computed digests:"
                << format_table(got);
}

// The CLI --small world (what ChaosSoak and the tier-1 campaign loops use).
gen::GenConfig small_world() {
  gen::GenConfig c;
  c.background_transit = 8;
  c.stub_ases = 12;
  c.monitors = 6;
  c.dests_per_monitor = 150;
  return c;
}

constexpr int kChaosCycles = 60;
constexpr int kResumeCycles = 12;

const std::vector<std::uint64_t> kDefaultStudy = {
    0x4d362f75aac77733ull, 0x64e7a3994e7f9b5eull, 0x8b70f76beb63308full,
    0x1d2c24e783ac5bbcull, 0x0bcd6199dafdc293ull, 0x8c1be07a0f1accbbull,
    0x88fc94bae468c5b4ull, 0x3a809fa516be6b28ull, 0xea3e6d9ebb4d2633ull,
    0x72f0a3f338104a9bull, 0x23c7fdca296274dcull, 0x92f397f5c3b45598ull,
    0x70dae44323c19897ull, 0x688f5e6750ca6e32ull, 0x32058b4d14ce08daull,
    0xd6bda725c0cd5913ull, 0x2544bf9c64484f21ull, 0x014212e938c2633aull,
    0xa3c3f155d9d2c627ull, 0x09fc155f002387a2ull, 0x2b2764351bfd781eull,
    0xd6ecb75b90d67d32ull, 0x7af8d7823c70781bull, 0x74a67803db3c4dcdull,
    0x75866bef22e812c1ull, 0xf39045e41f618336ull, 0x88dcd43ba70ac7f3ull,
    0xa2f3b0f285a2a162ull, 0xe8ba9d74705c57e7ull, 0x106053592e8a8e51ull,
    0x6a1efab2beacb2d6ull, 0x9a2acd00377e27e6ull, 0x5c316320c73cc7acull,
    0x173b108a09b37816ull, 0xa1166570e299e783ull, 0xdd31c97d878501e4ull,
    0x3182c91fc30a9886ull, 0x5b2bb2533f20b915ull, 0x14985aa29a0ec00full,
    0xfc5eda2817364760ull, 0x4a2ceacdf2522b82ull, 0x6016111c909a2a63ull,
    0x9cb12cc78cc0d1e0ull, 0xf4413e3c14b75193ull, 0x7f0b7ae850b3fd5bull,
    0x03ed4a44302c2cd1ull, 0xb6fe8df9feef359aull, 0x8067cad45a760327ull,
    0xfed3b0555c8a08b0ull, 0xe399828c3d120fd5ull, 0x0c0391f1b2d1f2adull,
    0x0fdb39f0d67dc18eull, 0xbc582fe39b1e6b38ull, 0xeee068874ed3bf42ull,
    0x350572330d8e6114ull, 0xfd136e6f53c024f6ull, 0xa496374a51bb3888ull,
    0x41aa5c8484c8d79dull, 0xa637f6e98aacdbaaull, 0xaa568cae1d1247e4ull,
};

const std::vector<std::uint64_t> kChaosV2 = {
    0x7da73307bb115eb3ull, 0x8a1e63aa3ca55d2full, 0xf92ef82c7cf20018ull,
    0xda0206696bb8d7d7ull, 0x5a3bdc0578fb1f74ull, 0x627b8bb2c32d3336ull,
    0x12a1ec32237041d3ull, 0xd0bdd4580cd0c2ccull, 0xcfab200ea4613a43ull,
    0x993797a569c957eaull, 0xd9048e916c7b89b1ull, 0xfc65653aa9e7b078ull,
    0x35aa1072bbbbee01ull, 0x485e79221a1d28a7ull, 0x6f439b6f6ea2d249ull,
    0x1902023b89e3b79eull, 0xa80d8daba45a004aull, 0xdc554023507c3883ull,
    0x8a8159a2c35919adull, 0xa73ff2a71d7ced17ull, 0x51012618c452fc2dull,
    0x54f1932cf8211444ull, 0x75812fe792036686ull, 0x7c7ac4b2b1e7a175ull,
    0xaa33c3a00d10aa63ull, 0xe460a1ea1bbb17eaull, 0x2b077aeb7d668db6ull,
    0x655a95401b18644bull, 0x0450542cd5f4069cull, 0xa7ca3417aab81492ull,
    0x4f55baee4b40b3c5ull, 0x506ded955bc28ea7ull, 0xf9dc4b4be8d4b1e7ull,
    0x625c594a43314b93ull, 0xff961869e8377248ull, 0x165f345e65791251ull,
    0xa7efb1d8b93ee992ull, 0x17264572a507bcfdull, 0x78e7840523a1aaacull,
    0x801058baec8fa74aull, 0xeee1263be198f7c4ull, 0x4b473297f211c50aull,
    0x56095dd2df3800a1ull, 0x4ecdf8212b3ae8b1ull, 0x6ee33745842fdddeull,
    0x6ca2e8fa35a54d8full, 0x11ff76cf7c2c8f74ull, 0x1d5380583fd288f0ull,
    0x5e103d26cffa02c0ull, 0x398496ab6a7d57e4ull, 0x9b49950fc0232c92ull,
    0x843f7ddd471dd9f1ull, 0x86c5b94681b51c93ull, 0x01c6b9d5b151becdull,
    0xbb30a13855cbf521ull, 0xcf14e2335ba04d89ull, 0x016c4dbc1e3867fbull,
    0x3ef09a42a4757375ull, 0x8c40106b37eebf7full, 0x1ea55c688529fa82ull,
};

const std::vector<std::uint64_t> kChaosV3 = {
    0x17f2e0e421b8a7a9ull, 0xe221a5c010d3d353ull, 0x6c0f19999f956585ull,
    0xd3fb8669dab5f5e7ull, 0x4618cfded6b3fa13ull, 0x816e0db2f70c5f8aull,
    0x04e513a106cc8856ull, 0xe8876389ba4073ecull, 0xb4e7a5a4fa6e0a3aull,
    0xda5efbea2db75a84ull, 0xae8f029b8365127dull, 0x1635072f0d698d59ull,
    0x9f64e952ebf395f5ull, 0x248a34dab9426f5full, 0xb9e3d0172b69d25aull,
    0x788c357a649bf454ull, 0x4a160564b96d1005ull, 0x07b8be0d77ee158eull,
    0x02377920616e887eull, 0x3ce569da53d15039ull, 0x306f4136577ddfd5ull,
    0xae05e51d5895fcc1ull, 0x6972d0092883e3aeull, 0x61c7b8a52c9052e4ull,
    0x26b76f44662102a1ull, 0x90250b16e0424684ull, 0xacdadf2e18c080d3ull,
    0xbaac635fba3356eeull, 0xe31412ab6f7b8611ull, 0x06c1c0f0f01906c0ull,
    0x8f32a54b07dfd569ull, 0xb56dd4c39c298714ull, 0x22d7eeb23173941cull,
    0xd339080903d53029ull, 0x65b02d631734e452ull, 0x7265c679ba91cfddull,
    0x595957c51b989fb6ull, 0x833f4dc058eb5814ull, 0xd2101d8cba9994ceull,
    0x495cc4dfa780948dull, 0xc5ea643d057e74f6ull, 0xf6f5becfafd251e3ull,
    0xe1db74ba542cc676ull, 0x72600e03dc823561ull, 0xf6faec9b9e2dbd07ull,
    0x72300b6bbdddb3a9ull, 0x4304faf33fc43246ull, 0x837f5b7e3e82d046ull,
    0x4bb937a99a24a48cull, 0x6e665c20b2766fd0ull, 0xb67c9f9e08b0c34dull,
    0x8ea3e6f501820de7ull, 0xdabe2af64677914full, 0xf62d7b6f8a5ffdf1ull,
    0x002d19f613daf624ull, 0xea1e34e6a6119358ull, 0x4f278adb16dad8baull,
    0x973a27950fa790daull, 0x56fba3463305fc15ull, 0xaeec740e798f5168ull,
};

const std::vector<std::uint64_t> kMixedFormatResume = {
    0x0fcf386541bd5a59ull, 0x73de1433a77bb023ull, 0x2f4d5921a30456d0ull,
    0xa32b964e12885b7bull, 0x5eb873d02692bb9full, 0xc90702b69ddf7eb4ull,
    0xb733ee5ba831280bull, 0x3a4a3cb5aed7d07eull, 0x27c6dd5613f48b61ull,
    0xdadafc7cfa9e5286ull, 0xac7565ca73fbc61cull, 0xd4693a83950de43aull,
};

class GoldenDigests : public ::testing::TestWithParam<int> {
 protected:
  // Pid + thread count in the name so concurrent ctest -j processes (one
  // per parameter) never share a checkpoint directory.
  GoldenDigests()
      : dir_(fs::temp_directory_path() /
             ("mum_golden_" + std::to_string(::getpid()) + "_t" +
              std::to_string(GetParam()))) {
    fs::remove_all(dir_);
  }
  ~GoldenDigests() override { fs::remove_all(dir_); }

  std::string label(const char* run) const {
    return std::string(run) + " at threads=" + std::to_string(GetParam());
  }

  fs::path dir_;
};

TEST_P(GoldenDigests, DefaultStudy) {
  run::RunnerConfig config;
  config.threads = GetParam();
  run::Runner runner(config);
  ASSERT_EQ(config.last_cycle - config.first_cycle + 1, 60);
  const run::RunOutcome outcome = runner.run_all_contained();
  ASSERT_TRUE(outcome.manifest.complete());
  expect_digests(cycle_digests(outcome.report), kDefaultStudy,
                 label("default study"));
}

TEST_P(GoldenDigests, Chaos) {
  run::RunnerConfig config;
  config.gen = small_world();
  config.last_cycle = kChaosCycles - 1;
  config.threads = GetParam();
  config.chaos = *chaos::parse_chaos_spec(
      "stack=2%,noext=2%,dupttl=2%,reorder=2%,ip2as=2%,blackout=2%,"
      "flip=0.0005");
  // Wire faults round-trip every snapshot through the configured container:
  // the v2 stream decoder and the v3 pack validator each salvage their own
  // damage.
  const struct {
    std::uint8_t format;
    const std::vector<std::uint64_t>& digests;
    const char* run;
  } cases[] = {{dataset::kWartsLiteVersion, kChaosV2, "chaos v2"},
               {dataset::kPackVersion, kChaosV3, "chaos v3"}};
  for (const auto& c : cases) {
    config.snapshot_format = c.format;
    run::Runner runner(config);
    const run::RunOutcome outcome = runner.run_all_contained();
    ASSERT_TRUE(outcome.manifest.complete());
    ASSERT_GT(outcome.manifest.chaos_total().total(), 0u);
    expect_digests(cycle_digests(outcome.report), c.digests, label(c.run));
  }
}

TEST_P(GoldenDigests, MixedFormatResume) {
  run::RunnerConfig config;
  config.gen = small_world();
  config.last_cycle = kResumeCycles - 1;
  config.threads = GetParam();
  config.checkpoint_dir = (dir_ / "run").string();
  config.checkpoint_data = true;  // v2 stream shards
  {
    run::Runner first(config);
    ASSERT_TRUE(first.run_all_contained().manifest.complete());
  }

  // Re-persist cycles 3 and 6 as v3 packs (a one-cycle campaign each, in a
  // side directory) and swap their shards in: the directory now mixes
  // container formats.
  for (const int cycle : {2, 5}) {
    run::RunnerConfig pack = config;
    pack.first_cycle = pack.last_cycle = cycle;
    pack.snapshot_format = dataset::kPackVersion;
    pack.checkpoint_dir = (dir_ / ("pack" + std::to_string(cycle))).string();
    {
      run::Runner side(pack);
      ASSERT_TRUE(side.run_all_contained().manifest.complete());
    }
    for (const std::string& old :
         run::find_data_shards(config.checkpoint_dir, cycle)) {
      fs::remove(old);
    }
    const auto packs = run::find_data_shards(pack.checkpoint_dir, cycle);
    ASSERT_EQ(packs.size(),
              static_cast<std::size_t>(config.campaign.extra_snapshots) + 1);
    for (const std::string& shard : packs) {
      ASSERT_EQ(fs::path(shard).extension(), ".mump");
      fs::copy_file(shard, fs::path(config.checkpoint_dir) /
                               fs::path(shard).filename());
    }
  }

  // Lose report checkpoints: cycles 2 (v2 shards), 3 and 6 (v3 shards)
  // re-ingest their data; cycle 12 also loses its shards and regenerates.
  for (const int cycle : {1, 2, 5, kResumeCycles - 1}) {
    fs::remove(fs::path(config.checkpoint_dir) /
               run::checkpoint_filename(cycle));
  }
  for (const std::string& shard :
       run::find_data_shards(config.checkpoint_dir, kResumeCycles - 1)) {
    fs::remove(shard);
  }

  config.resume = true;
  run::Runner second(config);
  const run::RunOutcome resumed = second.run_all_contained();
  ASSERT_TRUE(resumed.manifest.complete());
  EXPECT_EQ(resumed.manifest.count(run::CycleOutcome::kFromData), 3u);
  EXPECT_EQ(resumed.manifest.count(run::CycleOutcome::kOk), 1u);
  EXPECT_EQ(resumed.manifest.count(run::CycleOutcome::kFromCheckpoint),
            static_cast<std::size_t>(kResumeCycles - 4));
  expect_digests(cycle_digests(resumed.report), kMixedFormatResume,
                 label("mixed-format resume"));
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenDigests, ::testing::Values(1, 4, 16),
                         [](const ::testing::TestParamInfo<int>& info) {
                           char name[16];
                           std::snprintf(name, sizeof name, "t%d", info.param);
                           return std::string(name);
                         });

}  // namespace
}  // namespace mum
