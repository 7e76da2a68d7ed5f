// Tests for the SoA measurement path (DESIGN.md §14).
//
// The batch path replaced a heap-Trace pipeline that stored every trace as
// an AoS value. That pipeline is gone from the library; its outputs on the
// fixtures below were recorded as FNV-1a digests (snapshot bytes from the
// AoS writers, report JSON from the heap campaign), so every guarantee here
// is still stated as byte- or value-identity against it. Batch-level
// oracles compare against a reference batch from one observe_walk_into run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "batch_testing.h"
#include "chaos/chaos.h"
#include "dataset/ip2as.h"
#include "dataset/pack.h"
#include "dataset/trace_batch.h"
#include "dataset/warts_lite.h"
#include "gen/campaign.h"
#include "gen/internet.h"
#include "net/lse.h"
#include "obs/telemetry.h"
#include "probe/traceroute.h"
#include "run/checkpoint.h"
#include "run/runner.h"
#include "util/thread_pool.h"

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

using testing::expect_batches_equal;

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Digests of what the heap-Trace path produced on these fixtures:
// small_gen() cycle 50, snapshot 0 (480 traces) through the AoS v2 stream
// and v3 pack writers, and the report JSON of the runs below.
constexpr std::uint64_t kLegacySnapshotV2 = 0x5338dca757f188d5ull;
constexpr std::uint64_t kLegacySnapshotV3 = 0xbf0657ce20655906ull;
constexpr std::uint64_t kLegacyReport3Cycles = 0x159cdd551fde9854ull;
constexpr std::uint64_t kLegacyChaosReport3Cycles = 0xa8277ef934429dc4ull;
constexpr std::uint64_t kLegacyReport4Cycles = 0x677fd6965675de37ull;

// The fixture snapshot, as the campaign generates it.
dataset::SnapshotBatch campaign_snapshot() {
  gen::Internet internet(small_gen());
  const auto ip2as = internet.build_ip2as();
  gen::CampaignRunner runner(internet, ip2as);
  auto ctx = internet.instantiate(50);
  return runner.snapshot(ctx, 50, 0);
}

// The probe-layer reference: every monitor toward every third destination
// of the fixture world, observed in one RNG stream (seed 11). Probe i lands
// in `pick(i)`, so a test can split or interleave the stream across
// batches. Returns the world's table for annotating them afterwards.
template <class Pick>
dataset::Ip2As observe_fixture(Pick&& pick) {
  gen::Internet internet(small_gen());
  auto ctx = internet.instantiate(50);
  util::Rng rng(11);
  std::size_t i = 0;
  for (const auto& monitor : internet.monitors()) {
    const auto& dests = internet.destinations();
    for (std::size_t d = 0; d < dests.size(); d += 3) {
      const auto path = internet.path_spec(monitor, dests[d], ctx);
      if (!path) continue;
      testing::trace_into(monitor, *path, {}, rng, pick(i++));
    }
  }
  return internet.build_ip2as();
}

// The whole reference stream in one batch, annotated.
dataset::TraceBatch reference_batch() {
  dataset::TraceBatch out;
  observe_fixture([&](std::size_t) -> dataset::TraceBatch& { return out; })
      .annotate(out);
  return out;
}

// --- small-inline LabelStack -----------------------------------------------

TEST(LabelStackInline, PushPopAcrossTheInlineBoundary) {
  static_assert(net::LabelStack::kInlineDepth == 3);
  net::LabelStack stack;
  // Grow through the inline capacity and past it into the spill.
  for (std::uint32_t d = 1; d <= 5; ++d) {
    stack.push(1000 + d, 0, 64);
    EXPECT_EQ(stack.depth(), d);
    EXPECT_EQ(stack.top().label(), 1000 + d);
    // Exactly one bottom-of-stack entry, and it is the last one.
    const auto entries = stack.entries();
    for (std::size_t k = 0; k < entries.size(); ++k) {
      EXPECT_EQ(entries[k].bottom_of_stack(), k + 1 == entries.size());
    }
  }
  // Labels come out top-first regardless of storage.
  EXPECT_EQ(stack.labels(),
            (std::vector<std::uint32_t>{1005, 1004, 1003, 1002, 1001}));
  // Shrink back across the boundary: contents survive the spill->inline
  // transition.
  stack.pop();
  stack.pop();
  EXPECT_EQ(stack.depth(), 3u);
  EXPECT_EQ(stack.labels(), (std::vector<std::uint32_t>{1003, 1002, 1001}));
  EXPECT_TRUE(stack.entries().back().bottom_of_stack());
}

TEST(LabelStackInline, VectorConstructorAndEqualityAgnosticToStorage) {
  std::vector<net::LabelStackEntry> entries;
  for (std::uint32_t d = 0; d < 4; ++d) {
    entries.emplace_back(300 + d, 0, d == 3, 64);
  }
  const net::LabelStack deep(entries);  // spilled (depth 4)
  net::LabelStack pushed;               // built top-last via push
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    pushed.push(it->label(), it->traffic_class(), it->ttl());
  }
  EXPECT_TRUE(deep == pushed);
  net::LabelStack shallow(std::vector<net::LabelStackEntry>(
      entries.begin() + 1, entries.end()));  // depth 3: inline
  EXPECT_FALSE(deep == shallow);
  EXPECT_EQ(shallow.depth(), 3u);
  EXPECT_EQ(shallow.top().label(), 301u);
}

// --- TraceBatch storage ----------------------------------------------------

TEST(AsnCache, AgreesWithTrieAcrossGrowthAndReuse) {
  dataset::Ip2As table;
  // Structured blocks like the generator carves: sequential /16s with
  // hosts at fixed strides, the worst case for a low-bit hash.
  for (std::uint32_t unit = 0; unit < 64; ++unit) {
    table.add_prefix(
        net::Ipv4Prefix(net::Ipv4Addr((16u << 24) + (unit << 16)), 16),
        1000 + unit);
  }

  dataset::AsnCache cache;
  // Enough distinct addresses to force several grow() rehashes from the
  // 4096-slot initial table; two passes so the second is all warm hits.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t unit = 0; unit < 64; ++unit) {
      for (std::uint32_t host = 0; host < 256; ++host) {
        const std::uint32_t addr = (16u << 24) + (unit << 16) + host * 256 + 1;
        ASSERT_EQ(cache.get(addr, table), table.lookup(net::Ipv4Addr(addr)))
            << "unit " << unit << " host " << host << " pass " << pass;
      }
    }
  }
  // Uncovered addresses memoize kUnknownAsn just like the trie reports it.
  EXPECT_EQ(cache.get((17u << 24) + 5, table), dataset::kUnknownAsn);
  EXPECT_EQ(cache.get((17u << 24) + 5, table), dataset::kUnknownAsn);
}

// The writers stream a snapshot's blocks and rebase each block's offset
// columns on the way out, so where the block boundaries fall never shows in
// the bytes: here an empty block first and in the middle, a label-free
// block with hops, and two parts of the reference stream.
TEST(SnapshotBlocks, WritersRebaseOffsetsAcrossBlocks) {
  const std::size_t half = reference_batch().trace_count() / 2;
  ASSERT_GT(half, 30u);

  dataset::SnapshotBatch blocks, single;
  blocks.cycle_id = single.cycle_id = 50;
  blocks.date = single.date = "2010-03";
  blocks.blocks.resize(5);
  dataset::TraceBatch& one = single.blocks.emplace_back();
  const std::vector<testing::Hop> hops{testing::plain(0x0B000001),
                                       testing::anonymous(),
                                       testing::plain(0x0B000002)};
  const auto add_plain = [&](dataset::TraceBatch& out) {
    testing::add_trace(out, {7, 0x0B000009, 0x0B000002, true}, hops);
    testing::add_trace(out, {7, 0x0B000009, 0x0B000003, false}, hops);
  };
  add_plain(blocks.blocks[3]);
  observe_fixture([&](std::size_t i) -> dataset::TraceBatch& {
    return blocks.blocks[i < half ? 1 : 4];
  });
  observe_fixture([&](std::size_t i) -> dataset::TraceBatch& {
    if (i == half) add_plain(one);
    return one;
  });
  ASSERT_TRUE(blocks.blocks[0].empty());
  ASSERT_TRUE(blocks.blocks[2].empty());
  ASSERT_GT(blocks.blocks[1].lse_count(), 0u);
  ASSERT_GT(blocks.blocks[4].lse_count(), 0u);
  ASSERT_GT(blocks.blocks[3].hop_count(), 0u);
  ASSERT_EQ(blocks.blocks[3].lse_count(), 0u);
  expect_batches_equal(blocks, one);

  EXPECT_EQ(dataset::serialize_snapshot(blocks, 2),
            dataset::serialize_snapshot(single, 2));
  const std::string pack = dataset::serialize_pack(blocks);
  EXPECT_EQ(pack, dataset::serialize_pack(single));

  // v3 ingest gives the traces back as one block with the same columns.
  const auto back = dataset::parse_pack(pack);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->blocks.size(), 1u);
  const dataset::TraceBatch& got = back->blocks.front();
  EXPECT_TRUE(std::ranges::equal(got.monitor_col(), one.monitor_col()));
  EXPECT_TRUE(std::ranges::equal(got.src_col(), one.src_col()));
  EXPECT_TRUE(std::ranges::equal(got.dst_col(), one.dst_col()));
  EXPECT_TRUE(std::ranges::equal(got.reached_col(), one.reached_col()));
  EXPECT_TRUE(std::ranges::equal(got.hop_off_col(), one.hop_off_col()));
  EXPECT_TRUE(std::ranges::equal(got.hop_addr_col(), one.hop_addr_col()));
  EXPECT_TRUE(std::ranges::equal(got.lse_off_col(), one.lse_off_col()));
  EXPECT_TRUE(std::ranges::equal(got.lse_pool_col(), one.lse_pool_col()));
  expect_batches_equal(got, one, 1e-3);
}

TEST(TraceBatch, DiscardDropsOnlyTheOpenTrace) {
  dataset::TraceBatch batch;
  const dataset::Ip2As ip2as =
      observe_fixture([&](std::size_t) -> dataset::TraceBatch& {
        // A half-built record (hops and labels included) vanishes without
        // a trace; the committed ones are untouched.
        batch.begin_trace(99, net::Ipv4Addr(1), net::Ipv4Addr(2));
        batch.add_hop(net::Ipv4Addr(3), 1.0);
        batch.add_label(0x12345100);
        batch.discard_trace();
        return batch;
      });
  batch.discard_trace();  // nothing open: a no-op
  ip2as.annotate(batch);
  expect_batches_equal(batch, reference_batch());
}

// A block reserved from counts holds the same columns and writes the same
// bytes as one grown from empty, whether its traces overflow the
// reservation (each column then grows past its count) or fit in it. The
// reserved blocks also open and discard a record once past the overflow;
// it leaves no mark.
TEST(TraceBatch, ReservedBlocksMatchGrowingBlock) {
  const auto snapshot = [](dataset::TraceBatch block) {
    dataset::SnapshotBatch snap;
    snap.cycle_id = 50;
    snap.date = "2010-03";
    snap.blocks.push_back(std::move(block));
    return snap;
  };
  const auto fill = [](dataset::TraceBatch& out, bool discard) {
    observe_fixture([&](std::size_t i) -> dataset::TraceBatch& {
      if (discard && i == 40) {
        out.begin_trace(99, net::Ipv4Addr(1), net::Ipv4Addr(2));
        out.add_hop(net::Ipv4Addr(3), 1.0);
        out.add_label(0x12345100);
        out.discard_trace();
      }
      return out;
    }).annotate(out);
  };
  dataset::TraceBatch grown;
  fill(grown, false);
  ASSERT_GT(grown.trace_count(), 40u);
  ASSERT_GT(grown.lse_count(), 4u);

  dataset::TraceBatch under(8, 16, 4);
  fill(under, true);
  const std::size_t traces = 2 * grown.trace_count();
  const std::size_t hops = 2 * grown.hop_count();
  const std::size_t lses = 2 * grown.lse_count();
  dataset::TraceBatch over(traces, hops, lses);
  fill(over, true);
  // The reservation held: no column of `over` grew.
  EXPECT_EQ(over.capacity_bytes(),
            dataset::TraceBatch(traces, hops, lses).capacity_bytes());

  const dataset::SnapshotBatch want = snapshot(std::move(grown));
  const dataset::TraceBatch& g = want.blocks.front();
  for (dataset::TraceBatch* block : {&under, &over}) {
    const dataset::TraceBatch& b = *block;
    EXPECT_GE(b.capacity_bytes(), b.used_bytes());
    EXPECT_EQ(b.used_bytes(), g.used_bytes());
    EXPECT_TRUE(std::ranges::equal(b.monitor_col(), g.monitor_col()));
    EXPECT_TRUE(std::ranges::equal(b.src_col(), g.src_col()));
    EXPECT_TRUE(std::ranges::equal(b.dst_col(), g.dst_col()));
    EXPECT_TRUE(std::ranges::equal(b.dst_asn_col(), g.dst_asn_col()));
    EXPECT_TRUE(std::ranges::equal(b.reached_col(), g.reached_col()));
    EXPECT_TRUE(std::ranges::equal(b.hop_off_col(), g.hop_off_col()));
    EXPECT_TRUE(std::ranges::equal(b.hop_addr_col(), g.hop_addr_col()));
    EXPECT_TRUE(std::ranges::equal(b.hop_rtt_col(), g.hop_rtt_col()));
    EXPECT_TRUE(std::ranges::equal(b.hop_asn_col(), g.hop_asn_col()));
    EXPECT_TRUE(std::ranges::equal(b.lse_off_col(), g.lse_off_col()));
    EXPECT_TRUE(std::ranges::equal(b.lse_pool_col(), g.lse_pool_col()));
    const dataset::SnapshotBatch got = snapshot(std::move(*block));
    EXPECT_EQ(dataset::serialize_snapshot(got, 2),
              dataset::serialize_snapshot(want, 2));
    EXPECT_EQ(dataset::serialize_pack(got), dataset::serialize_pack(want));
  }
}

TEST(TraceBatch, PackAndStreamWritersMatchAosBytes) {
  // The batch's columns ARE the pack sections; the column writers must emit
  // the bytes the per-record AoS writers produced for this snapshot.
  const dataset::SnapshotBatch snap = campaign_snapshot();
  ASSERT_EQ(snap.trace_count(), 480u);
  EXPECT_EQ(fnv1a(dataset::serialize_pack(snap)), kLegacySnapshotV3);
  EXPECT_EQ(fnv1a(dataset::serialize_snapshot(snap)), kLegacySnapshotV2);
}

TEST(TraceBatch, PackViewRoundTripIsByteStable) {
  // The wire format quantizes rtt and drops annotations (asn is recomputed
  // after ingest), so the reference stays unannotated.
  dataset::SnapshotBatch snap;
  snap.cycle_id = 50;
  observe_fixture([&](std::size_t) -> dataset::TraceBatch& {
    return testing::last_block(snap);
  });
  const std::string bytes = dataset::serialize_pack(snap);

  const auto view = dataset::PackView::open(bytes, {}, nullptr);
  ASSERT_TRUE(view.has_value());
  const dataset::SnapshotBatch batch = view->to_snapshot_batch();
  expect_batches_equal(batch, snap, 1e-3);
  EXPECT_EQ(dataset::serialize_pack(batch), bytes);
}

TEST(TraceBatch, DamagedPackIngestsTolerantlyOrRejects) {
  const std::string bytes = dataset::serialize_pack(campaign_snapshot());

  // Truncations at every granularity: whatever still opens must produce a
  // self-consistent batch (counts agree, offsets monotone) — never a crash.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() - 7, bytes.size() / 2,
        bytes.size() / 3, std::size_t{64}, std::size_t{5}}) {
    // PackView is zero-copy: the mapped buffer must outlive the view.
    const std::string damaged = bytes.substr(0, keep);
    dataset::DecodeDiagnostics diag;
    const auto view = dataset::PackView::open(
        damaged, dataset::DecodeOptions{.tolerant = true}, &diag);
    if (!view.has_value()) {
      EXPECT_GT(diag.faults_total(), 0u);
      continue;
    }
    const dataset::SnapshotBatch salvaged = view->to_snapshot_batch();
    ASSERT_EQ(salvaged.blocks.size(), 1u);
    const auto& traces = salvaged.blocks.front();
    for (std::size_t i = 0; i < traces.trace_count(); ++i) {
      ASSERT_LE(traces.view(i).first_hop() + traces.view(i).hop_count(),
                traces.hop_count());
    }
    // The salvage re-serializes cleanly.
    const std::string reserialized = dataset::serialize_pack(salvaged);
    const auto again = dataset::PackView::open(reserialized, {}, nullptr);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->to_snapshot_batch().trace_count(),
              traces.trace_count());
  }
}

// --- campaign layer --------------------------------------------------------

TEST(CampaignBatch, SnapshotBytesIdenticalToLegacyPath) {
  gen::Internet internet(small_gen());
  const auto ip2as = internet.build_ip2as();
  gen::CampaignRunner runner(internet, ip2as);
  auto ctx = internet.instantiate(50);
  const dataset::SnapshotBatch got = runner.snapshot(ctx, 50, 0);

  EXPECT_EQ(fnv1a(dataset::serialize_snapshot(got)), kLegacySnapshotV2);
  EXPECT_EQ(fnv1a(dataset::serialize_pack(got)), kLegacySnapshotV3);
}

TEST(CampaignBatch, ArenaTelemetryGaugesExported) {
  gen::Internet internet(small_gen());
  const auto ip2as = internet.build_ip2as();
  gen::CampaignRunner runner(internet, ip2as);
  auto ctx = internet.instantiate(50);

  const std::uint64_t traces_before =
      obs::registry().counter("probe.batch.traces").value();
  const std::uint64_t resets_before =
      obs::registry().counter("probe.arena.resets").value();
  const dataset::SnapshotBatch snap = runner.snapshot(ctx, 50, 0);

  EXPECT_EQ(obs::registry().counter("probe.batch.traces").value() -
                traces_before,
            snap.trace_count());
  EXPECT_GE(obs::registry().counter("probe.arena.resets").value() -
                resets_before,
            1u);
  // Gauges are max-of high-water marks; a completed snapshot implies both
  // are populated and capacity covers the high water.
  const std::int64_t capacity =
      obs::registry().gauge("probe.arena.capacity_bytes").value();
  const std::int64_t high_water =
      obs::registry().gauge("probe.arena.high_water_bytes").value();
  EXPECT_GT(high_water, 0);
  EXPECT_GE(capacity, high_water);
}

// The probe fan-out: each monitor task writes only its own block, so a
// pooled runner's snapshots equal a serial runner's byte for byte — the
// first one (blocks grown from empty) and the later ones (blocks reserved
// from their predecessors).
TEST(CampaignBatch, PooledBlocksMatchSerialRunner) {
  gen::Internet internet(small_gen());
  const auto ip2as = internet.build_ip2as();
  util::ThreadPool pool(4);
  gen::CampaignRunner serial(internet, ip2as);
  gen::CampaignRunner pooled(internet, ip2as, {}, &pool);
  for (int cycle = 50; cycle < 53; ++cycle) {
    auto serial_ctx = internet.instantiate(cycle);
    auto pooled_ctx = internet.instantiate(cycle);
    for (int sub = 0; sub < 3; ++sub) {
      const dataset::SnapshotBatch want =
          serial.snapshot(serial_ctx, cycle, sub);
      const dataset::SnapshotBatch got =
          pooled.snapshot(pooled_ctx, cycle, sub);
      ASSERT_EQ(got.blocks.size(), internet.monitors().size());
      EXPECT_EQ(dataset::serialize_pack(got), dataset::serialize_pack(want));
      expect_batches_equal(got, want);
    }
  }
}

// Acceptance: block memory stays stable over a 60-cycle soak. The
// workload repeats the same cycle, so after the first snapshot every
// monitor's block fits the columns reserved from its previous block —
// observed through the exported gauges (max-of: any growth would raise
// them).
TEST(CampaignBatch, ArenaHighWaterStableOverSixtyCycleSoak) {
  gen::Internet internet(small_gen());
  const auto ip2as = internet.build_ip2as();
  gen::CampaignRunner runner(internet, ip2as);

  {
    auto ctx = internet.instantiate(50);
    (void)runner.snapshot(ctx, 50, 0);  // warm-up
  }
  const std::int64_t capacity_warm =
      obs::registry().gauge("probe.arena.capacity_bytes").value();
  const std::int64_t high_water_warm =
      obs::registry().gauge("probe.arena.high_water_bytes").value();

  for (int round = 0; round < 60; ++round) {
    auto ctx = internet.instantiate(50);
    const dataset::SnapshotBatch snap = runner.snapshot(ctx, 50, 0);
    ASSERT_GT(snap.trace_count(), 0u);
  }
  EXPECT_EQ(obs::registry().gauge("probe.arena.capacity_bytes").value(),
            capacity_warm);
  EXPECT_EQ(obs::registry().gauge("probe.arena.high_water_bytes").value(),
            high_water_warm);
}

// --- runner-level oracle ---------------------------------------------------

// Acceptance: campaign reports are byte-identical to the legacy path at any
// thread count (1, 4 and 16 here), telemetry incidental, chaos included.
TEST(BatchOracle, ReportsByteIdenticalToLegacyAcrossThreadCounts) {
  constexpr int kCycles = 3;
  for (const int threads : {1, 4, 16}) {
    run::Runner batched(small_runner(kCycles, threads));
    EXPECT_EQ(fnv1a(batched.run_all_contained().report.to_json()),
              kLegacyReport3Cycles)
        << "batch report diverged from legacy at threads=" << threads;
  }
}

TEST(BatchOracle, ChaosReportsByteIdenticalToLegacy) {
  constexpr int kCycles = 3;
  const auto spec =
      chaos::parse_chaos_spec("stack=2%,noext=2%,blackout=2%,flip=0.0005");
  ASSERT_TRUE(spec.has_value());

  for (const int threads : {1, 4}) {
    auto config = small_runner(kCycles, threads);
    config.chaos = *spec;
    run::Runner batched(config);
    const auto got = batched.run_all_contained();
    ASSERT_TRUE(got.manifest.complete());
    EXPECT_EQ(fnv1a(got.report.to_json()), kLegacyChaosReport3Cycles)
        << "chaos batch report diverged at threads=" << threads;
  }
}

class BatchResumeTest : public ::testing::Test {
 protected:
  // Pid-suffixed so concurrent ctest -j processes cannot collide.
  BatchResumeTest()
      : dir_(fs::temp_directory_path() /
             ("mum_batch_resume_" + std::to_string(::getpid()))) {
    fs::remove_all(dir_);
  }
  ~BatchResumeTest() override { fs::remove_all(dir_); }
  fs::path dir_;
};

// Acceptance: a batch-path run resumed over mixed-format data shards (v2
// stream + v3 pack) reproduces the legacy report byte for byte.
TEST_F(BatchResumeTest, MixedFormatResumeMatchesLegacyReport) {
  constexpr int kCycles = 4;
  auto config = small_runner(kCycles, /*threads=*/2);
  config.checkpoint_dir = dir_.string();
  config.checkpoint_data = true;
  run::Runner first(config);
  const auto full = first.run_all_contained();
  ASSERT_TRUE(full.manifest.complete());
  EXPECT_EQ(fnv1a(full.report.to_json()), kLegacyReport4Cycles);

  // Rewrite cycle 2's shards as v3 packs so the directory mixes formats,
  // then kill two report checkpoints to force recomputation paths.
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
  fs::remove(dir_ / run::checkpoint_filename(1));
  fs::remove(dir_ / run::checkpoint_filename(2));

  config.resume = true;
  config.threads = 3;
  run::Runner second(config);
  const auto resumed = second.run_all_contained();
  ASSERT_TRUE(resumed.manifest.complete());
  EXPECT_EQ(resumed.manifest.count(run::CycleOutcome::kFromData), 2u);
  EXPECT_EQ(fnv1a(resumed.report.to_json()), kLegacyReport4Cycles);
}

}  // namespace
}  // namespace mum
