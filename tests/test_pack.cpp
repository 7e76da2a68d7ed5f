// warts-lite v3 pack: round trips, checksums, fault taxonomy, v2 parity,
// and the SnapshotSource / MmapFile ingest stack built on top of it.
#include "dataset/pack.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "batch_testing.h"
#include "core/report.h"
#include "dataset/snapshot_source.h"
#include "dataset/warts_lite.h"
#include "run/runner.h"
#include "util/mmap_file.h"
#include "util/thread_pool.h"

namespace mum::dataset {
namespace {

namespace fs = std::filesystem;

SnapshotBatch sample_snapshot() {
  SnapshotBatch snap;
  snap.cycle_id = 42;
  snap.sub_index = 1;
  snap.date = "2014-12";
  const testing::Hop plain{0x0A000001, {}, 1.25};
  testing::Hop multi{0x0A000002, {}, 33.5};
  multi.labels.push(300123, 0, 1);
  multi.labels.push(17, 2, 255);
  testing::add_trace(snap,
                     {.monitor_id = 7, .src = 0x01020304, .dst = 0x05060708},
                     {plain, testing::anonymous(), multi});
  testing::add_trace(snap, {.monitor_id = 8, .src = 1, .dst = 2,
                            .reached = false},
                     {});  // zero hops
  return snap;
}

// Little-endian field surgery on serialized packs.
void write_le64(std::string& bytes, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

std::uint64_t read_le64(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(
             bytes[at + static_cast<std::size_t>(i)])}
         << (8 * i);
  }
  return v;
}

std::size_t entry_at(PackSection s) {
  return kPackHeaderBytes +
         static_cast<std::size_t>(s) * kPackSectionEntryBytes;
}

// After editing a section's payload, restamp its table checksum so only the
// fault under test fires.
void restamp_checksum(std::string& bytes, PackSection s) {
  const std::size_t at = entry_at(s);
  const auto off = static_cast<std::size_t>(read_le64(bytes, at + 8));
  const auto len = static_cast<std::size_t>(read_le64(bytes, at + 16));
  write_le64(bytes, at + 24,
             pack_checksum(std::string_view(bytes).substr(off, len)));
}

// --- checksum -----------------------------------------------------------

TEST(PackChecksum, DeterministicAndSensitive) {
  const std::string a(100, 'x');
  EXPECT_EQ(pack_checksum(a), pack_checksum(a));
  // Any single-byte change, in any lane position, changes the digest.
  for (std::size_t i = 0; i < a.size(); i += 7) {
    std::string b = a;
    b[i] ^= 0x01;
    EXPECT_NE(pack_checksum(b), pack_checksum(a)) << "byte " << i;
  }
  // Length is folded in: a zero byte appended is not a fixed point.
  EXPECT_NE(pack_checksum(a + std::string(1, '\0')), pack_checksum(a));
  EXPECT_NE(pack_checksum(""), pack_checksum(std::string(1, '\0')));
}

// --- round trips --------------------------------------------------------

TEST(Pack, RoundTripPreservesEverything) {
  const SnapshotBatch snap = sample_snapshot();
  const std::string bytes = serialize_pack(snap);
  ASSERT_GE(bytes.size(), kPackHeaderBytes);
  EXPECT_EQ(bytes.substr(0, 4), "MUMP");
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[4]), kPackVersion);

  DecodeDiagnostics diag;
  const auto back = parse_pack(bytes, DecodeOptions{}, &diag);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(diag.clean());
  EXPECT_EQ(diag.records_decoded, 2u);
  EXPECT_EQ(back->cycle_id, snap.cycle_id);
  EXPECT_EQ(back->sub_index, snap.sub_index);
  EXPECT_EQ(back->date, snap.date);
  testing::expect_batches_equal(*back, snap);
  const TraceView t0 = back->blocks.front().view(0);
  EXPECT_EQ(t0.monitor_id(), 7u);
  EXPECT_TRUE(t0.reached());
  ASSERT_EQ(t0.hop_count(), 3u);
  EXPECT_NEAR(t0.hop(0).rtt_ms(), 1.25, 1e-3);
  EXPECT_TRUE(t0.hop(1).anonymous());
  EXPECT_FALSE(back->blocks.front().view(1).reached());
  EXPECT_EQ(back->blocks.front().view(1).hop_count(), 0u);

  // Serialization is deterministic byte-for-byte.
  EXPECT_EQ(serialize_pack(*back), bytes);
}

TEST(Pack, EmptySnapshotRoundTrip) {
  SnapshotBatch snap;
  snap.cycle_id = 3;
  snap.date = "2011-07";
  const auto back = parse_pack(serialize_pack(snap));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->cycle_id, 3u);
  EXPECT_EQ(back->date, "2011-07");
  EXPECT_EQ(back->trace_count(), 0u);
}

TEST(Pack, SectionsAreAligned) {
  const std::string bytes = serialize_pack(sample_snapshot());
  for (std::size_t s = 0; s < kPackSectionCount; ++s) {
    const std::size_t at = kPackHeaderBytes + s * kPackSectionEntryBytes;
    EXPECT_EQ(read_le64(bytes, at + 8) % kPackAlignment, 0u) << "section " << s;
  }
  EXPECT_EQ(read_le64(bytes, 24), bytes.size());  // header total_bytes
}

TEST(Pack, ViewExposesColumnsWithoutMaterializing) {
  const SnapshotBatch snap = sample_snapshot();
  const std::string bytes = serialize_pack(snap);
  DecodeDiagnostics diag;
  const auto view = PackView::open(bytes, DecodeOptions{}, &diag);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->trace_count(), 2u);
  EXPECT_EQ(view->hop_count(), 3u);
  EXPECT_EQ(view->lse_count(), 2u);
  EXPECT_EQ(view->valid_count(), 2u);
  EXPECT_TRUE(view->trace_valid(0));
  EXPECT_FALSE(view->trace_valid(99));
  EXPECT_EQ(view->date(), "2014-12");
  TraceBatch one;
  view->append_trace(1, one);
  ASSERT_EQ(one.trace_count(), 1u);
  EXPECT_EQ(one.view(0).monitor_id(), 8u);
}

// --- container faults ---------------------------------------------------

TEST(Pack, RejectsBadMagicAndVersion) {
  std::string bytes = serialize_pack(sample_snapshot());
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  DecodeDiagnostics diag;
  // Wrong magic is not recognizable even tolerantly.
  EXPECT_FALSE(
      parse_pack(wrong_magic, DecodeOptions{.tolerant = true}, &diag));
  EXPECT_EQ(diag.count(FaultClass::kBadMagic), 1u);

  std::string wrong_version = bytes;
  wrong_version[4] = 9;
  diag = {};
  EXPECT_FALSE(
      parse_pack(wrong_version, DecodeOptions{.tolerant = true}, &diag));
  EXPECT_EQ(diag.count(FaultClass::kBadVersion), 1u);
}

TEST(Pack, TruncationSweepIsBoundsSafe) {
  const std::string bytes = serialize_pack(sample_snapshot());
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    const std::string_view cut(bytes.data(), len);
    // Strict: any truncation (except the full buffer) is a hard fault.
    DecodeDiagnostics strict;
    const auto s = parse_pack(cut, DecodeOptions{}, &strict);
    if (len == bytes.size()) {
      EXPECT_TRUE(s.has_value());
    } else {
      EXPECT_FALSE(s.has_value()) << "len " << len;
      EXPECT_GT(strict.faults_total(), 0u) << "len " << len;
    }
    // Tolerant: never reads past `cut` (ASan tier), never returns more than
    // the original traces, and accepts once magic + version survive.
    DecodeDiagnostics tol;
    const auto t = parse_pack(cut, DecodeOptions{.tolerant = true}, &tol);
    if (len >= 5) {
      ASSERT_TRUE(t.has_value()) << "len " << len;
      EXPECT_LE(t->trace_count(), 2u);
    } else {
      EXPECT_FALSE(t.has_value());
    }
  }
}

TEST(Pack, ChecksumMismatchIsStrictFatalTolerantSurvivable) {
  std::string bytes = serialize_pack(sample_snapshot());
  // Flip one byte inside the hop-rtt payload (leaves structure intact).
  const std::size_t off = static_cast<std::size_t>(
      read_le64(bytes, entry_at(PackSection::kHopRtt) + 8));
  bytes[off] = static_cast<char>(static_cast<unsigned char>(bytes[off]) ^ 0x40);

  DecodeDiagnostics strict;
  EXPECT_FALSE(parse_pack(bytes, DecodeOptions{}, &strict));
  EXPECT_EQ(strict.count(FaultClass::kChecksumMismatch), 1u);

  DecodeDiagnostics tol;
  const auto salvaged = parse_pack(bytes, DecodeOptions{.tolerant = true}, &tol);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_EQ(tol.count(FaultClass::kChecksumMismatch), 1u);
  // The damaged column stays bounds-safe: all records still decode (with a
  // wrong rtt in one hop), nothing is lost structurally.
  EXPECT_EQ(salvaged->trace_count(), 2u);
}

TEST(Pack, BadOffsetColumnSkipsExactlyTheDamagedRecord) {
  std::string bytes = serialize_pack(sample_snapshot());
  // Make trace 0's hop range non-monotone (start beyond end), restamping the
  // section checksum so only the offset fault fires.
  const std::size_t off = static_cast<std::size_t>(
      read_le64(bytes, entry_at(PackSection::kHopOffset) + 8));
  write_le64(bytes, off, 5);  // hop_off[0] = 5 > hop_off[1] = 3
  restamp_checksum(bytes, PackSection::kHopOffset);

  DecodeDiagnostics strict;
  EXPECT_FALSE(parse_pack(bytes, DecodeOptions{}, &strict));
  EXPECT_GT(strict.count(FaultClass::kBadOffsetIndex), 0u);

  DecodeDiagnostics tol;
  const auto salvaged = parse_pack(bytes, DecodeOptions{.tolerant = true}, &tol);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_EQ(tol.count(FaultClass::kBadOffsetIndex), 1u);
  EXPECT_EQ(tol.records_skipped, 1u);
  EXPECT_EQ(tol.records_decoded, 1u);
  ASSERT_EQ(salvaged->trace_count(), 1u);
  // The undamaged record.
  EXPECT_EQ(salvaged->blocks.front().view(0).monitor_id(), 8u);
}

// --- v2 <-> v3 parity ---------------------------------------------------

TEST(Pack, ParityWithV2AcrossFormatsAndThreadCounts) {
  run::RunnerConfig config;
  config.gen.background_tier1 = 1;
  config.gen.background_transit = 6;
  config.gen.stub_ases = 8;
  config.gen.monitors = 4;
  config.gen.dests_per_monitor = 60;
  config.threads = 1;
  run::Runner runner(config);
  const dataset::MonthData month = runner.month_data(0);
  ASSERT_FALSE(month.snapshots.empty());

  // The same month through both containers...
  auto reingest = [&](bool pack) {
    dataset::MonthData out;
    out.cycle_id = month.cycle_id;
    out.date = month.date;
    for (const SnapshotBatch& snap : month.snapshots) {
      const std::string bytes =
          pack ? serialize_pack(snap) : serialize_snapshot(snap);
      auto back = parse_snapshot(bytes);
      EXPECT_TRUE(back.has_value());
      runner.ip2as().annotate(*back);
      out.snapshots.push_back(std::move(*back));
    }
    return out;
  };
  const dataset::MonthData via_v2 = reingest(false);
  const dataset::MonthData via_v3 = reingest(true);

  // ...yields byte-identical LPR reports at any thread count.
  const lpr::CycleReport baseline =
      lpr::run_pipeline(via_v2, runner.ip2as(), {}, nullptr);
  ASSERT_GT(baseline.global.total(), 0u);
  const std::string want = baseline.to_json(true);
  EXPECT_EQ(lpr::run_pipeline(via_v3, runner.ip2as(), {}, nullptr)
                .to_json(true),
            want);
  for (const unsigned threads : {2u, 4u}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(lpr::run_pipeline(via_v2, runner.ip2as(), {}, &pool)
                  .to_json(true),
              want);
    EXPECT_EQ(lpr::run_pipeline(via_v3, runner.ip2as(), {}, &pool)
                  .to_json(true),
              want);
  }
}

// --- MmapFile -----------------------------------------------------------

TEST(MmapFileTest, MapsReadsAndFallsBackGracefully) {
  const fs::path dir = fs::temp_directory_path() /
                       ("mum_pack_mmap_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  EXPECT_FALSE(util::MmapFile::open_ro((dir / "missing").string()));

  // Zero-length files yield a valid empty view (mmap of 0 bytes fails; the
  // fallback must cover it).
  std::ofstream(dir / "empty", std::ios::binary).flush();
  const auto empty = util::MmapFile::open_ro((dir / "empty").string());
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_NE(empty->data(), nullptr);

  const std::string payload = serialize_pack(sample_snapshot());
  std::ofstream(dir / "pack", std::ios::binary) << payload;
  auto mapped = util::MmapFile::open_ro((dir / "pack").string());
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(mapped->view(), payload);
  const auto moved = std::move(*mapped);
  EXPECT_EQ(moved.view(), payload);

  fs::remove_all(dir);
}

// --- SnapshotSource -----------------------------------------------------

TEST(SnapshotSourceTest, FileSourceStreamsMixedFormats) {
  const fs::path dir = fs::temp_directory_path() /
                       ("mum_pack_source_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  SnapshotBatch a = sample_snapshot();
  SnapshotBatch b = sample_snapshot();
  b.sub_index = 2;
  std::ofstream(dir / "a.mumw", std::ios::binary) << serialize_snapshot(a);
  std::ofstream(dir / "b.mump", std::ios::binary) << serialize_pack(b);
  const std::vector<std::string> paths{(dir / "a.mumw").string(),
                                       (dir / "b.mump").string()};

  // With and without a pool (prefetch overlap) the stream is identical.
  for (const bool pooled : {false, true}) {
    util::ThreadPool pool(2);
    SnapshotSource source(paths, {}, pooled ? &pool : nullptr);
    const auto first = source.next();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->sub_index, 1u);
    EXPECT_EQ(source.last_path(), paths[0]);
    const auto second = source.next();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->sub_index, 2u);
    EXPECT_EQ(source.last_path(), paths[1]);
    EXPECT_FALSE(source.next().has_value());
    EXPECT_FALSE(source.failed());
    EXPECT_TRUE(source.diagnostics().clean());
  }

  // Missing and undecodable files fail with the path in the error.
  SnapshotSource missing({(dir / "nope.mumw").string()}, {}, nullptr);
  EXPECT_FALSE(missing.next().has_value());
  EXPECT_NE(missing.error().find("cannot read"), std::string::npos);
  std::ofstream(dir / "junk.mump", std::ios::binary) << "not a container";
  SnapshotSource junk({(dir / "junk.mump").string()}, {}, nullptr);
  EXPECT_FALSE(junk.next().has_value());
  EXPECT_TRUE(junk.failed());
  EXPECT_NE(junk.error().find("junk.mump"), std::string::npos);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace mum::dataset
