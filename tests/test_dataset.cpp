#include <gtest/gtest.h>

#include <sstream>

#include "batch_testing.h"
#include "dataset/ip2as.h"
#include "dataset/pack.h"
#include "dataset/warts_lite.h"
#include "util/rng.h"

namespace mum::dataset {
namespace {

using testing::add_trace;
using testing::anonymous;
using testing::Hop;
using testing::labeled;
using testing::plain;

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

// --- trace views ---------------------------------------------------------

TEST(Trace, AnonymousDetection) {
  TraceBatch batch;
  add_trace(batch, {}, {anonymous(), plain(1)});
  EXPECT_TRUE(batch.view(0).hop(0).anonymous());
  EXPECT_FALSE(batch.view(0).hop(1).anonymous());
}

TEST(Trace, ExplicitTunnelDetection) {
  TraceBatch batch;
  add_trace(batch, {}, {plain(1)});
  add_trace(batch, {}, {plain(1), labeled(2, 1000)});
  EXPECT_FALSE(batch.view(0).crosses_explicit_tunnel());
  EXPECT_TRUE(batch.view(1).crosses_explicit_tunnel());
}

// --- Ip2As --------------------------------------------------------------

TEST(Ip2As, LongestPrefixMatch) {
  Ip2As ip2as;
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x10000000), 8), 100);
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x10010000), 16), 200);
  EXPECT_EQ(ip2as.lookup(ip(0x10010203)), 200u);
  EXPECT_EQ(ip2as.lookup(ip(0x10FF0000)), 100u);
  EXPECT_EQ(ip2as.lookup(ip(0x20000000)), kUnknownAsn);
}

TEST(Ip2As, AnnotateFillsHopAndDestAsns) {
  Ip2As ip2as;
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x0A000000), 8), 65001);
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x0B000000), 8), 65002);

  // A mapped hop, an anonymous hop, an unmapped hop; the destination maps.
  const auto fill = [](TraceBatch& batch) {
    add_trace(batch, {.dst = 0x0B000001},
              {plain(0x0A000001), anonymous(), plain(0x0C000001)});
  };
  const auto expect_annotated = [&](const TraceBatch& batch) {
    ASSERT_EQ(batch.trace_count(), 1u);
    const TraceView t = batch.view(0);
    EXPECT_EQ(t.dst_asn(), 65002u);
    EXPECT_EQ(t.dst_asn(), ip2as.lookup(t.dst()));
    EXPECT_EQ(t.hop(0).asn(), 65001u);
    EXPECT_EQ(t.hop(0).asn(), ip2as.lookup(t.hop(0).addr()));
    EXPECT_EQ(t.hop(1).asn(), kUnknownAsn);
    EXPECT_EQ(t.hop(2).asn(), kUnknownAsn);
    EXPECT_EQ(t.hop(2).asn(), ip2as.lookup(t.hop(2).addr()));
  };

  TraceBatch uncached;
  fill(uncached);
  ip2as.annotate(uncached);
  expect_annotated(uncached);

  // One cache across two batches: the second is served from warm entries.
  AsnCache cache;
  TraceBatch first, second;
  fill(first);
  fill(second);
  ip2as.annotate(first, cache);
  ip2as.annotate(second, cache);
  expect_annotated(first);
  expect_annotated(second);
}

TEST(Ip2As, AnnotateVector) {
  Ip2As ip2as;
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x0A000000), 8), 65001);
  TraceBatch batch;
  for (int i = 0; i < 3; ++i) add_trace(batch, {.dst = 0x0A000005}, {});
  ip2as.annotate(batch);
  for (const TraceView t : batch) EXPECT_EQ(t.dst_asn(), 65001u);
}

// --- varints ------------------------------------------------------------

TEST(Varint, RoundTripBoundaries) {
  for (const std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
        0xFFFFFFFFull, ~0ull}) {
    std::string buf;
    put_varint(buf, v);
    std::size_t pos = 0;
    const auto back = get_varint(buf, pos);
    ASSERT_TRUE(back.has_value()) << v;
    EXPECT_EQ(*back, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Varint, TruncatedFails) {
  std::string buf;
  put_varint(buf, 300);  // two bytes
  buf.pop_back();
  std::size_t pos = 0;
  EXPECT_FALSE(get_varint(buf, pos).has_value());
}

TEST(Varint, SmallValuesAreOneByte) {
  std::string buf;
  put_varint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
}

// --- warts-lite ---------------------------------------------------------

SnapshotBatch sample_snapshot() {
  SnapshotBatch snap;
  snap.cycle_id = 42;
  snap.sub_index = 1;
  snap.date = "2014-12";
  Hop multi = labeled(0x0A000002, 300123);
  multi.rtt_ms = 1.5;
  multi.labels.push(17, 2, 1);  // two-entry stack
  add_trace(snap,
            {.monitor_id = 7, .src = 0x01020304, .dst = 0x05060708},
            {plain(0x0A000001), anonymous(), multi});
  add_trace(snap, {.monitor_id = 8, .src = 1, .dst = 2, .reached = false},
            {});
  return snap;
}

TEST(WartsLite, RoundTripPreservesEverything) {
  const SnapshotBatch snap = sample_snapshot();
  const std::string bytes = serialize_snapshot(snap);
  const auto back = parse_snapshot(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->cycle_id, snap.cycle_id);
  EXPECT_EQ(back->sub_index, snap.sub_index);
  EXPECT_EQ(back->date, snap.date);
  testing::expect_batches_equal(*back, snap);
  const TraceView t0 = back->blocks.front().view(0);
  EXPECT_EQ(t0.monitor_id(), 7u);
  EXPECT_TRUE(t0.reached());
  ASSERT_EQ(t0.hop_count(), 3u);
  EXPECT_TRUE(t0.hop(1).anonymous());
  EXPECT_NEAR(t0.hop(0).rtt_ms(), 1.0, 1e-3);
  EXPECT_FALSE(back->blocks.front().view(1).reached());
}

TEST(WartsLite, StreamRoundTrip) {
  const SnapshotBatch snap = sample_snapshot();
  std::stringstream ss;
  ss << serialize_snapshot(snap);
  const auto back = read_snapshot(ss);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(serialize_snapshot(*back), serialize_snapshot(snap));
}

TEST(WartsLite, RejectsBadMagic) {
  std::string bytes = serialize_snapshot(sample_snapshot());
  bytes[0] = 'X';
  EXPECT_FALSE(parse_snapshot(bytes).has_value());
}

TEST(WartsLite, RejectsBadVersion) {
  std::string bytes = serialize_snapshot(sample_snapshot());
  bytes[4] = 99;
  EXPECT_FALSE(parse_snapshot(bytes).has_value());
}

TEST(WartsLite, RejectsTruncation) {
  const std::string bytes = serialize_snapshot(sample_snapshot());
  // Every strict prefix must fail cleanly, never crash.
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    EXPECT_FALSE(parse_snapshot(bytes.substr(0, cut)).has_value());
  }
}

TEST(WartsLite, EmptySnapshotRoundTrip) {
  SnapshotBatch snap;
  snap.cycle_id = 0;
  snap.date = "";
  const auto back = parse_snapshot(serialize_snapshot(snap));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->trace_count(), 0u);
}

TEST(WartsLite, AnonymousOnlyTraceRoundTrip) {
  SnapshotBatch snap;
  snap.cycle_id = 9;
  snap.date = "2013-01";
  add_trace(snap, {.monitor_id = 3, .src = 1, .dst = 2, .reached = false},
            std::vector<Hop>(5, anonymous()));  // every hop anonymous

  const auto back = parse_snapshot(serialize_snapshot(snap));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->trace_count(), 1u);
  const TraceView trace = back->blocks.front().view(0);
  ASSERT_EQ(trace.hop_count(), 5u);
  for (std::size_t k = 0; k < trace.hop_count(); ++k) {
    EXPECT_TRUE(trace.hop(k).anonymous());
    EXPECT_FALSE(trace.hop(k).has_labels());
  }
}

TEST(WartsLite, MaxDepthLabelStackRoundTrip) {
  // Quoted stacks deeper than anything the generator emits must still
  // round-trip exactly (the paper's data shows stacks up to ~6; go further).
  Hop hop = plain(0x0A000001);
  for (std::uint32_t i = 0; i < 16; ++i) {
    hop.labels.push(net::kLabelFirstUnreserved + i,
                    static_cast<std::uint8_t>(i % 8),
                    static_cast<std::uint8_t>(255 - i));
  }
  SnapshotBatch snap;
  snap.date = "2015-06";
  add_trace(snap, {.src = 1, .dst = 2}, {hop});

  const auto back = parse_snapshot(serialize_snapshot(snap));
  ASSERT_TRUE(back.has_value());
  const TraceView trace = back->blocks.front().view(0);
  ASSERT_EQ(trace.hop_count(), 1u);
  const net::LabelStack quoted = trace.hop(0).label_stack();
  ASSERT_EQ(quoted.depth(), 16u);
  EXPECT_EQ(quoted, hop.labels);
  EXPECT_TRUE(quoted.entries().back().bottom_of_stack());
}

// --- strict/tolerant decode edge cases ----------------------------------

TEST(WartsLite, StrictReportsFaultClassAndOffset) {
  const std::string bytes = serialize_snapshot(sample_snapshot());
  const DecodeOptions strict;

  {
    std::string bad = bytes;
    bad[0] = 'X';
    DecodeDiagnostics diag;
    EXPECT_FALSE(parse_snapshot(bad, strict, &diag).has_value());
    ASSERT_EQ(diag.samples.size(), 1u);
    EXPECT_EQ(diag.samples[0].fault, FaultClass::kBadMagic);
    EXPECT_EQ(diag.samples[0].offset, 0u);
  }
  {
    std::string bad = bytes;
    bad[4] = 99;
    DecodeDiagnostics diag;
    EXPECT_FALSE(parse_snapshot(bad, strict, &diag).has_value());
    ASSERT_EQ(diag.samples.size(), 1u);
    EXPECT_EQ(diag.samples[0].fault, FaultClass::kBadVersion);
    EXPECT_EQ(diag.samples[0].offset, 4u);
  }
  {
    // Cut mid-header: the offset points into the surviving bytes.
    DecodeDiagnostics diag;
    EXPECT_FALSE(parse_snapshot(bytes.substr(0, 6), strict, &diag).has_value());
    ASSERT_GE(diag.samples.size(), 1u);
    EXPECT_EQ(diag.samples[0].fault, FaultClass::kTruncatedHeader);
    EXPECT_GE(diag.samples[0].offset, 5u);
    EXPECT_LE(diag.samples[0].offset, 6u);
  }
}

TEST(WartsLite, OversizedClaimRejectedBeforeAllocation) {
  // A header claiming ~1e18 traces backed by zero bytes must fail the
  // resource check, not attempt the allocation.
  std::string bytes = "MUMW";
  bytes.push_back(static_cast<char>(kWartsLiteVersion));
  put_varint(bytes, 1);  // cycle_id
  put_varint(bytes, 0);  // sub_index
  put_varint(bytes, 0);  // empty date
  put_varint(bytes, 0x0DE0B6B3A7640000ull);  // n_traces = 1e18

  DecodeDiagnostics strict_diag;
  EXPECT_FALSE(
      parse_snapshot(bytes, DecodeOptions{}, &strict_diag).has_value());
  EXPECT_GE(strict_diag.count(FaultClass::kOversizedClaim), 1u);

  DecodeOptions tolerant;
  tolerant.tolerant = true;
  DecodeDiagnostics diag;
  const auto salvaged = parse_snapshot(bytes, tolerant, &diag);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_EQ(salvaged->trace_count(), 0u);
  EXPECT_GE(diag.count(FaultClass::kOversizedClaim), 1u);
}

TEST(WartsLite, TolerantNeverFailsOnTruncatedCorpus) {
  const std::string bytes = serialize_snapshot(sample_snapshot());
  DecodeOptions tolerant;
  tolerant.tolerant = true;
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    DecodeDiagnostics diag;
    const auto result =
        parse_snapshot(bytes.substr(0, cut), tolerant, &diag);
    if (cut < 5) {
      // Not even a container: magic/version can't be verified.
      EXPECT_FALSE(result.has_value()) << "cut=" << cut;
    } else {
      ASSERT_TRUE(result.has_value()) << "cut=" << cut;
      EXPECT_EQ(result->trace_count(), diag.records_decoded) << "cut=" << cut;
      if (cut < bytes.size()) {
        EXPECT_FALSE(diag.clean()) << "cut=" << cut;
      }
    }
  }
}

TEST(WartsLite, TolerantNeverFailsOnBitFlippedCorpus) {
  const std::string bytes = serialize_snapshot(sample_snapshot());
  DecodeOptions tolerant;
  tolerant.tolerant = true;
  const DecodeOptions strict;
  for (std::size_t at = 5; at < bytes.size(); ++at) {
    for (unsigned bit = 0; bit < 8; bit += 3) {
      std::string flipped = bytes;
      flipped[at] = static_cast<char>(
          static_cast<unsigned char>(flipped[at]) ^ (1u << bit));

      DecodeDiagnostics diag;
      const auto salvaged = parse_snapshot(flipped, tolerant, &diag);
      ASSERT_TRUE(salvaged.has_value()) << "at=" << at << " bit=" << bit;
      EXPECT_EQ(salvaged->trace_count(), diag.records_decoded);

      // Strict mode on the same bytes: either the flip landed in a value
      // field (decodes fine) or the decode stops with a located fault.
      DecodeDiagnostics strict_diag;
      if (!parse_snapshot(flipped, strict, &strict_diag).has_value()) {
        ASSERT_GE(strict_diag.samples.size(), 1u);
        EXPECT_LE(strict_diag.samples[0].offset, flipped.size());
      }
    }
  }
}

TEST(WartsLite, V1UnframedFaultAbandonsRemainder) {
  const SnapshotBatch snap = sample_snapshot();
  const std::string v1 = serialize_snapshot(snap, 1);
  ASSERT_TRUE(parse_snapshot(v1).has_value());

  // Chop the tail: without per-record framing, tolerant mode cannot resync,
  // so everything from the fault on is lost — but it still must not fail.
  DecodeOptions tolerant;
  tolerant.tolerant = true;
  DecodeDiagnostics diag;
  const auto salvaged =
      parse_snapshot(v1.substr(0, v1.size() - 3), tolerant, &diag);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_LT(salvaged->trace_count(), snap.trace_count());
  EXPECT_FALSE(diag.clean());
}

// --- v3 pack section claims --------------------------------------------
// The pack container (dataset/pack.h) maps its structural damage onto the
// same FaultClass taxonomy the v2 stream uses; oversized and overlapping
// section claims are the two cases the section-table validator must catch
// before any payload is touched. Detailed pack coverage is in test_pack.cpp.

std::size_t pack_entry_at(PackSection s) {
  return kPackHeaderBytes +
         static_cast<std::size_t>(s) * kPackSectionEntryBytes;
}

void pack_write_le64(std::string& bytes, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

TEST(PackFaults, OversizedSectionClaimIsBoundedNotAllocated) {
  std::string bytes = serialize_pack(sample_snapshot());
  // The hop-addr entry claims ~1e18 bytes: far past the mapping. Like the
  // v2 oversized-claim case, the validator must bound the claim against the
  // bytes present, never follow it.
  pack_write_le64(bytes, pack_entry_at(PackSection::kHopAddr) + 16,
                  0x0DE0B6B3A7640000ull);

  DecodeDiagnostics strict_diag;
  EXPECT_FALSE(parse_pack(bytes, DecodeOptions{}, &strict_diag).has_value());
  EXPECT_GE(strict_diag.count(FaultClass::kOversizedClaim), 1u);

  DecodeDiagnostics diag;
  const auto salvaged =
      parse_pack(bytes, DecodeOptions{.tolerant = true}, &diag);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_GE(diag.count(FaultClass::kOversizedClaim), 1u);
  // The hop columns are gone; traces with hops are individually skipped,
  // the hopless record survives.
  ASSERT_EQ(salvaged->trace_count(), 1u);
  EXPECT_EQ(salvaged->blocks.front().view(0).hop_count(), 0u);
}

TEST(PackFaults, OverlappingSectionsAreRejectedAsBadTable) {
  std::string bytes = serialize_pack(sample_snapshot());
  // Point the src column at the monitor column's payload: two claims over
  // one region means at least one of them lies, so both are dropped.
  const std::size_t monitor_entry = pack_entry_at(PackSection::kTraceMonitor);
  const std::size_t src_entry = pack_entry_at(PackSection::kTraceSrc);
  for (std::size_t field : {std::size_t{8}, std::size_t{16},
                            std::size_t{24}}) {  // offset, bytes, checksum
    for (int i = 0; i < 8; ++i) {
      bytes[src_entry + field + static_cast<std::size_t>(i)] =
          bytes[monitor_entry + field + static_cast<std::size_t>(i)];
    }
  }

  DecodeDiagnostics strict_diag;
  EXPECT_FALSE(parse_pack(bytes, DecodeOptions{}, &strict_diag).has_value());
  EXPECT_GE(strict_diag.count(FaultClass::kBadSectionTable), 1u);

  DecodeDiagnostics diag;
  const auto salvaged =
      parse_pack(bytes, DecodeOptions{.tolerant = true}, &diag);
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_GE(diag.count(FaultClass::kBadSectionTable), 1u);
  // A core trace column is unusable: the snapshot degrades to empty rather
  // than serving aliased data.
  EXPECT_EQ(salvaged->trace_count(), 0u);
}

TEST(WartsLite, TextRenderingContainsKeyFields) {
  const SnapshotBatch snap = sample_snapshot();
  const std::string text = to_text(snap);
  EXPECT_NE(text.find("cycle=42"), std::string::npos);
  EXPECT_NE(text.find("10.0.0.2"), std::string::npos);
  EXPECT_NE(text.find("L=300123"), std::string::npos);
  EXPECT_NE(text.find("*"), std::string::npos);  // anonymous hop
}

// Fuzz-ish property: random snapshots survive a round trip bit-exactly for
// the fields LPR consumes.
class WartsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WartsFuzz, RandomSnapshotsRoundTrip) {
  util::Rng rng(GetParam());
  const auto cycle_id = static_cast<std::uint32_t>(rng.below(100));
  const auto sub_index = static_cast<std::uint32_t>(rng.below(30));
  SnapshotBatch snap;
  snap.cycle_id = cycle_id;
  snap.sub_index = sub_index;
  snap.date = "2013-07";
  const int n = 1 + static_cast<int>(rng.below(20));
  for (int i = 0; i < n; ++i) {
    const auto monitor_id = static_cast<std::uint32_t>(rng.below(200));
    const auto src = static_cast<std::uint32_t>(rng.next());
    const auto dst = static_cast<std::uint32_t>(rng.next());
    const bool reached = rng.chance(0.8);
    std::vector<Hop> hops(rng.below(25), anonymous());
    for (Hop& hop : hops) {
      if (rng.chance(0.1)) continue;
      hop.addr = static_cast<std::uint32_t>(rng.next());
      hop.rtt_ms = rng.uniform01() * 300.0;
      const int stack = static_cast<int>(rng.below(3));
      for (int s = 0; s < stack; ++s) {
        hop.labels.push(static_cast<std::uint32_t>(rng.below(1 << 20)),
                        static_cast<std::uint8_t>(rng.below(8)), 1);
      }
    }
    add_trace(snap, {monitor_id, src, dst, reached}, hops);
  }

  const auto back = parse_snapshot(serialize_snapshot(snap));
  ASSERT_TRUE(back.has_value());
  // The wire keeps RTTs to the microsecond.
  testing::expect_batches_equal(*back, snap, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WartsFuzz, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace mum::dataset
