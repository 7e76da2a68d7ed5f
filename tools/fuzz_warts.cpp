// Fuzz entry point for the warts-lite decoders (v1/v2 stream + v3 pack).
//
// Exposes the libFuzzer hook (LLVMFuzzerTestOneInput) so a clang
// `-fsanitize=fuzzer` build can drive it (-DMUM_LIBFUZZER=ON). The default
// build gets a standalone deterministic driver instead: it replays a corpus
// of random buffers and mutated-but-plausible snapshots in both container
// formats (bit flips, truncations, splices, and — for packs — targeted
// header/section-table stomps), which is what scripts/tier1.sh runs under
// ASan+UBSan. Decoding goes through parse_snapshot, which sniffs the magic,
// so every buffer exercises whichever decoder claims it; a truncated pack
// mapping must never be read past (the ASan tier enforces it).
//
// The oracle, both ways:
//   * tolerant decode never crashes, never trips a sanitizer, and its
//     diagnostics agree with what it returned (records_decoded == traces);
//   * strict decode of the same bytes never crashes, and when it rejects it
//     reports at least one fault;
//   * whatever tolerant decode salvages re-serializes and re-parses cleanly
//     in BOTH formats (the salvaged subset is a valid snapshot in its own
//     right, and the two containers agree on it).
//
// A third arm fuzzes run::parse_cycle_report (the ".mumc" checkpoint
// format resume trusts): mutated checkpoints with header stomps, checksum
// stomps, truncations — and payload stomps *re-signed* with a fresh
// checksum so the record decoders beneath the integrity gate get driven
// too. Oracle: never crashes, and anything accepted re-serializes to a
// fixpoint (serialize∘parse is idempotent).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dataset/pack.h"
#include "dataset/warts_lite.h"
#include "run/checkpoint.h"
#include "util/rng.h"

namespace {

using mum::dataset::DecodeDiagnostics;
using mum::dataset::DecodeOptions;
using mum::dataset::SnapshotBatch;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_warts: invariant violated: %s\n", what);
    std::abort();
  }
}

void run_one(const std::string& bytes) {
  DecodeDiagnostics tolerant_diag;
  const auto tolerant = mum::dataset::parse_snapshot(
      bytes, DecodeOptions{.tolerant = true}, &tolerant_diag);
  if (tolerant) {
    check(tolerant_diag.records_decoded == tolerant->trace_count(),
          "records_decoded mismatches returned traces");
    // The salvaged subset must itself round-trip cleanly — through the
    // stream form and through the pack, and the two must agree.
    DecodeDiagnostics clean;
    const std::string stream_bytes =
        mum::dataset::serialize_snapshot(*tolerant);
    const auto again = mum::dataset::parse_snapshot(
        stream_bytes, DecodeOptions{.tolerant = true}, &clean);
    check(again.has_value(), "salvaged snapshot does not re-parse");
    check(clean.clean(), "salvaged snapshot re-parses with faults");
    check(again->trace_count() == tolerant->trace_count(),
          "salvaged snapshot loses traces on round trip");
    DecodeDiagnostics pack_clean;
    const std::string pack_bytes = mum::dataset::serialize_pack(*tolerant);
    const auto packed = mum::dataset::parse_pack(
        pack_bytes, DecodeOptions{.tolerant = true}, &pack_clean);
    check(packed.has_value(), "salvaged snapshot does not re-parse as pack");
    check(pack_clean.clean(), "salvaged pack re-parses with faults");
    check(packed->trace_count() == tolerant->trace_count(),
          "pack round trip loses traces");
    // Both containers carry the same columns: the pack re-read must write
    // the salvage's stream bytes, and re-packing the pack is byte-stable
    // (column memcpy in, column memcpy out).
    check(mum::dataset::serialize_snapshot(*packed) == stream_bytes,
          "pack round trip diverges from the stream form");
    check(mum::dataset::serialize_pack(*packed) == pack_bytes,
          "batch pack round trip is not byte-stable");
  } else {
    check(tolerant_diag.faults_total() > 0,
          "tolerant rejection without a recorded fault");
  }

  DecodeDiagnostics strict_diag;
  const auto strict = mum::dataset::parse_snapshot(
      bytes, DecodeOptions{.tolerant = false}, &strict_diag);
  if (strict) {
    check(strict_diag.clean(), "strict acceptance with faults recorded");
    check(tolerant.has_value(), "strict accepted what tolerant rejected");
  } else {
    check(strict_diag.faults_total() > 0,
          "strict rejection without a recorded fault");
  }
}

// Checkpoint (.mumc) arm: parse never crashes; acceptance implies the
// serialize∘parse fixpoint (one application normalizes map ordering and
// integer narrowing; after that the bytes must be stable).
void run_one_checkpoint(const std::string& bytes) {
  const auto report = mum::run::parse_cycle_report(bytes);
  if (!report) return;
  const std::string once = mum::run::serialize_cycle_report(*report);
  const auto again = mum::run::parse_cycle_report(once);
  check(again.has_value(), "accepted checkpoint does not re-parse");
  check(mum::run::serialize_cycle_report(*again) == once,
        "checkpoint serialize/parse is not a fixpoint");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  // Route by magic: "MUMC" buffers exercise the checkpoint decoder (the
  // snapshot sniffers would reject them at the magic check anyway).
  if (bytes.size() >= 4 && bytes.compare(0, 4, "MUMC") == 0) {
    run_one_checkpoint(bytes);
  } else {
    run_one(bytes);
  }
  return 0;
}

#ifndef MUM_LIBFUZZER

namespace {

// A small but structurally rich snapshot to mutate.
SnapshotBatch seed_snapshot(mum::util::Rng& rng) {
  SnapshotBatch snap;
  snap.cycle_id = static_cast<std::uint32_t>(rng.below(60));
  snap.sub_index = static_cast<std::uint32_t>(rng.below(4));
  snap.date = "2014-06";
  mum::dataset::TraceBatch& out = snap.blocks.emplace_back();
  const int traces = 1 + static_cast<int>(rng.below(6));
  for (int i = 0; i < traces; ++i) {
    // Draw order: monitor, src, dst, reached, then each hop in turn.
    const auto monitor = static_cast<std::uint32_t>(rng.below(32));
    const mum::net::Ipv4Addr src(static_cast<std::uint32_t>(rng.next()));
    const mum::net::Ipv4Addr dst(static_cast<std::uint32_t>(rng.next()));
    const bool reached = rng.chance(0.8);
    out.begin_trace(monitor, src, dst);
    const int hops = static_cast<int>(rng.below(12));
    for (int h = 0; h < hops; ++h) {
      if (rng.chance(0.1)) {
        out.add_hop(mum::net::kAnonymousAddr, 0.0);
        continue;
      }
      const mum::net::Ipv4Addr addr(static_cast<std::uint32_t>(rng.next()));
      out.add_hop(addr, rng.uniform01() * 200.0);
      // Entries are drawn bottom first, as LabelStack::push stacks them.
      mum::net::LabelStack labels;
      const int stack = static_cast<int>(rng.below(4));
      for (int s = 0; s < stack; ++s) {
        labels.push(static_cast<std::uint32_t>(rng.below(1 << 20)),
                    static_cast<std::uint8_t>(rng.below(8)), 64);
      }
      for (const auto& lse : labels.entries()) {
        out.add_label(lse.encode());
      }
    }
    out.end_trace(reached);
  }
  return snap;
}

std::string mutate(std::string bytes, mum::util::Rng& rng) {
  switch (rng.below(5)) {
    case 0: {  // bit flips
      const int flips = 1 + static_cast<int>(rng.below(8));
      for (int f = 0; f < flips && !bytes.empty(); ++f) {
        const std::size_t at =
            static_cast<std::size_t>(rng.below(bytes.size()));
        bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^
                                      (1u << rng.below(8)));
      }
      return bytes;
    }
    case 1:  // truncation
      return bytes.substr(
          0, static_cast<std::size_t>(rng.below(bytes.size() + 1)));
    case 2: {  // splice two prefixes
      const std::size_t cut =
          static_cast<std::size_t>(rng.below(bytes.size() + 1));
      return bytes.substr(0, cut) + bytes;
    }
    case 3: {  // stomp a run with a random byte (varint/count corruption)
      if (bytes.size() > 8) {
        const std::size_t at =
            static_cast<std::size_t>(rng.below(bytes.size() - 4));
        for (std::size_t k = 0; k < 4; ++k) {
          bytes[at + k] = static_cast<char>(rng.below(256));
        }
      }
      return bytes;
    }
    default:  // append garbage
      for (int k = 0; k < 16; ++k) {
        bytes.push_back(static_cast<char>(rng.below(256)));
      }
      return bytes;
  }
}

// A structurally rich cycle report to mutate — every serialized section
// populated (stats, per-AS tables, IOTPs with multi-LSP variants, decode
// diagnostics with retained samples).
mum::lpr::CycleReport seed_report(mum::util::Rng& rng) {
  mum::lpr::CycleReport report;
  report.cycle_id = static_cast<std::uint32_t>(rng.below(60));
  report.date = "2012-09";
  report.extract_stats.traces_total = rng.below(100000);
  report.extract_stats.traces_with_explicit_tunnel = rng.below(10000);
  report.extract_stats.lsps_observed = rng.below(5000);
  report.extract_stats.lsps_incomplete = rng.below(500);
  report.extract_stats.mpls_ips = rng.below(2000);
  report.extract_stats.non_mpls_ips = rng.below(20000);
  report.filter_stats.observed = rng.below(5000);
  report.filter_stats.complete = rng.below(4000);
  report.filter_stats.after_intra_as = rng.below(3000);
  report.filter_stats.after_target_as = rng.below(2000);
  report.filter_stats.after_transit_diversity = rng.below(1000);
  report.filter_stats.after_persistence = rng.below(900);
  const auto counts = [&rng] {
    mum::lpr::ClassCounts c;
    c.mono_lsp = rng.below(40);
    c.multi_fec = rng.below(10);
    c.mono_fec = rng.below(20);
    c.unclassified = rng.below(5);
    c.parallel_links = rng.below(10);
    c.routers_disjoint = rng.below(10);
    return c;
  };
  report.global = counts();
  const int ases = 1 + static_cast<int>(rng.below(4));
  for (int a = 0; a < ases; ++a) {
    const auto asn = static_cast<std::uint32_t>(1 + rng.below(65000));
    report.per_as[asn] = counts();
    report.dynamic_as[asn] = rng.chance(0.3);
  }
  const int iotps = 1 + static_cast<int>(rng.below(4));
  for (int i = 0; i < iotps; ++i) {
    mum::lpr::IotpRecord rec;
    rec.key = {static_cast<std::uint32_t>(1 + rng.below(65000)),
               mum::net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
               mum::net::Ipv4Addr(static_cast<std::uint32_t>(rng.next()))};
    const int variants = 1 + static_cast<int>(rng.below(3));
    for (int v = 0; v < variants; ++v) {
      mum::lpr::Lsp lsp;
      lsp.asn = rec.key.asn;
      lsp.ingress = rec.key.ingress;
      lsp.egress = rec.key.egress;
      lsp.egress_labeled = rng.chance(0.2);
      const int lsrs = static_cast<int>(rng.below(5));
      for (int l = 0; l < lsrs; ++l) {
        mum::lpr::LsrHop hop;
        hop.addr = mum::net::Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
        const int labels = 1 + static_cast<int>(rng.below(3));
        for (int k = 0; k < labels; ++k) {
          hop.labels.push_back(static_cast<std::uint32_t>(rng.below(1 << 20)));
        }
        lsp.lsrs.push_back(std::move(hop));
      }
      rec.variants.push_back(std::move(lsp));
    }
    const int dsts = 1 + static_cast<int>(rng.below(3));
    for (int d = 0; d < dsts; ++d) {
      rec.dst_asns.push_back(static_cast<std::uint32_t>(rng.below(65000)));
    }
    rec.tunnel_class = static_cast<mum::lpr::TunnelClass>(rng.below(4));
    rec.mono_fec_kind = static_cast<mum::lpr::MonoFecKind>(rng.below(3));
    rec.length = static_cast<int>(rng.below(10));
    rec.width = static_cast<int>(rng.below(5));
    rec.symmetry = static_cast<int>(rng.below(4));
    report.iotps.push_back(std::move(rec));
  }
  for (std::uint64_t& c : report.decode.counts) c = rng.below(20);
  report.decode.records_decoded = rng.below(100000);
  report.decode.records_skipped = rng.below(100);
  const int samples = static_cast<int>(rng.below(4));
  for (int s = 0; s < samples; ++s) {
    report.decode.samples.push_back(mum::dataset::DecodeFault{
        static_cast<mum::dataset::FaultClass>(rng.below(12)),
        static_cast<std::size_t>(rng.below(4096)), rng.below(1000),
        "fuzz sample"});
  }
  return report;
}

// Re-sign a mutated checkpoint: recompute the trailing FNV-1a over the
// (possibly stomped) payload so the mutation survives the integrity gate
// and reaches the record decoders underneath.
std::string resign_checkpoint(std::string bytes) {
  constexpr std::size_t kHeader = 5;  // magic + version
  if (bytes.size() < kHeader + 8) return bytes;
  const std::uint64_t sum = mum::util::fnv1a(
      std::string_view(bytes).substr(kHeader, bytes.size() - kHeader - 8));
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  return bytes;
}

// Checkpoint-targeted mutation schedule: beyond the generic byte-level
// mutate(), stomp the 5-byte header (magic/version checks), the 8-byte
// checksum trailer (integrity gate), or the payload re-signed (deep
// decoder paths: varint bounds, count-vs-remaining-bytes claims).
std::string mutate_checkpoint(std::string bytes, mum::util::Rng& rng) {
  switch (rng.below(4)) {
    case 0: {  // header stomp
      const std::size_t at = static_cast<std::size_t>(
          rng.below(bytes.size() < 5 ? bytes.size() : 5));
      if (at < bytes.size()) {
        bytes[at] = static_cast<char>(rng.below(256));
      }
      return bytes;
    }
    case 1: {  // checksum stomp
      if (bytes.size() >= 8) {
        bytes[bytes.size() - 1 - rng.below(8)] =
            static_cast<char>(rng.below(256));
      }
      return bytes;
    }
    case 2: {  // payload stomp, re-signed past the integrity gate
      if (bytes.size() > 5 + 8 + 4) {
        const std::size_t span = bytes.size() - 5 - 8;
        const int stomps = 1 + static_cast<int>(rng.below(4));
        for (int s = 0; s < stomps; ++s) {
          const std::size_t at = 5 + static_cast<std::size_t>(rng.below(span));
          bytes[at] = rng.chance(0.3) ? static_cast<char>(0xff)
                                      : static_cast<char>(rng.below(256));
        }
        bytes = resign_checkpoint(std::move(bytes));
      }
      return bytes;
    }
    default:  // generic byte-level mutation (mostly checksum-rejected)
      return mutate(std::move(bytes), rng);
  }
}

// Pack-targeted mutation: stomp fields inside the fixed header or the
// section table (the first kPackHeaderBytes + 10 * kPackSectionEntryBytes
// bytes), where a generic 4-byte stomp rarely lands. This is what drives
// the bounds-checking in PackView::open — corrupted counts, offsets, sizes,
// element widths and checksums.
std::string stomp_pack_tables(std::string bytes, mum::util::Rng& rng) {
  const std::size_t table_end =
      mum::dataset::kPackHeaderBytes +
      mum::dataset::kPackSectionCount * mum::dataset::kPackSectionEntryBytes;
  const std::size_t limit = bytes.size() < table_end ? bytes.size() : table_end;
  if (limit <= 4) return bytes;
  const int stomps = 1 + static_cast<int>(rng.below(4));
  for (int s = 0; s < stomps; ++s) {
    // Aligned 4-byte stomps hit whole header/table fields.
    const std::size_t at = 4 * rng.below(limit / 4);
    const std::size_t width = at + 8 <= limit && rng.chance(0.5) ? 8 : 4;
    for (std::size_t k = 0; k < width; ++k) {
      bytes[at + k] =
          rng.chance(0.3)
              ? static_cast<char>(0xff)  // huge counts/offsets
              : static_cast<char>(rng.below(256));
    }
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t iters = 10000;
  std::uint64_t seed = 20151028;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: fuzz_warts [--iters N] [--seed S]\n");
      return 1;
    }
  }

  mum::util::Rng rng(seed);
  for (std::uint64_t i = 0; i < iters; ++i) {
    if (rng.chance(0.2)) {
      // Checkpoint arm: a valid serialized report through the targeted
      // mutation schedule (or raw, exercising the accept path).
      std::string bytes =
          mum::run::serialize_cycle_report(seed_report(rng));
      const int rounds = static_cast<int>(rng.below(3));
      for (int r = 0; r < rounds; ++r) {
        bytes = mutate_checkpoint(std::move(bytes), rng);
      }
      run_one_checkpoint(bytes);
      continue;
    }
    std::string bytes;
    if (rng.chance(0.25)) {
      // Pure noise, random length (exercises the container checks).
      const std::size_t len = static_cast<std::size_t>(rng.below(512));
      bytes.reserve(len);
      for (std::size_t k = 0; k < len; ++k) {
        bytes.push_back(static_cast<char>(rng.below(256)));
      }
      if (rng.chance(0.5)) {
        // Give noise a valid header so it reaches the record decoder (or,
        // for packs, the section-table validator).
        if (rng.chance(0.5)) {
          bytes = std::string("MUMW") +
                  std::string(1, static_cast<char>(1 + rng.below(2))) + bytes;
        } else {
          bytes = std::string("MUMP") + std::string(1, char{3}) +
                  std::string(3, char{0}) + bytes;
        }
      }
    } else {
      // Mutated valid snapshot, at a random container/format version.
      auto snap = seed_snapshot(rng);
      const bool pack = rng.chance(0.4);
      bytes = pack ? mum::dataset::serialize_pack(snap)
                   : mum::dataset::serialize_snapshot(
                         snap, rng.chance(0.3) ? std::uint8_t{1}
                                               : std::uint8_t{2});
      if (pack && rng.chance(0.6)) {
        bytes = stomp_pack_tables(std::move(bytes), rng);
      }
      const int rounds = 1 + static_cast<int>(rng.below(3));
      for (int r = 0; r < rounds; ++r) bytes = mutate(std::move(bytes), rng);
    }
    run_one(bytes);
  }
  std::printf("fuzz_warts: %llu buffers, 0 crashes\n",
              static_cast<unsigned long long>(iters));
  return 0;
}

#endif  // MUM_LIBFUZZER
