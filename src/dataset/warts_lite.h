// "warts-lite": compact binary serialization for snapshots, plus a
// human-readable text form.
//
// CAIDA ships Archipelago traceroutes in scamper's warts container; this is a
// self-contained stand-in with the same role: persist campaigns to disk and
// read them back for offline LPR runs. The binary layout is little-endian,
// varint-compressed, and versioned:
//
//   file  := magic "MUMW" u8 version | snapshot
//   snapshot := varint cycle_id | varint sub_index | string date
//               varint n_traces | record*
//   record := varint byte_len | trace          (v2; v1 had no framing)
//   trace := varint monitor | u32 src | u32 dst | u8 reached
//            varint n_hops | hop*
//   hop   := u32 addr | f32-as-u32 rtt_x1000 | varint n_lse | u32 lse*
//
// The v2 per-record byte framing exists for fault tolerance: a corrupted
// record can be skipped and decoding resumes at the next record boundary.
// v1 files (no framing) still read, but a mid-stream fault abandons the
// remaining records. See decode.h for the strict/tolerant contract.
//
// This stream form is the interchange/fuzz format. The mmap-oriented v3
// "pack" lives in dataset/pack.h; the parse/read entry points below sniff
// the magic and accept either container (see dataset/snapshot_source.h for
// the unified ingest API they forward to).
//
// (AS annotations are not persisted; they are recomputed from the IP2AS
// table on load, as the paper does with Routeviews snapshots.)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/decode.h"
#include "dataset/trace_batch.h"

namespace mum::dataset {

// Current write version of the stream form. Readers accept 1 (unframed)
// and 2 (framed).
inline constexpr std::uint8_t kWartsLiteVersion = 2;
inline constexpr char kWartsLiteMagic[4] = {'M', 'U', 'M', 'W'};

// --- binary -----------------------------------------------------------

// Encode straight off the blocks' TraceView/HopView spans, in order.
std::string serialize_snapshot(const SnapshotBatch& snapshot);
// Serialize at an explicit format version: 1 or 2 for the stream (v1 for
// compatibility tests and for archives older readers understand), 3 for
// the columnar pack (dataset/pack.h). This is where a configured container
// format picks its writer.
std::string serialize_snapshot(const SnapshotBatch& snapshot,
                               std::uint8_t version);
// File extension for a container format: ".mump" for the pack, ".mumw"
// for the stream versions.
const char* snapshot_extension(std::uint8_t version) noexcept;

// Decode one snapshot from any warts-lite container, sniffing the magic to
// pick the v1/v2 stream decoder or the v3 pack validator. Strict mode (the
// default) returns nullopt on the first fault; tolerant mode skips
// malformed records (never throws on arbitrary bytes) and returns whatever
// decoded, nullopt only when the container itself is unrecognizable (bad
// magic/version). Faults land in `diagnostics` when provided — including
// the exact byte offset of a strict-mode failure. Every decode is metered
// into the ingest.* telemetry counters.
// (Implemented in snapshot_source.cpp, next to the sources built on it.)
std::optional<SnapshotBatch> parse_snapshot(
    std::string_view bytes, const DecodeOptions& options = {},
    DecodeDiagnostics* diagnostics = nullptr);
// Same, over the rest of a stream.
std::optional<SnapshotBatch> read_snapshot(
    std::istream& is, const DecodeOptions& options = {},
    DecodeDiagnostics* diagnostics = nullptr);

// The v1/v2 stream decoder itself, no sniffing: bytes must start "MUMW".
// Records append straight into the columns of the snapshot's one block
// (begin/add_hop/add_label/end); a malformed record is discarded before
// the next one starts.
std::optional<SnapshotBatch> parse_snapshot_v2(
    std::string_view bytes, const DecodeOptions& options = {},
    DecodeDiagnostics* diagnostics = nullptr);

// --- text -------------------------------------------------------------

// One line per hop, blank line between traces; lossless for the fields LPR
// uses. Intended for eyeballing and for golden-file tests.
std::string to_text(TraceView trace);
std::string to_text(const SnapshotBatch& snapshot);

// --- byte helpers (exposed for tests and sibling formats) -------------
// Varints, little-endian fixed-width integers and varint-length-prefixed
// strings. Readers advance `pos`, never read at or beyond `limit` (default:
// the end of `in`), and return nullopt on truncation or varint overflow.

void put_varint(std::string& out, std::uint64_t value);
void put_u8(std::string& out, std::uint8_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_string(std::string& out, const std::string& s);
std::optional<std::uint64_t> get_varint(
    std::string_view in, std::size_t& pos,
    std::size_t limit = std::string_view::npos);
std::optional<std::uint8_t> get_u8(std::string_view in, std::size_t& pos,
                                   std::size_t limit = std::string_view::npos);
std::optional<std::uint32_t> get_u32(
    std::string_view in, std::size_t& pos,
    std::size_t limit = std::string_view::npos);
std::optional<std::string> get_string(
    std::string_view in, std::size_t& pos,
    std::size_t limit = std::string_view::npos);

}  // namespace mum::dataset
