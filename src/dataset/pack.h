// warts-lite v3 "pack": an mmap-able columnar snapshot layout.
//
// The v2 stream (warts_lite.h) is varint-framed and must be decoded
// record-by-record; a month of captures costs one branchy parse per byte.
// The pack flips the layout to structure-of-arrays so ingest is pointer
// arithmetic over a read-only mapping:
//
//   file   := header | section table | sections (8-byte aligned, zero pad)
//   header := magic "MUMP" | u8 version=3 | u8[3] zero
//             | u32 cycle_id | u32 sub_index
//             | u32 section_count | u32 zero | u64 total_bytes     (32 B)
//   entry  := u32 id | u32 elem_size | u64 offset | u64 bytes
//             | u64 checksum                                       (32 B)
//
// All integers are little-endian on the wire regardless of host; every
// section offset is 8-byte aligned. The ten sections (PackSection) are the
// snapshot's columns: fixed trace fields as flat arrays, hop addr/rtt
// columns indexed by a per-trace offset table, and the label-stack pool as
// one contiguous u32 array indexed by a per-hop offset table. Offsets are
// prefix sums (entry i covers [off[i], off[i+1])), so slicing any record is
// two loads and validation is a monotonicity scan — never a byte-by-byte
// parse.
//
// Every section carries a checksum (FNV-1a over 8 interleaved byte lanes —
// same corruption detection as plain FNV-1a, but the independent chains
// pipeline instead of serializing on one multiply per byte). Tolerant
// validation therefore reduces to: bounds-check the section table against
// the mapping, verify checksums, scan the two offset columns. A trace whose
// offsets are inconsistent is skipped individually; structural damage to a
// whole column degrades to an empty snapshot with the fault on record,
// matching the v2 tolerant contract (arbitrary bytes never read past the
// mapping, never throw, never invoke UB).
//
// v2 remains the interchange/fuzz format; the pack is the ingest format for
// campaign-scale archives (see DESIGN.md Sec. 11 for the byte budget).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/decode.h"
#include "dataset/trace_batch.h"

namespace mum::dataset {

inline constexpr std::uint8_t kPackVersion = 3;
inline constexpr char kPackMagic[4] = {'M', 'U', 'M', 'P'};
inline constexpr std::size_t kPackHeaderBytes = 32;
inline constexpr std::size_t kPackSectionEntryBytes = 32;
inline constexpr std::size_t kPackAlignment = 8;

enum class PackSection : std::uint32_t {
  kDate = 0,        // char[date_len]
  kTraceMonitor,    // u32[n_traces]
  kTraceSrc,        // u32[n_traces]
  kTraceDst,        // u32[n_traces]
  kTraceReached,    // u8[n_traces]
  kHopOffset,       // u64[n_traces + 1], prefix offsets into hop columns
  kHopAddr,         // u32[n_hops]
  kHopRtt,          // u32[n_hops], rtt_ms * 1000 rounded (same as v2)
  kHopLseOffset,    // u64[n_hops + 1], prefix offsets into the LSE pool
  kLsePool,         // u32[n_lses], RFC 3032 wire words (LabelStackEntry)
};
inline constexpr std::size_t kPackSectionCount = 10;

// Section checksum: FNV-1a over 8 interleaved byte lanes, lane digests
// folded with FNV-1a. Exposed for tests and the fuzz harness.
std::uint64_t pack_checksum(std::string_view bytes) noexcept;

// Serialize a snapshot as a v3 pack (always succeeds; deterministic bytes).
// A TraceBatch's columns ARE the pack sections, so this is section-table
// bookkeeping plus one memcpy per column of each block; the offset columns
// are rebased per block on the way out, so the bytes do not depend on the
// block boundaries (the RTT column is the other per-element pass —
// quantization to ms*1000).
std::string serialize_pack(const SnapshotBatch& snapshot);

// Zero-copy validated view over pack bytes (an mmap or any buffer). The
// view borrows: `bytes` must outlive it. Strict mode returns nullopt on the
// first fault; tolerant mode returns a view whenever magic + version are
// recognizable, with damaged records (or columns) skipped and counted in
// the diagnostics — access through the view never reads outside `bytes`.
class PackView {
 public:
  static std::optional<PackView> open(std::string_view bytes,
                                      const DecodeOptions& options,
                                      DecodeDiagnostics* diagnostics);

  std::uint32_t cycle_id() const noexcept { return cycle_id_; }
  std::uint32_t sub_index() const noexcept { return sub_index_; }
  std::string_view date() const noexcept { return date_; }

  // Records in the pack (decodable or not) / hops / label-stack entries.
  std::size_t trace_count() const noexcept { return n_traces_; }
  std::size_t hop_count() const noexcept { return n_hops_; }
  std::size_t lse_count() const noexcept { return n_lses_; }

  // False when tolerant validation skipped record i (strict mode never
  // yields a view containing invalid records).
  bool trace_valid(std::size_t i) const noexcept {
    return invalid_.empty() ? i < n_traces_ : !invalid_[i];
  }
  std::size_t valid_count() const noexcept;

  // Append record i (requires trace_valid(i)) to `out`. AS annotations are
  // not persisted — re-annotate via Ip2As, as with every warts-lite form.
  void append_trace(std::size_t i, TraceBatch& out) const;
  // Ingest every valid record into one block: when every record is valid
  // this is a column copy into an exactly sized block (no per-record
  // slicing); damaged packs fall back to append_trace for each valid
  // record.
  SnapshotBatch to_snapshot_batch() const;

 private:
  const char* u32_col(PackSection s) const noexcept;

  std::string_view bytes_;
  std::uint32_t cycle_id_ = 0;
  std::uint32_t sub_index_ = 0;
  std::string_view date_;
  std::size_t n_traces_ = 0;
  std::size_t n_hops_ = 0;
  std::size_t n_lses_ = 0;
  // Absolute byte offsets of each section payload (0 = column unusable).
  std::array<std::size_t, kPackSectionCount> section_off_{};
  std::array<std::size_t, kPackSectionCount> section_bytes_{};
  std::vector<bool> invalid_;  // empty when every record is valid
};

// One-shot convenience: open + to_snapshot_batch. nullopt exactly when open
// fails (strict: any fault; tolerant: unrecognizable container only).
std::optional<SnapshotBatch> parse_pack(
    std::string_view bytes, const DecodeOptions& options = {},
    DecodeDiagnostics* diagnostics = nullptr);

}  // namespace mum::dataset
