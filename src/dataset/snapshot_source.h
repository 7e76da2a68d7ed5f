// SnapshotSource: the pull stream over on-disk shard sets (v2 .mumw
// streams and v3 .mump packs, freely mixed) — what checkpoint resume and
// the CLI ingest through.
//
// Consumers pull columnar SnapshotBatches with next() until nullopt and
// never care which container format a shard used: parse_snapshot()
// (warts_lite.h) sniffs the magic ("MUMW" = v1/v2 stream, "MUMP" = v3
// pack) and dispatches. Decode faults accumulate in diagnostics() under
// the shared FaultClass taxonomy; error() is reserved for shards that are
// not a warts-lite container at all (unreadable file, unrecognizable
// magic) — the stream stops at such a shard so the caller can decide
// whether that is fatal.
//
// The file source overlaps I/O with decode: while shard N is decoded on the
// calling thread, shard N+1 is mapped (util::MmapFile) by a pool worker, so
// a cold ingest streams at decode speed rather than decode + load speed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/decode.h"
#include "dataset/trace_batch.h"
#include "util/io.h"
#include "util/mmap_file.h"

namespace mum::util {
class ThreadPool;
}

namespace mum::dataset {

// Why a source stopped: the supervision layer quarantines undecodable
// shards (the bytes are bad on disk) but merely recomputes past unreadable
// ones (the environment failed; the bytes may be fine).
enum class SourceErrorKind : std::uint8_t {
  kNone = 0,
  kUnreadable,    // map/read of the shard failed
  kUndecodable,   // bytes read but not a warts-lite container
};

// Maps/reads each file (any format) in order. With a pool, loading shard
// N+1 overlaps decoding shard N.
class SnapshotSource {
 public:
  SnapshotSource(std::vector<std::string> paths,
                 const DecodeOptions& options = {},
                 util::ThreadPool* pool = nullptr);

  // The next snapshot, or nullopt when the stream is exhausted — or broken;
  // distinguish with error().
  std::optional<SnapshotBatch> next();

  // Decode faults accumulated over everything next() has consumed.
  const DecodeDiagnostics& diagnostics() const noexcept { return diag_; }
  // Faults from only the most recent next() (per-shard reporting).
  const DecodeDiagnostics& last_diagnostics() const noexcept {
    return last_diag_;
  }
  // Path of the shard the most recent next() consumed ("" before the first).
  const std::string& last_path() const noexcept { return last_path_; }

  // Non-empty once a shard could not be read or recognized; next() has
  // returned nullopt and will keep doing so.
  const std::string& error() const noexcept { return error_; }
  // Classifies error() (kNone while the stream is healthy).
  SourceErrorKind error_kind() const noexcept { return kind_; }
  bool failed() const noexcept { return !error_.empty(); }

 private:
  std::vector<std::string> paths_;
  DecodeOptions options_;
  util::ThreadPool* pool_;
  util::io::OpContext context_;
  std::uint64_t map_ordinal_ = 0;
  std::size_t index_ = 0;
  std::optional<util::MmapFile> staged_;  // mapping for paths_[index_]
  DecodeDiagnostics diag_;
  DecodeDiagnostics last_diag_;
  std::string last_path_;
  std::string error_;
  SourceErrorKind kind_ = SourceErrorKind::kNone;
};

}  // namespace mum::dataset
