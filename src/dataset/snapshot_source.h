// SnapshotSource: the pull interface over on-disk shard sets (v2 .mumw
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

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/decode.h"
#include "dataset/trace_batch.h"

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

class SnapshotSource {
 public:
  virtual ~SnapshotSource() = default;

  // The next snapshot, or nullopt when the stream is exhausted — or broken;
  // distinguish with error().
  virtual std::optional<SnapshotBatch> next() = 0;

  // Decode faults accumulated over everything next() has consumed.
  virtual const DecodeDiagnostics& diagnostics() const noexcept = 0;
  // Faults from only the most recent next() (per-shard reporting).
  virtual const DecodeDiagnostics& last_diagnostics() const noexcept = 0;
  // Path of the shard the most recent next() consumed ("" when sourceless).
  virtual const std::string& last_path() const noexcept = 0;

  // Non-empty once a shard could not be read or recognized; next() has
  // returned nullopt and will keep doing so.
  virtual const std::string& error() const noexcept = 0;
  // Classifies error() (kNone while the stream is healthy).
  virtual SourceErrorKind error_kind() const noexcept = 0;
  bool failed() const noexcept { return !error().empty(); }
};

// Maps/reads each file (any format) in order. With a pool, loading shard
// N+1 overlaps decoding shard N.
std::unique_ptr<SnapshotSource> make_file_source(
    std::vector<std::string> paths, const DecodeOptions& options = {},
    util::ThreadPool* pool = nullptr);

}  // namespace mum::dataset
