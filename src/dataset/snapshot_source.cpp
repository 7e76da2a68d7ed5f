#include "dataset/snapshot_source.h"

#include <istream>
#include <sstream>
#include <utility>

#include "dataset/pack.h"
#include "dataset/warts_lite.h"
#include "obs/telemetry.h"
#include "util/io.h"
#include "util/mmap_file.h"
#include "util/thread_pool.h"

namespace mum::dataset {

namespace {

// Ingest telemetry: one update batch per container decoded (never per
// record). Fault counters mirror the FaultClass taxonomy one-to-one.
struct IngestMetrics {
  obs::Counter& bytes;
  obs::Counter& snapshots;
  obs::Counter& snapshots_rejected;  // container-level nullopt
  obs::Counter& records_decoded;
  obs::Counter& records_skipped;
  std::array<obs::Counter*, kFaultClassCount> faults;

  static IngestMetrics& get() {
    static IngestMetrics m = [] {
      obs::Registry& r = obs::registry();
      IngestMetrics out{r.counter("ingest.bytes"),
                        r.counter("ingest.snapshots"),
                        r.counter("ingest.snapshots_rejected"),
                        r.counter("ingest.records_decoded"),
                        r.counter("ingest.records_skipped"),
                        {}};
      for (std::size_t f = 0; f < kFaultClassCount; ++f) {
        out.faults[f] = &r.counter(
            std::string("ingest.fault.") +
            to_cstring(static_cast<FaultClass>(f)));
      }
      return out;
    }();
    return m;
  }
};

}  // namespace

std::optional<SnapshotBatch> parse_snapshot(std::string_view bytes,
                                            const DecodeOptions& options,
                                            DecodeDiagnostics* diagnostics) {
  DecodeDiagnostics local;
  DecodeDiagnostics* diag = diagnostics != nullptr ? diagnostics : &local;
  // Callers may hand in a pre-populated accumulator; meter the delta.
  const auto counts_before = diag->counts;
  const std::uint64_t decoded_before = diag->records_decoded;
  const std::uint64_t skipped_before = diag->records_skipped;

  std::optional<SnapshotBatch> snap;
  if (bytes.size() >= sizeof kPackMagic &&
      bytes.compare(0, sizeof kPackMagic, kPackMagic, sizeof kPackMagic) ==
          0) {
    snap = parse_pack(bytes, options, diag);
  } else {
    snap = parse_snapshot_v2(bytes, options, diag);
  }

  IngestMetrics& m = IngestMetrics::get();
  m.bytes.add(bytes.size());
  m.snapshots.inc();
  if (!snap) m.snapshots_rejected.inc();
  m.records_decoded.add(diag->records_decoded - decoded_before);
  m.records_skipped.add(diag->records_skipped - skipped_before);
  for (std::size_t f = 0; f < kFaultClassCount; ++f) {
    const std::uint64_t delta = diag->counts[f] - counts_before[f];
    if (delta != 0) m.faults[f]->add(delta);
  }
  return snap;
}

std::optional<SnapshotBatch> read_snapshot(std::istream& is,
                                           const DecodeOptions& options,
                                           DecodeDiagnostics* diagnostics) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return parse_snapshot(std::move(buffer).str(), options, diagnostics);
}

// --- the file source ---------------------------------------------------

SnapshotSource::SnapshotSource(std::vector<std::string> paths,
                               const DecodeOptions& options,
                               util::ThreadPool* pool)
    : paths_(std::move(paths)),
      options_(options),
      pool_(pool),
      // Mappings may run on pool workers that lack the caller's
      // CycleScope, so capture its (cycle, attempt) lineage here and key
      // every map op explicitly — fault draws are then identical no
      // matter which thread performs the map.
      context_(util::io::capture_context()) {}

std::optional<SnapshotBatch> SnapshotSource::next() {
  if (!error_.empty() || index_ >= paths_.size()) return std::nullopt;
  // A failed prefetch retries here once before declaring the shard dead
  // (a fresh ordinal, so an injected fault does not deterministically
  // recur on the retry).
  if (!staged_) {
    staged_ =
        util::io::env().map_file(paths_[index_], context_, map_ordinal_++);
  }
  std::optional<util::MmapFile> current = std::move(staged_);
  staged_.reset();
  const std::size_t i = index_++;
  last_path_ = paths_[i];
  last_diag_ = DecodeDiagnostics{};
  if (!current) {
    error_ = last_path_ + ": cannot read";
    kind_ = SourceErrorKind::kUnreadable;
    return std::nullopt;
  }

  std::optional<SnapshotBatch> snap;
  if (index_ < paths_.size() && pool_ != nullptr) {
    // Overlap: decode shard i here while a worker maps shard i+1. Both
    // indices write disjoint state; parallel_for joins before we read it.
    // The ordinal is drawn before dispatch so the fault key never depends
    // on pool scheduling.
    const std::uint64_t ordinal = map_ordinal_++;
    std::optional<util::MmapFile> prefetched;
    util::parallel_for(pool_, 2, [&](std::size_t k) {
      if (k == 0) {
        snap = parse_snapshot(current->view(), options_, &last_diag_);
      } else {
        prefetched =
            util::io::env().map_file(paths_[index_], context_, ordinal);
      }
    });
    staged_ = std::move(prefetched);
  } else {
    snap = parse_snapshot(current->view(), options_, &last_diag_);
  }
  diag_.merge(last_diag_);
  if (!snap) {
    error_ = last_path_ + ": not a warts-lite snapshot";
    kind_ = SourceErrorKind::kUndecodable;
    return std::nullopt;
  }
  return snap;
}

}  // namespace mum::dataset
