// Per-cycle checkpoints: a complete binary round-trip of lpr::CycleReport.
//
// A checkpointed campaign writes one file per finished cycle; a killed run
// restarted with resume skips those cycles and splices the stored reports
// back in. Because the serialization covers every CycleReport field, the
// resumed run's final report is byte-identical to an uninterrupted one.
//
// Crash-proofing: files are written to a temp name and renamed into place
// (a kill mid-write leaves no half-file under the checkpoint name), and the
// payload carries an FNV-1a checksum — a corrupt or truncated checkpoint
// fails to load and the cycle is simply recomputed.
//
// Besides report checkpoints, a campaign can persist the raw month data as
// per-snapshot shards ("cycle_<N+1>_s<K>.mumw|.mump", one warts-lite
// container each — v2 stream or v3 pack per RunnerConfig::snapshot_format).
// Resume re-ingests whatever formats it finds, sniffing each shard's magic,
// so mixed-format checkpoint directories splice cleanly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/report.h"
#include "dataset/trace_batch.h"

namespace mum::run {

std::string serialize_cycle_report(const lpr::CycleReport& report);
// nullopt on bad magic/version/truncation/checksum mismatch.
std::optional<lpr::CycleReport> parse_cycle_report(const std::string& bytes);

// Filename (not path) of cycle N's checkpoint: "cycle_<N+1>.mumc".
std::string checkpoint_filename(int cycle);

// Atomic write (temp + rename), through util::io::env so failpoints apply.
// Returns false on any I/O failure; callers must not ignore it — the runner
// logs, counts (run.checkpoint.write_failures) and records it per cycle.
bool write_checkpoint_file(const std::string& dir, int cycle,
                           const lpr::CycleReport& report);

// How a checkpoint load resolved — the supervision layer treats these very
// differently: kMissing/kIoError recompute quietly, kCorrupt quarantines
// the file first (evidence, not litter).
enum class LoadStatus : std::uint8_t {
  kOk = 0,
  kMissing,  // no file under the checkpoint name
  kCorrupt,  // bytes present but bad magic/version/truncation/checksum
  kIoError,  // the read itself failed (real or injected EIO)
};

// nullopt when missing, unreadable, or corrupt — callers recompute. The
// optional out-param distinguishes why (quarantine policy needs it).
std::optional<lpr::CycleReport> load_checkpoint_file(
    const std::string& dir, int cycle, LoadStatus* status = nullptr);

// --- data shards --------------------------------------------------------

// Filename (not path) of cycle N / snapshot K's data shard:
// "cycle_<N+1>_s<K>.mumw" for format 2 (stream), ".mump" for format 3 (pack).
std::string data_shard_filename(int cycle, std::size_t sub,
                                std::uint8_t format);

// Atomic write (temp + rename) of one snapshot in the given format (2 or 3).
bool write_data_shard(const std::string& dir, int cycle, std::size_t sub,
                      const dataset::SnapshotBatch& snapshot,
                      std::uint8_t format);

// Paths of cycle N's existing shards in sub order, either extension per sub
// (stream preferred when both exist). Stops at the first missing sub index,
// so a partially written cycle yields only its contiguous prefix.
std::vector<std::string> find_data_shards(const std::string& dir, int cycle);

}  // namespace mum::run
