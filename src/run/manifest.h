// RunManifest: the structured record of what actually happened during a
// campaign run — which cycles computed, which were restored from
// checkpoints, which failed (and why), which were skipped once the failure
// budget ran out, and how many chaos faults were injected where.
//
// The manifest is the error-containment counterpart of the report: the
// report holds the science, the manifest holds the operational truth a
// partial run must not hide.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "gen/evolve.h"
#include "obs/stage.h"
#include "util/io.h"

namespace mum::run {

enum class CycleOutcome : std::uint8_t {
  kOk = 0,          // computed this run
  kFromCheckpoint,  // restored from a checkpoint file (--resume)
  kFailed,          // the worker threw; report slot is an empty placeholder
  kSkipped,         // not attempted (failure budget exhausted / fail-fast)
  kFromData,        // recomputed from persisted data shards (--resume with
                    // checkpoint_data and no report checkpoint)
  kTimedOut,        // abandoned at the per-cycle deadline; placeholder slot
};
const char* to_cstring(CycleOutcome outcome) noexcept;

// A file the supervision layer moved into <checkpoint_dir>/quarantine/
// instead of deleting: corrupt evidence is kept, and the manifest says why.
struct QuarantineRecord {
  std::string file;    // original filename (not path)
  std::string reason;  // e.g. "corrupt checkpoint", "undecodable shard"
};

struct CycleStatus {
  int cycle = 0;
  CycleOutcome outcome = CycleOutcome::kOk;
  std::string error;        // what() of the failure, empty otherwise
  chaos::ChaosStats chaos;  // faults injected into this cycle's data
  // Operational timing, never an input to the science: wall-clock of the
  // whole cycle and its per-stage breakdown. Stages overlap (SPF runs
  // inside generation), so stages.total() does not equal duration_ns.
  std::uint64_t duration_ns = 0;
  obs::StageTimings stages;
  // Delta-evolution accounting for this cycle's generation. delta.cycle < 0
  // unless the loop computed the cycle (outcome kOk): restored, failed and
  // skipped cycles generate nothing.
  gen::CycleDeltaStats delta;
  // --- supervision record ------------------------------------------------
  // How many attempts the cycle consumed (1 = first try succeeded).
  int attempts = 1;
  // Checkpoint/shard writes that failed after retries this cycle (the
  // report slot itself is unaffected — persistence failed, not compute).
  std::uint64_t checkpoint_write_failures = 0;
  std::vector<QuarantineRecord> quarantined;
};

struct RunManifest {
  int first_cycle = 0;
  int last_cycle = 0;
  unsigned threads = 1;
  std::vector<CycleStatus> cycles;  // one per cycle, in cycle order
  bool failure_budget_exceeded = false;
  // End-of-run operational record: total wall-clock of the contained run,
  // the minor page faults the process took over it (memory first touched
  // during the cycle loop) and the process's peak resident set when it
  // finished.
  std::uint64_t wall_ns = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t peak_rss_bytes = 0;
  // --- supervision record --------------------------------------------------
  // Set when persistent ENOSPC dropped checkpoint persistence mid-run: the
  // report is still complete and correct, but later cycles have no
  // checkpoints on disk. degraded_reason says what tripped it.
  bool checkpoints_degraded = false;
  std::string degraded_reason;
  // What the installed io failpoint plan injected over this run (all zeros
  // when no plan was installed).
  util::io::FaultCounts io;

  std::size_t count(CycleOutcome outcome) const noexcept;
  // All cycles either computed or restored: the report is trustworthy
  // end to end.
  bool complete() const noexcept {
    return count(CycleOutcome::kFailed) == 0 &&
           count(CycleOutcome::kSkipped) == 0 &&
           count(CycleOutcome::kTimedOut) == 0;
  }
  // The report is complete but an operational promise was not kept:
  // checkpoint persistence was dropped (ENOSPC), some checkpoint writes
  // failed, or corrupt state was quarantined. Exit code 4 territory.
  bool degraded() const noexcept {
    return checkpoints_degraded || checkpoint_write_failures_total() > 0 ||
           quarantined_total() > 0;
  }
  std::uint64_t checkpoint_write_failures_total() const noexcept;
  std::size_t quarantined_total() const noexcept;
  // Extra attempts consumed beyond each cycle's first (0 = no retries).
  std::uint64_t retries_total() const noexcept;
  // Total chaos faults injected across all cycles.
  chaos::ChaosStats chaos_total() const noexcept;

  std::string to_json() const;
};

}  // namespace mum::run
