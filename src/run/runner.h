// Campaign-level execution engine: the library's top entry point for paper
// studies. A Runner builds the synthetic internet once from its config, then
// runs monthly cycles in order through generation and the LPR pipeline, with
// the inner stages spread across a thread pool it owns. The fig*/table*
// benches, the CLI and the examples all share this one API:
// run_all_contained() is the campaign loop (a default config runs plain
// cycles with nothing injected or persisted), run_cycle() and month_data()
// serve single-cycle benches and tests, and run_cycle() is the loop's
// from-scratch oracle.
//
// Determinism contract: all randomness derives from RNG streams keyed by
// (seed, cycle, monitor)-style lineages, each cycle's world is a function of
// its cycle alone, and per-worker results merge in index order — so
// `threads = N` produces bit-identical reports to `threads = 1` for any N.
// Pick `threads` purely for wall-clock: one per hardware thread (the
// default, threads = 0) is right unless the machine is shared.
#pragma once

#include <memory>
#include <string>

#include "chaos/chaos.h"
#include "core/report.h"
#include "gen/campaign.h"
#include "gen/internet.h"
#include "run/manifest.h"
#include "util/thread_pool.h"

namespace mum::run {

struct RunnerConfig {
  gen::GenConfig gen;
  gen::CampaignConfig campaign;
  lpr::PipelineConfig pipeline;
  int first_cycle = 0;
  int last_cycle = gen::kCycles - 1;  // inclusive
  // Worker threads for the stages inside a cycle (per-AS evolution and SPF,
  // monitor fan-out, classification): 0 = one per hardware thread, 1 =
  // fully serial. Output is identical either way.
  int threads = 0;

  // --- fault injection & containment -------------------------------------
  // Chaos faults injected into each cycle's data (off by default). When
  // flip_byte > 0, snapshots additionally round-trip through serialization +
  // tolerant decode, and the decoder's diagnostics land in the cycle report.
  chaos::ChaosConfig chaos;
  // Containment policy: fail-fast (default) stops scheduling new cycles
  // after the first failure; keep-going contains every failure until the
  // budget runs out. Failed cycles keep a placeholder report slot either way.
  bool keep_going = false;
  // Max failed cycles tolerated under keep-going before the run aborts
  // (remaining cycles are marked skipped); negative = unlimited.
  int failure_budget = -1;
  // When non-empty, each finished cycle writes <dir>/cycle_<N>.mumc and
  // resume = true splices existing checkpoints in instead of recomputing —
  // the resumed final report is byte-identical to an uninterrupted run.
  std::string checkpoint_dir;
  bool resume = false;
  // Container format for snapshot wire round-trips and data shards: 2 =
  // warts-lite stream (the interchange format, default), 3 = mmap pack.
  std::uint8_t snapshot_format = 2;
  // Also persist each cycle's month data as per-snapshot shards in
  // checkpoint_dir. On resume, a cycle whose report checkpoint is missing
  // or stale re-ingests its shards (any mix of formats — readers sniff the
  // magic) instead of regenerating; the manifest marks it kFromData. For
  // clean (chaos-free) runs the resumed report stays byte-identical.
  bool checkpoint_data = false;

  // --- supervision -------------------------------------------------------
  // Extra attempts for a cycle whose worker threw. The attempt number keys
  // the io-fault streams (an injected EIO storm on attempt 0 does not recur
  // on attempt 1), while data chaos keys off (seed, cycle) alone — so an
  // injected cycle failure still burns every attempt, and the report bytes
  // never depend on how many attempts a cycle needed. 0 = no retries.
  // Attempt N backs off N ms first.
  int retries = 0;
  // Cooperative per-cycle deadline, 0 = none. IoEnv ops and stage
  // boundaries check it; an expired cycle is recorded kTimedOut (never
  // retried — the next attempt would hit the same wall) and counts against
  // the failure budget.
  std::uint32_t cycle_deadline_ms = 0;
};

// What run_all_contained produces: the science and the operational record.
struct RunOutcome {
  lpr::LongitudinalReport report;
  RunManifest manifest;
};

class Runner {
 public:
  explicit Runner(const RunnerConfig& config);
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  const RunnerConfig& config() const noexcept { return config_; }
  const gen::Internet& internet() const noexcept { return internet_; }
  const dataset::Ip2As& ip2as() const noexcept { return ip2as_; }
  // Effective thread count (config.threads resolved against hardware).
  unsigned threads() const noexcept;

  // Generate one month of data (from-scratch instantiate, no evolver) and
  // run the LPR pipeline on it. Monitor fan-out and classification use the
  // pool when threads > 1. The campaign loop's evolved cycles must match it
  // byte for byte, which makes it the loop's oracle in tests.
  lpr::CycleReport run_cycle(int cycle) const;
  // Month data only (for benches that sweep pipeline configs over fixed
  // data, like the Fig. 6 persistence sweep).
  dataset::MonthData month_data(int cycle) const;

  // Run the whole configured cycle range: the one campaign loop. Cycles run
  // in order against one standing world that a gen::DeltaEvolver advances
  // (pristine rollback + seed-keyed per-cycle deltas through incremental SPF
  // and TE-only re-signalling), and one gen::CampaignRunner probes them all.
  // Progress goes through obs::log (one info line per 12 cycles, per-cycle
  // at debug).
  //
  // Every cycle is contained: chaos injection, per-cycle error containment
  // with the configured failure policy, retries, checkpoints and resume. A
  // failed cycle keeps a deterministic placeholder slot (cycle id + date,
  // zero counts), so the final report stays byte-identical across thread
  // counts whenever the set of attempted cycles is deterministic (always
  // true under keep-going within budget, and for chaos-injected failures).
  // Callers that need every cycle check manifest.complete().
  // The manifest additionally records per-cycle wall-clock and stage
  // timings, total wall-clock and peak RSS — observed state only; nothing
  // in the report depends on it.
  RunOutcome run_all_contained() const;

 private:
  // Generate a month (against `evolver`'s standing world when given — a
  // byte-identical mutation of the from-scratch instantiate — and through
  // `campaign`, the campaign-lifetime probe runner, when given; otherwise
  // through a runner of its own), then apply optional chaos: structural
  // faults mutate the month's snapshots in place; wire faults round-trip
  // them through serialization (in config.snapshot_format) and tolerant
  // decode, re-annotating survivors, with the decoder's diagnostics
  // accumulated into `decode`.
  dataset::MonthData prepare_month(
      int cycle, chaos::Corruptor* corruptor,
      dataset::DecodeDiagnostics* decode,
      gen::DeltaEvolver* evolver = nullptr,
      const gen::CampaignRunner* campaign = nullptr) const;
  // The shared tail of every cycle: run the pipeline over `month` and attach
  // what the decoders salvaged, then check the cycle deadline.
  lpr::CycleReport classify(int cycle, const dataset::MonthData& month,
                            dataset::DecodeDiagnostics decode) const;
  // Re-ingest a cycle's persisted data shards (strict decode, magic-sniffed
  // per shard) and run the pipeline on them. nullopt when shards are
  // missing, incomplete (fewer than the configured snapshots per cycle — a
  // crash mid-persist must not silently thin the month) or undecodable —
  // the caller recomputes from generation. An undecodable shard is recorded
  // in `status` so the supervision layer can quarantine it.
  std::optional<lpr::CycleReport> run_cycle_from_data(
      int cycle, CycleStatus& status) const;
  // Move a corrupt checkpoint/shard into <checkpoint_dir>/quarantine/
  // (kept as evidence, never deleted) and record the reason in `status`.
  void quarantine_file(const std::string& path, const std::string& reason,
                       CycleStatus& status) const;

  RunnerConfig config_;
  // Declared before internet_: the pool also parallelizes the per-AS IGP
  // computation while the internet is built.
  std::unique_ptr<util::ThreadPool> pool_;  // null when threads resolve to 1
  gen::Internet internet_;
  dataset::Ip2As ip2as_;
};

}  // namespace mum::run
