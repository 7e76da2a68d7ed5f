#include "run/runner.h"

#include <array>
#include <chrono>
#include <filesystem>
#include <optional>
#include <thread>
#include <utility>

#include "dataset/snapshot_source.h"
#include "dataset/warts_lite.h"
#include "obs/log.h"
#include "obs/stage.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "run/checkpoint.h"
#include "util/io.h"
#include "util/rng.h"

namespace mum::run {

namespace {

// Fleet-size anomalies per (0-based) cycle: the paper's dataset shows two
// dips "caused by measurement issues in the Archipelago infrastructure"
// at cycles 23 and 58 (1-based) — modelled as a reduced monitor share.
constexpr std::array<std::pair<int, double>, 2> kFleetDips = {
    {{22, 0.55}, {57, 0.6}}};
// Deterministic backoff before attempt N of a cycle or a write: N * this.
constexpr std::uint64_t kRetryBackoffMs = 1;
// Consecutive ENOSPC checkpoint-write failures before the run degrades:
// persistence is dropped, computing continues, the manifest records it.
constexpr int kEnospcDegradeThreshold = 3;

void backoff(int attempt) {
  std::this_thread::sleep_for(std::chrono::milliseconds(
      kRetryBackoffMs * static_cast<std::uint64_t>(attempt)));
}

std::unique_ptr<util::ThreadPool> make_pool(int threads_config) {
  const unsigned threads =
      threads_config <= 0 ? util::hardware_threads()
                          : static_cast<unsigned>(threads_config);
  return threads > 1 ? std::make_unique<util::ThreadPool>(threads) : nullptr;
}

// One progress line per year at info, every cycle at debug — the strings
// only materialize when the level is enabled.
void log_cycle_progress(int cycle, const char* outcome) {
  const bool yearly = (cycle + 1) % 12 == 0;
  const obs::LogLevel level =
      yearly ? obs::LogLevel::kInfo : obs::LogLevel::kDebug;
  if (!obs::log_enabled(level)) return;
  obs::log(level, "  ... processed cycle " + std::to_string(cycle + 1) +
                      " (" + gen::cycle_date(cycle) + ") [" + outcome + "]");
}

}  // namespace

Runner::Runner(const RunnerConfig& config)
    : config_(config),
      pool_(make_pool(config.threads)),
      internet_(config.gen, pool_.get()),
      ip2as_(internet_.build_ip2as()) {}

Runner::~Runner() = default;

unsigned Runner::threads() const noexcept {
  return pool_ ? pool_->size() : 1;
}

dataset::MonthData Runner::month_data(int cycle) const {
  return prepare_month(cycle, nullptr, nullptr);
}

lpr::CycleReport Runner::run_cycle(int cycle) const {
  dataset::DecodeDiagnostics decode;
  const dataset::MonthData month = prepare_month(cycle, nullptr, &decode);
  return classify(cycle, month, std::move(decode));
}

dataset::MonthData Runner::prepare_month(
    int cycle, chaos::Corruptor* corruptor,
    dataset::DecodeDiagnostics* decode, gen::DeltaEvolver* evolver,
    const gen::CampaignRunner* campaign) const {
  dataset::MonthData month = [&] {
    const obs::StageSpan span(obs::Stage::kGenerate, cycle);
    double fleet_share = 1.0;
    for (const auto& [dip_cycle, share] : kFleetDips) {
      if (dip_cycle == cycle) fleet_share = share;
    }
    std::optional<gen::CampaignRunner> own;
    if (campaign == nullptr) {
      campaign = &own.emplace(internet_, ip2as_, config_.campaign,
                              pool_.get());
    }
    return evolver != nullptr ? campaign->month(*evolver, cycle, fleet_share)
                              : campaign->month(cycle, fleet_share);
  }();
  if (corruptor != nullptr) {
    // Chaos wire round-trips run the real ingest path — that time is
    // ingest, not generation.
    const obs::StageSpan span(obs::Stage::kIngest, cycle);
    dataset::AsnCache asn_cache;
    for (std::size_t sub = 0; sub < month.snapshots.size(); ++sub) {
      dataset::SnapshotBatch& snapshot = month.snapshots[sub];
      if (corruptor->config().flip_byte > 0) {
        // Wire faults exercise the real ingest path: serialize (in the
        // configured container format), flip bits, tolerant-decode, keep
        // whatever the decoder salvaged.
        std::string bytes =
            dataset::serialize_snapshot(snapshot, config_.snapshot_format);
        corruptor->corrupt_bytes(
            bytes,
            util::hash_combine(static_cast<std::uint64_t>(cycle), sub));
        dataset::DecodeDiagnostics diag;
        auto salvaged = dataset::parse_snapshot(
            bytes, dataset::DecodeOptions{.tolerant = true}, &diag);
        if (decode != nullptr) decode->merge(diag);
        if (salvaged) {
          // The runner knows which cycle it is processing; a flipped header
          // field must not relabel the snapshot (or derail the structural
          // fault keying below).
          salvaged->cycle_id = snapshot.cycle_id;
          salvaged->sub_index = snapshot.sub_index;
          salvaged->date = snapshot.date;
          // Serialization carries no ip2as annotations: re-annotate the
          // survivors before the pipeline consumes them.
          ip2as_.annotate(*salvaged, asn_cache);
          snapshot = std::move(*salvaged);
        } else {
          snapshot.blocks.clear();  // container unreadable: total loss
        }
      }
      corruptor->corrupt(snapshot);
    }
  }
  return month;
}

lpr::CycleReport Runner::classify(int cycle, const dataset::MonthData& month,
                                  dataset::DecodeDiagnostics decode) const {
  const obs::StageSpan span(obs::Stage::kClassify, cycle);
  lpr::CycleReport report =
      lpr::run_pipeline(month, ip2as_, config_.pipeline, pool_.get());
  report.decode = std::move(decode);
  util::io::check_deadline();
  return report;
}

void Runner::quarantine_file(const std::string& path,
                             const std::string& reason,
                             CycleStatus& status) const {
  static obs::Counter& quarantined =
      obs::registry().counter("run.quarantined");
  namespace fs = std::filesystem;
  util::io::IoEnv& env = util::io::env();
  const std::string name = fs::path(path).filename().string();
  const std::string qdir =
      (fs::path(config_.checkpoint_dir) / "quarantine").string();
  // The move itself goes through the failpoints; if it fails the file stays
  // put, but the manifest records the verdict either way.
  env.create_dirs(qdir);
  env.rename_file(path, (fs::path(qdir) / name).string());
  status.quarantined.push_back(QuarantineRecord{name, reason});
  quarantined.inc();
  obs::log_warn("  ! quarantined " + name + ": " + reason);
  if (obs::TraceLog* t = obs::trace()) {
    t->mark("quarantine", status.cycle, name + ": " + reason);
  }
}

std::optional<lpr::CycleReport> Runner::run_cycle_from_data(
    int cycle, CycleStatus& status) const {
  const auto paths = find_data_shards(config_.checkpoint_dir, cycle);
  if (paths.empty()) return std::nullopt;
  // Crash consistency: shards persist one at a time, so a kill mid-cycle
  // leaves a contiguous prefix. Re-ingesting fewer snapshots than the
  // campaign generates would compute a *wrong* report from real-looking
  // data — regenerate instead.
  const std::size_t expected =
      static_cast<std::size_t>(config_.campaign.extra_snapshots) + 1;
  if (paths.size() < expected) {
    obs::log_debug("  incomplete shard set for cycle " +
                   std::to_string(cycle + 1) + " (" +
                   std::to_string(paths.size()) + "/" +
                   std::to_string(expected) + "), regenerating");
    return std::nullopt;
  }
  // Strict decode: these shards were written by a previous run; damage
  // means the cycle should be regenerated, not silently thinned.
  dataset::SnapshotSource source(paths, dataset::DecodeOptions{},
                                 pool_.get());
  dataset::MonthData month;
  month.cycle_id = static_cast<std::uint32_t>(cycle);
  month.date = gen::cycle_date(cycle);
  {
    const obs::StageSpan span(obs::Stage::kIngest, cycle);
    dataset::AsnCache asn_cache;
    while (auto snapshot = source.next()) {
      // Annotations are not persisted in either container format.
      ip2as_.annotate(*snapshot, asn_cache);
      month.snapshots.push_back(std::move(*snapshot));
    }
  }
  if (source.failed() || month.snapshots.empty()) {
    // A shard whose *bytes* are bad is evidence of torn persistence —
    // quarantine it so the recompute can write a fresh one. An unreadable
    // shard proves nothing about the bytes; leave it alone.
    if (source.error_kind() == dataset::SourceErrorKind::kUndecodable) {
      quarantine_file(source.last_path(), "undecodable shard", status);
    }
    return std::nullopt;
  }
  util::io::check_deadline();
  return classify(cycle, month, source.diagnostics());
}

RunOutcome Runner::run_all_contained() const {
  static obs::Counter& write_failures =
      obs::registry().counter("run.checkpoint.write_failures");
  static obs::Counter& retries_counter = obs::registry().counter("run.retries");
  static obs::Counter& timeouts_counter =
      obs::registry().counter("run.timeouts");
  namespace fs = std::filesystem;

  const std::uint64_t run_t0 = obs::monotonic_ns();
  const std::uint64_t faults_t0 = obs::minor_faults();
  const int first = config_.first_cycle;
  const int last = config_.last_cycle;
  const std::size_t n =
      last >= first ? static_cast<std::size_t>(last - first + 1) : 0;

  RunOutcome out;
  out.report.cycles.resize(n);
  out.manifest.first_cycle = first;
  out.manifest.last_cycle = last;
  out.manifest.threads = threads();
  out.manifest.cycles.resize(n);

  const bool data_chaos =
      config_.chaos.any_structural() || config_.chaos.flip_byte > 0;
  const bool checkpoints = !config_.checkpoint_dir.empty();

  // Install the run's failpoint plan (if io faults are configured). Tests
  // may have installed an ambient plan instead — either way, the active
  // plan's count delta over this run lands in the manifest.
  std::unique_ptr<util::io::FailpointPlan> plan;
  std::optional<util::io::ScopedFailpoints> scoped_plan;
  if (config_.chaos.io.any()) {
    plan = std::make_unique<util::io::FailpointPlan>(config_.chaos.io,
                                                     config_.chaos.seed);
    scoped_plan.emplace(plan.get());
  }
  util::io::FailpointPlan* active = util::io::failpoints();
  const util::io::FaultCounts counts_before =
      active != nullptr ? active->counts() : util::io::FaultCounts{};

  // Supervision state. Cycles run one at a time on this thread, so plain
  // values suffice; the inner pool fan-outs never touch them.
  bool abort = false;
  bool budget_exceeded = false;
  int failures = 0;
  // ENOSPC degradation: after kEnospcDegradeThreshold consecutive
  // disk-full write failures the run stops persisting (checkpoints AND
  // shards) but keeps computing — the report completes, the manifest and
  // exit code say persistence was dropped.
  int enospc_streak = 0;
  bool degraded = false;

  // Delta evolution runs the cycle loop serially against one standing
  // world; inner stages (monitor fan-out, SPF, classification) use the pool.
  // Checkpoint-restored cycles skip generation entirely and the evolver
  // jumps the gap when the next computed cycle asks for it. One probe runner
  // serves every cycle: probe plans, block sizes, walk scratch and the asn
  // memo stay warm. Both are torn down inside the loop's wall time.
  std::optional<gen::DeltaEvolver> evolver(std::in_place, internet_,
                                           pool_.get());
  std::optional<gen::CampaignRunner> campaign(
      std::in_place, internet_, ip2as_, config_.campaign, pool_.get());

  for (std::size_t i = 0; i < n; ++i) {
    const int cycle = first + static_cast<int>(i);
    CycleStatus& status = out.manifest.cycles[i];
    status.cycle = cycle;
    lpr::CycleReport& slot = out.report.cycles[i];
    // Deterministic placeholder: a failed or skipped cycle keeps its
    // identity in the report, with zero counts.
    const auto reset_slot = [&] {
      slot = lpr::CycleReport{};
      slot.cycle_id = static_cast<std::uint32_t>(cycle);
      slot.date = gen::cycle_date(cycle);
    };
    reset_slot();

    // One persistence attempt set: op-level retry for transient failures
    // (each retry draws fresh fault ordinals), no retry on disk-full, and
    // the ENOSPC streak feeds the degradation tripwire. Returns true when
    // the bytes landed.
    const auto supervised_write = [&](const auto& write) -> bool {
      if (degraded) return false;
      for (int t = 0;; ++t) {
        if (write()) {
          enospc_streak = 0;
          return true;
        }
        if (util::io::env().last_error() == util::io::Error::kEnospc) {
          if (++enospc_streak >= kEnospcDegradeThreshold && !degraded) {
            degraded = true;
            obs::log_warn(
                "  ! persistent ENOSPC: dropping checkpoint persistence, "
                "continuing compute-only");
            if (obs::TraceLog* t = obs::trace()) {
              t->mark("degraded", cycle, "persistent enospc");
            }
          }
          break;  // disk-full does not retry
        }
        if (t >= config_.retries) break;
        backoff(t + 1);
      }
      ++status.checkpoint_write_failures;
      write_failures.inc();
      obs::log_warn("  ! checkpoint write failed for cycle " +
                    std::to_string(cycle + 1) + " (" +
                    util::io::to_cstring(util::io::env().last_error()) + ")");
      return false;
    };
    const auto persist_checkpoint = [&] {
      if (!checkpoints) return;
      const obs::StageSpan span(obs::Stage::kReport, cycle);
      supervised_write([&] {
        return write_checkpoint_file(config_.checkpoint_dir, cycle, slot);
      });
    };

    // The scoped thread-local accumulator below collects the stage spans
    // this thread opens; spans opened on pool workers inside an inner
    // fan-out (per-AS SPF) are not attributed to the cycle.
    const std::uint64_t cycle_t0 = obs::monotonic_ns();
    const auto process = [&] {
      if (abort) {
        status.outcome = CycleOutcome::kSkipped;
        return;
      }

      if (config_.resume && checkpoints) {
        LoadStatus load_status = LoadStatus::kMissing;
        if (auto restored = load_checkpoint_file(config_.checkpoint_dir,
                                                 cycle, &load_status)) {
          slot = std::move(*restored);
          status.outcome = CycleOutcome::kFromCheckpoint;
          return;
        }
        if (load_status == LoadStatus::kCorrupt) {
          // Bad bytes under the checkpoint name: move them aside as
          // evidence (never deleted) and recompute into a fresh file.
          quarantine_file((fs::path(config_.checkpoint_dir) /
                           checkpoint_filename(cycle))
                              .string(),
                          "corrupt checkpoint", status);
        }
        // No (or stale) report checkpoint: a cycle with persisted data
        // shards re-ingests them — cheaper than regenerating, and identical
        // for clean runs. Failing that, recompute below.
        if (config_.checkpoint_data) {
          if (auto from_data = run_cycle_from_data(cycle, status)) {
            slot = std::move(*from_data);
            status.outcome = CycleOutcome::kFromData;
            persist_checkpoint();
            return;
          }
        }
      }

      chaos::Corruptor corruptor(config_.chaos);
      try {
        if (corruptor.should_fail_cycle(cycle)) {
          throw chaos::ChaosError("injected failure in cycle " +
                                  std::to_string(cycle + 1));
        }
        dataset::DecodeDiagnostics decode;
        const dataset::MonthData month =
            prepare_month(cycle, data_chaos ? &corruptor : nullptr, &decode,
                          &*evolver, &*campaign);
        // Stage boundary: a deadline can fire on compute-only cycles here.
        util::io::check_deadline();
        if (checkpoints && config_.checkpoint_data) {
          // The shards carry the post-chaos data (what the pipeline sees).
          const obs::StageSpan span(obs::Stage::kReport, cycle);
          for (std::size_t sub = 0; sub < month.snapshots.size(); ++sub) {
            supervised_write([&] {
              return write_data_shard(config_.checkpoint_dir, cycle, sub,
                                      month.snapshots[sub],
                                      config_.snapshot_format);
            });
          }
        }
        slot = classify(cycle, month, std::move(decode));
        status.outcome = CycleOutcome::kOk;
        status.delta = evolver->last_stats();
        persist_checkpoint();
      } catch (...) {
        status.chaos = corruptor.stats();
        throw;
      }
      status.chaos = corruptor.stats();
    };

    const auto note_failure = [&] {
      ++failures;
      const bool over_budget =
          config_.failure_budget >= 0 && failures > config_.failure_budget;
      if (over_budget) budget_exceeded = true;
      if (!config_.keep_going || over_budget) abort = true;
    };

    {
      const obs::StageScope scope(&status.stages);
      // Bounded retry with deterministic backoff. The attempt number keys
      // the io fault draws (via the CycleScope), so a transiently hostile
      // environment rolls new dice each attempt; data chaos and compute
      // are keyed by (seed, cycle) alone and replay identically — retries
      // can never change the bytes of a successful cycle's report.
      int attempt = 0;
      for (;;) {
        try {
          const util::io::CycleScope cycle_scope(cycle, attempt,
                                                 config_.cycle_deadline_ms);
          process();
          break;
        } catch (const util::io::DeadlineExceeded& e) {
          // Not retried: the deadline measures the environment + workload,
          // and a second attempt would hit the same wall while doubling
          // the cycle's cost.
          status.outcome = CycleOutcome::kTimedOut;
          status.error = e.what();
          reset_slot();
          timeouts_counter.inc();
          obs::log_warn("  ! cycle " + std::to_string(cycle + 1) +
                        " timed out: " + e.what());
          if (obs::TraceLog* t = obs::trace()) {
            t->mark("cycle_timeout", cycle, e.what());
          }
          note_failure();
          break;
        } catch (const std::exception& e) {
          reset_slot();
          if (attempt < config_.retries && !abort) {
            ++attempt;
            retries_counter.inc();
            obs::log_warn("  ! cycle " + std::to_string(cycle + 1) +
                          " attempt " + std::to_string(attempt) +
                          " retrying: " + e.what());
            if (obs::TraceLog* t = obs::trace()) {
              t->mark("cycle_retry", cycle, e.what());
            }
            backoff(attempt);
            continue;
          }
          status.outcome = CycleOutcome::kFailed;
          status.error = e.what();
          note_failure();
          break;
        }
      }
      status.attempts = attempt + 1;
    }
    status.duration_ns = obs::monotonic_ns() - cycle_t0;
    chaos::publish(status.chaos);

    if (obs::TraceLog* t = obs::trace()) {
      t->span("cycle", cycle, cycle_t0, status.duration_ns);
      if (status.outcome == CycleOutcome::kFailed) {
        t->mark("cycle_failed", cycle, status.error);
      } else if (status.outcome == CycleOutcome::kSkipped) {
        t->mark("cycle_skipped", cycle);
      }
    }
    if (status.outcome != CycleOutcome::kSkipped) {
      log_cycle_progress(cycle, to_cstring(status.outcome));
    }
  }
  campaign.reset();
  evolver.reset();

  out.manifest.failure_budget_exceeded = budget_exceeded;
  if (degraded) {
    out.manifest.checkpoints_degraded = true;
    out.manifest.degraded_reason =
        "persistent enospc: checkpoint persistence dropped";
  }
  if (active != nullptr) {
    const util::io::FaultCounts counts_after = active->counts();
    out.manifest.io.ops = counts_after.ops - counts_before.ops;
    for (std::size_t f = 0; f < util::io::kFaultClassCount; ++f) {
      out.manifest.io.injected[f] =
          counts_after.injected[f] - counts_before.injected[f];
    }
    chaos::publish_io(out.manifest.io);
  }
  out.manifest.wall_ns = obs::monotonic_ns() - run_t0;
  out.manifest.minor_faults = obs::minor_faults() - faults_t0;
  out.manifest.peak_rss_bytes = obs::peak_rss_bytes();
  return out;
}

}  // namespace mum::run
