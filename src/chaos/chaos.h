// Chaos layer: deterministic dataset fault injection.
//
// Real Archipelago data is messy — incomplete LSPs, missing RFC 4950
// extensions, monitor outages, corrupted captures — and the paper's whole
// filtering stage (Sec. 3.1) exists to survive it. The generator, however,
// emits only well-formed snapshots, so the tolerant paths of the pipeline
// were never exercised. The Corruptor closes that gap: it mutates decoded
// snapshots (structural faults) and serialized snapshot bytes (wire faults)
// at configured per-fault rates.
//
// Determinism contract: every draw derives from an RNG stream keyed by
// (config.seed, cycle_id, sub_index) — the same snapshot corrupts the same
// way no matter the call order, thread count, or what else was corrupted
// first. A Corruptor accumulates ChaosStats and is NOT thread-safe; create
// one per cycle and merge stats (the pattern Runner follows).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "dataset/trace_batch.h"
#include "util/io.h"

namespace mum::chaos {

// Per-fault injection rates, all probabilities in [0, 1].
struct ChaosConfig {
  std::uint64_t seed = 0xC0FFEE;

  // Structural faults on decoded snapshots (unit in parentheses):
  double truncate_stack = 0.0;    // per labeled hop: drop trailing LSEs
  double drop_extension = 0.0;    // per labeled hop: lose the RFC 4950 ext
  double duplicate_ttl = 0.0;     // per trace: duplicate one hop (dup TTL)
  double reorder_ttl = 0.0;       // per trace: swap two adjacent hops
  double bogus_ip2as = 0.0;       // per mapped hop: scramble its ASN
  double monitor_blackout = 0.0;  // per monitor: drop its whole trace block

  // Wire faults on serialized snapshots:
  double flip_byte = 0.0;  // per payload byte: XOR one random bit

  // Execution faults (consumed by run::Runner):
  double cycle_failure = 0.0;  // per cycle: the worker throws ChaosError

  // Environment faults (consumed by util::io via a FailpointPlan the runner
  // installs): EIO, ENOSPC, short writes, torn temps, stale renames, slow
  // ops, and the kill-at-op crash harness. These corrupt the *environment*
  // around the run, never the data — reports stay byte-identical whenever
  // the run completes.
  util::io::FaultConfig io;

  bool any_structural() const noexcept {
    return truncate_stack > 0 || drop_extension > 0 || duplicate_ttl > 0 ||
           reorder_ttl > 0 || bogus_ip2as > 0 || monitor_blackout > 0;
  }
  bool enabled() const noexcept {
    return any_structural() || flip_byte > 0 || cycle_failure > 0 ||
           io.any();
  }
};

// Parse a --chaos spec: a comma-separated list of `fault=rate` pairs where
// rate is a decimal ("0.02") or percentage ("2%"). Fault names: stack, noext,
// dupttl, reorder, ip2as, blackout, flip, fail, seed (integer), and `all`
// which sets every dataset fault (not `fail`) to the given rate. A bare rate
// ("2%") is shorthand for `all=2%`.
//
// Environment faults use the `io.` prefix: io.eio, io.enospc, io.shortwrite,
// io.torn, io.stalerename, io.slow (rates), io.slow_ms (latency in ms),
// io.all (sets the six io rates, not the dataset faults), and the crash
// harness knobs io.kill_at (1-based op index) and io.kill_mode (kill|dead).
// Returns nullopt on a malformed spec and fills `error` with the reason.
std::optional<ChaosConfig> parse_chaos_spec(std::string_view spec,
                                            std::string* error = nullptr);

// Counts of faults actually injected (a rate of 0.02 on a small snapshot may
// inject none — the stats say what happened, the config what was asked).
struct ChaosStats {
  std::uint64_t stacks_truncated = 0;
  std::uint64_t extensions_dropped = 0;
  std::uint64_t hops_duplicated = 0;
  std::uint64_t hops_reordered = 0;
  std::uint64_t asns_scrambled = 0;
  std::uint64_t monitors_blacked_out = 0;
  std::uint64_t traces_dropped = 0;  // victims of monitor blackouts
  std::uint64_t bytes_flipped = 0;
  std::uint64_t cycles_failed = 0;

  std::uint64_t total() const noexcept {
    return stacks_truncated + extensions_dropped + hops_duplicated +
           hops_reordered + asns_scrambled + monitors_blacked_out +
           traces_dropped + bytes_flipped + cycles_failed;
  }
  ChaosStats& merge(const ChaosStats& other) noexcept;
};

// Mirror a batch of injected-fault counts into the telemetry registry
// ("chaos.injected.<kind>" counters). The runner publishes each cycle's
// Corruptor stats once, right after recording them in the manifest.
void publish(const ChaosStats& stats);

// Same for the io failpoint counts ("chaos.io.ops" + "chaos.io.<class>"),
// published once per contained run from the plan the runner installed.
void publish_io(const util::io::FaultCounts& counts);

// Thrown by injected execution faults so containment code can tell chaos
// from genuine logic errors in test assertions.
class ChaosError : public std::runtime_error {
 public:
  explicit ChaosError(const std::string& what) : std::runtime_error(what) {}
};

class Corruptor {
 public:
  explicit Corruptor(const ChaosConfig& config) : config_(config) {}

  const ChaosConfig& config() const noexcept { return config_; }
  const ChaosStats& stats() const noexcept { return stats_; }

  // Apply the structural faults to a snapshot, rebuilding its blocks, in
  // order, into one block through the TraceBatch append protocol. Keyed by
  // (seed, snapshot.cycle_id, snapshot.sub_index).
  void corrupt(dataset::SnapshotBatch& snapshot);

  // Apply wire faults to a serialized snapshot. The 5-byte magic+version
  // header is spared so corrupted files still identify as warts-lite and
  // exercise the record-level tolerant paths rather than the magic check.
  // `key` seeds the stream (callers pass the same cycle/sub lineage they
  // would pass structurally).
  void corrupt_bytes(std::string& bytes, std::uint64_t key);

  // Execution fault: should the given cycle's worker throw? Deterministic in
  // (seed, cycle); counts into stats when true.
  bool should_fail_cycle(int cycle);

 private:
  ChaosConfig config_;
  ChaosStats stats_;
};

}  // namespace mum::chaos
