// Fault-injectable I/O seam: every operational file access (checkpoint
// reads/writes, shard persistence, pack mappings) goes through IoEnv, a thin
// wrapper over open/write/fsync/rename/mmap. Normally it is a transparent
// passthrough; with a FailpointPlan installed it injects environment faults
// (EIO, ENOSPC, short writes, torn temp files, stale renames, slow ops) at
// deterministic points, so torn-write recovery, quarantine, retries and
// deadline supervision can be exercised — and reproduced — in tests.
//
// Determinism contract, mirroring chaos::Corruptor: every fault draw derives
// from an RNG stream keyed by (seed, cycle, attempt, op-ordinal). The
// op-ordinal comes from the installed thread-local CycleScope on the
// campaign loop's thread, which issues a cycle's ops in order; the shard
// source, which maps files on a pool worker, captures the scope's lineage
// and draws each ordinal before dispatch. So the same campaign config
// injects the same faults at any thread count.
// Ops issued outside any scope (CLI input loading) key off an explicit or
// caller-provided ordinal.
//
// The crash harness rides the same seam: `kill_at_op = K` counts every IoEnv
// op process-wide and, at the K-th, either terminates the process mid-op
// (`kKill`, exit code kKilledExitCode — the tier-1 torture loop) or leaves
// the op torn and silently fails every later op (`kDead` — in-process
// crash/resume tests). Either way the bytes on disk are exactly what a real
// kill at that op would have left.
//
// Layering: util sits below obs, so no telemetry here — FailpointPlan keeps
// atomic counts and the run layer publishes them (like chaos::publish).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/mmap_file.h"

namespace mum::util::io {

// Exit code of a process killed by the crash harness (`kill_at_op` in kKill
// mode), distinct from every CLI exit code so the torture loop can tell an
// injected kill from a genuine crash.
inline constexpr int kKilledExitCode = 9;

// --- fault taxonomy ------------------------------------------------------

enum class FaultClass : std::uint8_t {
  kEio = 0,      // read/write/rename/map fails outright
  kEnospc,       // write fails, classified as disk-full (degradation path)
  kShortWrite,   // write persists a strict prefix but REPORTS SUCCESS —
                 // caught later by the payload checksum, not at write time
  kTornTemp,     // write persists a strict prefix and fails (a crash between
                 // write and rename leaves exactly this .tmp litter)
  kStaleRename,  // rename reports success but the destination keeps its old
                 // content (metadata never reached the journal)
  kSlow,         // the op takes slow_ms longer (exercises the deadline)
};
inline constexpr std::size_t kFaultClassCount = 6;
const char* to_cstring(FaultClass fault) noexcept;

// Per-class injection rates (probabilities in [0, 1]) plus the crash-harness
// knobs. Parsed from the extended `--chaos io.*=rate` spec.
struct FaultConfig {
  double eio = 0.0;
  double enospc = 0.0;
  double short_write = 0.0;
  double torn_temp = 0.0;
  double stale_rename = 0.0;
  double slow_op = 0.0;
  std::uint32_t slow_ms = 25;  // injected latency per slow op

  enum class KillMode : std::uint8_t { kKill, kDead };
  std::uint64_t kill_at_op = 0;  // 1-based op index; 0 = harness off
  KillMode kill_mode = KillMode::kKill;

  bool any() const noexcept {
    return eio > 0 || enospc > 0 || short_write > 0 || torn_temp > 0 ||
           stale_rename > 0 || slow_op > 0 || kill_at_op > 0;
  }
};

// Copyable snapshot of what a plan actually injected.
struct FaultCounts {
  std::array<std::uint64_t, kFaultClassCount> injected{};
  std::uint64_t ops = 0;  // every IoEnv op that consulted the plan

  std::uint64_t total_injected() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t n : injected) total += n;
    return total;
  }
};

enum class OpKind : std::uint8_t {
  kRead = 0,
  kMap,
  kWrite,
  kRename,
  kRemove,
  kMkdir,
};

// --- failpoint plan ------------------------------------------------------

// Thread-safe: draws are pure functions of the key, counts are atomic.
// One plan per contained run (the runner installs it for the run's scope).
class FailpointPlan {
 public:
  FailpointPlan(const FaultConfig& config, std::uint64_t seed);

  const FaultConfig& config() const noexcept { return config_; }

  // Deterministic fault draw for one op. Returns nullopt for "no fault".
  // Classes that cannot apply to `op` (ENOSPC on a read, say) never fire.
  std::optional<FaultClass> draw(OpKind op, int cycle, int attempt,
                                 std::uint64_t ordinal);

  // Crash harness: count one op; true when this op is the configured kill
  // point (the caller tears the op, then calls die()). Once dead (kDead
  // mode) every subsequent op reports true without side effects.
  bool count_op_and_check_kill() noexcept;
  bool dead() const noexcept {
    return dead_.load(std::memory_order_acquire);
  }
  // kKill: _Exit(kKilledExitCode) right here. kDead: mark the plan dead.
  void die() noexcept;

  void note_injected(FaultClass fault) noexcept;
  FaultCounts counts() const noexcept;

  // Ordinal source for ops issued outside any CycleScope.
  std::uint64_t next_global_ordinal() noexcept {
    return global_ordinal_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  FaultConfig config_;
  std::uint64_t seed_;
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> global_ordinal_{0};
  std::atomic<bool> dead_{false};
  std::array<std::atomic<std::uint64_t>, kFaultClassCount> injected_{};
};

// Process-wide plan installation (no plan = transparent passthrough).
// Install/uninstall from one thread while no IoEnv ops are in flight —
// the runner brackets run_all_contained, tests bracket direct calls.
void set_failpoints(FailpointPlan* plan) noexcept;
FailpointPlan* failpoints() noexcept;

class ScopedFailpoints {
 public:
  explicit ScopedFailpoints(FailpointPlan* plan) noexcept
      : previous_(failpoints()) {
    set_failpoints(plan);
  }
  ~ScopedFailpoints() { set_failpoints(previous_); }
  ScopedFailpoints(const ScopedFailpoints&) = delete;
  ScopedFailpoints& operator=(const ScopedFailpoints&) = delete;

 private:
  FailpointPlan* previous_;
};

// --- per-cycle keying + cooperative deadline ------------------------------

// Thrown by IoEnv ops (and check_deadline) once the enclosing CycleScope's
// deadline has passed. The runner records the cycle as kTimedOut.
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

// Thread-local scope giving this thread's IoEnv ops their (cycle, attempt)
// fault lineage, a serial op ordinal, and an optional deadline. Nests by
// shadowing: the innermost scope wins until it is destroyed.
class CycleScope {
 public:
  // deadline_ms = 0 means no deadline. The clock starts at construction.
  CycleScope(int cycle, int attempt, std::uint32_t deadline_ms) noexcept;
  ~CycleScope();
  CycleScope(const CycleScope&) = delete;
  CycleScope& operator=(const CycleScope&) = delete;

  int cycle() const noexcept { return cycle_; }
  int attempt() const noexcept { return attempt_; }
  std::uint64_t next_ordinal() noexcept { return ordinal_++; }
  // 0 when no deadline; otherwise a steady-clock ns timestamp.
  std::uint64_t deadline_ns() const noexcept { return deadline_ns_; }

 private:
  int cycle_;
  int attempt_;
  std::uint64_t ordinal_ = 0;
  std::uint64_t deadline_ns_;
  CycleScope* previous_;
};

// The (cycle, attempt) lineage of the current thread's innermost scope, or
// {-1, 0} outside any scope. Captured by components (SnapshotSource) whose
// work may migrate to pool workers that lack the thread-local scope.
struct OpContext {
  int cycle = -1;
  int attempt = 0;
};
OpContext capture_context() noexcept;

// Throw DeadlineExceeded if the current scope's deadline has passed. IoEnv
// ops call this implicitly; the runner also calls it between stages so a
// deadline can fire on compute-only cycles.
void check_deadline();

// --- the I/O environment --------------------------------------------------

// Why the last IoEnv op failed, for policy decisions (ENOSPC drives the
// degradation path). Thread-local, valid after an op returns failure.
enum class Error : std::uint8_t { kNone = 0, kEio, kEnospc, kOther };
const char* to_cstring(Error error) noexcept;

class IoEnv {
 public:
  // Whole-file read. nullopt when missing, unreadable, or EIO-injected.
  std::optional<std::string> read_file(const std::string& path);

  // Read-only mapping (MmapFile::open_ro behind the failpoints). The
  // overload taking an OpContext + ordinal keys its fault draw explicitly —
  // for callers whose ops run on pool workers without a CycleScope.
  std::optional<MmapFile> map_file(const std::string& path);
  std::optional<MmapFile> map_file(const std::string& path,
                                   const OpContext& context,
                                   std::uint64_t ordinal);

  // Whole-file write + fsync. False on failure; a kShortWrite fault returns
  // TRUE with a torn file on disk (that is the point — the checksum layer
  // must catch it downstream).
  bool write_file(const std::string& path, std::string_view bytes);

  // False on failure; a kStaleRename fault returns TRUE having moved
  // nothing.
  bool rename_file(const std::string& from, const std::string& to);

  bool remove_file(const std::string& path);
  bool create_dirs(const std::string& path);

  Error last_error() const noexcept;
};

// The process-wide environment (stateless; all shared state lives in the
// installed FailpointPlan and the thread-local scope/error).
IoEnv& env();

}  // namespace mum::util::io
