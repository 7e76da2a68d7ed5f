// mum command-line tool — library half (unit-testable; `main.cpp` is a thin
// dispatcher). Subcommands operate on warts-lite snapshot files plus a
// pfx2as-style IP2AS table, the workflow a user with archived campaigns
// follows:
//
//   mum generate  --out DIR [--cycle N] [--seed S] [--snapshots K] [--small]
//   mum classify  --ip2as FILE SNAP [SNAP...]   [--j N] [--alias] [--csv]
//   mum trees     --ip2as FILE SNAP [SNAP...]
//   mum stats     SNAP [SNAP...]
//   mum campaign  [--cycles N] [--chaos SPEC] [--keep-going] [--resume DIR]
//                 [--telemetry[=FILE]] [--trace-out FILE]
//                 [--quiet | --verbose]
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace mum::cli {

// Process exit codes, uniform across subcommands:
//   0 — success (for `campaign`: every cycle computed or restored)
//   1 — usage error (unknown command/flag, malformed or missing argument)
//   2 — partial run: failures were contained, results are incomplete
//   3 — fatal: I/O failure or unreadable/undecodable input data
//   4 — degraded-complete: the report is complete and correct, but an
//       operational promise broke (checkpoint persistence dropped under
//       ENOSPC, checkpoint writes failed, or corrupt state was quarantined)
//   5 — aborted: the failure policy stopped the run early (fail-fast or
//       exhausted failure budget); skipped cycles were never attempted
inline constexpr int kExitOk = 0;
inline constexpr int kExitUsage = 1;
inline constexpr int kExitPartial = 2;
inline constexpr int kExitFatal = 3;
inline constexpr int kExitDegraded = 4;
inline constexpr int kExitAborted = 5;

// Minimal flag parser: "--name value", "--flag", positionals.
class Args {
 public:
  Args(int argc, const char* const* argv);
  explicit Args(std::vector<std::string> tokens);

  // Value flag; nullopt when absent. Consumes the flag.
  std::optional<std::string> take_value(const std::string& name);
  // Boolean flag; false when absent. Consumes the flag.
  bool take_flag(const std::string& name);
  // Flag with an optional inline value: "--name" or "--name=value".
  // Outer nullopt when absent; inner nullopt when given bare.
  std::optional<std::optional<std::string>> take_eq_flag(
      const std::string& name);
  // Integer value flag in [lo, hi] (default: all non-negative T); `def`
  // when absent. Malformed or out-of-range input sets `error`
  // ("<flag> must be in [lo, hi]"), so no value narrows silently.
  template <class T>
  T take_int(const std::string& name, T def, T lo = 0,
             T hi = std::numeric_limits<T>::max()) {
    const auto value = take_u64(name, static_cast<std::uint64_t>(lo),
                                static_cast<std::uint64_t>(hi));
    return value ? static_cast<T>(*value) : def;
  }

  // Remaining positional arguments (call after all take_* calls).
  std::vector<std::string> positionals() const;
  // First unconsumed "--" token, if any (unknown-flag detection).
  std::optional<std::string> unknown_flag() const;

  bool ok() const noexcept { return error_.empty(); }
  const std::string& error() const noexcept { return error_; }

 private:
  std::optional<std::uint64_t> take_u64(const std::string& name,
                                        std::uint64_t lo, std::uint64_t hi);

  std::vector<std::string> tokens_;
  std::vector<bool> consumed_;
  std::string error_;
};

// Subcommands: return a process exit code; all output through out/err.
int run_generate(Args& args, std::ostream& out, std::ostream& err);
int run_classify(Args& args, std::ostream& out, std::ostream& err);
int run_trees(Args& args, std::ostream& out, std::ostream& err);
int run_stats(Args& args, std::ostream& out, std::ostream& err);
int run_campaign(Args& args, std::ostream& out, std::ostream& err);

// Top-level dispatch (what main() calls).
int run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err);

// Usage text.
std::string usage();

}  // namespace mum::cli
