// Structured JSONL event log: one JSON object per line, monotonic-clock
// timestamps (obs::monotonic_ns origin), small sequential thread ids — so
// a campaign run can be replayed on a timeline after the fact.
//
// Event shapes:
//   {"ev":"meta","version":1,"clock":"monotonic_ns"}
//   {"ev":"span","name":"generate","cycle":51,"tid":0,
//    "t_ns":123456,"dur_ns":7890}
//   {"ev":"mark","name":"cycle_failed","cycle":51,"tid":2,
//    "t_ns":123456,"detail":"injected failure"}
//
// A TraceLog serializes writers with an internal mutex; install one
// process-wide with set_trace() and every instrumented layer emits into
// it. When no sink is installed (the default), emission sites reduce to
// one relaxed atomic pointer load — the trace layer costs nothing when
// off. The sink is observed state only: whether a trace is attached never
// changes a report byte.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace mum::obs {

class TraceLog {
 public:
  // Borrow an open stream (caller keeps it alive past the log).
  explicit TraceLog(std::ostream& os);
  ~TraceLog();

  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  // Open (truncate) a file sink; null on I/O failure.
  static std::unique_ptr<TraceLog> open(const std::string& path);

  // A timed phase. `cycle` is 1-based in the output; pass cycle < 0 to
  // omit the field (spans not tied to one cycle, e.g. SPF reconvergence).
  void span(std::string_view name, int cycle, std::uint64_t t_ns,
            std::uint64_t dur_ns);
  // A point event with optional free-text detail.
  void mark(std::string_view name, int cycle, std::string_view detail = {});

  std::uint64_t events() const noexcept;
  // Push buffered lines to the sink; false once any write to it failed
  // (a full disk surfaces here, not at open()).
  bool flush();

 private:
  void write_line(const std::string& line);

  std::unique_ptr<std::ostream> owned_;  // set when open() created the sink
  std::ostream* os_;
  mutable std::mutex mutex_;
  std::uint64_t events_ = 0;  // guarded by mutex_
};

// Process-wide trace sink; null when tracing is off. The caller that
// installs a sink owns it and must uninstall (set_trace(nullptr)) before
// destroying it — the runner/CLI do this with a scope guard.
TraceLog* trace() noexcept;
void set_trace(TraceLog* log) noexcept;

}  // namespace mum::obs
