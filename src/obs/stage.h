// Per-cycle stage attribution: which of the engine's phases a cycle's
// wall-clock went to (generate / ingest / spf / classify / report).
//
// The runner installs a StageTimings accumulator for the duration of one
// cycle via StageScope; instrumented blocks bracket themselves with
// StageSpan (or call add_stage_ns directly, as the IGP layer does for SPF
// work buried inside generation). The accumulator pointer is thread_local
// and set only on the campaign loop's thread, so at threads > 1 a span
// opened on a pool worker inside an inner fan-out (the per-AS SPF of a
// delta step, and of a snapshot's failure flaps) reaches the registry
// histogram and the trace but not the cycle's StageTimings. The manifest's
// `spf` stage then counts only the loop thread's share of SPF; take
// per-stage splits from --threads 1 runs. The `igp.reconverge_ns` and
// `igp.compute_ns` histograms stay all-thread totals.
//
// Stages may overlap: SPF reconvergence runs *inside* generation, so
// spf <= generate and the stage array does not sum to the cycle duration.
// The manifest documents the same convention.
//
// Every StageSpan also records into the registry histogram
// "run.stage.<name>_ns" and, when a trace sink is installed, emits a span
// event — so the same brackets feed the manifest, the registry, and the
// JSONL timeline.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace mum::obs {

enum class Stage : std::uint8_t {
  kGenerate = 0,  // synthetic month generation (probing, evolution)
  kIngest,        // chaos round-trip / shard decode / re-annotation
  kSpf,           // IGP (re)computation, wherever it runs (inside generate)
  kClassify,      // LPR pipeline: the month's one extraction fan-out
                  // (cycle chunks, census partitions, Persistence hash
                  // sets), then filter + group + classify
  kReport,        // checkpoint/report serialization and write-out
};
inline constexpr std::size_t kStageCount = 5;

const char* to_cstring(Stage stage) noexcept;

struct StageTimings {
  std::array<std::uint64_t, kStageCount> ns{};

  std::uint64_t operator[](Stage s) const noexcept {
    return ns[static_cast<std::size_t>(s)];
  }
  std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (const std::uint64_t v : ns) t += v;
    return t;
  }
};

// Attribute `dur` to stage `s` of the current thread's accumulator (no-op
// when none is installed — e.g. SPF during the initial internet build).
void add_stage_ns(Stage s, std::uint64_t dur) noexcept;

// Installs `timings` as this thread's accumulator; restores the previous
// one on destruction (scopes nest).
class StageScope {
 public:
  explicit StageScope(StageTimings* timings) noexcept;
  ~StageScope();

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  StageTimings* prev_;
};

// RAII bracket for one stage of one cycle: on destruction, attributes the
// elapsed wall-clock to the current accumulator, records it into the
// registry histogram for the stage, and emits a trace span when a sink is
// installed. `cycle` < 0 omits the cycle field in the trace event.
class StageSpan {
 public:
  explicit StageSpan(Stage stage, int cycle = -1) noexcept;
  ~StageSpan();

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  Stage stage_;
  int cycle_;
  std::uint64_t t0_;
};

}  // namespace mum::obs
