// Runtime telemetry: low-overhead counters, gauges and log2 histograms
// behind a process-wide Registry that snapshots to JSON.
//
// Hot-path contract: metric updates are lock-free relaxed atomics on
// thread-local shards — no allocation, no mutex, no syscalls. Shards merge
// in index order when a value or snapshot is read, so reads are exact and
// deterministic (sums of u64 per shard, accumulated slot 0..N-1).
//
// Determinism contract (carried from the PR 1 parallel engine): telemetry
// is *observed* state, never an input. Nothing in the science pipeline may
// read a metric to make a decision, and wall-clock values appear only in
// manifest/telemetry artifacts — never in reports. Instrumentation is
// coarse-grained by design: one update per snapshot decoded, per SPF
// computation, per cycle classified — never per hop or per trace inside an
// inner loop. That keeps the always-on overhead of a full campaign under
// the 3% budget gated by scripts/bench.sh (see DESIGN.md Sec. 12).
//
// Metric names are dot-separated paths ("ingest.bytes", "igp.reconverge_ns").
// Call sites cache the reference once (registry lookup takes a mutex):
//
//   static obs::Counter& bytes = obs::registry().counter("ingest.bytes");
//   bytes.add(view.size());
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace mum::obs {

// Shards per metric. Threads map onto slots round-robin at first use;
// more threads than shards just share slots (updates stay atomic, merges
// stay exact). 16 slots × 64B keeps a Counter at one page-fraction.
inline constexpr std::size_t kShards = 16;

// This thread's shard slot, stable for the thread's lifetime.
std::size_t shard_index() noexcept;

// Small sequential id for this thread (0 = first thread to ask). Used by
// the trace log so JSONL events attribute to a readable thread id rather
// than an opaque pthread handle.
std::uint64_t thread_ordinal() noexcept;

// Monotonic nanoseconds since the first call in this process (steady
// clock). All span/trace timestamps share this origin.
std::uint64_t monotonic_ns() noexcept;

// Peak resident set size of this process in bytes (0 if unavailable).
std::uint64_t peak_rss_bytes() noexcept;
// Minor page faults this process has taken so far, all threads (0 if
// unavailable): first touches of fresh memory, for before/after deltas.
std::uint64_t minor_faults() noexcept;

// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n) noexcept {
    shards_[shard_index()].n.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }
  // Exact merged value: shard slots summed in index order.
  std::uint64_t value() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> n{0};
  };
  std::array<Shard, kShards> shards_{};
};

// Last-written (or max-tracked) point-in-time value. Unsharded: gauges are
// set rarely (end of run, end of cycle), never in inner loops.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  // Raise the gauge to v if v is larger (high-water marks).
  void max_of(std::int64_t v) noexcept;
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Fixed log2-bucket histogram: bucket 0 holds the value 0, bucket b >= 1
// holds [2^(b-1), 2^b). 65 buckets cover the full u64 range, so recording
// never allocates, branches on range, or saturates.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t v) noexcept {
    Shard& s = shards_[shard_index()];
    s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  // Exact merged view: shard slots accumulated in index order.
  Snapshot snapshot() const noexcept;
  void reset() noexcept;

  // Bucket index a value lands in (std::bit_width).
  static std::size_t bucket_of(std::uint64_t v) noexcept;
  // Smallest value of bucket b (0 for b = 0, else 2^(b-1)).
  static std::uint64_t bucket_min(std::size_t b) noexcept;
  // Largest value of bucket b (0 for b = 0, else 2^b - 1).
  static std::uint64_t bucket_max(std::size_t b) noexcept;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, kShards> shards_{};
};

// Named metric families. Lookup is mutex-guarded and returns a reference
// that stays valid for the registry's lifetime (metrics are never removed;
// reset() zeroes values in place, so cached references survive it).
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Zero every metric in place. References handed out remain valid.
  void reset();

  // Full snapshot as a JSON object, names sorted:
  // {"counters":{...},"gauges":{...},
  //  "histograms":{name:{"count":n,"sum":s,"avg":a,
  //                      "buckets":[{"min":lo,"max":hi,"n":k},...]}}}
  // Only non-zero counters/buckets are emitted so the artifact stays
  // readable; count/sum always appear for histograms that were touched.
  std::string to_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// The process-wide registry every subsystem reports into.
Registry& registry();

// RAII wall-clock timer recording elapsed nanoseconds into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h) noexcept
      : h_(&h), t0_(monotonic_ns()) {}
  ~ScopedTimer() { h_->record(monotonic_ns() - t0_); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::uint64_t t0_;
};

}  // namespace mum::obs
