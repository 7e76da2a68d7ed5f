#include "obs/telemetry.h"

#include <bit>
#include <chrono>

#include "util/json.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace mum::obs {

namespace {

std::uint64_t next_thread_ordinal() noexcept {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::uint64_t thread_ordinal() noexcept {
  thread_local const std::uint64_t ordinal = next_thread_ordinal();
  return ordinal;
}

std::size_t shard_index() noexcept {
  thread_local const std::size_t slot =
      static_cast<std::size_t>(thread_ordinal()) % kShards;
  return slot;
}

std::uint64_t monotonic_ns() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           origin)
          .count());
}

std::uint64_t peak_rss_bytes() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // already bytes
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // kilobytes
#endif
#else
  return 0;
#endif
}

std::uint64_t minor_faults() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_minflt);
#else
  return 0;
#endif
}

// --- Counter -----------------------------------------------------------

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.n.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() noexcept {
  for (Shard& s : shards_) s.n.store(0, std::memory_order_relaxed);
}

// --- Gauge -------------------------------------------------------------

void Gauge::max_of(std::int64_t v) noexcept {
  std::int64_t cur = v_.load(std::memory_order_relaxed);
  while (v > cur &&
         !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// --- Histogram ---------------------------------------------------------

std::size_t Histogram::bucket_of(std::uint64_t v) noexcept {
  return static_cast<std::size_t>(std::bit_width(v));
}

std::uint64_t Histogram::bucket_min(std::size_t b) noexcept {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}

std::uint64_t Histogram::bucket_max(std::size_t b) noexcept {
  if (b == 0) return 0;
  if (b >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << b) - 1;
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot out;
  for (const Shard& s : shards_) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
  }
}

// --- Registry ----------------------------------------------------------

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string Registry::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  util::JsonWriter json;
  json.begin_object();

  json.key("counters");
  json.begin_object();
  for (const auto& [name, c] : counters_) {
    const std::uint64_t v = c->value();
    if (v != 0) json.field(name, v);
  }
  json.end_object();

  json.key("gauges");
  json.begin_object();
  for (const auto& [name, g] : gauges_) {
    const std::int64_t v = g->value();
    if (v != 0) json.field(name, static_cast<std::int64_t>(v));
  }
  json.end_object();

  json.key("histograms");
  json.begin_object();
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot snap = h->snapshot();
    if (snap.count == 0) continue;
    json.key(name);
    json.begin_object();
    json.field("count", snap.count);
    json.field("sum", snap.sum);
    json.field("avg", static_cast<double>(snap.sum) /
                          static_cast<double>(snap.count));
    json.key("buckets");
    json.begin_array();
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (snap.buckets[b] == 0) continue;
      json.begin_object();
      json.field("min", Histogram::bucket_min(b));
      json.field("max", Histogram::bucket_max(b));
      json.field("n", snap.buckets[b]);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_object();

  json.end_object();
  return json.str();
}

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace mum::obs
