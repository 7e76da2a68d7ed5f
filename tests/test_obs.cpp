// Telemetry layer contracts: sharded metrics merge exactly under thread
// contention, histogram bucket edges follow the log2 rule, the JSONL trace
// stays well-formed when many threads emit, stage spans attribute to the
// installed accumulator — and, the load-bearing one, telemetry being on or
// off never changes a report byte at any thread count.
#include "obs/log.h"
#include "obs/stage.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "run/runner.h"
#include "util/thread_pool.h"

namespace mum {
namespace {

gen::GenConfig small_config() {
  gen::GenConfig c;
  c.background_tier1 = 1;
  c.background_transit = 6;
  c.stub_ases = 8;
  c.monitors = 4;
  c.dests_per_monitor = 60;
  return c;
}

// --- Counter / Gauge ---------------------------------------------------------

TEST(Counter, ShardMergeIsExactUnderContention) {
  obs::Counter counter;
  util::ThreadPool pool(8);
  constexpr std::size_t kN = 100000;
  pool.for_each_index(kN, [&](std::size_t i) { counter.add(i % 7 + 1); });
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kN; ++i) expected += i % 7 + 1;
  EXPECT_EQ(counter.value(), expected);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Counter, ValueIsStableAcrossRepeatedReads) {
  obs::Counter counter;
  counter.add(41);
  counter.inc();
  EXPECT_EQ(counter.value(), 42u);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Gauge, SetAndHighWaterMark) {
  obs::Gauge gauge;
  gauge.set(10);
  EXPECT_EQ(gauge.value(), 10);
  gauge.max_of(5);
  EXPECT_EQ(gauge.value(), 10);
  gauge.max_of(25);
  EXPECT_EQ(gauge.value(), 25);
  gauge.set(-3);
  EXPECT_EQ(gauge.value(), -3);
}

// --- Histogram ---------------------------------------------------------------

TEST(Histogram, BucketEdgesFollowLog2Rule) {
  // Bucket 0 = {0}; bucket b >= 1 = [2^(b-1), 2^b).
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(~std::uint64_t{0}),
            obs::Histogram::kBuckets - 1);
  for (std::size_t b = 1; b < obs::Histogram::kBuckets; ++b) {
    const std::uint64_t lo = obs::Histogram::bucket_min(b);
    const std::uint64_t hi = obs::Histogram::bucket_max(b);
    EXPECT_EQ(obs::Histogram::bucket_of(lo), b) << "bucket " << b;
    EXPECT_EQ(obs::Histogram::bucket_of(hi), b) << "bucket " << b;
    if (b + 1 < obs::Histogram::kBuckets) {
      EXPECT_EQ(hi + 1, obs::Histogram::bucket_min(b + 1));
    }
  }
  EXPECT_EQ(obs::Histogram::bucket_min(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_max(0), 0u);
}

TEST(Histogram, RecordLandsInTheRightBucket) {
  obs::Histogram h;
  h.record(0);
  h.record(1);
  h.record(7);  // bucket 3: [4, 8)
  h.record(8);  // bucket 4: [8, 16)
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 16u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.buckets[4], 1u);
}

TEST(Histogram, ConcurrentRecordTotalsAreExact) {
  obs::Histogram h;
  util::ThreadPool pool(8);
  constexpr std::size_t kN = 50000;
  pool.for_each_index(kN, [&](std::size_t i) { h.record(i); });
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, kN);
  EXPECT_EQ(snap.sum, kN * (kN - 1) / 2);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t n : snap.buckets) bucketed += n;
  EXPECT_EQ(bucketed, kN);
}

// --- Registry ----------------------------------------------------------------

TEST(Registry, ReferencesSurviveResetAndJsonListsMetrics) {
  obs::Registry& r = obs::registry();
  obs::Counter& c = r.counter("test_obs.counter");
  obs::Gauge& g = r.gauge("test_obs.gauge");
  obs::Histogram& h = r.histogram("test_obs.hist");
  c.add(3);
  g.set(7);
  h.record(100);

  // Same name returns the same metric.
  EXPECT_EQ(&c, &r.counter("test_obs.counter"));

  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"test_obs.counter\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test_obs.gauge\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test_obs.hist\""), std::string::npos) << json;

  r.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.snapshot().count, 0u);
  c.inc();  // the cached reference still works after reset
  EXPECT_EQ(r.counter("test_obs.counter").value(), 1u);
  r.reset();
}

// --- TraceLog ----------------------------------------------------------------

TEST(TraceLog, LinesAreWellFormedUnderConcurrentEmission) {
  std::ostringstream sink;
  obs::TraceLog log(sink);
  util::ThreadPool pool(8);
  constexpr std::size_t kN = 500;
  pool.for_each_index(kN, [&](std::size_t i) {
    if (i % 2 == 0) {
      log.span("phase", static_cast<int>(i % 5), i, i + 1);
    } else {
      log.mark("event", -1, "detail with \"quotes\" and \\ and \nnewline");
    }
  });

  std::istringstream lines(sink.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    ASSERT_FALSE(line.empty());
    // One complete JSON object per line, escapes intact (a raw newline or
    // quote inside a string would break the line framing checked here).
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"ev\":"), std::string::npos);
  }
  EXPECT_EQ(count, kN + 1);  // every event plus the meta line
  EXPECT_EQ(log.events(), kN + 1);
  EXPECT_NE(sink.str().find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(sink.str().find("\\n"), std::string::npos);
}

TEST(TraceLog, GlobalSinkInstallAndUninstall) {
  EXPECT_EQ(obs::trace(), nullptr);
  std::ostringstream sink;
  {
    obs::TraceLog log(sink);
    obs::set_trace(&log);
    EXPECT_EQ(obs::trace(), &log);
    obs::set_trace(nullptr);
  }
  EXPECT_EQ(obs::trace(), nullptr);
}

// --- Stage attribution -------------------------------------------------------

TEST(Stage, SpanAttributesToInstalledAccumulator) {
  obs::StageTimings timings;
  {
    const obs::StageScope scope(&timings);
    {
      const obs::StageSpan span(obs::Stage::kGenerate, 0);
      // Burn until the clock visibly advances so the span is nonzero.
      const std::uint64_t start = obs::monotonic_ns();
      while (obs::monotonic_ns() == start) {
      }
    }
    { const obs::StageSpan span(obs::Stage::kClassify, 0); }
  }
  EXPECT_GT(timings[obs::Stage::kGenerate], 0u);
  EXPECT_EQ(timings[obs::Stage::kIngest], 0u);
  EXPECT_EQ(timings.total(),
            timings[obs::Stage::kGenerate] + timings[obs::Stage::kSpf] +
                timings[obs::Stage::kClassify]);
}

TEST(Stage, ScopesNestAndRestore) {
  obs::StageTimings outer;
  obs::StageTimings inner;
  {
    const obs::StageScope outer_scope(&outer);
    {
      const obs::StageScope inner_scope(&inner);
      obs::add_stage_ns(obs::Stage::kSpf, 5);
    }
    obs::add_stage_ns(obs::Stage::kSpf, 7);
  }
  obs::add_stage_ns(obs::Stage::kSpf, 11);  // no accumulator: dropped
  EXPECT_EQ(inner[obs::Stage::kSpf], 5u);
  EXPECT_EQ(outer[obs::Stage::kSpf], 7u);
}

TEST(Stage, NamesCoverAllStages) {
  std::set<std::string> names;
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    names.insert(obs::to_cstring(static_cast<obs::Stage>(s)));
  }
  EXPECT_EQ(names.size(), obs::kStageCount);
  EXPECT_TRUE(names.count("generate"));
  EXPECT_TRUE(names.count("spf"));
}

// --- Clocks / process metrics ------------------------------------------------

TEST(Clock, MonotonicAndOrdinalsBehave) {
  const std::uint64_t a = obs::monotonic_ns();
  const std::uint64_t b = obs::monotonic_ns();
  EXPECT_LE(a, b);
  EXPECT_EQ(obs::thread_ordinal(), obs::thread_ordinal());
  std::uint64_t other = obs::thread_ordinal();
  std::thread([&] { other = obs::thread_ordinal(); }).join();
  EXPECT_NE(other, obs::thread_ordinal());
  EXPECT_GT(obs::peak_rss_bytes(), 0u);
}

// --- The determinism contract ------------------------------------------------

run::RunnerConfig study_config(int threads) {
  run::RunnerConfig config;
  config.gen = small_config();
  config.first_cycle = 50;
  config.last_cycle = 52;
  config.threads = threads;
  return config;
}

TEST(Determinism, ReportBytesIdenticalWithTelemetryOnOrOff) {
  obs::registry().reset();
  const auto off = run::Runner(study_config(1)).run_all_contained();

  std::ostringstream trace_sink;
  std::ostringstream log_sink;
  std::string on_json;
  {
    obs::TraceLog trace(trace_sink);
    obs::set_trace(&trace);
    obs::set_log_sink(&log_sink);
    obs::set_log_level(obs::LogLevel::kDebug);
    obs::registry().reset();
    const auto on = run::Runner(study_config(1)).run_all_contained();
    obs::set_log_sink(nullptr);
    obs::set_log_level(obs::LogLevel::kInfo);
    obs::set_trace(nullptr);
    on_json = on.report.to_json();
  }
  EXPECT_EQ(off.report.to_json(), on_json);
  EXPECT_GT(trace_sink.str().size(), 0u);   // the trace actually recorded
  EXPECT_NE(log_sink.str().find("cycle"), std::string::npos);
  obs::set_log_sink(&std::cerr);
}

TEST(Determinism, ReportBytesIdenticalAcrossThreadCountsWithTelemetryOn) {
  std::ostringstream trace_sink;
  obs::TraceLog trace(trace_sink);
  obs::set_trace(&trace);
  const auto serial = run::Runner(study_config(1)).run_all_contained();
  const auto parallel = run::Runner(study_config(4)).run_all_contained();
  obs::set_trace(nullptr);
  EXPECT_EQ(serial.report.to_json(), parallel.report.to_json());
}

TEST(Manifest, RecordsTimingAndPeakRss) {
  const auto outcome = run::Runner(study_config(2)).run_all_contained();
  ASSERT_EQ(outcome.manifest.cycles.size(), 3u);
  for (const run::CycleStatus& status : outcome.manifest.cycles) {
    EXPECT_GT(status.duration_ns, 0u);
    EXPECT_GT(status.stages[obs::Stage::kGenerate], 0u);
    EXPECT_GT(status.stages[obs::Stage::kClassify], 0u);
    EXPECT_LE(status.stages[obs::Stage::kSpf], status.duration_ns);
  }
  EXPECT_GT(outcome.manifest.wall_ns, 0u);
  EXPECT_GT(outcome.manifest.peak_rss_bytes, 0u);

  const std::string json = outcome.manifest.to_json();
  EXPECT_NE(json.find("\"wall_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss_bytes\":"), std::string::npos);
  // Minor faults over the cycle loop are observed state like peak RSS: in
  // the manifest, never in the report.
  EXPECT_NE(json.find("\"minor_faults\":"), std::string::npos);
  EXPECT_EQ(outcome.report.to_json().find("minor_faults"), std::string::npos);
  EXPECT_NE(json.find("\"duration_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"generate_ns\":"), std::string::npos);
}

// --- Leveled log -------------------------------------------------------------

TEST(Log, LevelsGateAndSinkRedirects) {
  std::ostringstream sink;
  obs::set_log_sink(&sink);
  obs::set_log_level(obs::LogLevel::kInfo);
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kInfo));
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kDebug));
  obs::log_info("visible");
  obs::log_debug("hidden");
  obs::set_log_level(obs::LogLevel::kSilent);
  obs::log_info("also hidden");
  obs::set_log_level(obs::LogLevel::kInfo);
  obs::set_log_sink(&std::cerr);

  EXPECT_EQ(sink.str(), "visible\n");
}

}  // namespace
}  // namespace mum
