// Report layer: the end-to-end LPR pipeline applied per cycle, with per-AS
// breakdowns and longitudinal aggregation — the data behind Figs. 6, 10-16
// and Tables 1-2.
//
// The back end is one chain of three stages, each taking the previous
// stage's output: extract_month (extract.h) -> apply_filters (filters.h) ->
// classify_cycle (here). Views of the filtered cycle (router-level IOTPs,
// a filter sweep) edit FilteredCycle::observations or re-run apply_filters,
// then call the same classify_cycle. Both report types render as
// `to_table` (fixed-width text for terminals) and `to_json` (the
// machine-readable form for external plotting).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/classify.h"
#include "core/extract.h"
#include "core/filters.h"
#include "dataset/decode.h"
#include "dataset/ip2as.h"
#include "dataset/trace_batch.h"
#include "util/thread_pool.h"

namespace mum::lpr {

// Render one ClassCounts as the standard class table (text or CSV) — the
// shared body of every report's table form.
void write_class_table(std::ostream& os, const ClassCounts& counts,
                       bool csv = false);

// Classification of one cycle, with per-AS detail.
struct CycleReport {
  std::uint32_t cycle_id = 0;
  std::string date;
  ExtractStats extract_stats;
  FilterStats filter_stats;
  ClassCounts global;
  std::map<std::uint32_t, ClassCounts> per_as;   // keyed by ASN
  std::map<std::uint32_t, bool> dynamic_as;      // Persistence reinjection tag
  std::vector<IotpRecord> iotps;                 // classified records
  // Ingest health: what the decoder salvaged vs skipped for this cycle's
  // snapshots (empty/clean when the data never went through tolerant decode).
  dataset::DecodeDiagnostics decode;

  // Convenience: counts for one AS (zeroes when absent).
  ClassCounts as_counts(std::uint32_t asn) const;

  // Summary line + global class table + per-AS table.
  void to_table(std::ostream& os) const;
  std::string to_json(bool include_iotps = false) const;
};

struct PipelineConfig {
  FilterConfig filter;
  ClassifyConfig classify;
};

// The last stage and the only report tail: group the survivors into
// IOTPs, classify them (over `pool` when given; identical to the serial
// run), tally per AS, tag the dynamic ASes, and bump the lpr.* counters.
CycleReport classify_cycle(FilteredCycle cycle, const ClassifyConfig& config,
                           util::ThreadPool* pool = nullptr);

// The whole chain on one month of data (cycle snapshot + the following
// snapshots used by Persistence): classify_cycle(apply_filters(
// extract_month(month))). With a pool, the month's extraction is one
// fan-out and classification runs over the pool.
CycleReport run_pipeline(const dataset::MonthData& month,
                         const dataset::Ip2As& ip2as,
                         const PipelineConfig& config = {},
                         util::ThreadPool* pool = nullptr);

// Longitudinal container: one report per cycle.
struct LongitudinalReport {
  std::vector<CycleReport> cycles;

  // PDF of a class for one AS across cycles (the upper panes of Figs 10-15).
  struct AsSeriesPoint {
    std::uint32_t cycle_id = 0;
    ClassCounts counts;
    bool dynamic_tag = false;
  };
  std::vector<AsSeriesPoint> as_series(std::uint32_t asn) const;

  // One row per cycle: date, IOTP count, global class shares.
  void to_table(std::ostream& os) const;
  std::string to_json() const;
};

}  // namespace mum::lpr
