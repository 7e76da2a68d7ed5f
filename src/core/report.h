// Report layer: the end-to-end LPR pipeline (extract -> filter -> group ->
// classify) applied per cycle, with per-AS breakdowns and longitudinal
// aggregation — the data behind Figs. 6, 10-16 and Tables 1-2.
//
// Every report type implements the Report interface: `to_table` renders the
// fixed-width text form for terminals, `to_json` the machine-readable form
// for external plotting.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
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

// Uniform rendering interface for all report types.
class Report {
 public:
  virtual ~Report() = default;
  virtual void to_table(std::ostream& os) const = 0;
  virtual std::string to_json() const = 0;
};

// Render one ClassCounts as the standard class table (text or CSV) — the
// shared body of every report's table form.
void write_class_table(std::ostream& os, const ClassCounts& counts,
                       bool csv = false);

// Classification of one cycle, with per-AS detail.
struct CycleReport : Report {
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
  void to_table(std::ostream& os) const override;
  std::string to_json() const override { return to_json(false); }
  std::string to_json(bool include_iotps) const;
};

struct PipelineConfig {
  FilterConfig filter;
  ClassifyConfig classify;
};

// Run the full LPR pipeline on one month of data (cycle snapshot + the
// following snapshots used by Persistence). With a pool, the month's
// extraction is one fan-out (extract_month) and classification is sharded;
// output is identical to the serial run.
CycleReport run_pipeline(const dataset::MonthData& month,
                         const dataset::Ip2As& ip2as,
                         const PipelineConfig& config = {},
                         util::ThreadPool* pool = nullptr);

// Same, starting from an extracted cycle snapshot and the following
// snapshots' persistence sets (lets callers extract once and sweep filter
// configurations, as the Fig. 6 bench does). The snapshot is consumed, as
// by apply_filters.
CycleReport run_pipeline(ExtractedSnapshot cycle,
                         std::span<const PersistenceSet> following,
                         const PipelineConfig& config = {},
                         util::ThreadPool* pool = nullptr);

// Longitudinal container: one report per cycle.
struct LongitudinalReport : Report {
  std::vector<CycleReport> cycles;

  // PDF of a class for one AS across cycles (the upper panes of Figs 10-15).
  struct AsSeriesPoint {
    std::uint32_t cycle_id = 0;
    ClassCounts counts;
    bool dynamic_tag = false;
  };
  std::vector<AsSeriesPoint> as_series(std::uint32_t asn) const;

  // One row per cycle: date, IOTP count, global class shares.
  void to_table(std::ostream& os) const override;
  std::string to_json() const override;
};

}  // namespace mum::lpr
