// Shared harness for the paper-reproduction benches. The heavy lifting
// (internet construction, month generation, the LPR pipeline, longitudinal
// sweeps) lives in the library-level Runner API (run/runner.h); this header
// adds the standard study configuration and the table/series printers the
// fig*/table* binaries share.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "run/runner.h"
#include "util/stats.h"

namespace mum::bench {

// The standard configuration all paper benches share (the "dataset" of this
// reproduction). Deterministic: same seed => same numbers, at any thread
// count.
run::RunnerConfig default_study();

// --- printers -----------------------------------------------------------

// "Mono-LSP 0.56  Multi-FEC 0.20 ..." share line for one ClassCounts.
std::string class_shares_line(const lpr::ClassCounts& counts);

// Render an integer-keyed PDF as rows "key  pdf  bar".
void print_pdf(std::ostream& os, const util::Histogram& hist,
               const std::string& key_header, std::int64_t clamp_at = -1);

// The standard two-pane per-AS longitudinal rendering of Figs. 10-15:
// per cycle, class shares (upper pane) + IOTP count (lower pane).
void print_as_series(std::ostream& os, const lpr::LongitudinalReport& report,
                     std::uint32_t asn);

}  // namespace mum::bench
