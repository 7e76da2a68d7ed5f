#include "common.h"

#include <ostream>

#include "gen/profiles.h"
#include "util/stats.h"
#include "util/table.h"

namespace mum::bench {

run::RunnerConfig default_study() {
  run::RunnerConfig config;
  // Defaults in RunnerConfig (and the GenConfig/CampaignConfig/
  // PipelineConfig it holds) are the paper configuration (j = 2, full
  // fleet, one thread per hardware thread); nothing to override here. Kept
  // as a function so ablation benches can start from the canonical point.
  return config;
}

std::string class_shares_line(const lpr::ClassCounts& counts) {
  const double total = static_cast<double>(counts.total());
  auto share = [&](std::uint64_t n) {
    return util::TextTable::fmt(total > 0 ? n / total : 0.0, 3);
  };
  return "Mono-LSP " + share(counts.mono_lsp) + "  Multi-FEC " +
         share(counts.multi_fec) + "  Mono-FEC " + share(counts.mono_fec) +
         "  Unclass. " + share(counts.unclassified);
}

void print_pdf(std::ostream& os, const util::Histogram& hist,
               const std::string& key_header, std::int64_t clamp_at) {
  util::TextTable table({key_header, "pdf", ""});
  for (const auto& [key, p] : hist.pdf_rows(clamp_at)) {
    std::string label = std::to_string(key);
    if (clamp_at >= 0 && key == clamp_at && hist.max_key() > clamp_at) {
      label = ">= " + label;
    }
    table.add_row({label, util::TextTable::fmt(p, 3),
                   util::ascii_bar(p, 36)});
  }
  os << table;
}

void print_as_series(std::ostream& os, const lpr::LongitudinalReport& report,
                     std::uint32_t asn) {
  util::TextTable table({"cycle", "date", "IOTPs", "Mono-LSP", "Multi-FEC",
                         "Mono-FEC", "Unclass.", "dyn"});
  for (const auto& point : report.as_series(asn)) {
    const auto& c = point.counts;
    const double total = static_cast<double>(c.total());
    auto pct = [&](std::uint64_t n) {
      return total > 0 ? util::TextTable::fmt(n / total, 2) : std::string("-");
    };
    table.add_row({std::to_string(point.cycle_id + 1),  // paper is 1-based
                   gen::cycle_date(static_cast<int>(point.cycle_id)),
                   util::TextTable::fmt_int(static_cast<std::int64_t>(
                       c.total())),
                   pct(c.mono_lsp), pct(c.multi_fec), pct(c.mono_fec),
                   pct(c.unclassified), point.dynamic_tag ? "*" : ""});
  }
  os << table;
}

}  // namespace mum::bench
