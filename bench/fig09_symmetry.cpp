// Fig. 9 — IOTP symmetry distribution (cycle 60), Mono-FEC vs Multi-FEC.
//
// Symmetry = length(longest branch) - length(shortest branch); 0 means the
// IOTP is balanced. Paper shape: ~80% of IOTPs balanced in BOTH classes —
// ECMP paths tend to have equal hop counts, and Multi-FEC LSPs mostly ride
// the very same IP path (differing only in labels).
#include <iostream>

#include "common.h"
#include "core/metrics.h"
#include "util/table.h"

int main() {
  using namespace mum;

  run::Runner study(bench::default_study());
  const int cycle = gen::cycle_of(2014, 12);
  std::cout << "Fig. 9 — IOTP symmetry distribution, cycle " << cycle + 1
            << " (" << gen::cycle_date(cycle) << ")\n\n";

  const lpr::CycleReport report = study.run_cycle(cycle);
  const auto mono =
      lpr::symmetry_distribution(report.iotps, lpr::TunnelClass::kMonoFec);
  const auto multi =
      lpr::symmetry_distribution(report.iotps, lpr::TunnelClass::kMultiFec);

  util::TextTable table({"symmetry", "Mono-FEC pdf", "Multi-FEC pdf"});
  const std::int64_t max_key = std::max(mono.max_key(), multi.max_key());
  for (std::int64_t s = 0; s <= std::max<std::int64_t>(max_key, 4); ++s) {
    table.add_row({std::to_string(s), util::TextTable::fmt(mono.pdf(s), 3),
                   util::TextTable::fmt(multi.pdf(s), 3)});
  }
  std::cout << table << '\n';

  const double balanced_mono =
      lpr::balanced_share(report.iotps, lpr::TunnelClass::kMonoFec);
  const double balanced_multi =
      lpr::balanced_share(report.iotps, lpr::TunnelClass::kMultiFec);
  std::cout << "balanced share: Mono-FEC "
            << util::TextTable::fmt(balanced_mono, 3) << ", Multi-FEC "
            << util::TextTable::fmt(balanced_multi, 3)
            << "  (paper: ~0.80 for both)\n";
  const bool ok = balanced_mono > 0.7 && balanced_multi > 0.7;
  std::cout << (ok ? "[mostly balanced in both classes, as in the paper]"
                   : "[balance shape mismatch]")
            << '\n';
  return 0;
}
