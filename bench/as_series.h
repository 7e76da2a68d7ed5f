// Shared driver for the per-AS longitudinal benches (Figs. 10-15): run the
// 60-cycle study, print the two-pane series for one AS (class shares +
// IOTP counts per cycle), then run the figure-specific shape checks.
#pragma once

#include <functional>
#include <iostream>
#include <string>

#include "common.h"
#include "util/table.h"

namespace mum::bench {

inline int run_as_series_bench(
    const std::string& title, std::uint32_t asn,
    const std::function<void(const lpr::LongitudinalReport&)>& checks) {
  run::Runner study(default_study());
  std::cout << title << "\n(running the 60-cycle study...)\n\n";
  const run::RunOutcome outcome = study.run_all_contained();
  if (!outcome.manifest.complete()) {
    std::cerr << "study incomplete: a cycle failed\n";
    return 1;
  }
  const lpr::LongitudinalReport& report = outcome.report;
  std::cout << '\n';
  print_as_series(std::cout, report, asn);
  std::cout << '\n';
  checks(report);
  return 0;
}

// Average share of one class over a cycle range (inclusive, 0-based),
// counting only cycles where the AS had IOTPs.
inline double avg_share(const lpr::LongitudinalReport& report,
                        std::uint32_t asn, int from, int to,
                        std::uint64_t lpr::ClassCounts::* member) {
  double sum = 0;
  int n = 0;
  for (const auto& point : report.as_series(asn)) {
    const int cycle = static_cast<int>(point.cycle_id);
    if (cycle < from || cycle > to || point.counts.total() == 0) continue;
    sum += static_cast<double>(point.counts.*member) /
           static_cast<double>(point.counts.total());
    ++n;
  }
  return n ? sum / n : 0.0;
}

// Average IOTP count over a cycle range.
inline double avg_iotps(const lpr::LongitudinalReport& report,
                        std::uint32_t asn, int from, int to) {
  double sum = 0;
  int n = 0;
  for (const auto& point : report.as_series(asn)) {
    const int cycle = static_cast<int>(point.cycle_id);
    if (cycle < from || cycle > to) continue;
    sum += static_cast<double>(point.counts.total());
    ++n;
  }
  return n ? sum / n : 0.0;
}

inline void check(bool ok, const std::string& what) {
  std::cout << (ok ? "[ok] " : "[MISMATCH] ") << what << '\n';
}

}  // namespace mum::bench
