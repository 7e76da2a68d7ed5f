// Fig. 7 — IOTP length distribution (cycle 60).
//
// Length = number of intermediate LSRs in the longest LSP of the IOTP
// (LERs excluded). Paper shape: most tunnels short — > 65% have <= 3 LSRs —
// with a thin tail of longer tunnels, related to the short diameter of
// most ASes.
#include <iostream>

#include "common.h"
#include "core/metrics.h"
#include "util/table.h"

int main() {
  using namespace mum;

  run::Runner study(bench::default_study());
  const int cycle = gen::cycle_of(2014, 12);  // cycle 60
  std::cout << "Fig. 7 — IOTP length distribution, cycle " << cycle + 1
            << " (" << gen::cycle_date(cycle) << ")\n\n";

  const lpr::CycleReport report = study.run_cycle(cycle);
  const auto lengths = lpr::length_distribution(report.iotps);
  bench::print_pdf(std::cout, lengths, "length");

  const double short_share = lengths.cdf(3);
  std::cout << '\n'
            << report.iotps.size() << " IOTPs; share with length <= 3: "
            << util::TextTable::fmt(short_share, 3)
            << (short_share > 0.65
                    ? "  [> 65%, as in the paper]"
                    : "  [below the paper's 65% threshold]")
            << "\nmax length: " << lengths.max_key() << '\n';
  return 0;
}
