// Fig. 5 — Global deployment of MPLS in the dataset.
//
//  (a) per cycle, the proportion of traceroutes traversing at least one
//      explicit MPLS tunnel (before any filtering);
//  (b) per cycle, the number of unique IP addresses used in MPLS and not
//      used in MPLS.
//
// Paper shapes this bench must reproduce:
//  * significant increase over the five years;
//  * a ~10% bump in the tunnel-traversal share starting around cycle 29
//    (Level3's rollout) and a decrease at the end (its decline);
//  * MPLS IPs grow much faster than non-MPLS IPs (paper: +60% vs +21%);
//  * dips at cycles 23 and 58 from Archipelago measurement issues.
#include <iostream>

#include "common.h"
#include "core/extract.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace mum;

  run::Runner study(bench::default_study());
  std::cout << "Fig. 5 — global MPLS deployment, cycles 1-60\n\n";

  util::TextTable table({"cycle", "date", "traces", "w/ tunnel", "share",
                         "", "MPLS IPs", "non-MPLS IPs"});
  double first_share = 0, last_share = 0;
  std::uint64_t first_mpls = 0, last_mpls = 0;
  std::uint64_t first_plain = 0, last_plain = 0;

  for (int cycle = study.config().first_cycle;
       cycle <= study.config().last_cycle; ++cycle) {
    const dataset::MonthData month = study.month_data(cycle);
    const lpr::ExtractedSnapshot extracted =
        lpr::extract_lsps(month.cycle(), study.ip2as());
    const auto& s = extracted.stats;
    const double share =
        s.traces_total
            ? static_cast<double>(s.traces_with_explicit_tunnel) /
                  static_cast<double>(s.traces_total)
            : 0.0;
    table.add_row({std::to_string(cycle + 1), month.date,
                   util::TextTable::fmt_int(static_cast<std::int64_t>(
                       s.traces_total)),
                   util::TextTable::fmt_int(static_cast<std::int64_t>(
                       s.traces_with_explicit_tunnel)),
                   util::TextTable::fmt(share, 3), util::ascii_bar(share, 24),
                   util::TextTable::fmt_int(static_cast<std::int64_t>(
                       s.mpls_ips)),
                   util::TextTable::fmt_int(static_cast<std::int64_t>(
                       s.non_mpls_ips))});
    if (cycle == study.config().first_cycle) {
      first_share = share;
      first_mpls = s.mpls_ips;
      first_plain = s.non_mpls_ips;
    }
    if (cycle == study.config().last_cycle - 6) {  // before the L3 decline
      last_share = share;
      last_mpls = s.mpls_ips;
      last_plain = s.non_mpls_ips;
    }
  }
  std::cout << table << '\n';

  const double mpls_growth =
      first_mpls ? static_cast<double>(last_mpls) /
                       static_cast<double>(first_mpls) -
                       1.0
                 : 0.0;
  const double plain_growth =
      first_plain ? static_cast<double>(last_plain) /
                        static_cast<double>(first_plain) -
                        1.0
                  : 0.0;
  std::cout << "Summary (cycle 1 -> 54):\n"
            << "  tunnel-traversal share: " << util::TextTable::fmt(first_share, 3)
            << " -> " << util::TextTable::fmt(last_share, 3)
            << (last_share > first_share ? "  [increasing, as in the paper]"
                                         : "  [NOT increasing]")
            << '\n'
            << "  MPLS IP growth " << util::TextTable::fmt_pct(mpls_growth)
            << " vs non-MPLS IP growth "
            << util::TextTable::fmt_pct(plain_growth)
            << (mpls_growth > plain_growth
                    ? "  [MPLS grows faster, as in the paper]"
                    : "  [shape mismatch]")
            << '\n';
  return 0;
}
