// Table 2 — Statistics about IP addresses for the case-study ASes: per
// year (2010..2014), min / max / average number of addresses observed,
// split into MPLS (seen inside a labeled run) and non-MPLS.
//
// Paper shapes this bench must reproduce (relative, at simulator scale):
//  * AT&T by far the largest address footprint, Level3 second, Vodafone the
//    smallest;
//  * Vodafone & NTT: MPLS IP counts grow over the years;
//  * Tata: MPLS IP counts decline;
//  * Level3: (near) zero MPLS IPs in 2010-2011, a jump in 2012, a healthy
//    plateau, and a 2014 minimum near zero (the post-decline December).
#include <iostream>
#include <map>

#include "common.h"
#include "core/extract.h"
#include "gen/profiles.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace mum;

  run::Runner study(bench::default_study());
  std::cout << "Table 2 — per-AS, per-year IP address statistics\n"
            << "(generating 60 monthly campaigns...)\n\n";

  const std::vector<std::pair<std::uint32_t, const char*>> ases = {
      {gen::kAsnVodafone, "AS1273 (Vodafone)"},
      {gen::kAsnAtt, "AS7018 (AT&T)"},
      {gen::kAsnTata, "AS6453 (Tata)"},
      {gen::kAsnNtt, "AS2914 (NTT)"},
      {gen::kAsnLevel3, "AS3356 (Level3)"},
  };

  // stats[asn][year] -> (mpls, non-mpls) trackers.
  std::map<std::uint32_t, std::map<int, util::MinMaxAvg>> mpls_stats;
  std::map<std::uint32_t, std::map<int, util::MinMaxAvg>> plain_stats;

  for (int cycle = 0; cycle < gen::kCycles; ++cycle) {
    const int year = gen::kFirstYear + cycle / 12;
    const dataset::MonthData month = study.month_data(cycle);
    const auto census = lpr::census_by_as(month.cycle());
    for (const auto& [asn, name] : ases) {
      const auto it = census.find(asn);
      const double mpls =
          it == census.end() ? 0.0 : static_cast<double>(it->second.mpls_ips);
      const double plain = it == census.end()
                               ? 0.0
                               : static_cast<double>(it->second.non_mpls_ips);
      mpls_stats[asn][year].add(mpls);
      plain_stats[asn][year].add(plain);
    }
  }

  for (const auto& [asn, name] : ases) {
    std::cout << name << '\n';
    util::TextTable table({"year", "non-MPLS min", "max", "avg", "MPLS min",
                           "max", "avg"});
    for (int year = 2010; year <= 2014; ++year) {
      const auto& m = mpls_stats[asn][year];
      const auto& p = plain_stats[asn][year];
      table.add_row({std::to_string(year),
                     util::TextTable::fmt(p.min(), 0),
                     util::TextTable::fmt(p.max(), 0),
                     util::TextTable::fmt(p.avg(), 0),
                     util::TextTable::fmt(m.min(), 0),
                     util::TextTable::fmt(m.max(), 0),
                     util::TextTable::fmt(m.avg(), 0)});
    }
    std::cout << table << '\n';
  }

  // Shape checks.
  auto avg = [&](std::uint32_t asn, int year) {
    return mpls_stats[asn][year].avg();
  };
  auto ok = [](bool b, const char* what) {
    std::cout << (b ? "[ok] " : "[MISMATCH] ") << what << '\n';
  };
  ok(plain_stats[gen::kAsnAtt][2014].avg() >
         plain_stats[gen::kAsnTata][2014].avg(),
     "AT&T address footprint larger than Tata's");
  ok(avg(gen::kAsnNtt, 2014) > avg(gen::kAsnNtt, 2010),
     "NTT MPLS IPs grow 2010 -> 2014");
  ok(avg(gen::kAsnTata, 2014) < avg(gen::kAsnTata, 2010),
     "Tata MPLS IPs decline 2010 -> 2014");
  ok(avg(gen::kAsnLevel3, 2011) < 1.0 && avg(gen::kAsnLevel3, 2013) > 10.0,
     "Level3 MPLS IPs: none in 2011, plateau by 2013");
  ok(mpls_stats[gen::kAsnLevel3][2014].min() <
         0.25 * mpls_stats[gen::kAsnLevel3][2014].avg(),
     "Level3 2014 minimum far below its average (post-decline December)");
  return 0;
}
