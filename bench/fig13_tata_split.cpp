// Fig. 13 — Split between "Routers Disjoint" and "Parallel Links" within
// the Mono-FEC class of AS6453 (Tata Communications), cycles 1-60.
//
// Paper shape: over time Tata's Mono-FEC tunnels rest mostly on parallel
// links — between 60 and 70% of the Mono-FEC IOTPs fall in the Parallel
// Links subclass.
#include <iostream>

#include "common.h"
#include "gen/profiles.h"
#include "util/table.h"

int main() {
  using namespace mum;

  run::Runner study(bench::default_study());
  std::cout << "Fig. 13 — AS6453 Mono-FEC sub-split (Parallel Links vs "
               "Routers Disjoint)\n(running the 60-cycle study...)\n\n";
  const run::RunOutcome outcome = study.run_all_contained();
  if (!outcome.manifest.complete()) {
    std::cerr << "study incomplete: a cycle failed\n";
    return 1;
  }
  const lpr::LongitudinalReport& report = outcome.report;
  std::cout << '\n';

  util::TextTable table({"cycle", "date", "Mono-FEC", "parallel", "disjoint",
                         "parallel share", ""});
  double parallel_sum = 0;
  int n_cycles = 0;
  for (const auto& point : report.as_series(gen::kAsnTata)) {
    const auto& c = point.counts;
    if (c.mono_fec == 0) {
      table.add_row({std::to_string(point.cycle_id + 1),
                     gen::cycle_date(static_cast<int>(point.cycle_id)), "0",
                     "-", "-", "-", ""});
      continue;
    }
    const double share = static_cast<double>(c.parallel_links) /
                         static_cast<double>(c.mono_fec);
    parallel_sum += share;
    ++n_cycles;
    table.add_row({std::to_string(point.cycle_id + 1),
                   gen::cycle_date(static_cast<int>(point.cycle_id)),
                   util::TextTable::fmt_int(static_cast<std::int64_t>(
                       c.mono_fec)),
                   util::TextTable::fmt_int(static_cast<std::int64_t>(
                       c.parallel_links)),
                   util::TextTable::fmt_int(static_cast<std::int64_t>(
                       c.routers_disjoint)),
                   util::TextTable::fmt(share, 2),
                   util::ascii_bar(share, 20)});
  }
  std::cout << table << '\n';

  const double avg = n_cycles ? parallel_sum / n_cycles : 0.0;
  std::cout << "average Parallel-Links share of Mono-FEC: "
            << util::TextTable::fmt(avg, 2) << " (paper: 0.60-0.70)\n"
            << (avg > 0.5 ? "[parallel links dominate, as in the paper]"
                          : "[SHAPE MISMATCH]")
            << '\n';
  return 0;
}
