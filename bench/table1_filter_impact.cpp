// Table 1 — Cumulative average (and 95% confidence interval), over the 60
// cycles, of the proportion of LSPs remaining after applying each filter.
//
// Paper row targets (share of observed LSPs):
//   Incomplete-LSP rejection   0.853 +/- 0.01
//   IntraAS                    0.844 +/- 0.01
//   TargetAS                   0.717 +/- 0.009
//   TransitDiversity           0.644 +/- 0.009
//   Persistence (j = 2)        0.534 +/- 0.007
//
// The ordering (Incomplete strongest; IntraAS ~1%; TargetAS and
// TransitDiversity each double-digit; Persistence ~10% of the remainder) is
// the shape this bench must reproduce.
#include <iostream>

#include "common.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace mum;

  run::Runner study(bench::default_study());
  std::cout << "Table 1 — filter impact, averaged over cycles 1-60\n"
            << "(generating and filtering 60 monthly campaigns...)\n\n";

  util::Accumulator complete, intra, target, diversity, persistence;
  std::uint64_t observed_sum = 0;

  for (int cycle = study.config().first_cycle;
       cycle <= study.config().last_cycle; ++cycle) {
    const lpr::CycleReport report = study.run_cycle(cycle);
    const auto& f = report.filter_stats;
    if (f.observed == 0) continue;
    const double n = static_cast<double>(f.observed);
    complete.add(static_cast<double>(f.complete) / n);
    intra.add(static_cast<double>(f.after_intra_as) / n);
    target.add(static_cast<double>(f.after_target_as) / n);
    diversity.add(static_cast<double>(f.after_transit_diversity) / n);
    persistence.add(static_cast<double>(f.after_persistence) / n);
    observed_sum += f.observed;
  }

  util::TextTable table({"Filter", "Average", "+/- CI95", "paper"});
  auto row = [&](const char* name, const util::Accumulator& acc,
                 const char* paper) {
    table.add_row({name, util::TextTable::fmt(acc.mean(), 3),
                   util::TextTable::fmt(acc.ci95_halfwidth(), 3), paper});
  };
  row("Incomplete LSPs", complete, "0.853 +/-0.01");
  row("IntraAS", intra, "0.844 +/-0.01");
  row("TargetAS", target, "0.717 +/-0.009");
  row("TransitDiversity", diversity, "0.644 +/-0.009");
  row("Persistence", persistence, "0.534 +/-0.007");
  std::cout << table << '\n';
  std::cout << "On average, a cycle contains "
            << observed_sum / static_cast<std::uint64_t>(
                                  study.config().last_cycle -
                                  study.config().first_cycle + 1)
            << " LSPs before filtering (paper: 14e6 at Ark scale).\n";

  const bool ordered = complete.mean() >= intra.mean() &&
                       intra.mean() >= target.mean() &&
                       target.mean() >= diversity.mean() &&
                       diversity.mean() >= persistence.mean();
  std::cout << (ordered ? "[attrition ordering matches the paper]"
                        : "[ORDERING MISMATCH]")
            << '\n';
  return 0;
}
