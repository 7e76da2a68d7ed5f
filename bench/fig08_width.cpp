// Fig. 8 — IOTP width distribution (cycle 60).
//
//  (a) all classes: width = number of branches (physically or logically
//      different LSPs). Paper shape: most IOTPs narrow — ~56% have width 1
//      (the Mono-LSP class) — with a small very-wide tail.
//  (b) Mono-FEC vs Multi-FEC: nearly the same distribution, tail slightly
//      dominated by Multi-FEC — the paper's surprising "TE does not use
//      much more path diversity than plain ECMP" observation.
#include <iostream>

#include "common.h"
#include "core/metrics.h"
#include "util/table.h"

int main() {
  using namespace mum;

  run::Runner study(bench::default_study());
  const int cycle = gen::cycle_of(2014, 12);
  std::cout << "Fig. 8 — IOTP width distribution, cycle " << cycle + 1
            << " (" << gen::cycle_date(cycle) << ")\n\n";

  const lpr::CycleReport report = study.run_cycle(cycle);

  std::cout << "(a) all classes\n";
  const auto widths = lpr::width_distribution(report.iotps);
  bench::print_pdf(std::cout, widths, "width", /*clamp_at=*/10);
  std::cout << "\nwidth-1 share: "
            << util::TextTable::fmt(widths.pdf(1), 3)
            << " (paper: ~0.56); max width: " << widths.max_key() << "\n\n";

  std::cout << "(b) Mono-FEC vs Multi-FEC\n";
  const auto mono =
      lpr::width_distribution(report.iotps, lpr::TunnelClass::kMonoFec);
  const auto multi =
      lpr::width_distribution(report.iotps, lpr::TunnelClass::kMultiFec);
  util::TextTable table({"width", "Mono-FEC pdf", "Multi-FEC pdf"});
  for (std::int64_t w = 2; w <= 10; ++w) {
    const double pm = w == 10 ? 1.0 - mono.cdf(9) : mono.pdf(w);
    const double px = w == 10 ? 1.0 - multi.cdf(9) : multi.pdf(w);
    table.add_row({(w == 10 ? ">= 10" : std::to_string(w)),
                   util::TextTable::fmt(pm, 3), util::TextTable::fmt(px, 3)});
  }
  std::cout << table;

  // Similarity check: mean widths of the two classes should be close.
  auto mean_width = [](const util::Histogram& h) {
    double sum = 0;
    for (const auto& [k, v] : h.buckets()) {
      sum += static_cast<double>(k) * static_cast<double>(v);
    }
    return h.total() ? sum / static_cast<double>(h.total()) : 0.0;
  };
  const double wm = mean_width(mono);
  const double wx = mean_width(multi);
  std::cout << "\nmean width: Mono-FEC " << util::TextTable::fmt(wm, 2)
            << ", Multi-FEC " << util::TextTable::fmt(wx, 2)
            << (std::abs(wm - wx) < 1.5
                    ? "  [similar, as in the paper]"
                    : "  [distributions diverge]")
            << '\n';
  return 0;
}
