// Fig. 6 — Impact of the Persistence filter on the December 2014 dataset
// (29 daily snapshots), sweeping the parameter j from 0 (no Persistence)
// to 29 (whole month).
//
//  (a) number of tunnels (LSPs) kept after Persistence filtering;
//  (b) classification PDF per j.
//
// Paper shapes: a drop from j=0 to j=1, mostly stable for j>=2 (both the
// kept count and the classification), with j<=1 trading Mono-LSP for
// Multi-FEC (the dynamic-label ASes). Also prints the Sec.-5 ablation: the
// alias-resolution heuristic removes the Unclassified class.
#include <iostream>

#include "common.h"
#include "util/table.h"

int main() {
  using namespace mum;

  run::RunnerConfig config = bench::default_study();
  run::Runner study(config);

  const int december_2014 = gen::cycle_of(2014, 12);
  constexpr int kDays = 29;
  std::cout << "Fig. 6 — Persistence sweep on " << kDays
            << " daily snapshots of December 2014\n"
            << "(generating daily campaigns...)\n\n";

  const auto snapshots =
      gen::CampaignRunner(study.internet(), study.ip2as(), config.campaign)
          .daily_month(december_2014, kDays);

  // Extract once; sweep filter configurations over the fixed data (each
  // apply_filters call consumes a copy of the cycle snapshot).
  const lpr::ExtractedSnapshot cycle =
      lpr::extract_lsps(snapshots.front(), study.ip2as());
  std::vector<lpr::PersistenceSet> following;
  following.reserve(snapshots.size() - 1);
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    following.push_back(lpr::persistence_set(snapshots[i]));
  }
  const auto run = [&](int j, bool alias_heuristic) {
    return lpr::classify_cycle(
        lpr::apply_filters(cycle, following, {.persistence_j = j}),
        {.alias_resolution_heuristic = alias_heuristic});
  };

  util::TextTable table({"j", "LSPs kept", "IOTPs", "Mono-LSP", "Multi-FEC",
                         "Mono-FEC", "Unclass."});
  for (int j = 0; j <= kDays; ++j) {
    const lpr::CycleReport report = run(j, false);
    const auto& g = report.global;
    const double total = static_cast<double>(g.total());
    auto pct = [&](std::uint64_t n) {
      return total > 0 ? util::TextTable::fmt(n / total, 3) : std::string("-");
    };
    table.add_row({std::to_string(j),
                   util::TextTable::fmt_int(static_cast<std::int64_t>(
                       report.filter_stats.after_persistence)),
                   util::TextTable::fmt_int(static_cast<std::int64_t>(
                       g.total())),
                   pct(g.mono_lsp), pct(g.multi_fec), pct(g.mono_fec),
                   pct(g.unclassified)});
  }
  std::cout << table << '\n';

  // Stability check, as in the paper: j >= 2 should barely move the mix.
  {
    const auto r2 = run(2, false);
    const auto r8 = run(8, false);
    const auto share = [](const lpr::ClassCounts& c, std::uint64_t n) {
      return c.total() ? static_cast<double>(n) /
                             static_cast<double>(c.total())
                       : 0.0;
    };
    const double drift =
        std::abs(share(r2.global, r2.global.mono_lsp) -
                 share(r8.global, r8.global.mono_lsp));
    std::cout << "Mono-LSP share drift between j=2 and j=8: "
              << util::TextTable::fmt(drift, 3)
              << (drift < 0.05 ? "  [stable for j>=2, as in the paper]"
                               : "  [UNSTABLE]")
              << "\n\n";
  }

  // Ablation (paper Sec. 5): alias-resolution heuristic for PHP-converged
  // IOTPs — should empty the Unclassified class without disturbing the
  // Mono-FEC / Multi-FEC balance much.
  const auto base = run(2, false);
  const auto alias = run(2, true);
  std::cout << "Ablation - Sec. 5 alias-resolution heuristic:\n"
            << "  without: " << bench::class_shares_line(base.global) << '\n'
            << "  with:    " << bench::class_shares_line(alias.global) << '\n'
            << "  Unclassified " << base.global.unclassified << " -> "
            << alias.global.unclassified << '\n';
  return 0;
}
