// Quickstart: build a small synthetic internet, run one Archipelago-style
// probing month, feed it to LPR, and print the classification — the whole
// public API in ~80 lines.
//
//   $ ./quickstart [seed]
#include <cstdlib>
#include <iostream>

#include "core/report.h"
#include "dataset/warts_lite.h"
#include "gen/campaign.h"
#include "gen/internet.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mum;

  gen::GenConfig config;
  if (argc > 1) config.seed = std::strtoull(argv[1], nullptr, 10);
  // Keep the quickstart internet small.
  config.background_transit = 8;
  config.stub_ases = 12;
  config.monitors = 6;
  config.dests_per_monitor = 120;

  std::cout << "Building synthetic internet (seed " << config.seed
            << ")...\n";
  gen::Internet internet(config);
  const dataset::Ip2As ip2as = internet.build_ip2as();
  std::cout << "  " << internet.graph().size() << " ASes ("
            << internet.modeled_asns().size() << " with router-level MPLS "
            << "topologies), " << ip2as.prefix_count() << " IP2AS prefixes\n";

  // Probe one month: cycle snapshot + 2 follow-ups for Persistence.
  const int cycle = gen::cycle_of(2014, 12);
  gen::CampaignConfig campaign;
  std::cout << "Probing cycle " << cycle + 1 << " (" << gen::cycle_date(cycle)
            << ") with " << internet.monitors().size() << " monitors...\n";
  const dataset::MonthData month =
      gen::CampaignRunner(internet, ip2as, campaign).month(cycle);
  std::cout << "  " << month.cycle().trace_count() << " traces per snapshot, "
            << month.snapshots.size() << " snapshots\n";

  // Show one trace crossing an MPLS tunnel.
  for (const dataset::TraceView trace : month.cycle()) {
    if (trace.crosses_explicit_tunnel() && trace.reached()) {
      std::cout << "\nSample trace with an explicit MPLS tunnel:\n"
                << dataset::to_text(trace) << '\n';
      break;
    }
  }

  // Run LPR (filters + Algorithm 1).
  const lpr::CycleReport report = lpr::run_pipeline(month, ip2as);
  std::cout << "LPR: " << report.filter_stats.observed << " LSPs observed, "
            << report.filter_stats.after_persistence
            << " kept after filtering, " << report.iotps.size()
            << " IOTPs classified\n\n";

  util::TextTable table({"class", "IOTPs", "share"});
  const auto& g = report.global;
  const double total = static_cast<double>(g.total());
  auto row = [&](const char* name, std::uint64_t n) {
    table.add_row({name, util::TextTable::fmt_int(static_cast<std::int64_t>(n)),
                   util::TextTable::fmt_pct(total ? n / total : 0.0)});
  };
  row("Mono-LSP", g.mono_lsp);
  row("Multi-FEC", g.multi_fec);
  row("Mono-FEC (ECMP)", g.mono_fec);
  row("  - parallel links", g.parallel_links);
  row("  - routers disjoint", g.routers_disjoint);
  row("Unclassified", g.unclassified);
  std::cout << table;

  return 0;
}
