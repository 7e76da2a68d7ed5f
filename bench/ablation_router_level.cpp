// Ablation — IP-level vs router-level IOTPs (the paper's Sec.-5 alias-
// resolution extension: "it will reduce the number of IOTPs and so provide
// more consistent results that may be closer to the actual MPLS usage").
//
// Runs the cycle-60 data through LPR twice: once as published (IOTPs keyed
// by interface addresses) and once after passive alias resolution rewrites
// every address to its router representative. Reports the IOTP count
// reduction, the classification shift, and the alias inference's precision
// against the simulator's ground truth.
#include <iostream>
#include <map>

#include "common.h"
#include "core/alias.h"
#include "gen/profiles.h"
#include "util/table.h"

int main() {
  using namespace mum;

  run::Runner study(bench::default_study());
  const int cycle = gen::cycle_of(2014, 12);
  std::cout << "Ablation — IP-level vs router-level IOTPs, cycle "
            << cycle + 1 << "\n\n";

  const auto month = study.month_data(cycle);
  lpr::ExtractedMonth extracted = lpr::extract_month(month, study.ip2as());
  lpr::FilteredCycle filtered = lpr::apply_filters(
      std::move(extracted.cycle), extracted.following, {});

  // Passive alias inference (label rule + /31 alignment rule).
  const lpr::LabelAliasResolver resolver(filtered.observations,
                                         month.cycle());

  // Precision against the simulator's ground truth.
  std::map<net::Ipv4Addr, net::Ipv4Addr> truth;
  for (const std::uint32_t asn : study.internet().modeled_asns()) {
    const auto* as = study.internet().modeled(asn);
    for (const auto& link : as->topo.links()) {
      truth[link.a_iface] = as->topo.router(link.a).loopback;
      truth[link.b_iface] = as->topo.router(link.b).loopback;
    }
  }
  const auto accuracy = lpr::evaluate_aliases(resolver.alias_sets(), truth);
  std::cout << "alias inference: " << resolver.alias_sets().size()
            << " sets, " << accuracy.inferred_pairs << " pairs, precision "
            << util::TextTable::fmt(accuracy.precision(), 3)
            << " (vs simulator ground truth)\n\n";

  // Classify at both granularities: the router-level view is the same
  // filtered cycle with its observations rewritten.
  lpr::FilteredCycle router_level = filtered;
  router_level.observations =
      lpr::to_router_level(std::move(router_level.observations), resolver);
  const auto ip_counts = lpr::classify_cycle(std::move(filtered), {}).global;
  const auto router_counts =
      lpr::classify_cycle(std::move(router_level), {}).global;

  util::TextTable table({"metric", "IP level", "router level"});
  auto row = [&](const char* name, std::uint64_t a, std::uint64_t b) {
    table.add_row({name,
                   util::TextTable::fmt_int(static_cast<std::int64_t>(a)),
                   util::TextTable::fmt_int(static_cast<std::int64_t>(b))});
  };
  row("IOTPs", ip_counts.total(), router_counts.total());
  row("Mono-LSP", ip_counts.mono_lsp, router_counts.mono_lsp);
  row("Multi-FEC", ip_counts.multi_fec, router_counts.multi_fec);
  row("Mono-FEC", ip_counts.mono_fec, router_counts.mono_fec);
  row("Unclassified", ip_counts.unclassified, router_counts.unclassified);
  std::cout << table << '\n';

  auto share = [](const lpr::ClassCounts& c, std::uint64_t n) {
    return c.total() ? static_cast<double>(n) /
                           static_cast<double>(c.total())
                     : 0.0;
  };
  const bool fewer = router_counts.total() < ip_counts.total();
  const bool precise = accuracy.precision() > 0.85;
  // Router-level merging joins fragmented single-branch IOTPs into multi-
  // branch ones: the Mono-LSP share should not rise.
  const bool more_diversity =
      share(router_counts, router_counts.mono_lsp) <=
      share(ip_counts, ip_counts.mono_lsp) + 0.02;
  std::cout << (fewer ? "[ok] fewer IOTPs at router level ("
                      : "[MISMATCH] IOTP count did not drop (")
            << ip_counts.total() << " -> " << router_counts.total()
            << ")\n"
            << (precise ? "[ok] passive alias inference is precise\n"
                        : "[MISMATCH] alias inference too noisy\n")
            << (more_diversity
                    ? "[ok] merged IOTPs expose at least as much diversity "
                      "(Mono-LSP share does not rise)\n"
                    : "[MISMATCH] router-level Mono-LSP share rose\n");
  return 0;
}
