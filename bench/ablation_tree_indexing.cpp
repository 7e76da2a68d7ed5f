// Ablation — Sec.-5 LSP-tree extension: index LSPs by Egress LER only
// (egress-rooted trees / DAGs) instead of <Ingress, Egress> pairs, and
// compare against the IOTP classification on the same filtered data.
//
// Expected outcomes (the paper's stated motivation for the extension):
//  * fewer, larger groups — "more LSPs will be classified ... because they
//    will be indexed only through the Egress LER";
//  * the structure is a DAG, not a tree, because of ECMP (in-degree > 1);
//  * the LDP-consistency invariant (one label per router per tree) holds
//    for non-TE ASes and is broken exactly where RSVP-TE runs.
#include <iostream>

#include "common.h"
#include "core/tree.h"
#include "gen/profiles.h"
#include "util/table.h"

int main() {
  using namespace mum;

  run::Runner study(bench::default_study());
  const int cycle = gen::cycle_of(2014, 12);
  std::cout << "Ablation — IOTP indexing vs egress-rooted tree indexing, "
            << "cycle " << cycle + 1 << "\n\n";

  // Run the filter half of the pipeline once; group both ways.
  const auto month = study.month_data(cycle);
  lpr::ExtractedMonth extracted = lpr::extract_month(month, study.ip2as());
  lpr::FilteredCycle filtered = lpr::apply_filters(
      std::move(extracted.cycle), extracted.following, {});

  const auto trees = lpr::build_egress_trees(filtered.observations);
  const auto tree_stats = lpr::summarize(trees);
  const auto iotp_counts = lpr::classify_cycle(std::move(filtered), {}).global;

  util::TextTable table({"metric", "IOTP indexing", "tree indexing"});
  table.add_row({"groups",
                 util::TextTable::fmt_int(static_cast<std::int64_t>(
                     iotp_counts.total())),
                 util::TextTable::fmt_int(static_cast<std::int64_t>(
                     tree_stats.trees))});
  table.add_row({"single-branch groups",
                 util::TextTable::fmt_int(static_cast<std::int64_t>(
                     iotp_counts.mono_lsp)),
                 util::TextTable::fmt_int(static_cast<std::int64_t>(
                     tree_stats.single_branch))});
  table.add_row({"TE (multi-FEC) groups",
                 util::TextTable::fmt_int(static_cast<std::int64_t>(
                     iotp_counts.multi_fec)),
                 util::TextTable::fmt_int(static_cast<std::int64_t>(
                     tree_stats.multi_fec))});
  std::cout << table << '\n';

  // DAG evidence and per-AS invariant check.
  int dag_trees = 0;
  std::map<std::uint32_t, std::pair<int, int>> per_as;  // asn -> (ldp, te)
  for (const auto& tree : trees) {
    if (tree.max_in_degree > 1) ++dag_trees;
    auto& [ldp, te] = per_as[tree.key.asn];
    if (tree.tree_class == lpr::TreeClass::kLdpConsistent) ++ldp;
    if (tree.tree_class == lpr::TreeClass::kMultiFec) ++te;
  }
  std::cout << dag_trees << " of " << trees.size()
            << " trees have a router with in-degree > 1 (DAGs, as the "
               "paper anticipates for ECMP)\n\n";

  util::TextTable as_table({"AS", "LDP-consistent trees", "Multi-FEC trees"});
  for (const std::uint32_t asn :
       {gen::kAsnVodafone, gen::kAsnAtt, gen::kAsnTata, gen::kAsnNtt}) {
    const auto it = per_as.find(asn);
    const auto [ldp, te] =
        it == per_as.end() ? std::pair<int, int>{0, 0} : it->second;
    as_table.add_row({"AS" + std::to_string(asn), std::to_string(ldp),
                      std::to_string(te)});
  }
  std::cout << as_table << '\n';

  const bool fewer_groups = tree_stats.trees < iotp_counts.total();
  const bool fewer_singles =
      tree_stats.single_branch * iotp_counts.total() <
      iotp_counts.mono_lsp * tree_stats.trees;  // smaller single share
  const auto tata = per_as[gen::kAsnTata];
  const auto vodafone = per_as[gen::kAsnVodafone];
  std::cout << (fewer_groups ? "[ok] tree indexing coarser than IOTPs\n"
                             : "[MISMATCH] tree indexing not coarser\n")
            << (fewer_singles
                    ? "[ok] smaller single-branch share => more LSPs "
                      "classified\n"
                    : "[MISMATCH] single-branch share did not shrink\n")
            << (tata.first > 5 * tata.second && tata.first > 0
                    ? "[ok] Tata trees overwhelmingly LDP-consistent "
                      "(its profile has only a 2% TE trickle)\n"
                    : "[MISMATCH] Tata tree invariant\n")
            << (vodafone.second > vodafone.first
                    ? "[ok] Vodafone trees mostly Multi-FEC (TE)\n"
                    : "[MISMATCH] Vodafone tree invariant\n");
  return 0;
}
