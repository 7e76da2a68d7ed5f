// Ablation — fast reroute vs re-signalling under link failures.
//
// DESIGN.md calls out the failure-reaction design choice: when a link dies,
// an RSVP-TE LSP either (a) re-signals over the post-failure route with
// FRESH labels or (b) switches to an RFC 4090 pre-signalled backup whose
// labels already exist. Both converge to a stable path (so the Persistence
// filter treats them alike once the failure holds); what differs — and what
// this bench measures — is label-space pressure and observable label churn:
//
//   * re-signalling consumes new labels at every hop of every affected LSP
//     per failure event (the mechanism behind Fig. 17-style label sweeps);
//   * FRR consumes its labels up front, at signalling time, and failures
//     whose backup survives cause no further allocation (only LSPs whose
//     backup is also broken fall back to re-signalling).
#include <iostream>

#include "common.h"
#include "mpls/rsvp.h"
#include "topo/builder.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace mum;

struct ArmResult {
  std::uint64_t labels_at_signal = 0;   // pool draw when LSPs are set up
  std::uint64_t labels_on_failures = 0; // extra draw across failure rounds
  int lsps = 0;
  int reroutes = 0;     // failure events that moved an LSP
  int blackholes = 0;   // events where no alternative existed
};

ArmResult run_arm(bool frr, int failure_rounds) {
  topo::BuildParams params;
  params.asn = 65001;
  params.block = net::Ipv4Prefix(net::Ipv4Addr(16, 0, 0, 0), 15);
  params.core_routers = 10;
  params.pop_routers = 24;
  params.border_share = 0.5;
  params.core_chord_prob = 0.35;  // alternatives exist for backups
  params.heavy_cost_share = 0.0;  // keep ECMP ties => disjoint variants
  params.parallel_link_prob = 0.2;
  util::Rng topo_rng(99);
  const auto topo = topo::build_as_topology(params, topo_rng);
  const auto igp = igp::IgpState::compute(topo);

  std::vector<mpls::LabelPool> pools;
  for (const auto& r : topo.routers()) pools.emplace_back(r.vendor);

  mpls::RsvpConfig config;
  config.frr = frr;
  mpls::RsvpTePlane plane(&topo, &igp, config);

  // Full TE mesh between the borders, 2 LSPs per pair.
  util::Rng rng(7);
  const auto borders = topo.border_routers();
  for (const auto i : borders) {
    for (const auto e : borders) {
      if (i != e) plane.signal(i, e, 2, pools, rng);
    }
  }
  ArmResult result;
  result.lsps = static_cast<int>(plane.lsp_count());
  for (const auto& pool : pools) result.labels_at_signal += pool.allocated();

  // Failure rounds: each fails 3% of links (fresh draw per round) and lets
  // the control plane react.
  util::Rng fail_rng(13);
  for (int round = 0; round < failure_rounds; ++round) {
    igp::LinkOverlay failed;
    failed.down.assign(topo.link_count(), false);
    for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
      failed.down[l] = fail_rng.chance(0.03);
    }
    const std::vector<bool>& down = failed.down;
    const auto igp_now = igp::IgpState::compute(topo, failed);
    for (const auto& lsp : plane.lsps()) {
      if (!plane.crosses_down_link(lsp.id, down)) continue;
      if (frr && plane.activate_backup(lsp.id, down)) {
        ++result.reroutes;
        continue;
      }
      // Re-signal over the post-failure IGP route.
      const igp::EgressColumn& toward = igp_now.column(lsp.egress);
      std::vector<topo::LinkId> route;
      topo::RouterId at = lsp.ingress;
      for (std::size_t guard = topo.router_count() + 4;
           at != lsp.egress && guard > 0; --guard) {
        const auto nhs = toward.nexthops(at);
        if (nhs.empty()) {
          route.clear();
          break;
        }
        route.push_back(nhs.front().link);
        at = nhs.front().neighbor;
      }
      if (route.empty() || at != lsp.egress) {
        ++result.blackholes;
        continue;
      }
      plane.resignal_over(lsp.id, route, pools);
      ++result.reroutes;
    }
    // Failures clear between rounds: FRR LSPs revert to their primaries.
    for (const auto& lsp : plane.lsps()) plane.revert_to_primary(lsp.id);
  }

  std::uint64_t total = 0;
  for (const auto& pool : pools) total += pool.allocated();
  result.labels_on_failures = total - result.labels_at_signal;
  return result;
}

}  // namespace

int main() {
  std::cout << "Ablation — RSVP-TE failure reaction: fast reroute (RFC "
               "4090) vs re-signalling\n"
            << "(one TE-mesh AS, 20 failure rounds at 3% link loss each)\n\n";

  const ArmResult frr = run_arm(/*frr=*/true, 20);
  const ArmResult resig = run_arm(/*frr=*/false, 20);

  util::TextTable table({"", "FRR", "re-signal"});
  auto row = [&](const char* name, std::uint64_t a, std::uint64_t b) {
    table.add_row({name,
                   util::TextTable::fmt_int(static_cast<std::int64_t>(a)),
                   util::TextTable::fmt_int(static_cast<std::int64_t>(b))});
  };
  row("LSPs signalled", static_cast<std::uint64_t>(frr.lsps),
      static_cast<std::uint64_t>(resig.lsps));
  row("labels at signalling time", frr.labels_at_signal,
      resig.labels_at_signal);
  row("extra labels across failures", frr.labels_on_failures,
      resig.labels_on_failures);
  row("failure reroutes", static_cast<std::uint64_t>(frr.reroutes),
      static_cast<std::uint64_t>(resig.reroutes));
  std::cout << table << '\n';

  const bool setup_cost = frr.labels_at_signal > resig.labels_at_signal;
  // FRR cannot eliminate churn (a broken backup still re-signals), but it
  // must cut it substantially.
  const bool runtime_saving =
      frr.labels_on_failures * 10 < resig.labels_on_failures * 6;
  std::cout
      << (setup_cost
              ? "[ok] FRR pays its label cost up front (backup paths "
                "pre-signalled)\n"
              : "[MISMATCH] FRR setup cost not visible\n")
      << (runtime_saving
              ? "[ok] FRR cuts failure-time label churn sharply; "
                "re-signalling churns labels per event (the Fig.-17 "
                "pressure mechanism)\n"
              : "[MISMATCH] FRR did not reduce failure-time label churn\n");
  return 0;
}
