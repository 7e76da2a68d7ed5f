// Fig. 17 — Label range evolution in case of Multi-FEC tunnels of AS1273
// (Vodafone), as seen from a single vantage point ("Strasbourg"): one
// destination traced every two minutes for 600 minutes, monitoring the
// labels quoted by the two LSRs of one LSP.
//
// Paper shapes this bench must reproduce:
//  * sawtooth: labels increase almost periodically (the ingress
//    re-optimizes the LSP on a timer — Juniper behaviour) and wrap to the
//    bottom of the label range when the pool is exhausted;
//  * labels stay inside the vendor window (~300000..800000);
//  * the second LSR's curve evolves FASTER than the first's — it is
//    traversed by more LSPs, so its pool is consumed at a higher rate;
//  * occasional irregular steps on top of the periodic ones (event-driven
//    re-signalling).
#include <iostream>
#include <optional>

#include "common.h"
#include "core/extract.h"
#include "gen/campaign.h"
#include "gen/profiles.h"
#include "probe/traceroute.h"
#include "util/table.h"

int main() {
  using namespace mum;

  run::RunnerConfig config = bench::default_study();
  run::Runner study(config);
  const int cycle = gen::cycle_of(2014, 6);
  gen::MonthContext ctx = study.internet().instantiate(cycle);

  std::cout << "Fig. 17 — RSVP-TE label dynamics in AS1273 (Vodafone)\n\n";

  // The Strasbourg vantage point: re-use monitor 0 (it sits in Vodafone's
  // customer cone) and find a destination whose trace crosses a >=2-LSR
  // Vodafone tunnel.
  const probe::Monitor& monitor = study.internet().monitors().front();
  // Loss-free Paris traceroutes: the forwarding walk, then the observation
  // model appending the trace to a batch.
  probe::TraceOptions options;
  options.reply_loss = 0.0;
  std::optional<gen::Destination> target;
  std::vector<net::Ipv4Addr> lsr_addrs;
  for (const auto& dest : study.internet().destinations()) {
    const auto path = study.internet().path_spec(monitor, dest, ctx);
    if (!path) continue;
    util::Rng rng(1);
    dataset::SnapshotBatch snap;
    probe::observe_walk_into(
        monitor, path->dst, options, rng,
        probe::walk_path(*path, probe::paris_flow_id(monitor, path->dst)),
        snap.blocks.emplace_back());
    study.ip2as().annotate(snap);
    const auto extracted = lpr::extract_lsps(snap, study.ip2as());
    for (const auto& obs : extracted.observations) {
      if (obs.lsp.asn == gen::kAsnVodafone && obs.lsp.lsrs.size() >= 2) {
        target = dest;
        lsr_addrs = {obs.lsp.lsrs[0].addr, obs.lsp.lsrs[1].addr};
        break;
      }
    }
    if (target) break;
  }
  if (!target) {
    std::cout << "no 2-LSR Vodafone tunnel reachable from the vantage "
                 "point — nothing to monitor\n";
    return 1;
  }
  std::cout << "monitoring LSP toward " << target->addr << " (LSR1 "
            << lsr_addrs[0] << ", LSR2 " << lsr_addrs[1] << ")\n\n";

  // High-frequency campaign: one probe every 2 minutes for 600 minutes.
  // The ingress re-optimizes its LSPs roughly every 30 minutes (plus rare
  // event-driven re-signalling).
  constexpr int kIntervalMin = 2;
  constexpr int kTotalMin = 600;
  constexpr int kReoptPeriodMin = 30;
  // Scale substitution: the probed LSPs are a tiny sample of the AS's
  // production LSP population — the paper's Vodafone sweeps its whole
  // ~500k-label window within hours, which needs thousands of LSPs churning.
  // Each periodic tick therefore re-signs the (simulated) mesh this many
  // times, standing in for the unobserved production mesh.
  constexpr int kProductionScale = 1500;

  util::TextTable table({"t(min)", "label LSR1", "label LSR2"});
  util::Rng noise(42);
  std::uint32_t prev1 = 0, prev2 = 0;
  int steps1 = 0, steps2 = 0;
  std::int64_t gain1 = 0, gain2 = 0;
  bool wrapped = false;

  for (int t = 0; t <= kTotalMin; t += kIntervalMin) {
    if (t > 0 && t % kReoptPeriodMin == 0) {
      // Periodic (timer-driven) re-optimization at production scale.
      for (int k = 0; k < kProductionScale; ++k) ctx.advance_dynamics();
    } else if (t > 0 && noise.chance(0.02)) {
      // Factual (event-driven) re-signalling: smaller, irregular steps.
      for (int k = 0; k < kProductionScale / 10; ++k) ctx.advance_dynamics();
    }
    const auto path = study.internet().path_spec(monitor, *target, ctx);
    util::Rng rng(static_cast<std::uint64_t>(t) + 7);
    dataset::TraceBatch batch;
    probe::observe_walk_into(
        monitor, path->dst, options, rng,
        probe::walk_path(*path, probe::paris_flow_id(monitor, path->dst)),
        batch);

    std::uint32_t l1 = 0, l2 = 0;
    const dataset::TraceView view = batch.view(0);
    for (std::size_t k = 0; k < view.hop_count(); ++k) {
      const dataset::HopView hop = view.hop(k);
      if (!hop.has_labels()) continue;
      const std::uint32_t top = hop.labels().front();
      if (hop.addr() == lsr_addrs[0]) l1 = top;
      if (hop.addr() == lsr_addrs[1]) l2 = top;
    }
    table.add_row({std::to_string(t), std::to_string(l1),
                   std::to_string(l2)});

    // Forward movement through the (wrapping) label range: labels only
    // ever advance, so a numeric drop is a wrap.
    constexpr std::int64_t kSpan = 800000 - 300000 + 1;
    if (prev1 != 0 && l1 != 0 && l1 != prev1) {
      ++steps1;
      gain1 += (static_cast<std::int64_t>(l1) - prev1 + kSpan) % kSpan;
      if (l1 < prev1) wrapped = true;
    }
    if (prev2 != 0 && l2 != 0 && l2 != prev2) {
      ++steps2;
      gain2 += (static_cast<std::int64_t>(l2) - prev2 + kSpan) % kSpan;
      if (l2 < prev2) wrapped = true;
    }
    if (l1) prev1 = l1;
    if (l2) prev2 = l2;
  }
  std::cout << table << '\n';

  std::cout << "label changes: LSR1 " << steps1 << " steps (forward "
            << gain1 << "), LSR2 " << steps2 << " steps (forward " << gain2
            << ")\n";
  std::cout << (steps1 > 10 ? "[periodic re-optimization visible]"
                            : "[NO periodic churn]")
            << '\n';
  std::cout << (gain2 > gain1
                    ? "[LSR2 consumes labels faster — more LSPs traverse "
                      "it, as in the paper]"
                    : "[LSR2 not faster than LSR1]")
            << '\n';
  std::cout << (wrapped ? "[label wrap observed (sawtooth)]"
                        : "[no wrap within the window (sawtooth rising "
                          "edge only)]")
            << '\n';
  return 0;
}
