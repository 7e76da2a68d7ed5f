// Internet-scale property tests: protocol invariants that must hold over
// the full generator output, whatever the seed. These are the invariants
// LPR's inference logic rests on, checked where they originate.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/extract.h"
#include "core/filters.h"
#include "core/classify.h"
#include "gen/campaign.h"
#include "gen/internet.h"

namespace mum {
namespace {

gen::GenConfig config_for(std::uint64_t seed) {
  gen::GenConfig c;
  c.seed = seed;
  c.background_tier1 = 2;
  c.background_transit = 10;
  c.stub_ases = 14;
  c.monitors = 6;
  c.dests_per_monitor = 200;
  return c;
}

class PropertySweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  PropertySweep()
      : internet(config_for(GetParam())),
        ip2as(internet.build_ip2as()),
        ctx(internet.instantiate(50)),
        snapshot(gen::CampaignRunner(internet, ip2as).snapshot(ctx, 50, 0)) {}

  gen::Internet internet;
  dataset::Ip2As ip2as;
  gen::MonthContext ctx;
  dataset::SnapshotBatch snapshot;
};

TEST_P(PropertySweep, QuotedStacksAreWellFormed) {
  // Every quoted LSE stack has exactly one bottom-of-stack flag, on its
  // last entry (RFC 3032).
  for (const dataset::TraceView trace : snapshot) {
    for (std::size_t k = 0; k < trace.hop_count(); ++k) {
      const dataset::HopView hop = trace.hop(k);
      if (!hop.has_labels()) continue;
      const net::LabelStack stack = hop.label_stack();
      const auto& entries = stack.entries();
      for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(entries[i].bottom_of_stack(), i + 1 == entries.size());
        EXPECT_GE(entries[i].label(), net::kLabelFirstUnreserved);
        EXPECT_LE(entries[i].label(), net::kLabelMax);
      }
    }
  }
}

TEST_P(PropertySweep, LabelsRespectVendorRanges) {
  // Every quoted label must come out of the owning router's vendor pool.
  for (const dataset::TraceView trace : snapshot) {
    for (std::size_t k = 0; k < trace.hop_count(); ++k) {
      const dataset::HopView hop = trace.hop(k);
      if (!hop.has_labels() || hop.anonymous()) continue;
      const auto* as = internet.modeled(hop.asn());
      if (as == nullptr) continue;
      const auto router = as->topo.router_of_addr(hop.addr());
      if (router == topo::kInvalidRouter) continue;
      // Only the TOP label belongs to this router (inner labels of a
      // stacked packet were allocated by the tunnel tail).
      const auto range =
          mpls::default_range(as->topo.router(router).vendor);
      const auto label = hop.labels().front();
      EXPECT_GE(label, range.first) << hop.addr().to_string();
      EXPECT_LE(label, range.last) << hop.addr().to_string();
    }
  }
}

TEST_P(PropertySweep, LdpLabelsAreRouterScopedInTraces) {
  // The LPR cornerstone: within one AS, one router interface must never
  // show two different labels for the same <egress FEC>. We approximate
  // the FEC by the LSP egress: group observed (addr -> egress) and check
  // label consistency for non-TE ASes.
  const auto extracted = lpr::extract_lsps(snapshot, ip2as);
  std::map<std::tuple<std::uint32_t, net::Ipv4Addr, net::Ipv4Addr>,
           std::set<std::uint32_t>>
      labels_by_addr_fec;
  for (const auto& obs : extracted.observations) {
    const auto* plane = ctx.plane_of(obs.lsp.asn);
    if (plane == nullptr || plane->rsvp != nullptr) continue;  // LDP-only AS
    // Skip runs extraction interpreted as non-PHP: every simulated AS runs
    // PHP, so those runs were truncated by IP2AS mis-origination noise and
    // their "egress" is really a penultimate LSR shared by several FECs —
    // exactly the measurement artifact the paper's IntraAS noise creates.
    if (obs.lsp.egress_labeled) continue;
    for (const auto& hop : obs.lsp.lsrs) {
      if (hop.labels.empty()) continue;
      labels_by_addr_fec[{obs.lsp.asn, hop.addr, obs.lsp.egress}].insert(
          hop.labels.front());
    }
  }
  for (const auto& [key, labels] : labels_by_addr_fec) {
    EXPECT_EQ(labels.size(), 1u)
        << "AS" << std::get<0>(key) << " "
        << std::get<1>(key).to_string() << " toward "
        << std::get<2>(key).to_string();
  }
}

TEST_P(PropertySweep, ExtractionNeverInventsLabels) {
  // Every (addr, label) pair in extracted LSPs exists verbatim in a trace.
  std::set<std::pair<net::Ipv4Addr, std::uint32_t>> in_traces;
  for (const dataset::TraceView trace : snapshot) {
    for (std::size_t k = 0; k < trace.hop_count(); ++k) {
      const dataset::HopView hop = trace.hop(k);
      for (const std::uint32_t label : hop.labels()) {
        in_traces.insert({hop.addr(), label});
      }
    }
  }
  const auto extracted = lpr::extract_lsps(snapshot, ip2as);
  for (const auto& obs : extracted.observations) {
    for (const auto& hop : obs.lsp.lsrs) {
      for (const auto label : hop.labels) {
        EXPECT_TRUE(in_traces.contains({hop.addr, label}));
      }
    }
  }
}

TEST_P(PropertySweep, FilterChainMonotone) {
  // Every LSP persists: the snapshot is its own following snapshot.
  const lpr::PersistenceSet self = lpr::persistence_set(snapshot);
  const auto filtered = lpr::apply_filters(lpr::extract_lsps(snapshot, ip2as),
                                           {&self, 1}, lpr::FilterConfig{});
  const auto& s = filtered.stats;
  EXPECT_LE(s.complete, s.observed);
  EXPECT_LE(s.after_intra_as, s.complete);
  EXPECT_LE(s.after_target_as, s.after_intra_as);
  EXPECT_LE(s.after_transit_diversity, s.after_target_as);
  EXPECT_LE(s.after_persistence, s.after_transit_diversity);
}

TEST_P(PropertySweep, ClassifiedIotpInvariants) {
  // Every LSP persists: the snapshot is its own following snapshot.
  const lpr::PersistenceSet self = lpr::persistence_set(snapshot);
  const auto filtered = lpr::apply_filters(lpr::extract_lsps(snapshot, ip2as),
                                           {&self, 1}, lpr::FilterConfig{});
  auto iotps = lpr::group_iotps(filtered.observations);
  lpr::classify_all(iotps);
  for (const auto& rec : iotps) {
    // Width/symmetry consistency.
    EXPECT_EQ(rec.width, static_cast<int>(rec.variants.size()));
    EXPECT_GE(rec.symmetry, 0);
    EXPECT_LE(rec.symmetry, rec.length);
    // Mono-LSP iff a single branch.
    EXPECT_EQ(rec.tunnel_class == lpr::TunnelClass::kMonoLsp,
              rec.width <= 1);
    // Parallel-links implies identical label sequences.
    if (rec.mono_fec_kind == lpr::MonoFecKind::kParallelLinks) {
      std::set<std::vector<std::uint32_t>> flat;
      for (const auto& lsp : rec.variants) {
        std::vector<std::uint32_t> seq;
        for (const auto& hop : lsp.lsrs) {
          seq.insert(seq.end(), hop.labels.begin(), hop.labels.end());
        }
        flat.insert(std::move(seq));
      }
      EXPECT_EQ(flat.size(), 1u);
    }
    // Multi-FEC requires a common IP with >= 2 labels.
    if (rec.tunnel_class == lpr::TunnelClass::kMultiFec) {
      bool witnessed = false;
      for (const auto addr : lpr::common_ips(rec)) {
        if (lpr::labels_at(rec, addr).size() > 1) witnessed = true;
      }
      EXPECT_TRUE(witnessed);
    }
    // All variants share the IOTP endpoints.
    for (const auto& lsp : rec.variants) {
      EXPECT_EQ(lsp.ingress, rec.key.ingress);
      EXPECT_EQ(lsp.egress, rec.key.egress);
      EXPECT_EQ(lsp.asn, rec.key.asn);
    }
  }
}

TEST_P(PropertySweep, TracesRespectAsPathOrder) {
  // Responding hops annotated with modelled ASes must appear in contiguous
  // AS segments (no interleaving A B A), matching valley-free forwarding.
  for (const dataset::TraceView trace : snapshot) {
    std::vector<std::uint32_t> as_sequence;
    for (std::size_t k = 0; k < trace.hop_count(); ++k) {
      const dataset::HopView hop = trace.hop(k);
      if (hop.anonymous() || hop.asn() == 0) continue;
      if (internet.modeled(hop.asn()) == nullptr) continue;
      if (as_sequence.empty() || as_sequence.back() != hop.asn()) {
        as_sequence.push_back(hop.asn());
      }
    }
    std::set<std::uint32_t> seen;
    for (const auto asn : as_sequence) {
      EXPECT_TRUE(seen.insert(asn).second)
          << "AS" << asn << " appears twice in one trace";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep,
                         ::testing::Values(1, 20151028, 424242));

}  // namespace
}  // namespace mum
