// Ground-truth validation: LPR's inferred classes must match the known
// configuration of the synthetic ASes — the in-silico equivalent of the
// paper's lab validation ("behaviors have been experimentally tested and
// validated in our lab ... with different configurations").
//
// We build controlled single-AS scenarios with a KNOWN control plane,
// probe them, run the full LPR pipeline, and assert the classification.
#include <gtest/gtest.h>

#include "batch_testing.h"
#include "core/report.h"
#include "mpls/ldp.h"
#include "mpls/rsvp.h"
#include "probe/traceroute.h"
#include "topo/builder.h"
#include "util/rng.h"

namespace mum {
namespace {

using topo::RouterId;
using topo::Vendor;

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

// A controlled lab: one AS under test, probed directly (no inter-domain
// machinery), with destinations in two fake external ASes so the TargetAS
// and TransitDiversity filters pass.
class Lab {
 public:
  explicit Lab(const topo::BuildParams& params) {
    util::Rng rng(42);
    topo_ = std::make_unique<topo::AsTopology>(
        topo::build_as_topology(params, rng));
    igp_ = std::make_unique<igp::IgpState>(igp::IgpState::compute(*topo_));
    for (std::size_t i = 0; i < topo_->router_count(); ++i) {
      pools_.emplace_back(topo_->router(static_cast<RouterId>(i)).vendor);
    }
    plane_.asn = params.asn;
    plane_.topo = topo_.get();
    plane_.igp = igp_.get();

    ip2as_.add_prefix(params.block, params.asn);
    ip2as_.add_prefix(net::Ipv4Prefix(ip(0x20000000), 8), 65098);
    ip2as_.add_prefix(net::Ipv4Prefix(ip(0x30000000), 8), 65099);
  }

  void enable_ldp(bool php = true) {
    mpls::LdpConfig config;
    config.php = php;
    ldp_ = mpls::LdpPlane::build(*topo_, *igp_, config, pools_);
    plane_.ldp = &*ldp_;
  }

  void enable_te(int lsps_per_pair) {
    rsvp_ = std::make_unique<mpls::RsvpTePlane>(topo_.get(), igp_.get(),
                                                mpls::RsvpConfig{});
    util::Rng rng(7);
    const auto borders = topo_->border_routers();
    for (const RouterId i : borders) {
      for (const RouterId e : borders) {
        if (i == e) continue;
        const auto ids = rsvp_->signal(i, e, lsps_per_pair, pools_, rng);
        if (!ids.empty()) plane_.te_policy.pairs[{i, e}] = ids;
      }
    }
    plane_.rsvp = rsvp_.get();
    plane_.te_policy.te_share = 1.0;
  }

  // Probe `n_dests` destinations split across the two external ASes,
  // entering at every border pair; returns the classified report.
  lpr::CycleReport run(int n_dests) {
    dataset::SnapshotBatch snap;
    snap.cycle_id = 1;
    const auto borders = topo_->border_routers();
    probe::Monitor monitor;
    monitor.id = 0;
    monitor.addr = ip(0x40000001);
    probe::TraceOptions options;
    options.reply_loss = 0.0;
    util::Rng rng(9);

    for (int d = 0; d < n_dests; ++d) {
      const std::uint32_t base = d % 2 == 0 ? 0x20000000u : 0x30000000u;
      const net::Ipv4Addr dst = ip(base + (static_cast<std::uint32_t>(d)
                                           << 8) + 1);
      for (std::size_t bi = 0; bi < borders.size(); ++bi) {
        for (std::size_t be = 0; be < borders.size(); ++be) {
          if (bi == be) continue;
          probe::PathSpec path;
          probe::SegmentSpec seg;
          seg.plane = &plane_;
          seg.ingress = borders[bi];
          seg.egress = borders[be];
          seg.entry_iface = ip(0x50000000 + static_cast<std::uint32_t>(
                                                bi * 64 + be) * 2);
          // Entry interfaces must map to the AS under test.
          ip2as_.add_prefix(net::Ipv4Prefix(seg.entry_iface, 31),
                            plane_.asn);
          path.segments.push_back(seg);
          path.dst = dst;
          testing::trace_into(monitor, path, options, rng, snap);
        }
      }
    }
    ip2as_.annotate(snap);

    // Every router answers in the lab; Persistence sees a stable network.
    const lpr::PersistenceSet self = lpr::persistence_set(snap);
    return lpr::classify_cycle(
        lpr::apply_filters(lpr::extract_lsps(snap, ip2as_), {&self, 1}, {}),
        {});
  }

  topo::BuildParams lab_params() const;

  std::unique_ptr<topo::AsTopology> topo_;
  std::unique_ptr<igp::IgpState> igp_;
  std::vector<mpls::LabelPool> pools_;
  std::optional<mpls::LdpPlane> ldp_;
  std::unique_ptr<mpls::RsvpTePlane> rsvp_;
  probe::AsDataPlane plane_;
  dataset::Ip2As ip2as_;
};

topo::BuildParams base_params() {
  topo::BuildParams p;
  p.asn = 65001;
  p.block = net::Ipv4Prefix(ip(0x10000000), 15);
  p.core_routers = 6;
  p.pop_routers = 10;
  p.border_share = 0.5;
  p.router_response_prob = 1.0;  // lab: everything answers
  return p;
}

TEST(GroundTruth, PureLdpUniquePathsIsAllMonoLsp) {
  topo::BuildParams p = base_params();
  p.uniform_costs = false;  // unique shortest paths
  p.parallel_link_prob = 0.0;
  Lab lab(p);
  lab.enable_ldp();
  const auto report = lab.run(24);
  ASSERT_GT(report.global.total(), 5u);
  EXPECT_EQ(report.global.multi_fec, 0u);
  // Random link costs may still tie occasionally, so a stray ECMP pair can
  // exist — but plain LDP must be overwhelmingly Mono-LSP and never TE.
  EXPECT_GE(report.global.mono_lsp * 10, report.global.total() * 8);
}

TEST(GroundTruth, LdpWithEcmpYieldsMonoFecNeverMultiFec) {
  topo::BuildParams p = base_params();
  p.uniform_costs = true;
  p.heavy_cost_share = 0.0;
  p.parallel_link_prob = 0.3;
  Lab lab(p);
  lab.enable_ldp();
  const auto report = lab.run(24);
  ASSERT_GT(report.global.total(), 5u);
  // The critical soundness property: plain LDP+ECMP must NEVER be inferred
  // as TE (Multi-FEC) — labels are router-scoped.
  EXPECT_EQ(report.global.multi_fec, 0u);
  EXPECT_GT(report.global.mono_fec, 0u);
}

TEST(GroundTruth, PureBundlesYieldParallelLinksSubclass) {
  topo::BuildParams p = base_params();
  p.uniform_costs = true;
  p.heavy_cost_share = 0.6;   // suppress router-level ECMP
  p.parallel_link_prob = 0.7; // bundle almost everything
  Lab lab(p);
  lab.enable_ldp();
  const auto report = lab.run(24);
  ASSERT_GT(report.global.mono_fec, 0u);
  EXPECT_GE(report.global.parallel_links, report.global.routers_disjoint);
}

TEST(GroundTruth, RsvpTeYieldsMultiFec) {
  topo::BuildParams p = base_params();
  p.uniform_costs = false;
  p.parallel_link_prob = 0.0;
  Lab lab(p);
  lab.enable_ldp();
  lab.enable_te(/*lsps_per_pair=*/3);
  const auto report = lab.run(24);
  ASSERT_GT(report.global.total(), 5u);
  // TE everywhere with >= 2 dests per pair: Multi-FEC dominates; no IOTP
  // may be classified as ECMP (there is none in this lab).
  EXPECT_GT(report.global.multi_fec, report.global.total() / 2);
  EXPECT_EQ(report.global.mono_fec, 0u);
}

TEST(GroundTruth, SingleTeLspPerPairLooksMonoLsp) {
  topo::BuildParams p = base_params();
  p.uniform_costs = false;
  p.parallel_link_prob = 0.0;
  Lab lab(p);
  lab.enable_ldp();
  lab.enable_te(/*lsps_per_pair=*/1);
  const auto report = lab.run(24);
  // One pinned LSP per pair: indistinguishable from Mono-LSP (the paper's
  // early-Vodafone situation).
  EXPECT_EQ(report.global.multi_fec, 0u);
  EXPECT_EQ(report.global.mono_lsp, report.global.total());
}

TEST(GroundTruth, NoPhpStillClassifiesCorrectly) {
  topo::BuildParams p = base_params();
  p.uniform_costs = true;
  p.heavy_cost_share = 0.0;
  p.parallel_link_prob = 0.3;
  Lab lab(p);
  lab.enable_ldp(/*php=*/false);
  const auto report = lab.run(24);
  ASSERT_GT(report.global.total(), 5u);
  EXPECT_EQ(report.global.multi_fec, 0u);
  // Without PHP the egress quotes its own label, so LSPs always share the
  // egress LER as a common IP: nothing can be Unclassified.
  EXPECT_EQ(report.global.unclassified, 0u);
}

}  // namespace
}  // namespace mum
